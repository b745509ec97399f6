"""Learned static channel pruning of the attention key cache, desk scale.

A from-scratch autodiff engine drives a toy GQA transformer; per-channel
importance factors are learned with a distillation + L1 objective, binarized
into an aligned keep mask, and deployed through a partitioned KV cache that
stores middle-region keys at reduced width.
"""
from .autodiff import Adam, DivergenceError, ShapeError, Tensor
from .model import ModelConfig, ToyTransformer
from .masking import BinaryChannelMask, TrainSpec, select_mask, stage1_train, stage2_train, top_s_r
from .tasks import TaskSpec, TaskSample, generate, score
from .cache import (PartitionedKVCache, decode_step, greedy_decode, memory_report,
                    prefill_and_partition)
from .analysis import (channel_norm_ratios, dynamic_norm_mask, freq_profile,
                       high_freq_ratio, pearson, static_norm_mask, staticity_matrix)
from .experiment import ExperimentConfig
from .storage import load_beta, load_checkpoint, save_alpha, save_beta, save_checkpoint

__all__ = [
    "Adam", "DivergenceError", "ShapeError", "Tensor",
    "ModelConfig", "ToyTransformer",
    "BinaryChannelMask", "TrainSpec", "select_mask", "stage1_train", "stage2_train", "top_s_r",
    "TaskSpec", "TaskSample", "generate", "score",
    "PartitionedKVCache", "decode_step", "greedy_decode", "memory_report",
    "prefill_and_partition",
    "channel_norm_ratios", "dynamic_norm_mask", "freq_profile", "high_freq_ratio",
    "pearson", "static_norm_mask", "staticity_matrix",
    "ExperimentConfig",
    "load_beta", "load_checkpoint", "save_alpha", "save_beta", "save_checkpoint",
]

__version__ = "0.1.0"
