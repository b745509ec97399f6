"""Two-stage learning of a static channel-pruning mask for the key cache.

Stage 1 learns continuous per-channel scaling factors under a distillation
loss with L1 shrinkage. Stage 2 converts them to an aligned binary mask via
global top-fraction selection with per-head alignment rounding, then refines
the factors through a straight-through estimator with the mask recomputed
every step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import answer_rows, check_int, context_kv, is_real


@dataclass(frozen=True)
class TrainSpec:
    lam: float = 0.06
    lr_stage1: float = 0.02
    lr_stage2: float = None  # defaults to lr_stage1 / 2
    steps_stage1: int = 200
    steps_stage2: int = 40
    sink: int = 16
    window: int = 64
    seq_len_range: tuple = (256, 2048)
    batch: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.lr_stage2 is None and is_real(self.lr_stage1):
            object.__setattr__(self, "lr_stage2", self.lr_stage1 / 2)
        for name in ("lr_stage1", "lr_stage2"):
            value = getattr(self, name)
            if not (is_real(value) and 0 < value < np.inf):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if not (is_real(self.lam) and 0 <= self.lam < np.inf):
            raise ValueError(f"lam must be a finite number >= 0, got {self.lam!r}")
        for name in ("steps_stage1", "steps_stage2", "sink", "window", "seed"):
            check_int(name, getattr(self, name), low=0)
        check_int("batch", self.batch)
        span = self.seq_len_range
        if not isinstance(span, (list, tuple)) or len(span) != 2:
            raise ValueError(f"seq_len_range must be a pair (lo, hi), got {span!r}")
        for v in span:
            check_int("seq_len_range", v)
        if span[0] > span[1]:
            raise ValueError(f"seq_len_range must be (lo, hi) with 1 <= lo <= hi, got {tuple(span)}")
        object.__setattr__(self, "seq_len_range", tuple(span))


@dataclass
class BinaryChannelMask:
    """Deployable 0/1 channel-keep mask, alignment-constrained per head."""

    bits: np.ndarray  # (L, n_kv, d) uint8
    r: int
    keep_ratio: float

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 3:
            raise ValueError(f"mask must be 3-d, got shape {self.bits.shape}")
        if self.r < 1:
            raise ValueError(f"alignment must be >= 1, got {self.r}")
        bad = np.argwhere(self.kept_counts() % self.r != 0)
        if len(bad):
            lay, head = bad[0]
            raise ValueError(f"head ({lay},{head}) keeps {self.kept_counts()[lay, head]} "
                             f"channels, not a multiple of r={self.r}")

    def kept_counts(self):
        return self.bits.sum(axis=-1).astype(np.int64)

    def streaming_heads(self):
        return [(int(i), int(j)) for i, j in np.argwhere(self.kept_counts() == 0)]

    def keep_fraction(self):
        return float(self.bits.mean())

    @classmethod
    def all_ones(cls, shape):
        return cls(bits=np.ones(shape, dtype=np.uint8), r=1, keep_ratio=1.0)


def round_half_up(x):
    return np.floor(x + 0.5)


def top_channels(scores, counts):
    """0/1 bits keeping the `counts[..., h]` highest entries of each row
    `scores[..., h, :]`, ties going to the lower index."""
    order = np.argsort(-scores, axis=-1, kind="stable")  # by value desc, index asc
    ranks = np.argsort(order, axis=-1)
    return (ranks < np.asarray(counts)[..., None]).astype(np.uint8)


def select_mask(scores, keep_ratio, r):
    """Global top-fraction selection with per-head alignment rounding.

    Step 1: keep the top `keep_ratio` fraction of all entries by value, ties
    broken by flat index ascending. Step 2: per head, round the provisional
    count to the nearest multiple of `r` (halves up, clamped to d) and re-take
    that head's top channels by score.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 3:
        raise ValueError(f"scores must be (L, n_kv, d), got {scores.shape}")
    if not 0.0 <= keep_ratio <= 1.0:
        raise ValueError(f"keep_ratio must be in [0, 1], got {keep_ratio}")
    if r < 1:
        raise ValueError(f"alignment must be >= 1, got {r}")
    d = scores.shape[-1]
    if r > d:
        raise ValueError(f"alignment r={r} exceeds head dimension {d}")
    n_keep = int(round_half_up(keep_ratio * scores.size))
    provisional = top_channels(scores.reshape(-1), n_keep).reshape(scores.shape).sum(axis=-1)
    n_aligned = np.minimum(round_half_up(provisional / r) * r, (d // r) * r)
    return BinaryChannelMask(bits=top_channels(scores, n_aligned), r=r, keep_ratio=keep_ratio)


top_s_r = select_mask  # the paper's name for turning learned factors into the mask


def stage1_loss(h_full, h_scaled, alpha, lam):
    """Squared-Frobenius distillation distance plus L1 shrinkage on alpha."""
    h_full = np.asarray(h_full)
    if h_scaled.shape != h_full.shape:
        raise ad.ShapeError(f"hidden state shapes differ: {h_full.shape} vs {h_scaled.shape}")
    loss = ad.sum_squares(h_scaled - h_full)
    if lam:
        loss = loss + lam * ad.l1_norm(alpha)
    return loss


def _distill_loss(model, task_stream, rng, spec, factors, lam, alpha):
    """Distillation loss of one batch's answer rows under `factors`, with L1
    weight `lam` on `alpha`. Teacher and student share one context pass: the
    context rows are the same for both. The teacher is the same pass at unit
    factors, an ndarray, so it runs in plain numpy and builds no graph."""
    lo, hi = spec.seq_len_range
    batch = task_stream(rng, int(rng.integers(lo, hi + 1)))
    tokens = np.stack([s.tokens for s in batch])
    n_ans = len(batch[0].ans_tokens)
    ctx = context_kv(model, tokens, n_ans)
    teacher = answer_rows(model, ctx, tokens, n_ans, np.ones(model.config.factor_shape),
                          spec.sink, spec.window)
    student = answer_rows(model, ctx, tokens, n_ans, factors, spec.sink, spec.window)
    return stage1_loss(teacher, student, alpha, lam)


def stage1_train(model, task_stream, spec, log=None):
    """Learn continuous scaling factors; model weights stay frozen.

    `task_stream(rng, seq_len)` returns an equal-length batch for one step.
    Returns (alpha ndarray, per-step losses).
    """
    alpha = Tensor(np.ones(model.config.factor_shape), requires_grad=True)
    rng = np.random.default_rng(spec.seed)
    losses = ad.fit([alpha], spec.lr_stage1, spec.steps_stage1, lambda step: _distill_loss(
        model, task_stream, rng, spec, alpha, spec.lam, alpha), log)
    return alpha.data.copy(), losses


def stage2_train(model, task_stream, alpha, keep_ratio, r, spec, log=None):
    """Refine alpha under the binarized mask with a straight-through estimator.

    The mask is recomputed from alpha every step; forward uses the mask,
    backward treats binarization as identity. Returns (beta, alpha, losses).
    """
    alpha = Tensor(np.array(alpha, dtype=np.float64), requires_grad=True)
    rng = np.random.default_rng(spec.seed + 1)

    def step_loss(step):
        bits = top_s_r(alpha.data, keep_ratio, r).bits.astype(np.float64)
        return _distill_loss(model, task_stream, rng, spec, alpha + (bits - alpha.data), 0.0, alpha)

    losses = ad.fit([alpha], spec.lr_stage2, spec.steps_stage2, step_loss, log)
    return top_s_r(alpha.data, keep_ratio, r), alpha.data.copy(), losses
