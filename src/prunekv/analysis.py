"""Measurement toolkit for channel and head importance.

Channel-norm importance ratios and their cross-task staticity, norm-based
static/dynamic pruning baselines, channel-pair frequency profiles, and
high-frequency-ratio head classification.
"""
from __future__ import annotations

import numpy as np

from .cache import np_forward
from .masking import BinaryChannelMask, round_half_up, select_mask, top_channels

DEFAULT_OBS_WINDOW = 64


def record_qk(model, sample):
    """Post-RoPE (q (T, n_q, d), k (T, n_kv, d)) per layer for one sample."""
    layers, _ = np_forward(model.weights_numpy(), model.config, sample.tokens, want_q=True,
                           rows=0)
    return [(q, k) for q, k, _ in layers]


def _head_blocks(model, sample, q_window):
    """(layer, KV head, pooled q (g * q_window, d), k (T, d), ||q k^T||_F) for
    every KV head; q pools the last `q_window` query rows of the head's group."""
    c = model.config
    layers = record_qk(model, sample)
    t = layers[0][0].shape[0]
    if q_window > t:
        raise ValueError(f"query window {q_window} exceeds sequence length {t}")
    for i, (q, k) in enumerate(layers):
        qw = q[t - q_window:]  # (w, n_q, d)
        for j in range(c.n_kv_heads):
            qj = qw[:, j * c.group_size:(j + 1) * c.group_size].reshape(-1, c.head_dim)
            kj = k[:, j]
            yield i, j, qj, kj, np.linalg.norm(qj @ kj.T)


def channel_norm_ratios(model, sample, obs_window=DEFAULT_OBS_WINDOW):
    """Frobenius-norm share of each key channel's logit contribution, as an
    (L, n_kv, d) array; a head whose logits are all zero scores 0.

    Queries are restricted to the last `obs_window` positions; each KV head
    pools the queries of all its group members.
    """
    values = np.zeros(model.config.factor_shape)
    for i, j, qj, kj, den in _head_blocks(model, sample, obs_window):
        if den != 0.0:
            # ||q_[ch] k_[ch]^T||_F = ||q_[ch]|| * ||k_[ch]|| for rank-1 outer products
            values[i, j] = np.linalg.norm(qj, axis=0) * np.linalg.norm(kj, axis=0) / den
    return values


def pearson(a, b):
    """Sample Pearson correlation coefficient."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape or a.size < 2:
        raise ValueError(f"need two equal-length vectors of size >= 2, got {a.size} and {b.size}")
    da, db = a - a.mean(), b - b.mean()
    va, vb = (da * da).sum(), (db * db).sum()
    if va == 0.0 or vb == 0.0:
        raise ValueError("pearson undefined for zero-variance input")
    return float((da * db).sum() / np.sqrt(va * vb))


def staticity_matrix(model, samples_by_label, obs_window=DEFAULT_OBS_WINDOW):
    """Pairwise Pearson matrix of channel-norm vectors across task variants.

    `samples_by_label` maps a label to a list of samples whose ratio vectors
    are averaged before correlating.
    """
    labels = list(samples_by_label)
    vectors = []
    for label in labels:
        vs = [channel_norm_ratios(model, s, obs_window).reshape(-1)
              for s in samples_by_label[label]]
        vectors.append(np.mean(vs, axis=0))
    n = len(labels)
    mat = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = pearson(vectors[i], vectors[j])
    return labels, mat, vectors


def static_norm_mask(model, samples, keep_ratio, r, obs_window=DEFAULT_OBS_WINDOW):
    """Offline mask from channel norms averaged over calibration samples."""
    if not samples:
        raise ValueError("need at least one calibration sample")
    mean = np.mean([channel_norm_ratios(model, s, obs_window) for s in samples], axis=0)
    return select_mask(mean, keep_ratio, r)


def dynamic_norm_mask(model, sample, keep_ratio, q_window):
    """Per-sample norm-based mask from the last `q_window` queries only; it
    keeps round(keep_ratio * d) channels in every head."""
    if q_window < 1:
        raise ValueError("q_window must be >= 1")
    c = model.config
    scores = channel_norm_ratios(model, sample, q_window)
    budget = int(round_half_up(keep_ratio * c.head_dim))
    return BinaryChannelMask(bits=top_channels(scores, budget), r=1, keep_ratio=keep_ratio)


def freq_profile(mask_or_values):
    """Mean retained ratio (or importance) per RoPE channel-pair index.

    Channel i pairs with i + d/2; pair index j aggregates both members
    across all layers and heads.
    """
    if isinstance(mask_or_values, BinaryChannelMask):
        values = mask_or_values.bits.astype(np.float64)
    else:
        values = np.asarray(mask_or_values, dtype=np.float64)
    d = values.shape[-1]
    if d % 2 != 0:
        raise ValueError(f"head dimension must be even, got {d}")
    half = d // 2
    flat = values.reshape(-1, d)
    return (flat[:, :half] + flat[:, half:]).mean(axis=0) / 2.0


def high_freq_ratio(model, sample, high_boundary=None):
    """Per-head (L, n_kv) ratio of logit norm carried by the high-frequency
    channels, for the last query row; a head whose logits are all zero scores 0.

    High frequency means the lowest `high_boundary` pair indices (both pair
    members). Defaults to half the pairs.
    """
    c = model.config
    d = c.head_dim
    if high_boundary is None:
        high_boundary = d // 4  # half of the d/2 pairs
    if not 0 < high_boundary < d // 2 + 1:
        raise ValueError(f"high_boundary must be in (0, {d // 2}], got {high_boundary}")
    high = np.concatenate([np.arange(high_boundary), d // 2 + np.arange(high_boundary)])
    w_hf = np.zeros((c.n_layers, c.n_kv_heads))
    for i, j, qj, kj, den in _head_blocks(model, sample, 1):
        if den != 0.0:
            w_hf[i, j] = np.linalg.norm(qj[:, high] @ kj[:, high].T) / den
    return w_hf


def convert_streaming_by_whf(w_hf, fraction):
    """The `fraction` of all heads with the highest w_hf, to force into
    streaming mode; ties break by (layer, head) index."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    flat = w_hf.reshape(-1)
    n = flat.size
    count = int(round_half_up(fraction * n))
    order = np.lexsort((np.arange(n), -flat))
    n_heads = w_hf.shape[1]
    return [(int(i // n_heads), int(i % n_heads)) for i in order[:count]]
