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
from .autodiff import DivergenceError, Tensor
from .model import answer_rows, build_masks, context_kv


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
        if self.lr_stage2 is None:
            object.__setattr__(self, "lr_stage2", self.lr_stage1 / 2)
        for name in ("lr_stage1", "lr_stage2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.steps_stage1 < 0 or self.steps_stage2 < 0:
            raise ValueError("step counts must be >= 0")
        if self.sink < 0 or self.window < 0:
            raise ValueError(f"sink and window must be >= 0, got {self.sink} and {self.window}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        lo, hi = self.seq_len_range
        if not 1 <= lo <= hi:
            raise ValueError(f"seq_len_range must be (lo, hi) with 1 <= lo <= hi, "
                             f"got {tuple(self.seq_len_range)}")


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
    def all_ones(cls, shape, r=1):
        return cls(bits=np.ones(shape, dtype=np.uint8), r=r, keep_ratio=1.0)


def round_half_up(x):
    return np.floor(x + 0.5)


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
    n_layers, n_heads, d = scores.shape
    if r > d:
        raise ValueError(f"alignment r={r} exceeds head dimension {d}")
    total = scores.size
    n_keep = int(round_half_up(keep_ratio * total))
    flat = scores.reshape(-1)
    order = np.lexsort((np.arange(total), -flat))  # by value desc, index asc
    selected = np.zeros(total, dtype=bool)
    selected[order[:n_keep]] = True
    provisional = selected.reshape(scores.shape).sum(axis=-1)
    d_cap = (d // r) * r
    bits = np.zeros_like(scores, dtype=np.uint8)
    for i in range(n_layers):
        for j in range(n_heads):
            n_aligned = min(int(round_half_up(provisional[i, j] / r)) * r, d_cap)
            if n_aligned == 0:
                continue
            head_order = np.lexsort((np.arange(d), -scores[i, j]))
            bits[i, j, head_order[:n_aligned]] = 1
    return BinaryChannelMask(bits=bits, r=r, keep_ratio=keep_ratio)


def top_s_r(alpha, keep_ratio, r):
    """Convert continuous factors to an aligned binary mask."""
    alpha = alpha.data if isinstance(alpha, Tensor) else alpha
    return select_mask(alpha, keep_ratio, r)


def stage1_loss(h_full, h_scaled, alpha, lam):
    """Squared-Frobenius distillation distance plus L1 shrinkage on alpha."""
    h_full_data = h_full.data if isinstance(h_full, Tensor) else np.asarray(h_full)
    if h_scaled.shape != h_full_data.shape:
        raise ad.ShapeError(f"hidden state shapes differ: {h_full_data.shape} vs {h_scaled.shape}")
    loss = ad.sum_squares(h_scaled - h_full_data)
    if lam:
        loss = loss + lam * ad.l1_norm(alpha)
    return loss


def _sample_lengths(rng, spec):
    lo, hi = spec.seq_len_range
    return int(rng.integers(lo, hi + 1))


def _distill_step(model, batch, factors, masks, lam, alpha):
    """Distillation loss of the answer rows, teacher and student sharing one
    context pass: the context rows are the same for both."""
    tokens = np.stack([s.tokens for s in batch])
    n_ans = len(batch[0].ans_tokens)
    ctx = context_kv(model, tokens, n_ans)
    teacher = answer_rows(model, ctx, tokens, n_ans)
    student = answer_rows(model, ctx, tokens, n_ans, factors, masks)
    return stage1_loss(teacher.data, student, alpha, lam)


def stage1_train(model, task_stream, spec, log=None):
    """Learn continuous scaling factors; model weights stay frozen.

    `task_stream(rng, seq_len)` returns an equal-length batch for one step.
    Returns (alpha ndarray, per-step losses).
    """
    model.set_trainable(False)
    alpha = Tensor(np.ones(model.config.factor_shape), requires_grad=True)
    opt = ad.Adam([alpha], lr=spec.lr_stage1)
    rng = np.random.default_rng(spec.seed)
    losses = []
    for step in range(spec.steps_stage1):
        batch = task_stream(rng, _sample_lengths(rng, spec))
        n_ans = len(batch[0].ans_tokens)
        n_ctx = len(batch[0].tokens) - n_ans
        masks = build_masks(n_ctx, n_ans, spec.sink, spec.window)
        loss = _distill_step(model, batch, alpha, masks, spec.lam, alpha)
        if not np.isfinite(loss.data):
            raise DivergenceError(step, float(loss.data))
        opt.zero_grad()
        loss.backward()
        opt.step()
        losses.append(float(loss.data))
        if log is not None:
            log(step, losses[-1])
    return alpha.data.copy(), losses


def stage2_train(model, task_stream, alpha, keep_ratio, r, spec, log=None):
    """Refine alpha under the binarized mask with a straight-through estimator.

    The mask is recomputed from alpha every step; forward uses the mask,
    backward treats binarization as identity. Returns (beta, alpha, losses).
    """
    model.set_trainable(False)
    alpha = Tensor(np.array(alpha, dtype=np.float64), requires_grad=True)
    opt = ad.Adam([alpha], lr=spec.lr_stage2)
    rng = np.random.default_rng(spec.seed + 1)
    losses = []
    for step in range(spec.steps_stage2):
        beta = top_s_r(alpha.data, keep_ratio, r)
        batch = task_stream(rng, _sample_lengths(rng, spec))
        n_ans = len(batch[0].ans_tokens)
        n_ctx = len(batch[0].tokens) - n_ans
        masks = build_masks(n_ctx, n_ans, spec.sink, spec.window)
        ste = alpha + (beta.bits.astype(np.float64) - alpha.data)
        loss = _distill_step(model, batch, ste, masks, 0.0, alpha)
        if not np.isfinite(loss.data):
            raise DivergenceError(step, float(loss.data))
        opt.zero_grad()
        loss.backward()
        opt.step()
        losses.append(float(loss.data))
        if log is not None:
            log(step, losses[-1])
    return top_s_r(alpha.data, keep_ratio, r), alpha.data.copy(), losses
