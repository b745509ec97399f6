"""A small frozen GQA transformer with RoPE.

Supports standard causal attention, the region-scaled attention used while
learning channel importance (context rows attend fully; answer rows see the
sink + local window full-width and a per-channel-scaled middle region), and a
pretraining mode so the model actually performs retrieval before pruning.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

MASK_NEG = -1e30


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 4
    n_q_heads: int = 8
    n_kv_heads: int = 4
    head_dim: int = 16
    d_ff: int = 256
    vocab_size: int = 512
    rope_base: float = 10000.0
    max_pos: int = 2048

    def __post_init__(self):
        if self.head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even, got {self.head_dim}")
        if self.n_q_heads % self.n_kv_heads != 0:
            raise ValueError(f"n_q_heads={self.n_q_heads} not divisible by n_kv_heads={self.n_kv_heads}")

    @property
    def d_model(self):
        return self.n_q_heads * self.head_dim

    @property
    def group_size(self):
        return self.n_q_heads // self.n_kv_heads

    @property
    def factor_shape(self):
        return (self.n_layers, self.n_kv_heads, self.head_dim)


def rope_angles(head_dim, positions, base=10000.0):
    """(cos, sin) tables of shape (len(positions), head_dim // 2)."""
    if head_dim % 2 != 0:
        raise ValueError(f"head_dim must be even, got {head_dim}")
    positions = np.asarray(positions, dtype=np.float64)
    inv_freq = base ** (-2.0 * np.arange(head_dim // 2) / head_dim)
    ang = positions[:, None] * inv_freq[None, :]
    return np.cos(ang), np.sin(ang)


def apply_rope(x, positions, base=10000.0):
    """Rotate-half RoPE on an ndarray of shape (..., T, head_dim)."""
    x = np.asarray(x, dtype=np.float64)
    return ad.rotate_half(x, *rope_angles(x.shape[-1], positions, base))


@dataclass
class AttentionRegionMasks:
    """Boolean region predicates over (query position, key position)."""

    n_ctx: int
    n_ans: int
    sink: int
    window: int
    causal: np.ndarray = field(repr=False, default=None)
    s_plus_l: np.ndarray = field(repr=False, default=None)
    mid: np.ndarray = field(repr=False, default=None)

    @property
    def total(self):
        return self.n_ctx + self.n_ans


def build_masks(n_ctx, n_ans, sink, window):
    """Causal, sink+local, and middle region masks for a context/answer split."""
    if sink + window > n_ctx:
        raise ValueError(f"sink+window = {sink + window} exceeds context length {n_ctx}")
    t = n_ctx + n_ans
    q = np.arange(t)[:, None]
    k = np.arange(t)[None, :]
    causal = k <= q
    s_plus_l = causal & ((k < sink) | (q - k < window))
    mid = causal & ~s_plus_l
    return AttentionRegionMasks(n_ctx=n_ctx, n_ans=n_ans, sink=sink, window=window,
                                causal=causal, s_plus_l=s_plus_l, mid=mid)


def _init_params(config, rng):
    c = config
    d, std = c.d_model, c.d_model ** -0.5
    out_std = std / np.sqrt(2 * c.n_layers)
    p = {"tok_emb": rng.normal(0.0, 0.02, (c.vocab_size, d))}
    for i in range(c.n_layers):
        p[f"l{i}.attn_norm"] = np.ones(d)
        p[f"l{i}.wq"] = rng.normal(0.0, std, (d, c.n_q_heads * c.head_dim))
        p[f"l{i}.wk"] = rng.normal(0.0, std, (d, c.n_kv_heads * c.head_dim))
        p[f"l{i}.wv"] = rng.normal(0.0, std, (d, c.n_kv_heads * c.head_dim))
        p[f"l{i}.wo"] = rng.normal(0.0, out_std, (c.n_q_heads * c.head_dim, d))
        p[f"l{i}.ffn_norm"] = np.ones(d)
        p[f"l{i}.w_gate"] = rng.normal(0.0, std, (d, c.d_ff))
        p[f"l{i}.w_up"] = rng.normal(0.0, std, (d, c.d_ff))
        p[f"l{i}.w_down"] = rng.normal(0.0, c.d_ff ** -0.5 / np.sqrt(2 * c.n_layers), (c.d_ff, d))
    p["final_norm"] = np.ones(d)
    p["lm_head"] = rng.normal(0.0, std, (d, c.vocab_size))
    return {k: Tensor(v, requires_grad=True) for k, v in p.items()}


class ToyTransformer:
    """Frozen-after-pretraining GQA transformer over Tensor parameters."""

    def __init__(self, config, params):
        self.config = config
        self.params = params

    @classmethod
    def create(cls, config, seed=0):
        return cls(config, _init_params(config, np.random.default_rng(seed)))

    def parameters(self):
        return [self.params[k] for k in sorted(self.params)]

    def weights_numpy(self):
        return {k: v.data for k, v in self.params.items()}

    def set_trainable(self, flag):
        for p in self.params.values():
            p.requires_grad = flag


@dataclass
class ForwardRecord:
    """Activations from one forward pass.

    `h_last` is a Tensor (B, n_ans, d_model) of last-layer hidden states for
    the answer rows; `logits` covers all positions. `layers` holds detached
    post-RoPE (q, k, v) ndarrays per layer when recording was requested.
    """

    h_last: Tensor
    logits: Tensor
    n_ans: int
    layers: list


def _forward(model, tokens, n_ans, factors=None, masks=None, want_record=False):
    c = model.config
    p = model.params
    tokens = np.asarray(tokens)
    squeeze = tokens.ndim == 1
    if squeeze:
        tokens = tokens[None, :]
    bsz, t = tokens.shape
    if t > c.max_pos:
        raise ValueError(f"sequence length {t} exceeds max_pos {c.max_pos}")
    if n_ans < 0 or n_ans > t:
        raise ValueError(f"invalid answer length {n_ans} for sequence of {t}")
    n_ctx = t - n_ans
    d, g = c.head_dim, c.group_size

    if factors is not None:
        if masks is None:
            raise ValueError("scaled forward requires region masks")
        if masks.total != t:
            raise ValueError(f"masks built for length {masks.total}, input has {t}")
        if not isinstance(factors, Tensor):
            factors = Tensor(factors)
        if factors.shape != c.factor_shape:
            raise ad.ShapeError(f"factors shape {factors.shape} != {c.factor_shape}")

    q_pos = np.arange(t)
    cos, sin = rope_angles(d, q_pos, c.rope_base)
    causal = np.tril(np.ones((t, t), dtype=bool))
    additive = np.where(causal, 0.0, MASK_NEG)
    if factors is not None:
        # context-query rows keep full causal attention; only answer rows split
        f_sl = causal.astype(np.float64)
        f_mid = np.zeros((t, t))
        f_sl[n_ctx:] = masks.s_plus_l[n_ctx:]
        f_mid[n_ctx:] = masks.mid[n_ctx:]

    x = ad.embedding(p["tok_emb"], tokens)
    layers = []
    scale = 1.0 / np.sqrt(d)
    for i in range(c.n_layers):
        h = ad.rms_norm(x, p[f"l{i}.attn_norm"])
        q = (h @ p[f"l{i}.wq"]).reshape(bsz, t, c.n_q_heads, d).transpose(0, 2, 1, 3)
        k = (h @ p[f"l{i}.wk"]).reshape(bsz, t, c.n_kv_heads, d).transpose(0, 2, 1, 3)
        v = (h @ p[f"l{i}.wv"]).reshape(bsz, t, c.n_kv_heads, d).transpose(0, 2, 1, 3)
        q = ad.rope_rotate(q, cos, sin)
        k = ad.rope_rotate(k, cos, sin)
        if want_record:
            layers.append((q.data.copy(), k.data.copy(), v.data.copy()))
        qg = q.reshape(bsz, c.n_kv_heads, g, t, d)
        kb = k.reshape(bsz, c.n_kv_heads, 1, t, d)
        vb = v.reshape(bsz, c.n_kv_heads, 1, t, d)
        logits_full = (qg @ kb.transpose(0, 1, 2, 4, 3)) * scale
        if factors is not None:
            alpha_l = factors[i].reshape(1, c.n_kv_heads, 1, 1, d)
            ks = kb * alpha_l
            logits_mid = (qg @ ks.transpose(0, 1, 2, 4, 3)) * scale
            logits = logits_full * f_sl + logits_mid * f_mid
        else:
            logits = logits_full
        attn = ad.softmax(logits, additive_mask=additive)
        out = (attn @ vb).transpose(0, 3, 1, 2, 4).reshape(bsz, t, c.n_q_heads * d)
        x = x + out @ p[f"l{i}.wo"]
        h2 = ad.rms_norm(x, p[f"l{i}.ffn_norm"])
        x = x + (ad.silu(h2 @ p[f"l{i}.w_gate"]) * (h2 @ p[f"l{i}.w_up"])) @ p[f"l{i}.w_down"]

    h_final = ad.rms_norm(x, p["final_norm"])
    logits_out = h_final @ p["lm_head"]
    h_last = h_final[:, n_ctx:, :]
    if squeeze:
        h_last = h_last.reshape(n_ans, c.d_model)
        logits_out = logits_out.reshape(t, c.vocab_size)
    return ForwardRecord(h_last=h_last, logits=logits_out, n_ans=n_ans, layers=layers)


def forward_full(model, tokens, n_ans, want_record=False):
    """Standard causal full attention."""
    return _forward(model, tokens, n_ans, want_record=want_record)


def forward_scaled(model, tokens, n_ans, factors, masks, want_record=False):
    """Region-scaled attention: middle-region keys are scaled per channel."""
    return _forward(model, tokens, n_ans, factors=factors, masks=masks, want_record=want_record)


def pretrain(model, task_stream, steps, lr, seed=0, log=None):
    """Cross-entropy next-token training on answer tokens only.

    `task_stream(rng)` must return a batch of samples with equal context and
    answer lengths. Deterministic given the seed. Returns `model`.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = np.random.default_rng(seed)
    model.set_trainable(True)
    opt = ad.Adam(model.parameters(), lr=lr)
    losses = []
    for step in range(steps):
        batch = task_stream(rng)
        tokens = np.stack([np.concatenate([s.ctx_tokens, s.ans_tokens]) for s in batch])
        n_ans = len(batch[0].ans_tokens)
        n_ctx = tokens.shape[1] - n_ans
        rec = _forward(model, tokens, n_ans)
        # position i predicts token i+1: answer tokens are predicted from rows
        # n_ctx-1 .. n_ctx+n_ans-2
        pred_rows = rec.logits[:, n_ctx - 1:tokens.shape[1] - 1, :]
        flat = pred_rows.reshape(len(batch) * n_ans, model.config.vocab_size)
        targets = tokens[:, n_ctx:].reshape(-1)
        loss = ad.cross_entropy(flat, targets)
        if not np.isfinite(loss.data):
            raise ad.DivergenceError(step, float(loss.data))
        opt.zero_grad()
        loss.backward()
        opt.step()
        losses.append(float(loss.data))
        if log is not None:
            log(step, losses[-1])
    model.set_trainable(False)
    return model, losses
