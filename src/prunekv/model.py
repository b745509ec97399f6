"""A small frozen GQA transformer with RoPE.

Supports standard causal attention, the region-scaled attention used while
learning channel importance, and a pretraining mode so the model actually
performs retrieval before pruning. Region scaling changes only the answer
rows (they see the sink + local window full-width and a per-channel-scaled
middle, split by `cache.middle_end`), so the scaled pass runs just those
rows against the keys and values of one plain-numpy context pass, through
Tensor ops only for Tensor factors; at unit factors it is the unscaled pass,
bit for bit, so the plain-numpy distillation teacher is the same pass. One
layer body, `layers`, runs every pass: pretraining and mask learning on
Tensors, prefill and decode (`cache`) on ndarrays. Both training passes give
the one `autodiff.attention` node a score function and its operands.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import cache
from .autodiff import MASK_NEG, Tensor, check_int, is_real, rope_angles


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
        for name in ("n_layers", "n_q_heads", "n_kv_heads", "head_dim", "d_ff", "vocab_size",
                     "max_pos"):
            check_int(name, getattr(self, name))
        if not is_real(self.rope_base) or not self.rope_base > 0:
            raise ValueError(f"rope_base must be a positive number, got {self.rope_base!r}")
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


def param_shapes(config):
    """{name: shape} of every parameter of a model with `config`, in init order."""
    c = config
    d, d_q, d_kv = c.d_model, c.n_q_heads * c.head_dim, c.n_kv_heads * c.head_dim
    layer = {"attn_norm": (d,), "wq": (d, d_q), "wk": (d, d_kv), "wv": (d, d_kv), "wo": (d_q, d),
             "ffn_norm": (d,), "w_gate": (d, c.d_ff), "w_up": (d, c.d_ff), "w_down": (c.d_ff, d)}
    shapes = {"tok_emb": (c.vocab_size, d)}
    for i in range(c.n_layers):
        shapes.update({f"l{i}.{name}": shape for name, shape in layer.items()})
    shapes.update({"final_norm": (d,), "lm_head": (d, c.vocab_size)})
    return shapes


def _init_params(config, rng):
    c = config
    std = c.d_model ** -0.5
    stds = {"tok_emb": 0.02, "wo": std / np.sqrt(2 * c.n_layers),
            "w_down": c.d_ff ** -0.5 / np.sqrt(2 * c.n_layers)}
    p = {}
    for name, shape in param_shapes(c).items():
        kind = name.split(".")[-1]
        p[name] = (np.ones(shape) if kind.endswith("norm")
                   else rng.normal(0.0, stds.get(kind, std), shape))
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


def layers(w, config, x, start, attend):
    """Final-norm hidden states of x (..., T, d_model), the rows at positions
    start, start + 1, ..., after every layer.

    The one layer body of pretraining, mask learning, prefill and decode. `w`
    maps parameter names to Tensors or ndarrays; with ndarray x and weights
    every step is plain numpy. `attend(i, q, k, v)` is layer i's attention:
    it gets post-RoPE q (..., T, n_q, d) and k, v (..., T, n_kv, d) and
    returns (..., R, n_q * d) for the trailing R <= T rows; only those rows
    go on, so the result has R rows. Only the last layer's attend may answer
    fewer than T rows, as the next layer needs every row's k and v.
    """
    c = config
    rows = x.shape[:-1]
    q_shape, kv_shape = rows + (c.n_q_heads, c.head_dim), rows + (c.n_kv_heads, c.head_dim)
    cos, sin = rope_angles(c.head_dim, np.arange(start, start + rows[-1]), c.rope_base)
    cos, sin = cos[:, None], sin[:, None]  # broadcast over heads
    for i in range(c.n_layers):
        h = ad.rms_norm(x, w[f"l{i}.attn_norm"])
        q = ad.rope_rotate(ad.matmul(h, w[f"l{i}.wq"]).reshape(*q_shape), cos, sin)
        k = ad.rope_rotate(ad.matmul(h, w[f"l{i}.wk"]).reshape(*kv_shape), cos, sin)
        v = ad.matmul(h, w[f"l{i}.wv"]).reshape(*kv_shape)
        a = attend(i, q, k, v)
        if a.shape[-2] < x.shape[-2]:
            x = x[..., x.shape[-2] - a.shape[-2]:, :]
        x = x + ad.matmul(a, w[f"l{i}.wo"])
        h = ad.rms_norm(x, w[f"l{i}.ffn_norm"])
        x = x + ad.ffn(h, w[f"l{i}.w_gate"], w[f"l{i}.w_up"], w[f"l{i}.w_down"])
    return ad.rms_norm(x, w["final_norm"])


def _grouped(config, fn):
    """A `layers` attend for (B, T, heads, d) rows from `fn(i, q, k, v)`, which
    gets q (B, n_kv, g, T, d) and k, v (B, n_kv, 1, T, d), views of the rows,
    and returns q's shape."""
    c = config

    def attend(i, q, k, v):
        bsz, t, _, d = q.shape
        q, k, v = (a.reshape(bsz, t, c.n_kv_heads, -1, d).transpose(0, 2, 3, 1, 4) for a in (q, k, v))
        return fn(i, q, k, v).transpose(0, 3, 1, 2, 4).reshape(bsz, t, c.n_q_heads * d)

    return attend


def _forward(model, tokens):
    """Final-norm hidden states (B, T, d_model) of `tokens` (B, T) under full
    causal attention, through the model's Tensors."""
    c = model.config
    p = model.params
    t = tokens.shape[1]
    if t > c.max_pos:
        raise ValueError(f"sequence length {t} exceeds max_pos {c.max_pos}")
    additive = np.where(np.tril(np.ones((t, t), dtype=bool)), 0.0, MASK_NEG)
    scale = 1.0 / np.sqrt(c.head_dim)
    attend = _grouped(c, lambda i, q, k, v: ad.attention(
        operator.matmul, (q * scale, k.transpose(0, 1, 2, 4, 3)), v, additive))
    return layers(p, c, ad.embedding(p["tok_emb"], tokens), 0, attend)


def context_kv(model, tokens, n_ans):
    """Per-layer post-RoPE (K, V) of the context rows of `tokens` (B, T),
    all but the last `n_ans`, each (B, n_kv, 1, n_ctx, d).

    One plain-numpy `cache.np_forward` pass per sequence, with no graph:
    causal context rows never see the answer rows or the factors.
    """
    c = model.config
    n_ctx = tokens.shape[1] - n_ans
    if n_ctx < 1:
        raise ValueError(f"answer length {n_ans} leaves no context rows")
    w = model.weights_numpy()
    passes = [cache.np_forward(w, c, row[:n_ctx], rows=0)[0] for row in tokens]
    return [tuple(np.stack([kv[i][j] for kv in passes]).transpose(0, 2, 1, 3)[:, :, None]
                  for j in (0, 1)) for i in range(c.n_layers)]


def answer_rows(model, ctx, tokens, n_ans, factors, sink, window):
    """Final-norm hidden states (B, n_ans, d_model) of the last `n_ans` rows
    of `tokens` (B, T), attending to the `context_kv` keys and values `ctx`
    and to each other, region-scaled by `factors` (L, n_kv, d).

    Keys in a row's middle (`cache.middle_end` of the `sink`/`window`
    split), answer keys included, score with their channels scaled by the
    head's factors, all other keys at full width. The factors scale q, as
    (a * q) . k = q . (a * k), so the graph holds no (T, T) array: its scores
    and region masks are (B, n_kv, g, n_ans, T) and (n_ans, T). The weights
    are constants here; only `factors` can carry a gradient. With ndarray
    factors the pass is plain numpy and returns an ndarray. At unit factors
    every key scores exactly as under plain causal attention, which makes
    this the distillation teacher too.
    """
    c = model.config
    t = tokens.shape[1]
    if t > c.max_pos:
        raise ValueError(f"sequence length {t} exceeds max_pos {c.max_pos}")
    n_ctx, d = t - n_ans, c.head_dim
    if sink + window > n_ctx:
        raise ValueError(f"sink+window = {sink + window} exceeds context length {n_ctx}")
    if factors.shape != c.factor_shape:
        raise ad.ShapeError(f"factors shape {factors.shape} != {c.factor_shape}")
    pos, seen = np.arange(t), np.arange(n_ctx + 1, t + 1)  # answer row n - 1 sees n keys
    causal = pos < seen[:, None]
    end = np.array([cache.middle_end(n, sink, window) for n in seen])
    mid = (pos >= sink) & (pos < end[:, None])
    f_sl, f_mid = (causal & ~mid) / np.sqrt(d), mid / np.sqrt(d)
    w = model.weights_numpy()
    additive = np.where(causal, 0.0, MASK_NEG)

    def score(q, keys, f):
        return (q @ keys) * f_sl + ((q * f.reshape(1, c.n_kv_heads, 1, 1, d)) @ keys) * f_mid

    def attend(i, q, k, v):
        k_ctx, v_ctx = ctx[i]
        keys = ad.concat([k_ctx, k], axis=-2).transpose(0, 1, 2, 4, 3)
        return ad.attention(score, (q, keys, factors[i]), ad.concat([v_ctx, v], axis=-2), additive)

    return layers(w, c, w["tok_emb"][tokens[:, n_ctx:]], n_ctx, _grouped(c, attend))


def answer_loss(model, batch):
    """Mean cross-entropy of `batch`'s answer tokens under the model."""
    tokens = np.stack([np.concatenate([s.ctx_tokens, s.ans_tokens]) for s in batch])
    n_ans = len(batch[0].ans_tokens)
    t = tokens.shape[1]
    n_ctx = t - n_ans
    # position i predicts token i+1: answer tokens are predicted from rows
    # n_ctx-1 .. n_ctx+n_ans-2; the full (B, T, vocab) logits are freed once sliced
    flat = ((_forward(model, tokens) @ model.params["lm_head"])[:, n_ctx - 1:t - 1, :]
            .reshape(len(batch) * n_ans, model.config.vocab_size))
    return ad.cross_entropy(flat, tokens[:, n_ctx:].reshape(-1))


def pretrain(model, task_stream, steps, lr, seed=0, log=None):
    """Cross-entropy next-token training on answer tokens only.

    `task_stream(rng)` must return a batch of samples with equal context and
    answer lengths. Deterministic given the seed. Returns `(model, losses)`.
    """
    rng = np.random.default_rng(seed)
    model.set_trainable(True)
    losses = ad.fit(model.parameters(), lr, steps,
                    lambda step: answer_loss(model, task_stream(rng)), log)
    model.set_trainable(False)
    return model, losses
