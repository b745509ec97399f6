"""One-pass numpy reference for decoding through a pruned key cache.

`region_logits` evaluates a whole sequence in one stateless pass. Rows of the
prompt attend with plain causal attention. Rows after the prompt use the
decode-time region rule: a key inside the sink or within `window` positions
of the query is used full width, any other key only through its head's kept
channels, and a head with no kept channels skips those keys and their values.
It shares no code with `prunekv.cache`, so it can check the engine's logits;
query rows are processed in blocks to bound memory at long contexts, and a
block scores only the keys up to its last row.
"""
from __future__ import annotations

import numpy as np


def _rms(x, w, eps=1e-6):
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps) * w


def _rope(x, base):
    """Rotate-half position encoding of x (T, heads, d) at positions 0..T-1."""
    t, _, d = x.shape
    half = d // 2
    ang = np.arange(t)[:, None] * base ** (-2.0 * np.arange(half) / d)[None, :]
    c, s = np.cos(ang)[:, None, :], np.sin(ang)[:, None, :]
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c], axis=-1)


def region_logits(weights, config, tokens, prompt_len, bits, sink, window, block=256):
    """Logits (T, vocab) of `tokens` under prefill-then-pruned-decode semantics."""
    c = config
    tokens = np.asarray(tokens)
    t, d, g = len(tokens), c.head_dim, c.group_size
    bits = np.asarray(bits, dtype=bool)
    pos = np.arange(t)
    scale = 1.0 / np.sqrt(d)
    x = weights["tok_emb"][tokens]
    for i in range(c.n_layers):
        h = _rms(x, weights[f"l{i}.attn_norm"])
        q = _rope((h @ weights[f"l{i}.wq"]).reshape(t, c.n_q_heads, d), c.rope_base)
        k = _rope((h @ weights[f"l{i}.wk"]).reshape(t, c.n_kv_heads, d), c.rope_base)
        v = (h @ weights[f"l{i}.wv"]).reshape(t, c.n_kv_heads, d)
        out = np.empty((t, c.n_q_heads, d))
        for lo in range(0, t, block):
            rows = pos[lo:lo + block]
            cols = pos[:rows[-1] + 1]  # no row of the block sees a later key
            causal = cols[None, :] <= rows[:, None]
            full_width = (cols[None, :] < sink) | (rows[:, None] - cols[None, :] < window)
            middle = causal & ~full_width & (rows >= prompt_len)[:, None]
            any_middle = middle.any()
            for j in range(c.n_kv_heads):
                kept = bits[i, j]
                qg = q[lo:lo + block, j * g:(j + 1) * g]  # (b, g, d)
                kj = k[:len(cols), j]
                scores = qg @ kj.T
                if kept.any():
                    allowed = causal
                    if any_middle:
                        scores = np.where(middle[:, None], qg[..., kept] @ kj[:, kept].T, scores)
                else:
                    allowed = causal & ~middle
                scores = np.where(allowed[:, None], scores * scale, -np.inf)
                scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
                out[lo:lo + block, j * g:(j + 1) * g] = (
                    scores / scores.sum(axis=-1, keepdims=True)) @ v[:len(cols), j]
        x = x + out.reshape(t, -1) @ weights[f"l{i}.wo"]
        h2 = _rms(x, weights[f"l{i}.ffn_norm"])
        gate = h2 @ weights[f"l{i}.w_gate"]
        x = x + (gate / (1.0 + np.exp(-gate)) * (h2 @ weights[f"l{i}.w_up"])) @ weights[f"l{i}.w_down"]
    return _rms(x, weights["final_norm"]) @ weights["lm_head"]
