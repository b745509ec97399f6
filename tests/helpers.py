"""Independent reference implementations used as test oracles.

Everything here is written with explicit loops and its own math, on purpose:
these functions re-derive the transformer forward pass and the pruned
attention semantics from first principles so the package code has something
genuinely independent to be checked against. The one exception is
`kept_probs_attention`, a copy of an earlier attention node, kept so the
node that replaced it can be checked bit for bit against it.
"""
import numpy as np

import prunekv.autodiff as ad


def ref_softmax(z):
    z = z - np.max(z)
    e = np.exp(z)
    return e / e.sum()


def ref_rope_vec(x, pos, base):
    """Rotate-half position encoding of a single head vector."""
    d = len(x)
    out = np.empty(d)
    for i in range(d // 2):
        theta = pos * base ** (-2.0 * i / d)
        c, s = np.cos(theta), np.sin(theta)
        out[i] = x[i] * c - x[i + d // 2] * s
        out[i + d // 2] = x[i] * s + x[i + d // 2] * c
    return out


def ref_rms(x, w, eps=1e-6):
    return x / np.sqrt(np.mean(x * x) + eps) * w


def ref_silu(x):
    return x / (1.0 + np.exp(-x))


def finite_difference_gradient(f, x, eps=1e-5):
    """Central-difference gradient of scalar function `f` at ndarray `x`."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(x))
        flat[i] = orig - eps
        lo = float(f(x))
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def ref_full_key(p, k, sink, window):
    """Whether the query at position p scores the key at position k <= p at
    full width: k is in the sink or the local window. Other keys are its
    middle."""
    return (k < sink) | (p - k < window)


def reference_forward(weights, config, tokens, prompt_len=None, bits=None,
                      sink=0, window=0, streaming=()):
    """Token-by-token stateless forward pass; returns logits (T, vocab).

    Rows below `prompt_len` attend with plain causal attention. Rows at or
    past it attend with region semantics: keys inside the sink or within
    `window` positions are used full-width, all other keys only through the
    head's kept channels (`bits` (L, n_kv, d)); heads in `streaming` (or with
    no kept channels) skip the middle keys and values entirely.
    """
    c = config
    tokens = np.asarray(tokens)
    t = len(tokens)
    if prompt_len is None:
        prompt_len = t
    d, g = c.head_dim, c.group_size
    streaming = set(streaming)
    x = np.stack([weights["tok_emb"][tok] for tok in tokens])
    for li in range(c.n_layers):
        h = np.stack([ref_rms(x[p], weights[f"l{li}.attn_norm"]) for p in range(t)])
        q = np.stack([[ref_rope_vec((h[p] @ weights[f"l{li}.wq"])[hd * d:(hd + 1) * d], p, c.rope_base)
                       for hd in range(c.n_q_heads)] for p in range(t)])
        k = np.stack([[ref_rope_vec((h[p] @ weights[f"l{li}.wk"])[hd * d:(hd + 1) * d], p, c.rope_base)
                       for hd in range(c.n_kv_heads)] for p in range(t)])
        v = np.stack([[(h[p] @ weights[f"l{li}.wv"])[hd * d:(hd + 1) * d]
                       for hd in range(c.n_kv_heads)] for p in range(t)])
        attn_out = np.zeros((t, c.n_q_heads * d))
        for p in range(t):
            key_pos = np.arange(p + 1)
            full_key = ref_full_key(p, key_pos, sink, window)
            for qh in range(c.n_q_heads):
                kv = qh // g
                keys, vals = k[:p + 1, kv], v[:p + 1, kv]
                if p < prompt_len or bits is None:
                    scores = keys @ q[p, qh] / np.sqrt(d)
                else:
                    kept = np.where(bits[li, kv])[0]
                    if len(kept) == 0 or (li, kv) in streaming:
                        keys, vals = keys[full_key], vals[full_key]
                        scores = keys @ q[p, qh] / np.sqrt(d)
                    else:
                        scores = np.where(full_key,
                                          keys @ q[p, qh],
                                          keys[:, kept] @ q[p, qh][kept]) / np.sqrt(d)
                probs = ref_softmax(scores)
                attn_out[p, qh * d:(qh + 1) * d] = probs @ vals
        x = x + attn_out @ weights[f"l{li}.wo"]
        for p in range(t):
            h2 = ref_rms(x[p], weights[f"l{li}.ffn_norm"])
            x[p] = x[p] + (ref_silu(h2 @ weights[f"l{li}.w_gate"])
                           * (h2 @ weights[f"l{li}.w_up"])) @ weights[f"l{li}.w_down"]
    return np.stack([ref_rms(x[p], weights["final_norm"]) @ weights["lm_head"]
                     for p in range(t)])


def reference_scaled_forward(weights, config, tokens, n_ans, factors, sink, window):
    """Full-sequence region-scaled forward pass of one sequence.

    Every row is computed. Context rows (all but the last `n_ans`) attend
    causally at full width. An answer row at position p scores a key at
    position k <= p at full width when k < sink or p - k < window, and
    otherwise through the key scaled channel-wise by its head's `factors`
    (L, n_kv, d): q . (factors * k). Returns (final-norm hidden states
    (T, d_model), logits (T, vocab), per layer (q (n_q, T, d), k (n_kv, T,
    d), v (n_kv, T, d)) post-RoPE).
    """
    c = config
    tokens = np.asarray(tokens)
    t, d, g = len(tokens), c.head_dim, c.group_size
    pos = np.arange(t)
    causal = pos[None, :] <= pos[:, None]
    full_key = ref_full_key(pos[:, None], pos[None, :], sink, window)
    scaled_key = causal & ~full_key & (pos[:, None] >= t - n_ans)
    x = weights["tok_emb"][tokens]
    layers = []
    for li in range(c.n_layers):
        h = np.stack([ref_rms(row, weights[f"l{li}.attn_norm"]) for row in x])

        def heads(name, n, rope):
            out = (h @ weights[f"l{li}.{name}"]).reshape(t, n, d).transpose(1, 0, 2)
            if rope:
                out = np.array([[ref_rope_vec(vec, p, c.rope_base) for p, vec in enumerate(head)]
                                for head in out])
            return out

        q = heads("wq", c.n_q_heads, True)
        k, v = heads("wk", c.n_kv_heads, True), heads("wv", c.n_kv_heads, False)
        layers.append((q, k, v))
        attn_out = np.zeros((t, c.n_q_heads * d))
        for qh in range(c.n_q_heads):
            kv = qh // g
            scores = np.where(scaled_key, q[qh] @ (k[kv] * factors[li, kv]).T, q[qh] @ k[kv].T)
            scores = np.where(causal, scores / np.sqrt(d), -np.inf)
            probs = np.stack([ref_softmax(row) for row in scores])
            attn_out[:, qh * d:(qh + 1) * d] = probs @ v[kv]
        x = x + attn_out @ weights[f"l{li}.wo"]
        for p in range(t):
            h2 = ref_rms(x[p], weights[f"l{li}.ffn_norm"])
            x[p] = x[p] + (ref_silu(h2 @ weights[f"l{li}.w_gate"])
                           * (h2 @ weights[f"l{li}.w_up"])) @ weights[f"l{li}.w_down"]
    hidden = np.stack([ref_rms(row, weights["final_norm"]) for row in x])
    return hidden, hidden @ weights["lm_head"], layers


def reference_greedy_decode(weights, config, prompt, n_new, bits, sink, window,
                            streaming=()):
    """Stateless pruned greedy decoding; returns (tokens, per-step logits)."""
    seq = np.asarray(prompt)
    out, logit_trace = [], []
    logits = reference_forward(weights, config, seq)[-1]
    for _ in range(n_new):
        nxt = int(np.argmax(logits))
        out.append(nxt)
        seq = np.concatenate([seq, [nxt]])
        logits = reference_forward(weights, config, seq, prompt_len=len(prompt),
                                   bits=bits, sink=sink, window=window,
                                   streaming=streaming)[-1]
        logit_trace.append(logits)
    return np.array(out), logit_trace


def brute_force_select(scores, keep_ratio, r):
    """Oracle for global top-fraction + per-head alignment selection."""
    scores = np.asarray(scores, dtype=np.float64)
    n_layers, n_heads, d = scores.shape
    total = scores.size
    n_keep = int(np.floor(keep_ratio * total + 0.5))
    ranked = sorted(range(total), key=lambda i: (-scores.reshape(-1)[i], i))
    chosen = set(ranked[:n_keep])
    bits = np.zeros_like(scores, dtype=np.uint8)
    for i in range(n_layers):
        for j in range(n_heads):
            prov = sum(1 for ch in range(d) if i * n_heads * d + j * d + ch in chosen)
            n_aligned = int(np.floor(prov / r + 0.5)) * r
            n_aligned = min(n_aligned, (d // r) * r)
            head_rank = sorted(range(d), key=lambda ch: (-scores[i, j, ch], ch))
            for ch in head_rank[:n_aligned]:
                bits[i, j, ch] = 1
    return bits


def brute_force_channel_ratios(q, k, group_size):
    """Per-channel Frobenius share oracle; q (T, n_q, d), k (T, n_kv, d)."""
    t, n_kv, d = k.shape
    out = np.zeros((n_kv, d))
    for j in range(n_kv):
        qj = q[:, j * group_size:(j + 1) * group_size].reshape(-1, d)
        full = np.zeros((qj.shape[0], t))
        per_ch = []
        for ch in range(d):
            contrib = np.outer(qj[:, ch], k[:, j, ch])
            full += contrib
            per_ch.append(contrib)
        den = np.sqrt((full ** 2).sum())
        if den == 0.0:
            continue
        for ch in range(d):
            out[j, ch] = np.sqrt((per_ch[ch] ** 2).sum()) / den
    return out


def brute_force_pearson(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    am, bm = a.mean(), b.mean()
    num = ((a - am) * (b - bm)).sum()
    return num / np.sqrt(((a - am) ** 2).sum() * ((b - bm) ** 2).sum())


def kept_probs_attention(scores, v, additive_mask):
    """softmax(scores + additive_mask) @ v as the attention node was before it
    recomputed the probabilities: it keeps them for backward. Same shapes and
    gradients as `autodiff.attention` over scores built by ordinary ops."""
    scores, v = ad._lift(scores), ad._lift(v)
    p = ad.softmax_(scores.data + additive_mask)
    ns, nv = ad._grad_node(scores), ad._grad_node(v)
    v_data = v.data if ns else None

    def bwd(grad):
        if nv:
            ad._accum(nv, (np.swapaxes(p, -1, -2) @ grad).sum(axis=-3, keepdims=True))
        if ns:
            ds = grad @ np.swapaxes(v_data, -1, -2)
            for ds_r, p_r in zip(ds, p):
                ds_r -= (ds_r * p_r).sum(axis=-1, keepdims=True)
            ds *= p
            ad._accum(ns, ds)

    return ad._node(p @ v.data, (ns, nv), bwd)
