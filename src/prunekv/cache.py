"""Deployment-path inference through a partitioned, channel-pruned key cache.

`np_forward` (prefill) and `decode_step` run one numpy layer loop and differ
only in the attention step. Keys below `sink` and in the last `window`
positions are used full width, all others through their head's kept
channels; keys leaving the window are migrated to pruned stores in batches,
a pure storage event. Heads with zero kept channels are streaming heads:
their middle K and V are dropped and they attend only to sink + window.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad

DEFAULT_MIGRATE_EVERY = 32
DEFAULT_BYTES_PER_ELEMENT = 2  # fp16 deployment accounting
PREFILL_BLOCK = 64  # query rows per prefill block; fastest of 32/64/128/256
_DIAGONAL_MASK = np.where(np.tril(np.ones((PREFILL_BLOCK, PREFILL_BLOCK), dtype=bool)),
                          0.0, ad.MASK_NEG)


def _check_tokens(tokens, config):
    tokens = np.asarray(tokens)
    if tokens.ndim != 1 or len(tokens) == 0 or not np.issubdtype(tokens.dtype, np.integer):
        raise ValueError("tokens must be a non-empty 1-d sequence of integer ids")
    bad = tokens[(tokens < 0) | (tokens >= config.vocab_size)]
    if len(bad):
        raise ValueError(f"token ids must be in [0, {config.vocab_size}), got {bad.tolist()}")
    return tokens


def _layer_loop(w, config, tokens, start, attend):
    """Logits (T, vocab) of `tokens` at positions start, start + 1, ...

    `attend(i, q, k, v)` is layer i's attention: it gets post-RoPE q
    (T, n_q, d) and k, v (T, n_kv, d) and returns (T, n_q * d).
    """
    c = config
    t, d = len(tokens), c.head_dim
    cos, sin = ad.rope_angles(d, np.arange(start, start + t), c.rope_base)
    cos, sin = cos[:, None], sin[:, None]  # broadcast over heads
    x = w["tok_emb"][tokens]
    for i in range(c.n_layers):
        h = ad.rms_norm_fwd(x, w[f"l{i}.attn_norm"])[0]
        q = ad.rotate_half((h @ w[f"l{i}.wq"]).reshape(t, c.n_q_heads, d), cos, sin)
        k = ad.rotate_half((h @ w[f"l{i}.wk"]).reshape(t, c.n_kv_heads, d), cos, sin)
        v = (h @ w[f"l{i}.wv"]).reshape(t, c.n_kv_heads, d)
        x = x + attend(i, q, k, v) @ w[f"l{i}.wo"]
        h = ad.rms_norm_fwd(x, w[f"l{i}.ffn_norm"])[0]
        x = x + (ad.silu_fwd(h @ w[f"l{i}.w_gate"])[0] * (h @ w[f"l{i}.w_up"])) @ w[f"l{i}.w_down"]
    return ad.rms_norm_fwd(x, w["final_norm"])[0] @ w["lm_head"]


def np_forward(weights, config, tokens, want_q=False):
    """Plain-numpy causal attention forward over a prompt, row-blocked.

    Returns (per-layer list, logits (T, vocab)). Each layer entry is
    (k, v) of shape (T, n_kv, d) post-RoPE, plus the unscaled q (T, n_q, d)
    if requested. Query rows go in blocks of `PREFILL_BLOCK`: block
    [lo, hi) scores only keys [0, hi), which hold every key its rows can
    see, so each block's plain softmax is exact and the score buffer is
    (n_kv, g, PREFILL_BLOCK, hi), not (T, T). Mask learning's context pass
    (`model.context_kv`) runs it too.
    """
    c = config
    tokens = np.asarray(tokens)
    t = len(tokens)
    if t > c.max_pos:
        raise ValueError(f"sequence length {t} exceeds max_pos {c.max_pos}")
    layers = []

    def attend(i, q, k, v):
        layers.append((q, k, v) if want_q else (k, v))
        qh = (q * (1.0 / np.sqrt(c.head_dim))).transpose(1, 0, 2).reshape(
            c.n_kv_heads, c.group_size, t, c.head_dim)
        kt, vh = k.transpose(1, 2, 0)[:, None], v.transpose(1, 0, 2)[:, None]
        out = np.empty((t, c.n_kv_heads, c.group_size, c.head_dim))
        rows = out.transpose(1, 2, 0, 3)  # (n_kv, g, T, d) view of out
        for lo in range(0, t, PREFILL_BLOCK):
            hi = min(lo + PREFILL_BLOCK, t)
            s = qh[:, :, lo:hi] @ kt[..., :hi]
            s[..., lo:] += _DIAGONAL_MASK[:hi - lo, :hi - lo]  # causal only on the diagonal
            np.matmul(ad.softmax_(s), vh[:, :, :hi], out=rows[:, :, lo:hi])
        return out.reshape(t, -1)

    logits = _layer_loop(weights, c, tokens, 0, attend)
    return layers, logits


def _reserve(buf, rows):
    """`buf` if it has `rows` rows, else a copy with room for twice as many."""
    if len(buf) >= rows:
        return buf
    grown = np.empty((2 * rows,) + buf.shape[1:])
    grown[:len(buf)] = buf
    return grown


class PartitionedKVCache:
    """Per-layer K/V stores partitioned by position.

    `k_full[i]`/`v_full[i]` (rows, n_kv, d) hold, in position order, the
    positions below `sink` and every later position not yet migrated: the
    `pending` ones, then the window. `k_mid[i][j]` (rows, kept) and
    `v_mid[i][j]` (rows, d) hold head j's `mid_tokens` migrated positions
    with K pruned to its kept channels; streaming heads keep them empty.
    Stores grow by doubling, so only their leading rows are live; migration
    rebuilds the full store without the rows it moved.
    """

    def __init__(self, config, beta, sink, window, migrate_every=DEFAULT_MIGRATE_EVERY,
                 forced_streaming=()):
        bits = np.asarray(beta.bits)
        if bits.shape != config.factor_shape:
            raise ValueError(f"mask shape {bits.shape} != model {config.factor_shape}")
        if sink < 0 or window < 0 or migrate_every < 1:
            raise ValueError(f"need sink >= 0, window >= 0 and migrate_every >= 1, "
                             f"got {sink}, {window} and {migrate_every}")
        forced = set(forced_streaming)
        self.streaming = [[not bits[i, j].any() or (i, j) in forced
                           for j in range(config.n_kv_heads)] for i in range(config.n_layers)]
        if sink + window == 0 and any(map(any, self.streaming)):
            raise ValueError("streaming heads need sink + window >= 1 key to attend to")
        self.kept_channels = [[np.empty(0, dtype=np.int64) if stream else np.flatnonzero(head)
                               for head, stream in zip(bits[i], self.streaming[i])]
                              for i in range(config.n_layers)]
        self.config, self.sink, self.window, self.migrate_every = config, sink, window, migrate_every
        self.seq_len = 0
        self.mid_tokens = 0  # positions migrated to the pruned stores
        full = (0, config.n_kv_heads, config.head_dim)
        self.k_full = [np.empty(full) for _ in range(config.n_layers)]
        self.v_full = [np.empty(full) for _ in range(config.n_layers)]
        self.k_mid = [[np.empty((0, len(kept))) for kept in row] for row in self.kept_channels]
        self.v_mid = [[np.empty((0, config.head_dim)) for _ in row] for row in self.kept_channels]

    @property
    def pending(self):
        """Positions that have left the window but are still stored full width."""
        return max(0, self.seq_len - self.sink - self.window) - self.mid_tokens

    def stored_k_elements(self):
        c = self.config
        full = c.n_layers * c.n_kv_heads * c.head_dim * (self.seq_len - self.mid_tokens)
        return full + self.mid_tokens * sum(len(kept) for row in self.kept_channels for kept in row)

    def stored_v_elements(self):
        c = self.config
        kept_heads = sum(not stream for row in self.streaming for stream in row)
        return c.head_dim * (c.n_layers * c.n_kv_heads * (self.seq_len - self.mid_tokens)
                             + kept_heads * self.mid_tokens)

    def _attend(self, i, q, k, v):
        """Layer i's attention for the newest token, at position seq_len - 1.

        Stores its k, v, then scores every key by position: full width in
        the sink and window, through the head's kept channels in the middle
        (migrated or pending), and not at all in the middle for streaming
        heads.
        """
        c = self.config
        g, d = c.group_size, c.head_dim
        mid, n = self.mid_tokens, self.seq_len - self.mid_tokens
        lo, hi = self.sink, self.sink + self.pending  # full-store rows [lo, hi) are pending
        kf = self.k_full[i] = _reserve(self.k_full[i], n)
        vf = self.v_full[i] = _reserve(self.v_full[i], n)
        kf[n - 1], vf[n - 1] = k[0], v[0]
        qh = q[0].reshape(c.n_kv_heads, g, d)
        s = np.empty((c.n_kv_heads, g, mid + n))  # columns: migrated middle, then full store
        np.matmul(qh, kf[:n].transpose(1, 2, 0), out=s[..., mid:])
        for j, kept in enumerate(self.kept_channels[i]):
            if self.streaming[i][j]:
                s[j, :, :mid] = s[j, :, mid + lo:mid + hi] = -np.inf
            else:
                qk = qh[j][:, kept]
                np.matmul(qk, self.k_mid[i][j][:mid].T, out=s[j, :, :mid])
                np.matmul(qk, kf[lo:hi, j][:, kept].T, out=s[j, :, mid + lo:mid + hi])
        s *= 1.0 / np.sqrt(d)
        ad.softmax_(s)
        out = s[..., mid:] @ vf[:n].transpose(1, 0, 2)  # (n_kv, g, d)
        for j, stream in enumerate(self.streaming[i]):
            if not stream:
                out[j] += s[j, :, :mid] @ self.v_mid[i][j][:mid]
        return out.reshape(1, -1)


def prefill_and_partition(model, beta, tokens, sink, window,
                          migrate_every=DEFAULT_MIGRATE_EVERY, forced_streaming=()):
    """Full causal attention prefill, then a cache partitioned by position.

    The middle positions [sink, len(tokens) - window) all migrate at once to
    the pruned stores; the others stay full width, so a prompt shorter than
    sink + window leaves the pruned stores empty. Raises ValueError for a
    mask of the wrong shape, a negative sink or window, `migrate_every` < 1,
    or token ids outside [0, vocab_size). Returns (cache, logits of the last
    prompt position).
    """
    cache = PartitionedKVCache(model.config, beta, sink, window, migrate_every, forced_streaming)
    tokens = _check_tokens(tokens, model.config)
    layers, logits = np_forward(model.weights_numpy(), model.config, tokens)
    cache.k_full = [k for k, _ in layers]  # every position full width, then migrate
    cache.v_full = [v for _, v in layers]
    cache.seq_len = len(tokens)
    _migrate(cache, cache.pending)
    return cache, logits[-1]


def _migrate(cache, n):
    """Move the first `n` pending positions to the pruned stores."""
    if n == 0:
        return cache
    lo, mid, rows = cache.sink, cache.mid_tokens, cache.seq_len - cache.mid_tokens
    for i in range(cache.config.n_layers):
        kf, vf = cache.k_full[i], cache.v_full[i]
        for j, kept in enumerate(cache.kept_channels[i]):
            if not cache.streaming[i][j]:
                km = cache.k_mid[i][j] = _reserve(cache.k_mid[i][j], mid + n)
                vm = cache.v_mid[i][j] = _reserve(cache.v_mid[i][j], mid + n)
                km[mid:mid + n] = kf[lo:lo + n, j][:, kept]
                vm[mid:mid + n] = vf[lo:lo + n, j]
        cache.k_full[i] = np.concatenate([kf[:lo], kf[lo + n:rows]])  # compact: no dead rows
        cache.v_full[i] = np.concatenate([vf[:lo], vf[lo + n:rows]])
    cache.mid_tokens += n
    return cache


def migrate_window(cache):
    """Move pending positions, in whole batches of `migrate_every`, to the
    pruned stores; a no-op while fewer than that are pending."""
    return _migrate(cache, cache.pending // cache.migrate_every * cache.migrate_every)


def decode_step(model, cache, token):
    """One decoding step through the partitioned cache; returns vocab logits."""
    c = model.config
    if cache.config is not c and cache.config != c:
        raise ValueError("cache was built for a different model config")
    tokens = _check_tokens([token], c)
    if cache.seq_len >= c.max_pos:
        raise ValueError(f"position {cache.seq_len} exceeds max_pos {c.max_pos}")
    cache.seq_len += 1
    logits = _layer_loop(model.weights_numpy(), c, tokens, cache.seq_len - 1, cache._attend)
    migrate_window(cache)
    return logits[0]


def greedy_decode(model, tokens, n_new, beta, sink, window,
                  migrate_every=DEFAULT_MIGRATE_EVERY, forced_streaming=(),
                  collect_logits=False, question=None):
    """Prefill then greedily decode `n_new` tokens through the engine.

    `question` tokens, if given, are fed through the decode path after the
    prefill (context cached first, the query arrives later), so even the
    first generated token attends the pruned cache.
    """
    if n_new < 0:
        raise ValueError(f"n_new must be >= 0, got {n_new}")
    cache, last_logits = prefill_and_partition(model, beta, tokens, sink, window,
                                               migrate_every, forced_streaming)
    out, logit_trace = [], []
    logits = last_logits
    if question is not None:
        for tok in np.asarray(question):
            logits = decode_step(model, cache, int(tok))
    for _ in range(n_new):
        nxt = int(np.argmax(logits))
        out.append(nxt)
        logits = decode_step(model, cache, nxt)
        if collect_logits:
            logit_trace.append(logits)
    return np.array(out, dtype=np.int64), logit_trace, cache


@dataclass
class MemoryReport:
    bytes_k_baseline: int
    bytes_k_pruned: int
    bytes_v_baseline: int
    bytes_v_pruned: int
    k_reduction_fraction: float
    v_reduction_fraction: float

    def as_dict(self):
        return asdict(self)


def memory_report(beta, config, seq_len, sink, window,
                  bytes_per_element=DEFAULT_BYTES_PER_ELEMENT):
    """Cache footprint of the pruned layout vs a full-width baseline."""
    c = config
    d = c.head_dim
    counts = beta.kept_counts()
    mid = max(0, seq_len - sink - window)
    full_width_tokens = seq_len - mid
    baseline = c.n_layers * c.n_kv_heads * seq_len * d * bytes_per_element
    k_pruned = (c.n_layers * c.n_kv_heads * full_width_tokens * d
                + int(counts.sum()) * mid) * bytes_per_element
    n_streaming = int((counts == 0).sum())
    v_pruned = baseline - n_streaming * mid * d * bytes_per_element
    return MemoryReport(
        bytes_k_baseline=baseline,
        bytes_k_pruned=k_pruned,
        bytes_v_baseline=baseline,
        bytes_v_pruned=v_pruned,
        k_reduction_fraction=1.0 - k_pruned / baseline,
        v_reduction_fraction=1.0 - v_pruned / baseline,
    )
