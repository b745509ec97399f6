"""Deployment-path inference through a partitioned, channel-pruned key cache.

`np_forward` (prefill) and `decode_step` run one numpy layer loop and differ
only in the attention step. Keys below `sink` and in the last `window`
positions are used full width, all others through their head's kept
channels; keys leaving the window are migrated to pruned stores in batches,
a pure storage event. Each layer packs its pruned middle into one
channel-major K store holding every head's kept channels and one V store,
so a decode step scores and reads the middle of all heads with one matmul
each. Heads with zero kept channels are streaming heads: their middle K and
V are dropped and they attend only to sink + window.
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


def _reserve(buf, size, axis=0):
    """`buf` if it holds `size` positions along `axis`, else a copy with room
    for twice as many."""
    if buf.shape[axis] >= size:
        return buf
    shape = list(buf.shape)
    shape[axis] = 2 * size
    grown = np.empty(shape)
    grown[(slice(None),) * axis + (slice(buf.shape[axis]),)] = buf
    return grown


class PartitionedKVCache:
    """Per-layer K/V stores partitioned by position.

    `k_full[i]`/`v_full[i]` (rows, n_kv, d) hold, in position order, the
    positions below `sink` and every later position not yet migrated: the
    `pending` ones, then the window. The `mid_tokens` migrated positions are
    packed into two stores per layer, one column per position in order.
    `k_mid[i]` (sum_j kept_ij, capacity) is channel-major: one row per
    (head, kept channel) pair, in head order. `v_mid[i]` (n_kept_heads,
    capacity, d) has one slab per non-streaming head. Streaming heads add no
    rows to either. Stores grow by doubling along the position axis, so only
    their leading positions are live; migration rebuilds the full store
    without the rows it moved.
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
        n_kv, g, d = config.n_kv_heads, config.group_size, config.head_dim
        full = (0, n_kv, d)
        self.k_full = [np.empty(full) for _ in range(config.n_layers)]
        self.v_full = [np.empty(full) for _ in range(config.n_layers)]
        self.k_mid, self.v_mid = [], []
        # per-layer tables, fixed by the mask
        self._k_gather = []  # flat (head * d + channel) of each k_mid row
        self._q_scatter = []  # (into a flat block-diagonal q, from a flat q) per k_mid row and g
        self._channel_mask = []  # (n_kv, 1, d): 1 on kept channels, 0 for streaming heads
        self._streaming_heads = []
        self._kept_heads = []  # v_mid's heads; a slice when no head streams, so a view
        for i, kept in enumerate(self.kept_channels):
            heads = np.repeat(np.arange(n_kv), [len(c) for c in kept])
            channels = np.concatenate(kept)
            q_rows = heads * g + np.arange(g)[:, None]  # (g, rows): the q rows of each row's head
            self._k_gather.append(heads * d + channels)
            self._q_scatter.append(((q_rows * len(heads) + np.arange(len(heads))).ravel(),
                                    (q_rows * d + channels).ravel()))
            mask = np.zeros((n_kv, 1, d))
            mask[heads, 0, channels] = 1.0
            self._channel_mask.append(mask)
            stream = np.flatnonzero(self.streaming[i])
            self._streaming_heads.append(stream)
            self._kept_heads.append(np.flatnonzero(np.logical_not(self.streaming[i]))
                                    if len(stream) else slice(None))
            self.k_mid.append(np.empty((len(heads), 0)))
            self.v_mid.append(np.empty((n_kv - len(stream), 0, d)))

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
        heads. Every head goes through each numpy call at once: pending keys
        are scored with q * mask, since (q * m) . k = q[kept] . k[kept], and
        the migrated middle by one GEMM of a block-diagonal q, whose row for
        a q head holds its kept channels under its KV head's k_mid rows.
        """
        c = self.config
        n_kv, n_q, d = c.n_kv_heads, c.n_q_heads, c.head_dim
        mid, n = self.mid_tokens, self.seq_len - self.mid_tokens
        lo, hi = self.sink, self.sink + self.pending  # full-store rows [lo, hi) are pending
        kf = self.k_full[i] = _reserve(self.k_full[i], n)
        vf = self.v_full[i] = _reserve(self.v_full[i], n)
        kf[n - 1], vf[n - 1] = k[0], v[0]
        qh = q[0].reshape(n_kv, c.group_size, d) * (1.0 / np.sqrt(d))
        s = np.empty((n_kv, c.group_size, mid + n))  # columns: migrated middle, then full store
        np.matmul(qh, kf[:n].transpose(1, 2, 0), out=s[..., mid:])
        if hi > lo:
            np.matmul(qh * self._channel_mask[i], kf[lo:hi].transpose(1, 2, 0),
                      out=s[..., mid + lo:mid + hi])
        if mid:
            rows = len(self._k_gather[i])
            into, frm = self._q_scatter[i]
            q_bd = np.zeros(n_q * rows)
            q_bd[into] = qh.ravel()[frm]
            np.matmul(q_bd.reshape(n_q, rows), self.k_mid[i][:, :mid],
                      out=s.reshape(n_q, mid + n)[:, :mid])
        stream = self._streaming_heads[i]
        if len(stream):
            s[stream, :, :mid] = s[stream, :, mid + lo:mid + hi] = -np.inf
        ad.softmax_(s)
        out = s[..., mid:] @ vf[:n].transpose(1, 0, 2)  # (n_kv, g, d)
        if mid and len(self.v_mid[i]):
            kept = self._kept_heads[i]
            out[kept] += s[kept, :, :mid] @ self.v_mid[i][:, :mid]
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
        km = cache.k_mid[i] = _reserve(cache.k_mid[i], mid + n, axis=1)
        vm = cache.v_mid[i] = _reserve(cache.v_mid[i], mid + n, axis=1)
        km[:, mid:mid + n] = kf[lo:lo + n].reshape(n, -1)[:, cache._k_gather[i]].T
        vm[:, mid:mid + n] = vf[lo:lo + n, cache._kept_heads[i]].transpose(1, 0, 2)
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
    total = len(tokens) + (0 if question is None else len(question)) + n_new
    if total > model.config.max_pos:
        raise ValueError(f"prompt, question and n_new need {total} positions, "
                         f"more than max_pos {model.config.max_pos}")
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
    if seq_len < 1 or bytes_per_element < 1:
        raise ValueError(f"need seq_len >= 1 and bytes_per_element >= 1, "
                         f"got {seq_len} and {bytes_per_element}")
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
