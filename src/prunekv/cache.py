"""Deployment-path inference through a partitioned, channel-pruned key cache.

`np_forward` (prefill) and `decode_step` run the model's one layer body,
`model.layers`, on numpy rows and differ only in the attention step; prefill
runs it once per chunk of `PREFILL_CHUNK` prompt rows. Keys in
a query's middle (`middle_end`, the one region rule) are used through their
head's kept channels, all others full width; keys leaving the window are
migrated to pruned stores in batches, a pure storage event. Each layer packs
its pruned middle into one channel-major K store holding every head's kept
channels and one V store, so a decode step scores and reads the middle of
all heads with one matmul each. Heads with zero kept channels are
streaming heads: their middle K and V are dropped and they attend only to
sink + window.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import model as model_mod

DEFAULT_MIGRATE_EVERY = 32
DEFAULT_BYTES_PER_ELEMENT = 2  # fp16 deployment accounting
PREFILL_BLOCK = 64  # query rows per prefill block; fastest of 32/64/128/256
# prompt rows per pass of the layer stack; a multiple of PREFILL_BLOCK, so the
# chunks keep one pass's row blocks. Against one pass (2 vCPU), 64-row chunks
# made prefill 1.08-1.18x slower at T = 252-609, 256-row ones 0.98-1.08x
PREFILL_CHUNK = 256
_DIAGONAL_MASK = np.where(np.tril(np.ones((PREFILL_BLOCK, PREFILL_BLOCK), dtype=bool)),
                          0.0, ad.MASK_NEG)


def middle_end(n, sink, window):
    """The one region rule: a query that sees `n` keys has the middle
    [sink, end); the others are its sink and local window."""
    return max(sink, n - window)


def _check_tokens(tokens, config):
    tokens = np.asarray(tokens)
    if tokens.ndim != 1 or len(tokens) == 0 or not np.issubdtype(tokens.dtype, np.integer):
        raise ValueError("tokens must be a non-empty 1-d sequence of integer ids")
    bad = tokens[(tokens < 0) | (tokens >= config.vocab_size)]
    if len(bad):
        raise ValueError(f"token ids must be in [0, {config.vocab_size}), got {bad.tolist()}")
    return tokens


def _chunks(t):
    """[lo, hi) of each prefill chunk. A 1-row remainder joins the chunk
    before it: numpy sums a 1-row product differently from the same row of
    a larger one, so every other chunk gives the one-pass bits."""
    cuts = list(range(0, t, PREFILL_CHUNK)) + [t]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return zip(cuts[:-1], cuts[1:])


def np_forward(weights, config, tokens, want_q=False, rows=None):
    """Plain-numpy causal attention forward over a prompt, chunked and row-blocked.

    Returns (per-layer list, logits (rows, vocab) of the trailing `rows`
    positions; every position if `rows` is None). Each layer entry is (k, v)
    of shape (T, n_kv, d) post-RoPE, plus the unscaled q (T, n_q, d) if
    requested; these cover every position whatever `rows` is. The layer
    stack runs once per chunk of `PREFILL_CHUNK` rows (`_chunks`), each
    chunk's attention writing its k and v into the layer's (T, n_kv, d)
    buffers, so activations and FFN temporaries are bounded by the chunk,
    not by T. The last layer's attention, FFN and `lm_head` run only for the
    trailing `rows` positions, as nothing else reads them. Query rows go in
    blocks of `PREFILL_BLOCK`: block [lo, hi) scores only keys [0, hi),
    which hold every key its rows can see, so each block's plain softmax is
    exact and the score buffer is (n_kv, g, PREFILL_BLOCK, hi), not (T, T).
    For `rows` in None, 0 and 1 the result is the one-pass result bit for
    bit. Mask learning's context pass (`model.context_kv`) and
    `analysis.record_qk` run it too, with `rows=0`. Raises ValueError for
    token ids outside [0, vocab_size).
    """
    c = config
    tokens = _check_tokens(tokens, c)
    t = len(tokens)
    if t > c.max_pos:
        raise ValueError(f"sequence length {t} exceeds max_pos {c.max_pos}")
    if rows is None:
        rows = t
    if not 0 <= rows <= t:
        raise ValueError(f"rows must be in [0, {t}], got {rows}")
    heads = ((c.n_q_heads,) if want_q else ()) + (c.n_kv_heads, c.n_kv_heads)
    layers = [tuple(np.empty((t, n, c.head_dim)) for n in heads) for _ in range(c.n_layers)]
    off, hs = t - rows, []  # positions [off, t) get logits

    def attend(i, q, k, v):  # rows [lo, hi) of layer i
        *rest, kb, vb = layers[i]
        kb[lo:hi], vb[lo:hi] = k, v
        if want_q:
            rest[0][lo:hi] = q
        first = ans if i == c.n_layers - 1 else lo  # earlier layers feed every row on
        qh = (q[first - lo:] * (1.0 / np.sqrt(c.head_dim))).transpose(1, 0, 2).reshape(
            c.n_kv_heads, c.group_size, hi - first, c.head_dim)
        kt, vh = kb.transpose(1, 2, 0)[:, None], vb.transpose(1, 0, 2)[:, None]
        out = np.empty((hi - first, c.n_kv_heads, c.group_size, c.head_dim))
        blocks = out.transpose(1, 2, 0, 3)  # (n_kv, g, hi - first, d) view of out
        for b_lo in range(first, hi, PREFILL_BLOCK):
            b_hi = min(b_lo + PREFILL_BLOCK, hi)
            s = qh[:, :, b_lo - first:b_hi - first] @ kt[..., :b_hi]
            s[..., b_lo:] += _DIAGONAL_MASK[:b_hi - b_lo, :b_hi - b_lo]  # causal only on the diagonal
            np.matmul(ad.softmax_(s), vh[:, :, :b_hi],
                      out=blocks[:, :, b_lo - first:b_hi - first])
        return out.reshape(hi - first, c.d_model)

    for lo, hi in _chunks(t):
        ans = min(hi, max(lo, off))  # the chunk's answered rows are [ans, hi)
        hs.append(model_mod.layers(weights, c, weights["tok_emb"][tokens[lo:hi]], lo, attend))
    return layers, np.concatenate(hs) @ weights["lm_head"]  # once the chunks' temporaries are gone


def _reserve(buf, size, limit, axis=0):
    """`buf` if it holds `size` positions along `axis`, else a copy with room
    for twice as many, or for `limit`, the most it can ever hold, if fewer."""
    if buf.shape[axis] >= size:
        return buf
    shape = list(buf.shape)
    shape[axis] = min(2 * size, limit)
    grown = np.empty(shape)
    grown[(slice(None),) * axis + (slice(buf.shape[axis]),)] = buf
    return grown


class PartitionedKVCache:
    """Per-layer K/V stores partitioned by position.

    `k_full[i]`/`v_full[i]` (rows, n_kv, d) hold, in position order, the
    positions below `sink` and every later position not yet migrated: the
    `pending` ones, then the window. The `mid_tokens` migrated positions are
    packed into two stores per layer, one column per position in order.
    `k_mid[i]` (counts[i].sum(), capacity) is channel-major: one row per
    kept (head, channel) bit of the mask, in head order. `v_mid[i]`
    (n_kept_heads, capacity, d) has one slab per non-streaming head. A
    streaming head, one whose mask row is all zeros, adds no rows to either.
    Stores grow by doubling along the position axis, so only their leading
    positions are live, but never past the most positions they can hold
    under max_pos: max_pos - sink - window for the pruned stores. Migration
    rebuilds the full store without the rows it moved.
    """

    def __init__(self, config, beta, sink, window, migrate_every=DEFAULT_MIGRATE_EVERY):
        bits = np.asarray(beta.bits)
        if bits.shape != config.factor_shape:
            raise ValueError(f"mask shape {bits.shape} != model {config.factor_shape}")
        for name, value, low in (("sink", sink, 0), ("window", window, 0),
                                 ("migrate_every", migrate_every, 1)):
            model_mod.check_int(name, value, low)
        counts = self.counts = beta.kept_counts()  # (L, n_kv) kept channels per head
        if sink + window == 0 and not counts.all():
            raise ValueError("streaming heads need sink + window >= 1 key to attend to")
        self.config, self.sink, self.window, self.migrate_every = config, sink, window, migrate_every
        self.seq_len = 0
        self.mid_tokens = 0  # positions migrated to the pruned stores
        n_kv, g, d = config.n_kv_heads, config.group_size, config.head_dim
        full = (0, n_kv, d)
        self.k_full = [np.empty(full) for _ in range(config.n_layers)]
        self.v_full = [np.empty(full) for _ in range(config.n_layers)]
        # per-layer tables, fixed by the mask
        self._k_gather = [np.flatnonzero(b) for b in bits]  # k_mid rows: flat head * d + channel
        self._channel_mask = bits[:, :, None].astype(np.float64)  # (L, n_kv, 1, d)
        self._streaming_heads = [np.flatnonzero(row == 0) for row in counts]
        # v_mid's heads: a slice when no head streams, so a view
        self._kept_heads = [slice(None) if row.all() else np.flatnonzero(row) for row in counts]
        self._q_scatter = []  # (into a flat block-diagonal q, from a flat q) per k_mid row and g
        for gather in self._k_gather:
            heads, channels = np.divmod(gather, d)
            q_rows = heads * g + np.arange(g)[:, None]  # (g, rows): the q rows of each row's head
            self._q_scatter.append(((q_rows * len(gather) + np.arange(len(gather))).ravel(),
                                    (q_rows * d + channels).ravel()))
        self.k_mid = [np.empty((len(gather), 0)) for gather in self._k_gather]
        self.v_mid = [np.empty((np.count_nonzero(row), 0, d)) for row in counts]

    @property
    def pending(self):
        """Positions that have left the window but are still stored full width."""
        return middle_end(self.seq_len, self.sink, self.window) - self.sink - self.mid_tokens

    def stored_k_elements(self):
        return stored_elements(self.counts, self.config.head_dim, self.seq_len - self.mid_tokens,
                               self.mid_tokens)[0]

    def stored_v_elements(self):
        return stored_elements(self.counts, self.config.head_dim, self.seq_len - self.mid_tokens,
                               self.mid_tokens)[1]

    def _attend(self, i, q, k, v):
        """Layer i's attention for the newest token, at position seq_len - 1.

        Stores its k, v, then scores every key by its region (`middle_end`):
        through the head's kept channels in the middle (migrated or
        pending), not at all there for streaming heads, full width
        elsewhere. Every head goes through each numpy call at once: pending
        keys are scored with q * mask, since (q * m) . k = q[kept] . k[kept],
        and the migrated middle by one GEMM of a block-diagonal q, whose row
        for a q head holds its kept channels under its KV head's k_mid rows.
        """
        c = self.config
        n_kv, n_q, d = c.n_kv_heads, c.n_q_heads, c.head_dim
        mid, n = self.mid_tokens, self.seq_len - self.mid_tokens
        lo, hi = self.sink, self.sink + self.pending  # full-store rows [lo, hi) are pending
        kf = self.k_full[i] = _reserve(self.k_full[i], n, c.max_pos - mid)
        vf = self.v_full[i] = _reserve(self.v_full[i], n, c.max_pos - mid)
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


def prefill_and_partition(model, beta, tokens, sink, window, migrate_every=DEFAULT_MIGRATE_EVERY):
    """Full causal attention prefill, then a cache partitioned by position.

    The last position's middle (`middle_end`) migrates at once to the pruned
    stores; the others stay full width, so a prompt shorter than sink +
    window leaves the pruned stores empty. Raises ValueError for a mask of
    the wrong shape, a sink or window that is not an int >= 0, a
    `migrate_every` that is not an int >= 1, or token ids outside [0,
    vocab_size). Returns (cache, logits of the last prompt position).
    """
    cache = PartitionedKVCache(model.config, beta, sink, window, migrate_every)
    layers, logits = np_forward(model.weights_numpy(), model.config, tokens, rows=1)
    cache.k_full = [k for k, _ in layers]  # every position full width, then migrate
    cache.v_full = [v for _, v in layers]
    cache.seq_len = len(tokens)
    _migrate(cache, cache.pending)
    return cache, logits[0]


def _migrate(cache, n):
    """Move the first `n` pending positions to the pruned stores."""
    if n == 0:
        return cache
    lo, mid, rows = cache.sink, cache.mid_tokens, cache.seq_len - cache.mid_tokens
    limit = cache.config.max_pos - cache.sink - cache.window  # the most middle positions
    for i in range(cache.config.n_layers):
        kf, vf = cache.k_full[i], cache.v_full[i]
        km = cache.k_mid[i] = _reserve(cache.k_mid[i], mid + n, limit, axis=1)
        vm = cache.v_mid[i] = _reserve(cache.v_mid[i], mid + n, limit, axis=1)
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
    w = model.weights_numpy()
    h = model_mod.layers(w, c, w["tok_emb"][tokens], cache.seq_len - 1, cache._attend)
    migrate_window(cache)
    return (h @ w["lm_head"])[0]


def greedy_decode(model, tokens, n_new, beta, sink, window,
                  migrate_every=DEFAULT_MIGRATE_EVERY, collect_logits=False, question=None):
    """Prefill then greedily decode `n_new` tokens through the engine.

    `question` tokens, if given, are fed through the decode path after the
    prefill (context cached first, the query arrives later), so even the
    first generated token attends the pruned cache. The last generated token
    is fed to the cache only with `collect_logits`, which records its
    logits; otherwise the returned cache ends one position before it.
    """
    model_mod.check_int("n_new", n_new, 0)
    total = len(tokens) + (0 if question is None else len(question)) + n_new
    if total > model.config.max_pos:
        raise ValueError(f"prompt, question and n_new need {total} positions, "
                         f"more than max_pos {model.config.max_pos}")
    cache, last_logits = prefill_and_partition(model, beta, tokens, sink, window, migrate_every)
    out, logit_trace = [], []
    logits = last_logits
    if question is not None:
        for tok in np.asarray(question):
            logits = decode_step(model, cache, int(tok))
    for step in range(n_new):
        nxt = int(np.argmax(logits))
        out.append(nxt)
        if collect_logits or step < n_new - 1:  # nothing reads the last token's logits
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


def stored_elements(counts, head_dim, full, mid):
    """(K, V) elements a cache stores for `full` full-width positions and
    `mid` pruned ones, given the kept channels per head `counts` (L, n_kv):
    a pruned position keeps a head's kept K channels, and its V only for
    heads that keep any."""
    k = counts.size * head_dim * full + int(counts.sum()) * mid
    v = head_dim * (counts.size * full + int(np.count_nonzero(counts)) * mid)
    return k, v


def memory_report(beta, config, seq_len, sink, window,
                  bytes_per_element=DEFAULT_BYTES_PER_ELEMENT):
    """Cache footprint of the pruned layout vs a full-width baseline."""
    for name, value, low in (("seq_len", seq_len, 1), ("sink", sink, 0), ("window", window, 0),
                             ("bytes_per_element", bytes_per_element, 1)):
        model_mod.check_int(name, value, low)
    c = config
    if beta.bits.shape != c.factor_shape:
        raise ValueError(f"mask shape {beta.bits.shape} != model factor shape {c.factor_shape}")
    mid = middle_end(seq_len, sink, window) - sink
    k, v = stored_elements(beta.kept_counts(), c.head_dim, seq_len - mid, mid)
    baseline = c.n_layers * c.n_kv_heads * seq_len * c.head_dim * bytes_per_element
    k_pruned, v_pruned = k * bytes_per_element, v * bytes_per_element
    return MemoryReport(
        bytes_k_baseline=baseline,
        bytes_k_pruned=k_pruned,
        bytes_v_baseline=baseline,
        bytes_v_pruned=v_pruned,
        k_reduction_fraction=1.0 - k_pruned / baseline,
        v_reduction_fraction=1.0 - v_pruned / baseline,
    )
