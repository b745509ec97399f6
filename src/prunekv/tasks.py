"""Deterministic generators for synthetic retrieval tasks.

Keys, values, and filler come from disjoint single-token ranges, so the
retrieval structure survives without a tokenizer. Every generator is a pure
function of its spec (seed included).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SEP_TOKEN = 1
VALUES_PER_KEY = 2  # multi_value answers
FILLER_RATIO = 0.3  # multi_value's share of filler

DENSE_RETRIEVAL = "dense_retrieval"
MULTI_VALUE = "multi_value"
NIAH_EVAL = "niah_eval"
COPY_REPEAT = "copy_repeat"
KINDS = (DENSE_RETRIEVAL, MULTI_VALUE, NIAH_EVAL, COPY_REPEAT)


@dataclass(frozen=True)
class TokenRanges:
    """Disjoint token id ranges carved out of the vocabulary."""

    keys: range
    values: range
    filler: range

    @classmethod
    def for_vocab(cls, vocab_size):
        if vocab_size < 16:
            raise ValueError(f"vocab too small: {vocab_size}")
        n = (vocab_size - 2) // 3
        return cls(keys=range(2, 2 + n), values=range(2 + n, 2 + 2 * n),
                   filler=range(2 + 2 * n, vocab_size))


@dataclass(frozen=True)
class TaskSpec:
    kind: str = DENSE_RETRIEVAL
    seq_len: int = 256
    seed: int = 0
    vocab_size: int = 512

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.seq_len < 8:
            raise ValueError(f"seq_len too short: {self.seq_len}")


@dataclass
class TaskSample:
    ctx_tokens: np.ndarray
    ans_tokens: np.ndarray
    query_key: int
    gold_values: list = field(default_factory=list)

    @property
    def tokens(self):
        return np.concatenate([self.ctx_tokens, self.ans_tokens])


def gen_dense_retrieval(spec):
    """Context is a dense run of (key, value) pairs; probe one key at the end."""
    rng = np.random.default_rng(spec.seed)
    ranges = TokenRanges.for_vocab(spec.vocab_size)
    max_pairs = (spec.seq_len - 3) // 2  # room for [SEP, key] probe and the answer
    n_pairs = min(max_pairs, len(ranges.keys), len(ranges.values))
    keys = rng.choice(np.asarray(ranges.keys), size=n_pairs, replace=False)
    values = rng.choice(np.asarray(ranges.values), size=n_pairs, replace=False)
    probe = int(rng.integers(n_pairs))
    ctx = np.empty(2 * n_pairs + 2, dtype=np.int64)
    ctx[0:2 * n_pairs:2] = keys
    ctx[1:2 * n_pairs:2] = values
    ctx[-2] = SEP_TOKEN
    ctx[-1] = keys[probe]
    ans = np.array([values[probe]], dtype=np.int64)
    return TaskSample(ctx_tokens=ctx, ans_tokens=ans,
                      query_key=int(keys[probe]), gold_values=[int(values[probe])])


def gen_multi_value(spec):
    """Keys bound to VALUES_PER_KEY values each, with FILLER_RATIO of the
    room left as filler distraction around the groups."""
    rng = np.random.default_rng(spec.seed)
    ranges = TokenRanges.for_vocab(spec.vocab_size)
    m = VALUES_PER_KEY
    budget = spec.seq_len - 2 - m  # room for [SEP, key] probe and the answer
    n_filler = int(budget * FILLER_RATIO)
    n_groups = min((budget - n_filler) // (1 + m), len(ranges.keys), len(ranges.values) // m)
    keys = rng.choice(np.asarray(ranges.keys), size=n_groups, replace=False)
    values = rng.choice(np.asarray(ranges.values), size=n_groups * m, replace=False).reshape(n_groups, m)
    groups = [np.concatenate([[keys[i]], values[i]]) for i in range(n_groups)]
    # spread filler into n_groups+1 slots around the groups
    cuts = np.sort(rng.integers(0, n_filler + 1, size=n_groups)) if n_filler else np.zeros(n_groups, dtype=int)
    parts = []
    prev = 0
    for i in range(n_groups):
        parts.append(rng.choice(np.asarray(ranges.filler), size=cuts[i] - prev))
        parts.append(groups[i])
        prev = cuts[i]
    parts.append(rng.choice(np.asarray(ranges.filler), size=n_filler - prev))
    probe = int(rng.integers(n_groups))
    parts.append(np.array([SEP_TOKEN, keys[probe]]))
    ctx = np.concatenate(parts).astype(np.int64)
    ans = values[probe].astype(np.int64)
    return TaskSample(ctx_tokens=ctx, ans_tokens=ans,
                      query_key=int(keys[probe]), gold_values=[int(v) for v in values[probe]])


def gen_niah_eval(spec):
    """One needle (key, value) pair buried in filler at a random depth."""
    rng = np.random.default_rng(spec.seed)
    ranges = TokenRanges.for_vocab(spec.vocab_size)
    body = spec.seq_len - 5  # the needle, the [SEP, key] probe and the answer
    # one-element draws, not scalar ones: they consume the stream differently
    key = rng.choice(np.asarray(ranges.keys), size=1, replace=False)[0]
    value = rng.choice(np.asarray(ranges.values), size=1, replace=False)[0]
    filler = rng.choice(np.asarray(ranges.filler), size=body)
    depth = rng.choice(body + 1, size=1, replace=False)[0]
    ctx = np.concatenate([filler[:depth], [key, value], filler[depth:], [SEP_TOKEN, key]])
    return TaskSample(ctx_tokens=ctx.astype(np.int64), ans_tokens=np.array([value], dtype=np.int64),
                      query_key=int(key), gold_values=[int(value)])


def gen_copy_repeat(spec):
    """A random token run followed by its exact repetition.

    Pure copying pressure: the second half is predictable only by matching
    each token against its earlier occurrence, which trains the content-based
    lookup circuit the retrieval tasks rely on.
    """
    rng = np.random.default_rng(spec.seed)
    m = spec.seq_len // 2
    w = rng.integers(2, spec.vocab_size, size=m).astype(np.int64)
    return TaskSample(ctx_tokens=w, ans_tokens=w.copy(),
                      query_key=int(w[0]), gold_values=w.tolist())


_GENERATORS = {
    DENSE_RETRIEVAL: gen_dense_retrieval,
    MULTI_VALUE: gen_multi_value,
    NIAH_EVAL: gen_niah_eval,
    COPY_REPEAT: gen_copy_repeat,
}


def generate(spec):
    return _GENERATORS[spec.kind](spec)


def score(predicted_tokens, sample):
    """Fraction of gold answer tokens matched in order."""
    gold = sample.ans_tokens
    if len(gold) == 0:
        return 1.0
    predicted_tokens = np.asarray(predicted_tokens)
    hits = sum(1 for i, g in enumerate(gold)
               if i < len(predicted_tokens) and predicted_tokens[i] == g)
    return hits / len(gold)
