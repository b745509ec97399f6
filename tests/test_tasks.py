"""Task generator structure, determinism, and scoring checks."""
import numpy as np
import pytest

from prunekv import tasks
from prunekv.tasks import SEP_TOKEN, TaskSpec, TokenRanges


def test_token_ranges_disjoint_and_cover():
    r = TokenRanges.for_vocab(512)
    assert set(r.keys).isdisjoint(r.values)
    assert set(r.keys).isdisjoint(r.filler)
    assert set(r.values).isdisjoint(r.filler)
    assert SEP_TOKEN not in r.keys and SEP_TOKEN not in r.values and SEP_TOKEN not in r.filler
    with pytest.raises(ValueError):
        TokenRanges.for_vocab(8)


def test_spec_validation():
    with pytest.raises(ValueError):
        TaskSpec(kind="nope")
    with pytest.raises(ValueError):
        TaskSpec(seq_len=4)


def test_dense_retrieval_structure():
    spec = TaskSpec(kind=tasks.DENSE_RETRIEVAL, seq_len=64, seed=11)
    s = tasks.generate(spec)
    r = TokenRanges.for_vocab(spec.vocab_size)
    ctx = s.ctx_tokens
    assert len(ctx) + len(s.ans_tokens) <= spec.seq_len
    assert ctx[-2] == SEP_TOKEN and ctx[-1] == s.query_key
    # scan the pair region and confirm the probed key maps to the gold value
    pairs = {int(ctx[i]): int(ctx[i + 1]) for i in range(0, len(ctx) - 2, 2)}
    assert pairs[s.query_key] == s.gold_values[0] == s.ans_tokens[0]
    assert all(k in r.keys and v in r.values for k, v in pairs.items())
    assert len(set(pairs)) == len(pairs)


def test_multi_value_structure():
    spec = TaskSpec(kind=tasks.MULTI_VALUE, seq_len=96, seed=12)
    s = tasks.generate(spec)
    ctx = s.ctx_tokens
    r = TokenRanges.for_vocab(spec.vocab_size)
    assert ctx[-2] == SEP_TOKEN and ctx[-1] == s.query_key
    assert len(s.ans_tokens) == tasks.VALUES_PER_KEY == 2 and list(s.ans_tokens) == s.gold_values
    # find the probed key in the body; its next 2 tokens are the gold values
    body = ctx[:-2]
    pos = [i for i, tok in enumerate(body) if tok == s.query_key]
    assert len(pos) == 1
    np.testing.assert_array_equal(body[pos[0] + 1:pos[0] + 3], s.ans_tokens)
    assert any(tok in r.filler for tok in body)


def test_niah_structure_and_fixed_depth():
    spec = TaskSpec(kind=tasks.NIAH_EVAL, seq_len=128, seed=13)
    s = tasks.generate(spec)
    ctx = s.ctx_tokens
    r = TokenRanges.for_vocab(spec.vocab_size)
    assert len(ctx) + len(s.ans_tokens) == spec.seq_len
    assert ctx[-2] == SEP_TOKEN and ctx[-1] == s.query_key
    # one needle: a single key in the body, followed by its value, the rest filler
    keys = [i for i, tok in enumerate(ctx[:-2]) if tok in r.keys]
    assert len(keys) == 1 and ctx[keys[0]] == s.query_key
    assert ctx[keys[0] + 1] == s.ans_tokens[0] == s.gold_values[0]
    assert sum(tok in r.filler for tok in ctx[:-2]) == len(ctx) - 4


def test_generators_deterministic():
    for kind in tasks.KINDS:
        a = tasks.generate(TaskSpec(kind=kind, seq_len=64, seed=99))
        b = tasks.generate(TaskSpec(kind=kind, seq_len=64, seed=99))
        np.testing.assert_array_equal(a.tokens, b.tokens)
        c = tasks.generate(TaskSpec(kind=kind, seq_len=64, seed=100))
        assert not np.array_equal(a.tokens, c.tokens)


def test_score_counts_in_order():
    s = tasks.generate(TaskSpec(kind=tasks.MULTI_VALUE, seq_len=96, seed=3))
    gold = s.ans_tokens
    assert tasks.score(gold, s) == 1.0
    assert tasks.score(gold[::-1], s) in (0.0, 1.0)  # only 1.0 if palindromic
    assert tasks.score([gold[0], -1], s) == 0.5
    assert tasks.score([], s) == 0.0


def test_copy_repeat_structure():
    s = tasks.generate(TaskSpec(kind=tasks.COPY_REPEAT, seq_len=40, seed=5))
    assert len(s.ctx_tokens) == len(s.ans_tokens) == 20
    np.testing.assert_array_equal(s.ctx_tokens, s.ans_tokens)
    assert (s.ctx_tokens >= 2).all()
