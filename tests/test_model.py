"""Model-level oracles: RoPE, region masks, scaled attention, GQA."""
import operator
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import prunekv.autodiff as ad
from prunekv import cache, masking, model as pm, tasks
from prunekv.model import ModelConfig, ToyTransformer, rope_angles

import helpers

TINY = ModelConfig(n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=8,
                   d_ff=32, vocab_size=64, max_pos=128)


def apply_rope(x, positions, base=10000.0):
    """Rotate-half RoPE of an ndarray (..., T, head_dim) at `positions`."""
    x = np.asarray(x, dtype=np.float64)
    return ad.rotate_half(x, *rope_angles(x.shape[-1], positions, base))


def test_config_validation_and_derived():
    with pytest.raises(ValueError):
        ModelConfig(head_dim=7)
    with pytest.raises(ValueError):
        ModelConfig(n_q_heads=6, n_kv_heads=4)
    for bad in [dict(n_kv_heads=0), dict(n_layers=-1), dict(d_ff=2.5), dict(max_pos="64"),
                dict(vocab_size=True), dict(rope_base=0.0), dict(rope_base=float("nan"))]:
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be a positive"):
            ModelConfig(**bad)
    c = ModelConfig()
    assert c.d_model == c.n_q_heads * c.head_dim == 128
    assert c.group_size == 2
    assert c.factor_shape == (4, 4, 16)


def test_rope_frequency_oracle():
    d, base = 8, 10000.0
    cos, sin = rope_angles(d, [3], base)
    for i in range(d // 2):
        theta = 3 * base ** (-2.0 * i / d)
        assert np.isclose(cos[0, i], np.cos(theta))
        assert np.isclose(sin[0, i], np.sin(theta))


def test_rope_d2_is_plane_rotation():
    # d=2: one pair, rotation by exactly `pos` radians
    x = np.array([[1.0, 0.0]])
    for pos in [0, 1, 2, 5]:
        y = apply_rope(x, [pos])
        np.testing.assert_allclose(y, [[np.cos(pos), np.sin(pos)]], atol=1e-12)


def test_rope_matches_loop_reference():
    rng = np.random.default_rng(0)
    d = 8
    x = rng.normal(size=(5, d))
    y = apply_rope(x, np.arange(5), base=100.0)
    for p in range(5):
        np.testing.assert_allclose(y[p], helpers.ref_rope_vec(x[p], p, 100.0), rtol=1e-12)


def test_rope_relative_position_property():
    # q(m) . k(n) depends only on m - n
    rng = np.random.default_rng(1)
    d = 16
    q, k = rng.normal(size=d), rng.normal(size=d)
    def dot(m, n):
        return float((apply_rope(q[None], [m]) @ apply_rope(k[None], [n]).T)[0, 0])
    assert np.isclose(dot(5, 2), dot(9, 6), rtol=1e-10)
    assert np.isclose(dot(7, 7), dot(0, 0), rtol=1e-10)
    assert not np.isclose(dot(5, 2), dot(5, 3), rtol=1e-3)


def test_rope_rotate_tensor_matches_numpy():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 3, 6, 8))
    cos, sin = rope_angles(8, np.arange(6), 500.0)
    got = ad.rope_rotate(ad.Tensor(x), cos, sin).data
    want = apply_rope(x, np.arange(6), 500.0)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def regions(p, sink, window):
    """(full-width keys, middle keys) of the query at position p under the
    sink/window split, by the package's one region rule."""
    middle = set(range(sink, cache.middle_end(p + 1, sink, window)))
    return set(range(p + 1)) - middle, middle


def oracle_regions(p, sink, window):
    full = {k for k in range(p + 1) if helpers.ref_full_key(p, k, sink, window)}
    return full, set(range(p + 1)) - full


def test_region_split_hand_example():
    assert regions(9, 2, 3) == oracle_regions(9, 2, 3) == ({0, 1, 7, 8, 9}, {2, 3, 4, 5, 6})


def test_region_split_partition_causal():
    full, mid = np.zeros((24, 24), dtype=bool), np.zeros((24, 24), dtype=bool)
    for p in range(24):
        keys = regions(p, 3, 5)
        assert keys == oracle_regions(p, 3, 5)
        full[p, list(keys[0])], mid[p, list(keys[1])] = True, True
    assert not (full & mid).any()
    np.testing.assert_array_equal(full | mid, np.tril(np.ones((24, 24), dtype=bool)))


def test_middle_end_matches_the_oracle_rule():
    # a query that sees n keys, sink and window 0..8, n below the sink included
    for n in range(41):
        for sink in range(9):
            for window in range(9):
                end = cache.middle_end(n, sink, window)
                middle = {k for k in range(n) if not helpers.ref_full_key(n - 1, k, sink, window)}
                assert set(range(sink, end)) == middle, (n, sink, window)
                assert type(end) is int and sink <= end <= max(sink, n)


def full_logits(model, tokens):
    """Logits (T, vocab) of the full causal pass over one sequence."""
    return (pm._forward(model, tokens[None]) @ model.params["lm_head"]).data[0]


def scaled_rows(model, tokens, n_ans, factors, sink, window):
    """The answer rows of the region-scaled pass over `tokens` (B, T)."""
    return pm.answer_rows(model, pm.context_kv(model, tokens, n_ans), tokens, n_ans, factors,
                          sink, window)


def test_full_forward_matches_loop_reference():
    toy = ToyTransformer.create(TINY, seed=3)
    tokens = np.random.default_rng(3).integers(0, TINY.vocab_size, size=12)
    want = helpers.reference_forward(toy.weights_numpy(), TINY, tokens)
    np.testing.assert_allclose(full_logits(toy, tokens), want, rtol=1e-9, atol=1e-9)


def test_scaled_with_unit_factors_is_identity():
    toy = ToyTransformer.create(TINY, seed=4)
    tokens = np.random.default_rng(4).integers(0, TINY.vocab_size, size=24)[None]
    full = pm._forward(toy, tokens).data[:, 20:]
    scaled = scaled_rows(toy, tokens, 4, np.ones(TINY.factor_shape), sink=4, window=6)
    np.testing.assert_allclose(scaled, full, atol=1e-10)


def test_scaled_with_zero_factors_zeroes_mid_logits():
    # single layer, single head: inspect the answer row's attention by hand
    c = ModelConfig(n_layers=1, n_q_heads=1, n_kv_heads=1, head_dim=4,
                    d_ff=8, vocab_size=32, max_pos=64)
    toy = ToyTransformer.create(c, seed=5)
    tokens = np.random.default_rng(5).integers(0, c.vocab_size, size=13)
    # unit factors give the full pass; its first layer's post-RoPE q and k
    _, _, full_layers = helpers.reference_scaled_forward(
        toy.weights_numpy(), c, tokens, 1, np.ones(c.factor_shape), sink=2, window=3)
    q, k, _ = full_layers[0]  # (n_heads, T, d)
    row = 12
    full = helpers.ref_full_key(row, np.arange(13), sink=2, window=3)
    logits = q[0, row] @ k[0].T / 2.0  # scale 1/sqrt(4)
    expect = logits.copy()
    expect[~full] = 0.0
    p_expect = np.exp(expect) / np.exp(expect).sum()

    _, _, scaled_layers = helpers.reference_scaled_forward(
        toy.weights_numpy(), c, tokens, 1, np.zeros(c.factor_shape), sink=2, window=3)
    qs, ks, vs = scaled_layers[0]  # (n_heads, T, d)
    # first layer q/k identical to the full pass; recompute the scaled row
    np.testing.assert_allclose(qs, q, rtol=1e-12)
    ls = qs[0, row] @ ks[0].T / 2.0
    ls_masked = ls * full  # mid term vanishes when factors are 0
    p_got = np.exp(ls_masked) / np.exp(ls_masked).sum()
    np.testing.assert_allclose(p_got, p_expect, rtol=1e-10)


def test_scaled_context_rows_keep_full_attention():
    toy = ToyTransformer.create(TINY, seed=6)
    tokens = np.random.default_rng(6).integers(0, TINY.vocab_size, size=24)
    rng_factors = np.random.default_rng(7).uniform(0.0, 2.0, TINY.factor_shape)
    full = full_logits(toy, tokens)
    # answer_rows computes only the answer rows; the full-sequence oracle
    # computes every row
    _, scaled_logits, _ = helpers.reference_scaled_forward(
        toy.weights_numpy(), TINY, tokens, 4, rng_factors, sink=2, window=4)
    # context-row logits are unaffected by the factors
    np.testing.assert_allclose(scaled_logits[:19], full[:19], atol=1e-10)
    assert not np.allclose(scaled_logits[20:], full[20:])


@pytest.mark.parametrize("n_ctx, n_ans, sink, window, batch", [
    (20, 2, 0, 4, 1),  # no sink
    (20, 2, 3, 0, 1),  # no window: each answer row scales its own key
    (18, 5, 2, 3, 1),  # answer keys fall in the middle
    (20, 3, 2, 4, 2),  # a batch of two
])
def test_scaled_answer_rows_match_full_sequence_oracle(n_ctx, n_ans, sink, window, batch):
    c = ModelConfig(n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=4,
                    d_ff=16, vocab_size=32, max_pos=64)
    toy = ToyTransformer.create(c, seed=11)
    toy.set_trainable(False)
    rng = np.random.default_rng(11)
    tokens = rng.integers(0, c.vocab_size, size=(batch, n_ctx + n_ans))
    alpha0 = rng.uniform(0.5, 1.5, c.factor_shape)
    alpha0[1, 0] = 0.0  # a head whose middle keys all score 0
    weights = toy.weights_numpy()

    def oracle_h_last(a):
        return np.stack([helpers.reference_scaled_forward(weights, c, row, n_ans, a, sink,
                                                          window)[0][n_ctx:] for row in tokens])

    got = scaled_rows(toy, tokens, n_ans, alpha0, sink, window)
    np.testing.assert_allclose(got, oracle_h_last(alpha0), rtol=0, atol=1e-10)

    h_full = pm._forward(toy, tokens).data[:, n_ctx:]
    teacher = scaled_rows(toy, tokens, n_ans, np.ones(c.factor_shape), sink, window)
    assert type(teacher) is np.ndarray  # ndarray factors run in plain numpy
    np.testing.assert_allclose(teacher, h_full, rtol=0, atol=1e-10)
    for lam in (0.0, 0.06):
        alpha = ad.Tensor(alpha0.copy(), requires_grad=True)
        masking.stage1_loss(h_full, scaled_rows(toy, tokens, n_ans, alpha, sink, window),
                            alpha, lam).backward()
        fd = helpers.finite_difference_gradient(
            lambda a: ((oracle_h_last(a) - h_full) ** 2).sum() + lam * np.abs(a).sum(),
            alpha0.copy(), eps=1e-5)
        rel = np.abs(alpha.grad - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-4  # the criterion-2 bound


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_unit_factor_student_equals_teacher_bit_for_bit(batch):
    """The distillation teacher is the student's pass at unit factors, so a
    student at unit factors matches it exactly, at any batch: the loss with
    no L1 term is 0.0."""
    c = ModelConfig()
    toy = ToyTransformer.create(c, seed=0)
    spec = masking.TrainSpec(sink=16, window=64, seq_len_range=(200, 200))

    def stream(rng, seq_len):
        return [tasks.TaskSample(ctx_tokens=rng.integers(0, c.vocab_size, seq_len - 1),
                                 ans_tokens=rng.integers(0, c.vocab_size, 1), query_key=0)
                for _ in range(batch)]

    alpha = ad.Tensor(np.ones(c.factor_shape), requires_grad=True)
    loss = masking._distill_loss(toy, stream, np.random.default_rng(batch), spec, alpha, 0.0,
                                 alpha)
    assert float(loss.data) == 0.0


def test_gqa_matches_replicated_mha():
    gqa_cfg = ModelConfig(n_layers=1, n_q_heads=4, n_kv_heads=2, head_dim=4,
                          d_ff=16, vocab_size=32, max_pos=64)
    mha_cfg = ModelConfig(n_layers=1, n_q_heads=4, n_kv_heads=4, head_dim=4,
                          d_ff=16, vocab_size=32, max_pos=64)
    gqa = ToyTransformer.create(gqa_cfg, seed=8)
    params = {k: ad.Tensor(v.data.copy()) for k, v in gqa.params.items()}
    d = gqa_cfg.head_dim
    for name in ("wk", "wv"):
        w = params[f"l0.{name}"].data  # (d_model, n_kv * d)
        rep = np.concatenate([np.repeat(w[:, j * d:(j + 1) * d], 1, axis=1)
                              for j in range(2) for _ in range(2)], axis=1)
        params[f"l0.{name}"] = ad.Tensor(rep)
    mha = ToyTransformer(mha_cfg, params)
    tokens = np.random.default_rng(8).integers(0, 32, size=10)
    a = full_logits(gqa, tokens)
    b = full_logits(mha, tokens)
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_batched_forward_matches_single():
    toy = ToyTransformer.create(TINY, seed=9)
    rng = np.random.default_rng(9)
    t1 = rng.integers(0, TINY.vocab_size, size=10)
    t2 = rng.integers(0, TINY.vocab_size, size=10)
    batch = pm._forward(toy, np.stack([t1, t2])).data[0]
    s1 = pm._forward(toy, t1[None]).data[0]
    lm_head = toy.params["lm_head"].data
    np.testing.assert_allclose(batch @ lm_head, s1 @ lm_head, atol=1e-10)
    np.testing.assert_allclose(batch[8:], s1[8:], atol=1e-10)


def test_forward_input_validation():
    toy = ToyTransformer.create(TINY, seed=0)
    ones = np.ones(TINY.factor_shape)
    with pytest.raises(ValueError, match="exceeds max_pos"):
        pm._forward(toy, np.zeros((1, TINY.max_pos + 1), dtype=int))
    with pytest.raises(ValueError, match="no context"):
        pm.context_kv(toy, np.zeros((1, 8), dtype=int), 9)
    with pytest.raises(ValueError, match="exceeds context length"):
        scaled_rows(toy, np.zeros((1, 8), dtype=int), 1, ones, sink=4, window=4)
    with pytest.raises(ad.ShapeError):
        scaled_rows(toy, np.zeros((1, 5), dtype=int), 1, np.ones((1, 1, 2)), sink=1, window=2)
    with pytest.raises(ValueError, match="no context"):
        scaled_rows(toy, np.zeros((1, 3), dtype=int), 3, ones, sink=0, window=0)
    # 18 tokens past a max_pos of 16: the 16-token context passes its own check
    short = ToyTransformer.create(replace(TINY, max_pos=16), seed=0)
    tokens = np.zeros((1, 18), dtype=int)
    with pytest.raises(ValueError, match="sequence length 18 exceeds max_pos 16"):
        scaled_rows(short, tokens, 2, ones, sink=0, window=0)


def test_layers_on_ndarrays_match_tensors():
    # the one layer body: plain numpy on ndarray rows and weights, Tensor ops
    # otherwise, with the same values
    c = TINY
    toy = ToyTransformer.create(c, seed=8)
    w = toy.weights_numpy()
    x = w["tok_emb"][np.random.default_rng(8).integers(0, c.vocab_size, size=10)]
    additive = np.where(np.tril(np.ones((10, 10), dtype=bool)), 0.0, ad.MASK_NEG)

    def attend(i, q, k, v):  # (T, heads, d) rows as (n_kv, g, T, d) and (n_kv, 1, T, d)
        q, k, v = (a.transpose(1, 0, 2).reshape(c.n_kv_heads, -1, 10, c.head_dim)
                   for a in (q, k, v))
        out = ad.attention(operator.matmul, (q * c.head_dim ** -0.5, k.transpose(0, 1, 3, 2)), v,
                           additive)
        return out.transpose(2, 0, 1, 3).reshape(10, c.d_model)

    got = pm.layers(w, c, x, 3, attend)
    want = pm.layers(toy.params, c, ad.Tensor(x), 3, attend)
    assert type(got) is np.ndarray and isinstance(want, ad.Tensor)
    np.testing.assert_array_equal(got, want.data)


def seeded_stream(spec, batch):
    """Callable(rng) -> `batch` samples of `spec`, each seeded from `rng`."""
    return lambda rng: [tasks.generate(replace(spec, seed=int(rng.integers(2 ** 31))))
                        for _ in range(batch)]


def test_pretrain_reduces_loss_and_freezes():
    cfg = ModelConfig(n_layers=1, n_q_heads=2, n_kv_heads=2, head_dim=8,
                      d_ff=32, vocab_size=64, max_pos=64)
    toy = ToyTransformer.create(cfg, seed=10)
    stream = seeded_stream(tasks.TaskSpec(seq_len=24, vocab_size=64), batch=4)
    toy, losses = pm.pretrain(toy, stream, steps=30, lr=3e-3, seed=1)
    assert np.mean(losses[-5:]) < np.mean(losses[:5])
    assert not any(p.requires_grad for p in toy.parameters())


def test_pretrain_determinism():
    cfg = ModelConfig(n_layers=1, n_q_heads=2, n_kv_heads=1, head_dim=4,
                      d_ff=16, vocab_size=32, max_pos=64)
    spec = tasks.TaskSpec(seq_len=16, vocab_size=32)
    out = []
    for _ in range(2):
        toy = ToyTransformer.create(cfg, seed=2)
        toy, losses = pm.pretrain(toy, seeded_stream(spec, batch=2), 5, 1e-3, seed=3)
        out.append((losses, toy.params["tok_emb"].data.copy()))
    assert out[0][0] == out[1][0]
    np.testing.assert_array_equal(out[0][1], out[1][1])


def default_model_and_longest_batch():
    """The default model and 8 dense_retrieval samples of 127 tokens, the
    longest pretraining batch of the default mix."""
    cfg = ModelConfig()
    batch = [tasks.generate(tasks.TaskSpec(kind=tasks.DENSE_RETRIEVAL, seq_len=128, seed=i,
                                           vocab_size=cfg.vocab_size)) for i in range(8)]
    assert len(batch[0].tokens) == 127
    return ToyTransformer.create(cfg, seed=0), batch


def test_answer_loss_backward_memory_bound():
    # each backward closure keeps only the arrays its formula reads (not
    # pre-RoPE q and k, the head-grouped attention output, the wo and w_down
    # products or the full logits) and backward frees each node's as it
    # passes it; the attention node keeps each row's max and sum, not its
    # probabilities, the FFN node keeps gate and up only, and weight
    # gradients are summed one row block at a time (`tools/graph_memory.py`:
    # 46.5 MiB held after forward, 58.1 MiB peak; 77.3 and 85.0 MiB with the
    # probabilities kept, 101.2 and 110.6 MiB with five FFN arrays a layer
    # and batched weight gradients, 146 MiB peak when every node's forward
    # value and closure lived until backward returned)
    toy, batch = default_model_and_longest_batch()
    toy.set_trainable(True)
    tracemalloc.start()
    try:
        pm.answer_loss(toy, batch).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in toy.parameters())
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_pretrain_step_memory_bound():
    # one default-config step on 8 dense_retrieval samples at T=127: the
    # attention graph keeps each row's softmax max and sum, not a (B, n_kv,
    # g, T, T) probability array per layer, and interior gradients are
    # dropped as backward passes them on (69.1 MiB traced with Adam's state,
    # the fourth line of `tools/graph_memory.py`; 96.0 MiB with the
    # probabilities kept, 122 MiB with five FFN arrays a layer and batched
    # weight gradients, 394 MiB with the unfused attention chain)
    toy, batch = default_model_and_longest_batch()
    tracemalloc.start()
    try:
        _, losses = pm.pretrain(toy, lambda rng: batch, steps=1, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(losses).all()
    assert peak < 80 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
