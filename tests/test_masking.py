"""Mask selection oracle checks and two-stage training behavior."""
import tracemalloc

import numpy as np
import pytest

from prunekv import masking, model as pm, tasks
from prunekv.experiment import ExperimentConfig, make_mask_stream
from prunekv.masking import BinaryChannelMask, TrainSpec, select_mask

import helpers


def test_select_matches_brute_force_random():
    rng = np.random.default_rng(21)
    for _ in range(200):
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.choice([8, 16])))
        scores = rng.normal(size=shape)
        r = int(rng.choice([2, 4, 8]))
        keep = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
        got = select_mask(scores, keep, r)
        want = helpers.brute_force_select(scores, keep, r)
        np.testing.assert_array_equal(got.bits, want)
        assert (got.kept_counts() % r == 0).all()


def test_select_with_ties_prefers_lower_index():
    scores = np.zeros((1, 1, 8))
    got = select_mask(scores, 0.5, 2)
    np.testing.assert_array_equal(got.bits[0, 0], [1, 1, 1, 1, 0, 0, 0, 0])


def brute_force_top(scores, counts):
    """Per-row top `counts` channels by value, ties to the lower index."""
    bits = np.zeros(scores.shape, dtype=np.uint8)
    for idx in np.ndindex(scores.shape[:-1]):
        ranked = sorted(range(scores.shape[-1]), key=lambda ch: (-scores[idx][ch], ch))
        bits[idx][ranked[:counts[idx]]] = 1
    return bits


def test_top_channels_with_heavy_ties_and_signed_zeros():
    rng = np.random.default_rng(22)
    for _ in range(300):
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.choice([4, 8, 16])))
        scores = rng.integers(-2, 3, size=shape).astype(np.float64)
        scores[rng.random(size=shape) < 0.2] = -0.0
        counts = rng.integers(0, shape[-1] + 1, size=shape[:-1])
        np.testing.assert_array_equal(masking.top_channels(scores, counts),
                                      brute_force_top(scores, counts))
        r = int(rng.choice([1, 2, 4]))
        keep = float(rng.choice([0.0, 0.25, 0.4, 0.5, 0.75, 1.0]))
        np.testing.assert_array_equal(select_mask(scores, keep, r).bits,
                                      helpers.brute_force_select(scores, keep, r))


def test_select_worked_example_alignment_rounding():
    # head 0 wins 3 of the global top-8, head 1 wins 5; with r=4 both round to 4
    scores = np.zeros((1, 2, 8))
    scores[0, 0, :3] = [10, 9, 8]
    scores[0, 1, :5] = [7, 6, 5, 4, 3]
    scores[0, 0, 3:] = -1
    scores[0, 1, 5:] = -2
    got = select_mask(scores, 0.5, 4)
    assert got.kept_counts().tolist() == [[4, 4]]
    np.testing.assert_array_equal(got.bits[0, 0], [1, 1, 1, 1, 0, 0, 0, 0])
    np.testing.assert_array_equal(got.bits[0, 1], [1, 1, 1, 1, 0, 0, 0, 0])


def test_select_can_drop_whole_head():
    scores = np.ones((1, 2, 8))
    scores[0, 1] = 0.0  # head 1 loses every global slot
    got = select_mask(scores, 0.5, 8)
    assert got.kept_counts().tolist() == [[8, 0]]
    assert got.streaming_heads() == [(0, 1)]


def test_select_edges_and_validation():
    scores = np.random.default_rng(1).normal(size=(2, 2, 8))
    assert select_mask(scores, 0.0, 4).bits.sum() == 0
    assert select_mask(scores, 1.0, 4).bits.all()
    with pytest.raises(ValueError):
        select_mask(scores, 1.5, 4)
    with pytest.raises(ValueError):
        select_mask(scores, 0.5, 0)
    with pytest.raises(ValueError):
        select_mask(scores, 0.5, 16)
    with pytest.raises(ValueError):
        select_mask(scores[0], 0.5, 4)


def test_select_monotone_in_keep_ratio():
    scores = np.random.default_rng(2).normal(size=(2, 3, 16))
    prev = -1
    for keep in [0.0, 0.25, 0.5, 0.75, 1.0]:
        n = int(select_mask(scores, keep, 4).bits.sum())
        assert n >= prev
        prev = n


def test_negative_factors_rank_by_value_not_magnitude():
    scores = np.array([[[-5.0, -0.1, 0.2, 0.3]]])
    got = select_mask(scores, 0.5, 1)
    np.testing.assert_array_equal(got.bits[0, 0], [0, 0, 1, 1])


def test_mask_validation_names_offending_head():
    bits = np.zeros((1, 2, 8), dtype=np.uint8)
    bits[0, 1, :3] = 1
    with pytest.raises(ValueError, match=r"\(0,1\)"):
        BinaryChannelMask(bits=bits, r=4, keep_ratio=0.5)


def test_mask_stats():
    bits = np.zeros((1, 2, 8), dtype=np.uint8)
    bits[0, 0] = 1
    beta = BinaryChannelMask(bits=bits, r=4, keep_ratio=0.5)
    assert beta.keep_fraction() == 0.5
    assert beta.streaming_heads() == [(0, 1)]
    assert beta.kept_counts().tolist() == [[8, 0]]


def test_train_spec_defaults_and_validation():
    spec = TrainSpec(lr_stage1=0.04)
    assert spec.lr_stage2 == 0.02
    assert spec.lam == 0.06
    with pytest.raises(ValueError):
        TrainSpec(lr_stage1=-1.0)
    with pytest.raises(ValueError):
        TrainSpec(steps_stage1=-1)
    for bad in ({"sink": -1}, {"window": -3}, {"batch": 0}, {"seq_len_range": (300, 200)},
                {"seq_len_range": (0, 10)}):
        with pytest.raises(ValueError):
            TrainSpec(**bad)


def test_stage1_loss_value_and_shape_error():
    import prunekv.autodiff as ad
    rng = np.random.default_rng(4)
    hf = rng.normal(size=(3, 5))
    hs = ad.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    alpha = ad.Tensor(rng.normal(size=(1, 2, 4)), requires_grad=True)
    loss = masking.stage1_loss(hf, hs, alpha, lam=0.06)
    want = ((hs.data - hf) ** 2).sum() + 0.06 * np.abs(alpha.data).sum()
    assert np.isclose(loss.data, want, rtol=1e-12)
    with pytest.raises(ad.ShapeError):
        masking.stage1_loss(hf, ad.Tensor(rng.normal(size=(2, 5))), alpha, 0.06)


def _stage1_step_peak(seq_len):
    """(losses, tracemalloc peak bytes) of one default stage-1 step on a
    random-token sample of `seq_len` tokens, two of them the answer."""
    toy = pm.ToyTransformer.create(pm.ModelConfig(), seed=0)

    def stream(rng, seq_len):
        tok = rng.integers(0, toy.config.vocab_size, size=seq_len)
        return [tasks.TaskSample(ctx_tokens=tok[:-2], ans_tokens=tok[-2:], query_key=0)]

    spec = TrainSpec(steps_stage1=1, seq_len_range=(seq_len, seq_len))
    tracemalloc.start()
    try:
        _, losses = masking.stage1_train(toy, stream, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return losses, peak


def test_stage1_step_memory_bound_at_t1024():
    # one stage-1 step at T=1024 on the default model: the graph covers only
    # the answer rows and the numpy context pass is row-blocked (about 17 MiB
    # traced peak; 84 MiB with a full (n_kv, g, T, T) context score buffer);
    # a graph over every row took 5.7 GB
    losses, peak = _stage1_step_peak(1024)
    assert np.isfinite(losses).all()
    assert peak < 256 * 2 ** 20, f"peak {peak / 2 ** 20:.0f} MiB"


def test_stage1_step_memory_bound_at_t2048():
    # at the default max_pos the step's traced peak is about 34 MiB; (T, T)
    # boolean region masks for the answer rows' scaling took it to 42 MiB
    losses, peak = _stage1_step_peak(2048)
    assert np.isfinite(losses).all()
    assert peak < 36 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_stage_step_refuses_a_sequence_past_max_pos():
    # a 400-token request gives a 343-token dense_retrieval batch: its 342
    # context rows fit max_pos, but its answer row would sit at position 342
    cfg = ExperimentConfig(model={"n_layers": 1, "max_pos": 342},
                           train={"steps_stage1": 1, "steps_stage2": 0,
                                  "seq_len_range": (400, 400)})
    toy = pm.ToyTransformer.create(cfg.model_config(), seed=0)
    with pytest.raises(ValueError, match="sequence length 343 exceeds max_pos 342"):
        masking.stage1_train(toy, make_mask_stream(cfg), cfg.train_spec())


def _tiny_setup():
    cfg = pm.ModelConfig(n_layers=1, n_q_heads=2, n_kv_heads=2, head_dim=8,
                         d_ff=16, vocab_size=64, max_pos=128)
    toy = pm.ToyTransformer.create(cfg, seed=0)
    base = tasks.TaskSpec(seq_len=48, vocab_size=64)

    def stream(rng, seq_len):
        from dataclasses import replace
        return [tasks.generate(replace(base, seq_len=seq_len, seed=int(rng.integers(2 ** 31))))]

    spec = TrainSpec(steps_stage1=12, steps_stage2=6, sink=4, window=8,
                     seq_len_range=(32, 48), seed=0)
    return toy, stream, spec


def test_stage1_shrinks_factors_and_is_deterministic():
    toy, stream, spec = _tiny_setup()
    a1, l1 = masking.stage1_train(toy, stream, spec)
    toy2, stream2, _ = _tiny_setup()
    a2, l2 = masking.stage1_train(toy2, stream2, spec)
    np.testing.assert_array_equal(a1, a2)
    assert l1 == l2
    # L1 pressure pulls the mean factor below its starting value of 1
    assert a1.mean() < 1.0
    assert a1.shape == toy.config.factor_shape


def test_stage2_ste_full_keep_is_identity_mask():
    toy, stream, spec = _tiny_setup()
    alpha0 = np.ones(toy.config.factor_shape)
    beta, alpha, losses = masking.stage2_train(toy, stream, alpha0, keep_ratio=1.0,
                                               r=2, spec=spec)
    assert beta.bits.all()
    # distillation distance of an all-ones mask is 0, so alpha never moves
    assert all(l == 0.0 for l in losses)
    np.testing.assert_array_equal(alpha, alpha0)


def test_stage2_runs_and_returns_aligned_mask():
    toy, stream, spec = _tiny_setup()
    alpha0 = np.random.default_rng(5).uniform(0.0, 1.5, toy.config.factor_shape)
    beta, alpha, losses = masking.stage2_train(toy, stream, alpha0, keep_ratio=0.5,
                                               r=4, spec=spec)
    assert (beta.kept_counts() % 4 == 0).all()
    assert len(losses) == spec.steps_stage2
    assert np.isfinite(alpha).all()
