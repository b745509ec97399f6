"""Analysis-toolkit oracles: norm ratios, Pearson, frequency profiles."""
import warnings

import numpy as np
import pytest

from prunekv import analysis, tasks
from prunekv.masking import BinaryChannelMask
from prunekv.model import ModelConfig, ToyTransformer

import helpers

CFG = ModelConfig(n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=8,
                  d_ff=32, vocab_size=64, max_pos=256)


def sample(seed=0, seq_len=48):
    return tasks.generate(tasks.TaskSpec(seq_len=seq_len, seed=seed, vocab_size=64))


def test_channel_norm_ratios_match_brute_force():
    toy = ToyTransformer.create(CFG, seed=1)
    s = sample(1)
    obs = 16
    got = analysis.channel_norm_ratios(toy, s, obs_window=obs)
    layers = analysis.record_qk(toy, s)
    t = len(s.tokens)
    for li, (q, k) in enumerate(layers):
        want = helpers.brute_force_channel_ratios(q[t - obs:], k, CFG.group_size)
        np.testing.assert_allclose(got[li], want, atol=1e-12)


def test_channel_norm_ratios_bounded_by_cauchy_schwarz():
    # each per-channel share is >= the full-matrix share it contributes
    toy = ToyTransformer.create(CFG, seed=2)
    v = analysis.channel_norm_ratios(toy, sample(2), obs_window=8)
    assert (v >= 0).all()
    # sum over channels of ||Q_i|| ||K_i|| >= ||QK^T||_F, so shares sum to >= 1
    assert (v.sum(axis=-1) >= 1.0 - 1e-12).all()


def test_channel_norm_ratios_window_validation():
    toy = ToyTransformer.create(CFG, seed=3)
    # a window longer than the sample used to pool a wrapped-around slice of rows
    with pytest.raises(ValueError, match="query window 100 exceeds"):
        analysis.channel_norm_ratios(toy, sample(3, seq_len=24), obs_window=100)


def test_channel_norm_ratios_reject_bad_token_ids():
    # -1 used to index the last embedding row, as if it were vocab_size - 1
    toy = ToyTransformer.create(CFG, seed=3)
    s = sample(3)
    s.ctx_tokens[5] = -1
    with pytest.raises(ValueError, match=r"token ids must be in \[0, 64\), got \[-1\]"):
        analysis.channel_norm_ratios(toy, s, obs_window=8)


def test_zero_logit_heads_score_zero():
    # q is zero in layer 0, so every layer-0 head has ||q k^T||_F = 0
    toy = ToyTransformer.create(CFG, seed=12)
    toy.params["l0.wq"].data[...] = 0.0
    s = sample(12)
    with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        ratios = analysis.channel_norm_ratios(toy, s, obs_window=8)
        w_hf = analysis.high_freq_ratio(toy, s)
    assert (ratios[0] == 0.0).all() and (w_hf[0] == 0.0).all()
    assert (ratios[1] > 0.0).any() and (w_hf[1] > 0.0).all()
    assert np.isfinite(ratios).all() and np.isfinite(w_hf).all()


def test_pearson_hand_example():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [2.0, 4.0, 5.0, 9.0]
    got = analysis.pearson(a, b)
    np.testing.assert_allclose(got, helpers.brute_force_pearson(a, b), rtol=1e-15)
    np.testing.assert_allclose(got, np.corrcoef(a, b)[0, 1], rtol=1e-12)


def test_pearson_properties_and_errors():
    rng = np.random.default_rng(4)
    a = rng.normal(size=50)
    assert np.isclose(analysis.pearson(a, 3.0 * a + 2.0), 1.0, atol=1e-12)
    assert np.isclose(analysis.pearson(a, -a), -1.0, atol=1e-12)
    assert abs(analysis.pearson(a, rng.normal(size=50))) <= 1.0
    with pytest.raises(ValueError):
        analysis.pearson(a, a[:10])
    with pytest.raises(ValueError):
        analysis.pearson(np.ones(5), a[:5])


def test_staticity_matrix_shape_and_oracle():
    toy = ToyTransformer.create(CFG, seed=5)
    by_label = {
        "dense_short": [sample(10, 40), sample(11, 40)],
        "dense_long": [sample(12, 80)],
        "multi": [tasks.generate(tasks.TaskSpec(kind=tasks.MULTI_VALUE, seq_len=64,
                                                seed=13, vocab_size=64))],
    }
    labels, mat, vectors = analysis.staticity_matrix(toy, by_label, obs_window=16)
    assert labels == list(by_label)
    assert mat.shape == (3, 3)
    np.testing.assert_allclose(np.diag(mat), 1.0)
    np.testing.assert_allclose(mat, mat.T)
    for i in range(3):
        for j in range(3):
            if i != j:
                want = helpers.brute_force_pearson(vectors[i], vectors[j])
                np.testing.assert_allclose(mat[i, j], want, atol=1e-12)


def test_static_norm_mask_selects_high_norm_channels():
    toy = ToyTransformer.create(CFG, seed=6)
    samples = [sample(20 + i) for i in range(3)]
    beta = analysis.static_norm_mask(toy, samples, keep_ratio=0.5, r=2, obs_window=16)
    assert isinstance(beta, BinaryChannelMask)
    assert (beta.kept_counts() % 2 == 0).all()
    mean = np.mean([analysis.channel_norm_ratios(toy, s, 16) for s in samples], axis=0)
    kept_scores = mean[beta.bits == 1]
    dropped_scores = mean[beta.bits == 0]
    # per-head top selection: the global mean of kept beats the mean of dropped
    assert kept_scores.mean() > dropped_scores.mean()
    with pytest.raises(ValueError):
        analysis.static_norm_mask(toy, [], 0.5, 2)


def test_dynamic_norm_mask_uniform_budget():
    toy = ToyTransformer.create(CFG, seed=7)
    beta = analysis.dynamic_norm_mask(toy, sample(30), keep_ratio=0.5, q_window=4)
    assert (beta.kept_counts() == CFG.head_dim // 2).all()
    with pytest.raises(ValueError):
        analysis.dynamic_norm_mask(toy, sample(30), 0.5, q_window=0)


def test_dynamic_norm_mask_breaks_ties_to_the_lower_channel(monkeypatch):
    # ratios with many equal values, so the budget cuts through a tie
    ratios = np.tile([0.5, 0.0, 0.5, -0.0, 0.25, 0.5, 0.0, 0.25], 4).reshape(CFG.factor_shape)
    monkeypatch.setattr(analysis, "channel_norm_ratios", lambda model, s, window: ratios)
    toy = ToyTransformer.create(CFG, seed=8)
    order = [0, 2, 5, 4, 7, 1, 3, 6]  # by ratio descending, then channel ascending
    beta = analysis.dynamic_norm_mask(toy, sample(31), 0.5, q_window=4)
    assert (beta.bits == np.isin(np.arange(8), order[:4])).all()


def test_freq_profile_oracle_and_conservation():
    rng = np.random.default_rng(9)
    bits = (rng.uniform(size=(2, 2, 8)) < 0.5).astype(np.uint8)
    beta = BinaryChannelMask(bits=bits, r=1, keep_ratio=0.5)
    prof = analysis.freq_profile(beta)
    assert prof.shape == (4,)
    for j in range(4):
        # pair j aggregates channels j and j + d/2 over all layers and heads
        want = (bits[:, :, j].sum() + bits[:, :, j + 4].sum()) / (2.0 * 4)
        np.testing.assert_allclose(prof[j], want, rtol=1e-12)
    np.testing.assert_allclose(prof.mean(), bits.mean(), rtol=1e-12)
    with pytest.raises(ValueError):
        analysis.freq_profile(np.ones((1, 1, 7)))


def test_high_freq_ratio_matches_brute_force():
    toy = ToyTransformer.create(CFG, seed=10)
    s = sample(40)
    prof = analysis.high_freq_ratio(toy, s, high_boundary=2)
    layers = analysis.record_qk(toy, s)
    t = len(s.tokens)
    d = CFG.head_dim
    high = [0, 1, 4, 5]  # pairs 0 and 1: channels j and j + d/2
    for li, (q, k) in enumerate(layers):
        for j in range(CFG.n_kv_heads):
            qj = q[t - 1:, j * CFG.group_size:(j + 1) * CFG.group_size].reshape(-1, d)
            kj = k[:, j]
            num = np.linalg.norm(qj[:, high] @ kj[:, high].T)
            den = np.linalg.norm(qj @ kj.T)
            np.testing.assert_allclose(prof[li, j], num / den, atol=1e-12)


def test_high_freq_ratio_validation():
    toy = ToyTransformer.create(CFG, seed=11)
    with pytest.raises(ValueError):
        analysis.high_freq_ratio(toy, sample(41), high_boundary=0)
    with pytest.raises(ValueError):
        analysis.high_freq_ratio(toy, sample(41), high_boundary=5)


def test_convert_streaming_by_whf_modes():
    prof = np.array([[0.9, 0.1], [0.5, 0.5]])
    assert analysis.convert_streaming_by_whf(prof, 0.25) == [(0, 0)]
    # ties at 0.5 break by (layer, head) order
    assert analysis.convert_streaming_by_whf(prof, 0.75) == [(0, 0), (1, 0), (1, 1)]
    assert analysis.convert_streaming_by_whf(prof, 0.0) == []
    with pytest.raises(ValueError):
        analysis.convert_streaming_by_whf(prof, 1.5)
