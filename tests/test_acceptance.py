"""Acceptance gate: exact identities, oracle equivalence, and the end-to-end
pipeline. Each criterion prints one pass/fail line (bypassing capture) so the
verdicts are visible in plain pytest output.

The pipeline criteria pretrain the toy model from scratch; expect the module
to take a few minutes.
"""
import filecmp
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from prunekv import analysis, cache, masking, storage, tasks
from prunekv import autodiff as ad
from prunekv import model as pm
from prunekv.experiment import (ExperimentConfig, cmd_eval, cmd_learn_mask,
                                cmd_pretrain, eval_samples, evaluate_mode,
                                make_mask_stream)
from prunekv.masking import BinaryChannelMask

import helpers

# frozen pipeline configuration for the end-to-end criteria; the grid is the
# set of prune ratios scanned for "largest ratio that keeps accuracy >= 0.85"
PRUNE_GRID = (0.25, 0.5, 0.625)


def pipeline_config(prune_ratio):
    return ExperimentConfig(
        model={"n_layers": 2, "n_q_heads": 4, "n_kv_heads": 2, "head_dim": 16,
               "d_ff": 128, "vocab_size": 256, "max_pos": 512},
        train={"sink": 4, "window": 16, "seq_len_range": (64, 160), "seed": 0,
               "steps_stage1": 200, "steps_stage2": 40},
        prune_ratio=prune_ratio, align=4, eval_seq_len=96, eval_samples=200,
        q_window=16, seed=0, out_dir="acceptance")


@pytest.fixture
def announce(capfd):
    def emit(num, ok, detail):
        with capfd.disabled():
            print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return emit


def run_pipeline(cfg, out):
    """Pretrain the toy model of `cfg` into `out`, learn masks at every grid
    ratio, and evaluate every cache policy the pipeline criteria compare."""
    toy = storage.load_checkpoint(cmd_pretrain(cfg, out_dir=out))
    samples = eval_samples(cfg)
    full_acc, _ = evaluate_mode(cfg, toy, "full", samples)

    alpha, _ = masking.stage1_train(toy, make_mask_stream(cfg), cfg.train_spec())
    learned_acc = {}
    for pr in PRUNE_GRID:
        c = replace(cfg, prune_ratio=pr)
        beta, _, _ = masking.stage2_train(toy, make_mask_stream(c), alpha,
                                          c.keep_ratio, c.align, c.train_spec())
        learned_acc[pr], _ = evaluate_mode(c, toy, "learned", samples, beta=beta)

    retained = [pr for pr in PRUNE_GRID if learned_acc[pr] >= 0.85]
    chosen = max(retained) if retained else None
    result = {"toy": toy, "full_acc": full_acc, "learned_acc": learned_acc, "chosen": chosen}
    if chosen is not None:
        c = replace(cfg, prune_ratio=chosen)
        beta1 = masking.top_s_r(alpha, c.keep_ratio, c.align)
        result["stage1_acc"], _ = evaluate_mode(c, toy, "learned", samples, beta=beta1)
        result["static_acc"], _ = evaluate_mode(c, toy, "static_norm", samples)
        result["dynamic_acc"], _ = evaluate_mode(c, toy, "dynamic_norm", samples)
    return result


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_pipeline(pipeline_config(PRUNE_GRID[0]), str(tmp_path_factory.mktemp("pipeline")))


def small_config(seed):
    rng = np.random.default_rng(seed)
    return pm.ModelConfig(n_layers=int(rng.integers(1, 3)),
                          n_q_heads=4, n_kv_heads=int(rng.choice([2, 4])),
                          head_dim=int(rng.choice([4, 8])),
                          d_ff=16, vocab_size=48, max_pos=128)


def test_criterion_01_unit_factor_identity(announce):
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        c = small_config(trial)
        toy = pm.ToyTransformer.create(c, seed=trial)
        n_ctx, n_ans = int(rng.integers(12, 32)), int(rng.integers(1, 4))
        tokens = rng.integers(0, c.vocab_size, size=n_ctx + n_ans)[None]
        factors = np.ones(c.factor_shape)
        full = pm._forward(toy, tokens).data[:, n_ctx:]
        scaled = pm.answer_rows(toy, pm.context_kv(toy, tokens, n_ans), tokens, n_ans, factors,
                                sink=2, window=4)
        worst = max(worst, float(np.abs(scaled - full).max()))
    ok = worst < 1e-10
    announce(1, ok, f"unit-factor scaled attention equals full attention, "
                    f"max|dH|={worst:.2e} over 20 random model/input pairs")
    assert ok


def test_criterion_02_factor_gradient_matches_finite_differences(announce):
    c = pm.ModelConfig(n_layers=1, n_q_heads=2, n_kv_heads=2, head_dim=4,
                       d_ff=8, vocab_size=32, max_pos=64)
    toy = pm.ToyTransformer.create(c, seed=7)
    toy.set_trainable(False)
    rng = np.random.default_rng(7)
    n_ctx, n_ans = 22, 2
    tokens = rng.integers(0, c.vocab_size, size=n_ctx + n_ans)[None]
    h_full = pm._forward(toy, tokens).data[:, n_ctx:]
    ctx = pm.context_kv(toy, tokens, n_ans)
    alpha0 = rng.uniform(0.5, 1.5, size=c.factor_shape)

    worst = 0.0
    for lam in (0.0, 0.06):
        def loss_value(a):
            scaled = pm.answer_rows(toy, ctx, tokens, n_ans, np.asarray(a), sink=2, window=4)
            return float(masking.stage1_loss(h_full, scaled, ad.Tensor(np.asarray(a)), lam).data)

        alpha = ad.Tensor(alpha0.copy(), requires_grad=True)
        scaled = pm.answer_rows(toy, ctx, tokens, n_ans, alpha, sink=2, window=4)
        loss = masking.stage1_loss(h_full, scaled, alpha, lam)
        loss.backward()
        fd = helpers.finite_difference_gradient(loss_value, alpha0.copy(), eps=1e-5)
        rel = np.abs(alpha.grad - fd) / np.maximum(np.abs(fd), 1e-8)
        worst = max(worst, float(rel.max()))
    ok = worst < 1e-4
    announce(2, ok, f"dL/dalpha vs central finite differences (lam in {{0, 0.06}}), "
                    f"max relative error {worst:.2e}")
    assert ok


def test_criterion_03_selection_matches_brute_force_oracle(announce):
    rng = np.random.default_rng(3)
    mismatches = unaligned = 0
    for _ in range(1000):
        r = int(rng.choice([2, 4, 8]))
        d = r * int(rng.integers(1, 16 // r + 1))
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)), d)
        scores = rng.normal(size=shape)
        if rng.random() < 0.2:
            scores[tuple(rng.integers(0, s) for s in shape)] = scores.reshape(-1)[0]
        keep = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
        beta = masking.top_s_r(scores, keep, r)
        want = helpers.brute_force_select(scores, keep, r)
        mismatches += int(not np.array_equal(beta.bits, want))
        unaligned += int((beta.kept_counts() % r != 0).any())
    ok = mismatches == 0 and unaligned == 0
    announce(3, ok, f"aligned top-fraction selection vs brute-force oracle, "
                    f"{mismatches}/1000 mismatches, {unaligned} unaligned masks")
    assert ok


CACHE_CFG = pm.ModelConfig(n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=8,
                           d_ff=32, vocab_size=64, max_pos=256)


def test_criterion_04_cache_engine_matches_stateless_reference(announce):
    rng = np.random.default_rng(4)
    toy = pm.ToyTransformer.create(CACHE_CFG, seed=4)
    weights = toy.weights_numpy()
    worst = 0.0
    token_mismatch = migrate_mismatch = 0
    for trial in range(10):
        prompt = rng.integers(0, CACHE_CFG.vocab_size, size=32)
        scores = rng.normal(size=CACHE_CFG.factor_shape)
        beta = masking.select_mask(scores, float(rng.choice([0.25, 0.5, 0.75])), r=2)
        got, trace, _ = cache.greedy_decode(toy, prompt, 64, beta, sink=4, window=8,
                                            collect_logits=True)
        want, want_trace = helpers.reference_greedy_decode(
            weights, CACHE_CFG, prompt, 64, beta.bits, sink=4, window=8)
        token_mismatch += int(not np.array_equal(got, want))
        for a, b in zip(trace, want_trace):
            worst = max(worst, float(np.abs(a - b).max()))
        outs = [cache.greedy_decode(toy, prompt, 64, beta, sink=4, window=8,
                                    migrate_every=m)[0] for m in (1, 8, 32)]
        migrate_mismatch += int(not (np.array_equal(outs[0], outs[1])
                                     and np.array_equal(outs[0], outs[2])))
    ok = worst < 1e-8 and token_mismatch == 0 and migrate_mismatch == 0
    announce(4, ok, f"10 masks x 64-token decode vs stateless reference, "
                    f"max logit error {worst:.2e}, {token_mismatch} token and "
                    f"{migrate_mismatch} migration-timing mismatches")
    assert ok


def test_criterion_05_streaming_head_equals_sink_window_attention(announce):
    rng = np.random.default_rng(5)
    toy = pm.ToyTransformer.create(CACHE_CFG, seed=5)
    worst = 0.0
    token_ok = True
    for trial in range(3):
        prompt = rng.integers(0, CACHE_CFG.vocab_size, size=32)
        bits = np.ones(CACHE_CFG.factor_shape, dtype=np.uint8)
        li, hj = int(rng.integers(CACHE_CFG.n_layers)), int(rng.integers(CACHE_CFG.n_kv_heads))
        bits[li, hj] = 0
        beta = BinaryChannelMask(bits=bits, r=1, keep_ratio=0.75)
        got, trace, _ = cache.greedy_decode(toy, prompt, 16, beta, sink=4, window=8,
                                            collect_logits=True)
        want, want_trace = helpers.reference_greedy_decode(
            toy.weights_numpy(), CACHE_CFG, prompt, 16, beta.bits, sink=4, window=8,
            streaming=[(li, hj)])
        token_ok = token_ok and np.array_equal(got, want)
        for a, b in zip(trace, want_trace):
            worst = max(worst, float(np.abs(a - b).max()))
    ok = worst < 1e-10 and token_ok
    announce(5, ok, f"zero-channel heads equal explicit sink+window-only "
                    f"attention, max logit error {worst:.2e}")
    assert ok


def test_criterion_06_memory_accounting(announce):
    c = pm.ModelConfig(n_layers=2, n_q_heads=4, n_kv_heads=4, head_dim=64)
    rng = np.random.default_rng(6)
    beta = masking.select_mask(rng.normal(size=c.factor_shape), 0.3, r=4)
    assert not beta.streaming_heads()
    seq_len, sink, window = 2048, 32, 128
    rep = cache.memory_report(beta, c, seq_len, sink, window, bytes_per_element=2)
    k_ok = 0.63 <= rep.k_reduction_fraction <= 0.70

    # exact V saving: only streaming heads drop middle V
    bits = np.ones(c.factor_shape, dtype=np.uint8)
    bits[0, 1] = 0
    bits[1, 3] = 0
    beta_s = BinaryChannelMask(bits=bits, r=1, keep_ratio=0.75)
    rep_s = cache.memory_report(beta_s, c, seq_len, sink, window, bytes_per_element=2)
    f = 2 / (c.n_layers * c.n_kv_heads)
    mid = seq_len - sink - window
    v_ok = (rep.v_reduction_fraction == 0.0
            and abs(rep_s.v_reduction_fraction - f * mid / seq_len) < 1e-15)
    ok = k_ok and v_ok
    announce(6, ok, f"keep=0.3 K reduction {rep.k_reduction_fraction:.4f} in "
                    f"[0.63, 0.70]; V reduction exactly "
                    f"streaming_fraction*mid/seq ({rep_s.v_reduction_fraction:.6f})")
    assert ok


@pytest.mark.slow
def test_criterion_07_pipeline_accuracy_ordering(announce, pipeline):
    full, accs, chosen = pipeline["full_acc"], pipeline["learned_acc"], pipeline["chosen"]
    if chosen is None:
        announce(7, False, f"no prune ratio in {PRUNE_GRID} retains accuracy >= 0.85 "
                           f"(learned accuracies {accs})")
        assert chosen is not None
    learned = accs[chosen]
    static, dynamic = pipeline["static_acc"], pipeline["dynamic_acc"]
    ok = full >= 0.9 and learned >= static >= dynamic
    announce(7, ok, f"full {full:.3f} >= 0.9; at prune ratio {chosen} (largest in "
                    f"{PRUNE_GRID} with learned >= 0.85, n=200): learned "
                    f"{learned:.3f} >= static-norm {static:.3f} >= dynamic-norm "
                    f"{dynamic:.3f}")
    assert ok


@pytest.mark.slow
def test_criterion_08_stage2_refinement_not_worse(announce, pipeline):
    chosen = pipeline["chosen"]
    assert chosen is not None
    refined = pipeline["learned_acc"][chosen]
    stage1 = pipeline["stage1_acc"]
    ok = refined >= stage1
    announce(8, ok, f"at prune ratio {chosen}: stage-2 refined mask {refined:.3f} "
                    f">= stage-1-only mask {stage1:.3f}")
    assert ok


@pytest.mark.slow
def test_criterion_09_staticity_report(announce, pipeline):
    toy = pipeline["toy"]
    cfg = pipeline_config(PRUNE_GRID[0])
    kinds = (tasks.DENSE_RETRIEVAL, tasks.MULTI_VALUE, tasks.NIAH_EVAL)
    by_label = {}
    for kind in kinds:
        for seq_len in (64, 96):
            by_label[f"{kind}@{seq_len}"] = [
                tasks.generate(tasks.TaskSpec(kind=kind, seq_len=seq_len,
                                              vocab_size=cfg.model_config().vocab_size,
                                              seed=70_000 + 10 * seq_len + i))
                for i in range(4)]
    labels, mat, vectors = analysis.staticity_matrix(toy, by_label, obs_window=32)
    worst = 0.0
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            want = helpers.brute_force_pearson(vectors[i], vectors[j])
            worst = max(worst, abs(mat[i, j] - want))
    off = mat[~np.eye(len(labels), dtype=bool)]
    ok = worst < 1e-12
    announce(9, ok, f"staticity Pearson matrix over {len(kinds)} kinds x 2 lengths: "
                    f"coefficients in [{off.min():.3f}, {off.max():.3f}], "
                    f"max oracle deviation {worst:.2e}")
    assert ok


def test_criterion_10_analysis_oracles(announce):
    rng = np.random.default_rng(10)
    worst_ratio = worst_whf = worst_freq = 0.0
    for case in range(100):
        c = small_config(1000 + case)
        toy = pm.ToyTransformer.create(c, seed=case)
        t = int(rng.integers(10, 24))
        sample = SimpleNamespace(tokens=rng.integers(0, c.vocab_size, size=t))
        layers = analysis.record_qk(toy, sample)

        obs = int(rng.integers(1, t + 1))
        vals = analysis.channel_norm_ratios(toy, sample, obs_window=obs)
        for li, (q, k) in enumerate(layers):
            want = helpers.brute_force_channel_ratios(q[t - obs:], k, c.group_size)
            worst_ratio = max(worst_ratio, float(np.abs(vals[li] - want).max()))

        boundary = int(rng.integers(1, c.head_dim // 2 + 1))
        prof = analysis.high_freq_ratio(toy, sample, high_boundary=boundary)
        high = np.concatenate([np.arange(boundary), c.head_dim // 2 + np.arange(boundary)])
        for li, (q, k) in enumerate(layers):
            for j in range(c.n_kv_heads):
                qj = q[t - 1:, j * c.group_size:(j + 1) * c.group_size].reshape(-1, c.head_dim)
                kj = k[:, j]
                den = np.sqrt(((qj @ kj.T) ** 2).sum())
                want = np.sqrt(((qj[:, high] @ kj[:, high].T) ** 2).sum()) / den
                worst_whf = max(worst_whf, abs(prof[li, j] - want))

        values = rng.normal(size=c.factor_shape)
        prof_f = analysis.freq_profile(values)
        half = c.head_dim // 2
        flat = values.reshape(-1, c.head_dim)
        for p in range(half):
            want = (flat[:, p].sum() + flat[:, p + half].sum()) / (2 * flat.shape[0])
            worst_freq = max(worst_freq, abs(prof_f[p] - want))
    ok = max(worst_ratio, worst_whf, worst_freq) < 1e-12
    announce(10, ok, f"analysis vs dense brute force over 100 cases each: channel "
                     f"ratios {worst_ratio:.2e}, high-freq ratio {worst_whf:.2e}, "
                     f"freq profile {worst_freq:.2e}")
    assert ok


def test_criterion_11_learn_and_eval_are_byte_deterministic(announce, tmp_path):
    cfg = ExperimentConfig(
        model={"n_layers": 1, "n_q_heads": 2, "n_kv_heads": 2, "head_dim": 8,
               "d_ff": 32, "vocab_size": 64, "max_pos": 128},
        train={"sink": 2, "window": 8, "seq_len_range": (32, 48), "seed": 0,
               "steps_stage1": 6, "steps_stage2": 3},
        prune_ratio=0.5, align=2, eval_seq_len=48, eval_samples=6,
        out_dir="det", seed=0)
    toy = pm.ToyTransformer.create(cfg.model_config(), seed=0)
    ckpt = str(tmp_path / "model.pkv")
    storage.save_checkpoint(ckpt, toy)
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        cmd_learn_mask(cfg, ckpt, out_dir=d)
        cmd_eval(cfg, ckpt, "learned", mask_path=os.path.join(d, "beta.pkv"), out_dir=d)
    names = ["alpha.pkv", "beta.pkv", "mask_curves.csv", "report_learned.json"]
    same = {n: filecmp.cmp(os.path.join(dirs[0], n), os.path.join(dirs[1], n),
                           shallow=False) for n in names}
    ok = all(same.values())
    detail = ", ".join(n + (" ok" if v else " DIFFERS") for n, v in same.items())
    announce(11, ok, f"repeated mask learning + evaluation byte-identical: {detail}")
    assert ok
