"""Partitioned-cache decoding checks against stateless references."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prunekv import analysis, cache, experiment, masking, storage
from prunekv.cache import (greedy_decode, memory_report, migrate_window, np_forward,
                           prefill_and_partition)
from prunekv.masking import BinaryChannelMask
from prunekv.model import ModelConfig, ToyTransformer, _forward

import helpers

CFG = ModelConfig(n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=8,
                  d_ff=32, vocab_size=64, max_pos=256)


def make_model(seed=0):
    return ToyTransformer.create(CFG, seed=seed)


def random_beta(rng, r=2):
    scores = rng.normal(size=CFG.factor_shape)
    keep = float(rng.choice([0.25, 0.5, 0.75]))
    return masking.select_mask(scores, keep, r)


def assert_stores_hold(kv, beta, toy, seq):
    """Layer 0 of the cache holds the K/V of `seq` where the position partition
    puts them: full width below the sink and from the first unmigrated
    position on, pruned to `beta`'s kept channels for the migrated middle.
    Layer 0's K/V depend only on token and position, so one full forward
    gives them."""
    k, v = np_forward(toy.weights_numpy(), CFG, seq)[0][0]
    t, sink, mid = len(seq), kv.sink, kv.mid_tokens
    assert kv.seq_len == t
    full = np.r_[0:min(sink, t), sink + mid:t]
    np.testing.assert_allclose(kv.k_full[0][:len(full)], k[full], atol=1e-12)
    np.testing.assert_allclose(kv.v_full[0][:len(full)], v[full], atol=1e-12)
    # packed middle: k_mid rows are the mask's kept (head, channel) bits in
    # head order, v_mid slabs the heads keeping any; streaming heads have no rows
    heads, channels = np.nonzero(beta.bits[0])
    kept_heads = np.flatnonzero(beta.bits[0].any(axis=-1))
    assert kv.k_mid[0].shape[0] == len(heads) and kv.v_mid[0].shape[0] == len(kept_heads)
    np.testing.assert_allclose(kv.k_mid[0][:, :mid], k[sink:sink + mid, heads, channels].T,
                               atol=1e-12)
    np.testing.assert_allclose(kv.v_mid[0][:, :mid],
                               v[sink:sink + mid, kept_heads].transpose(1, 0, 2), atol=1e-12)


def test_np_forward_matches_tensor_forward():
    toy = make_model(1)
    tokens = np.random.default_rng(1).integers(0, CFG.vocab_size, size=20)
    _, logits = np_forward(toy.weights_numpy(), CFG, tokens)
    want = (_forward(toy, tokens[None]) @ toy.params["lm_head"]).data[0]
    np.testing.assert_allclose(logits, want, rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("t", [1, cache.PREFILL_BLOCK - 1, cache.PREFILL_BLOCK,
                               cache.PREFILL_BLOCK + 1, 2 * cache.PREFILL_BLOCK + 3])
def test_blocked_prefill_matches_reference_across_block_edges(t):
    toy = make_model(3)
    tokens = np.random.default_rng(t).integers(0, CFG.vocab_size, size=t)
    layers, logits = np_forward(toy.weights_numpy(), CFG, tokens, want_q=True)
    want = helpers.reference_forward(toy.weights_numpy(), CFG, tokens)
    np.testing.assert_allclose(logits, want, rtol=1e-9, atol=1e-10)
    # want_q hands back the unscaled post-RoPE q, as the oracle records it
    _, _, ref_layers = helpers.reference_scaled_forward(
        toy.weights_numpy(), CFG, tokens, 1, np.ones(CFG.factor_shape), sink=0, window=0)
    for (q, k, v), (rq, rk, rv) in zip(layers, ref_layers):
        for got, ref in [(q, rq), (k, rk), (v, rv)]:
            np.testing.assert_allclose(got.transpose(1, 0, 2), ref, rtol=1e-9, atol=1e-10)
    # `rows` trims only the last layer's rows after attention: every q, k
    # and v stays bit-identical and the logits are the trailing rows
    for rows in sorted({0, 1, 2, t} & set(range(t + 1))):
        part, tail = np_forward(toy.weights_numpy(), CFG, tokens, want_q=True, rows=rows)
        assert tail.shape == (rows, CFG.vocab_size)
        np.testing.assert_allclose(tail, want[t - rows:], rtol=1e-9, atol=1e-10)
        for got, ref in zip(part, layers):
            for a, b in zip(got, ref):
                np.testing.assert_array_equal(a, b)
    for rows in (-1, t + 1):
        with pytest.raises(ValueError, match="rows"):
            np_forward(toy.weights_numpy(), CFG, tokens, rows=rows)


@pytest.mark.parametrize("t", [cache.PREFILL_CHUNK - 1, cache.PREFILL_CHUNK,
                               cache.PREFILL_CHUNK + 1, cache.PREFILL_CHUNK + 2,
                               2 * cache.PREFILL_CHUNK + 1])
def test_chunked_prefill_gives_the_one_chunk_bits(t, monkeypatch):
    # at t = PREFILL_CHUNK + 1 the 1-row remainder joins the chunk before it,
    # as a 1-row product sums differently from the same row of a larger one
    c = ModelConfig(n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=8, d_ff=32,
                    vocab_size=64, max_pos=2 * cache.PREFILL_CHUNK + 1)
    w = ToyTransformer.create(c, seed=5).weights_numpy()
    tokens = np.random.default_rng(t).integers(0, c.vocab_size, size=t)
    cases = [(rows, want_q) for rows in (None, 0, 1) for want_q in (False, True)]
    chunked = [np_forward(w, c, tokens, want_q, rows) for rows, want_q in cases]
    monkeypatch.setattr(cache, "PREFILL_CHUNK", c.max_pos)
    for (rows, want_q), (layers, logits) in zip(cases, chunked):
        one_layers, one_logits = np_forward(w, c, tokens, want_q, rows)
        np.testing.assert_array_equal(logits, one_logits)
        for got, want in zip(layers, one_layers):
            assert len(got) == len(want) == 2 + want_q
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)


def test_prefill_memory_bound_at_max_pos():
    # one prefill at T = max_pos = 2048 on the default model peaks at about
    # 27.3 MiB traced (tools/graph_memory.py): the per-layer k and v, the
    # logits and one PREFILL_CHUNK-row chunk's activations, whose attention
    # scores one (n_kv, g, PREFILL_BLOCK, T) block at a time. One pass over
    # all T rows took 36.0 MiB; a full (n_kv, g, T, T) buffer plus a (T, T)
    # mask took 306 MiB
    c = ModelConfig()
    toy = ToyTransformer.create(c, seed=0)
    tokens = np.random.default_rng(0).integers(0, c.vocab_size, size=c.max_pos)
    w = toy.weights_numpy()
    tracemalloc.start()
    try:
        _, logits = np_forward(w, c, tokens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(logits).all()
    assert peak < 30 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_identity_mask_decode_matches_dense():
    toy = make_model(2)
    rng = np.random.default_rng(2)
    prompt = rng.integers(0, CFG.vocab_size, size=40)
    ones = BinaryChannelMask.all_ones(CFG.factor_shape)
    got, trace, _ = greedy_decode(toy, prompt, 24, ones, sink=4, window=8,
                                  collect_logits=True)
    seq = prompt
    for _ in range(24):  # dense greedy decode: a full forward pass per token
        seq = np.append(seq, np.argmax(np_forward(toy.weights_numpy(), CFG, seq)[1][-1]))
    np.testing.assert_array_equal(got, seq[len(prompt):])
    # all-ones pruning changes no arithmetic: logits match the dense path
    seq = np.concatenate([prompt, got[:-1]])
    for step, logits in enumerate(trace):
        _, full = np_forward(toy.weights_numpy(), CFG, np.append(seq[:len(prompt) + step],
                                                                 got[step]))
        np.testing.assert_allclose(logits, full[-1], atol=1e-10)


def test_pruned_decode_matches_stateless_reference():
    rng = np.random.default_rng(3)
    toy = make_model(3)
    prompt = rng.integers(0, CFG.vocab_size, size=32)
    for trial in range(3):
        beta = random_beta(rng)
        got, trace, _ = greedy_decode(toy, prompt, 16, beta, sink=4, window=8,
                                      collect_logits=True)
        want, want_trace = helpers.reference_greedy_decode(
            toy.weights_numpy(), CFG, prompt, 16, beta.bits, sink=4, window=8)
        np.testing.assert_array_equal(got, want)
        for a, b in zip(trace, want_trace):
            np.testing.assert_allclose(a, b, atol=1e-8)


def test_pruned_stores_stop_at_the_most_middle_positions():
    # decoding to the last position max_pos allows: prefill's migration of
    # 188 positions used to reserve 376 where 244 is the most a cache can hold
    rng = np.random.default_rng(15)
    toy = make_model(15)
    prompt = rng.integers(0, CFG.vocab_size, size=200)
    beta, sink, window = random_beta(rng), 4, 8
    n_new = CFG.max_pos - len(prompt)
    got, trace, kv = greedy_decode(toy, prompt, n_new, beta, sink, window, collect_logits=True)
    assert kv.seq_len == CFG.max_pos
    for store in kv.k_mid + kv.v_mid:
        assert kv.mid_tokens <= store.shape[1] <= CFG.max_pos - sink - window
    want, want_trace = helpers.reference_greedy_decode(
        toy.weights_numpy(), CFG, prompt, n_new, beta.bits, sink, window)
    np.testing.assert_array_equal(got, want)
    for a, b in zip(trace, want_trace):
        np.testing.assert_allclose(a, b, atol=1e-8)


def test_streaming_head_matches_sink_local_only_attention():
    rng = np.random.default_rng(4)
    toy = make_model(4)
    prompt = rng.integers(0, CFG.vocab_size, size=32)
    bits = np.ones(CFG.factor_shape, dtype=np.uint8)
    bits[0, 1] = 0  # fully pruned head -> streaming
    beta = BinaryChannelMask(bits=bits, r=1, keep_ratio=0.75)
    got, trace, _ = greedy_decode(toy, prompt, 12, beta, sink=4, window=8,
                                  collect_logits=True)
    want, want_trace = helpers.reference_greedy_decode(
        toy.weights_numpy(), CFG, prompt, 12, beta.bits, sink=4, window=8,
        streaming=[(0, 1)])
    np.testing.assert_array_equal(got, want)
    for a, b in zip(trace, want_trace):
        np.testing.assert_allclose(a, b, atol=1e-10)


def zero_heads(beta, heads):
    """`beta` with the rows of `heads` [(layer, head), ...] set to zero: they stream."""
    bits = beta.bits.copy()
    for layer, head in heads:
        bits[layer, head] = 0
    return BinaryChannelMask(bits=bits, r=beta.r, keep_ratio=beta.keep_ratio)


def test_whf_streaming_decodes_with_the_chosen_heads_zeroed(tmp_path, monkeypatch):
    """whf_streaming decodes every sample as learned mode does with the
    all-ones mask whose chosen heads' rows are zero, and still reports the
    all-ones mask."""
    cfg = experiment.ExperimentConfig(
        model={"n_layers": 2, "n_q_heads": 4, "n_kv_heads": 2, "head_dim": 8, "d_ff": 32,
               "vocab_size": 64, "max_pos": 128},
        train={"sink": 2, "window": 8, "seq_len_range": (32, 48)}, whf_fraction=0.5,
        eval_seq_len=48, eval_samples=4, calib_samples=2)
    c = cfg.model_config()
    toy = ToyTransformer.create(c, seed=5)
    samples = experiment.eval_samples(cfg)  # the samples cmd_eval draws
    profile = analysis.high_freq_ratio(toy, experiment.calib_samples(cfg)[0])
    chosen = analysis.convert_streaming_by_whf(profile, cfg.whf_fraction)
    assert len(chosen) == 2
    zeroed = zero_heads(BinaryChannelMask.all_ones(c.factor_shape), chosen)
    decoded, original = [], cache.greedy_decode

    def recorded(model, tokens, n_new, beta, *args, **kwargs):
        out = original(model, tokens, n_new, beta, *args, **kwargs)
        decoded.append((beta.bits.copy(), out[0].tolist(), out[2].stored_v_elements()))
        return out

    monkeypatch.setattr(cache, "greedy_decode", recorded)
    ckpt = str(tmp_path / "model.pkv")
    storage.save_checkpoint(ckpt, toy)
    report = experiment.cmd_eval(cfg, ckpt, experiment.MODE_WHF_STREAMING,
                                 out_dir=str(tmp_path))
    whf, decoded = decoded, []
    learned, _ = experiment.evaluate_mode(cfg, toy, experiment.MODE_LEARNED, samples, zeroed)
    assert report["accuracy"] == learned
    assert len(whf) == len(decoded) == len(samples)
    for (bits, tokens, v_elements), (want_bits, want_tokens, want_v) in zip(whf, decoded):
        np.testing.assert_array_equal(bits, zeroed.bits)
        assert tokens == want_tokens and v_elements == want_v
    assert report["mask"]["kept_counts"] == [[c.head_dim] * c.n_kv_heads] * c.n_layers
    assert report["mask"]["streaming_heads"] == []


@st.composite
def decode_layouts(draw):
    n_new = draw(st.integers(0, 12))
    heads = st.tuples(st.integers(0, CFG.n_layers - 1), st.integers(0, CFG.n_kv_heads - 1))
    return dict(prompt_len=draw(st.integers(1, 16)), sink=draw(st.integers(0, 6)),
                window=draw(st.integers(0, 10)), n_new=n_new,
                migrate_every=draw(st.integers(1, n_new + 1)), seed=draw(st.integers(0, 2 ** 16)),
                zeroed=sorted(draw(st.sets(heads, max_size=2))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(dict(prompt_len=2, sink=4, window=8, n_new=12, migrate_every=1, seed=0, zeroed=[]))
@given(decode_layouts())
def test_engine_matches_reference_on_any_layout(layout):
    """Sink and window from 0, prompts shorter than the sink, any migration
    batch up to n_new + 1 and heads streaming by a zeroed mask row decode as
    the reference, which is told those heads stream."""
    rng = np.random.default_rng(layout["seed"])
    toy = make_model(layout["seed"] % 3)
    prompt = rng.integers(0, CFG.vocab_size, size=layout["prompt_len"])
    beta = random_beta(rng)
    args = (toy, prompt, layout["n_new"], zero_heads(beta, layout["zeroed"]), layout["sink"],
            layout["window"], layout["migrate_every"])
    if layout["sink"] + layout["window"] == 0 and (layout["zeroed"] or beta.streaming_heads()):
        with pytest.raises(ValueError, match="streaming heads"):
            greedy_decode(*args)
        return
    got, trace, _ = greedy_decode(*args, collect_logits=True)
    want, want_trace = helpers.reference_greedy_decode(
        toy.weights_numpy(), CFG, prompt, layout["n_new"], beta.bits, layout["sink"],
        layout["window"], streaming=layout["zeroed"])
    np.testing.assert_array_equal(got, want)
    for a, b in zip(trace, want_trace):
        np.testing.assert_allclose(a, b, atol=1e-8)


def test_migration_timing_does_not_change_output():
    rng = np.random.default_rng(6)
    toy = make_model(6)
    prompt = rng.integers(0, CFG.vocab_size, size=48)
    beta = random_beta(rng)
    results = [greedy_decode(toy, prompt, 40, beta, sink=4, window=8, migrate_every=m,
                             collect_logits=True)
               for m in (1, 8, 32)]
    for tokens, trace, _ in results[1:]:
        np.testing.assert_array_equal(tokens, results[0][0])
        for a, b in zip(trace, results[0][1]):
            np.testing.assert_allclose(a, b, atol=1e-12)


def test_prefill_partition_counts():
    toy = make_model(7)
    prompt = np.random.default_rng(7).integers(0, CFG.vocab_size, size=40)
    beta = random_beta(np.random.default_rng(7))
    kv, logits = prefill_and_partition(toy, beta, prompt, sink=4, window=8)
    assert logits.shape == (CFG.vocab_size,)
    assert kv.mid_tokens == 40 - 4 - 8 and kv.pending == 0
    counts = beta.kept_counts()
    np.testing.assert_array_equal(kv.counts, counts)
    for i in range(CFG.n_layers):
        assert kv.k_mid[i].shape[0] == counts[i].sum()
        assert kv.v_mid[i].shape[0] == (counts[i] > 0).sum()
        assert kv.v_mid[i].shape[2] == CFG.head_dim
    assert_stores_hold(kv, beta, toy, prompt)  # the first 28 rows of each middle store


def test_short_prompt_leaves_pruned_store_empty():
    toy = make_model(8)
    prompt = np.random.default_rng(8).integers(0, CFG.vocab_size, size=10)
    beta = random_beta(np.random.default_rng(8))
    kv, _ = prefill_and_partition(toy, beta, prompt, sink=4, window=8)
    assert kv.mid_tokens == 0 and kv.pending == 0
    assert_stores_hold(kv, beta, toy, prompt)


def test_migration_threshold_and_conservation():
    toy = make_model(9)
    rng = np.random.default_rng(9)
    prompt = rng.integers(0, CFG.vocab_size, size=40)
    beta = random_beta(rng)
    kv, logits = prefill_and_partition(toy, beta, prompt, 4, 8, migrate_every=16)
    mid0 = kv.mid_tokens
    seq = prompt
    for step in range(15):
        seq = np.append(seq, np.argmax(logits))
        logits = cache.decode_step(toy, kv, seq[-1])
        assert kv.mid_tokens == mid0  # below the migration batch size
        assert kv.pending == step + 1
    assert_stores_hold(kv, beta, toy, seq)
    seq = np.append(seq, np.argmax(logits))
    cache.decode_step(toy, kv, seq[-1])
    assert kv.mid_tokens == mid0 + 16
    assert kv.pending == 0
    assert_stores_hold(kv, beta, toy, seq)  # 40 prompt + 16 decoded, none lost or duplicated


def test_migrate_window_noop_below_threshold():
    toy = make_model(10)
    prompt = np.random.default_rng(10).integers(0, CFG.vocab_size, size=40)
    beta = random_beta(np.random.default_rng(10))
    kv, _ = prefill_and_partition(toy, beta, prompt, 4, 8, migrate_every=32)
    before = kv.mid_tokens
    migrate_window(kv)
    assert kv.mid_tokens == before


def test_mask_shape_mismatch_rejected():
    toy = make_model(0)
    bad = BinaryChannelMask.all_ones((1, 1, 4))
    with pytest.raises(ValueError):
        prefill_and_partition(toy, bad, np.zeros(20, dtype=int), 4, 8)


def test_engine_rejects_bad_input():
    toy = make_model(0)
    ones = BinaryChannelMask.all_ones(CFG.factor_shape)
    prompt = np.arange(8)
    for bad in ([1, CFG.vocab_size], [-1, 2], [], [0.5]):
        with pytest.raises(ValueError, match="token"):
            prefill_and_partition(toy, ones, bad, 4, 8)
    for sink, window, every, name in [(2.0, 8, 4, "sink"), (4, True, 4, "window"),
                                      (-1, 8, 4, "sink"), (4, 8, 0, "migrate_every"),
                                      (4, 8, 2.5, "migrate_every")]:
        with pytest.raises(ValueError, match=f"{name} must be"):
            prefill_and_partition(toy, ones, prompt, sink, window, migrate_every=every)
    for n_new in (-3, 2.0, True):
        with pytest.raises(ValueError, match="n_new must be an int >= 0"):
            greedy_decode(toy, prompt, n_new, ones, 4, 8)
    kv, _ = prefill_and_partition(toy, ones, prompt, 4, 8)
    with pytest.raises(ValueError, match="token ids"):
        cache.decode_step(toy, kv, CFG.vocab_size)
    assert kv.seq_len == len(prompt)  # a rejected token leaves the cache as it was


def test_memory_report_oracle():
    c = ModelConfig(n_layers=2, n_q_heads=4, n_kv_heads=4, head_dim=16)
    bits = np.zeros((2, 4, 16), dtype=np.uint8)
    bits[:, :, :8] = 1
    bits[0, 0] = 0  # one streaming head
    beta = BinaryChannelMask(bits=bits, r=8, keep_ratio=0.5)
    sink, window, bpe = 16, 48, 2
    # seq_len = sink + window and seq_len < sink have no middle
    for seq_len, want_mid in [(512, 448), (64, 0), (10, 0)]:
        # the last position's middle keys, by the oracle's rule
        mid = sum(not helpers.ref_full_key(seq_len - 1, k, sink, window) for k in range(seq_len))
        assert mid == want_mid
        rep = memory_report(beta, c, seq_len, sink, window, bpe)
        baseline = 2 * 4 * seq_len * 16 * bpe
        k_pruned = (2 * 4 * (seq_len - mid) * 16 + int(bits.sum(axis=-1).sum()) * mid) * bpe
        assert rep.bytes_k_baseline == rep.bytes_v_baseline == baseline
        assert rep.bytes_k_pruned == k_pruned
        # v saving is exactly streaming_fraction * mid/seq_len
        f = 1 / 8
        assert np.isclose(rep.v_reduction_fraction, f * mid / seq_len, rtol=1e-12)
        assert np.isclose(rep.k_reduction_fraction, 1.0 - k_pruned / baseline, rtol=1e-12)


def test_memory_report_consistent_with_stored_cache():
    toy = make_model(11)
    rng = np.random.default_rng(11)
    prompt = rng.integers(0, CFG.vocab_size, size=60)
    beta = random_beta(rng)
    # migrate_every=1 keeps the physical layout equal to the logical partition
    _, _, kv = greedy_decode(toy, prompt, 20, beta, sink=4, window=8, migrate_every=1)
    rep = memory_report(beta, CFG, kv.seq_len, 4, 8, bytes_per_element=2)
    assert kv.stored_k_elements() * 2 == rep.bytes_k_pruned
    assert kv.stored_v_elements() * 2 == rep.bytes_v_pruned
    counts = [kv.stored_k_elements(), kv.stored_v_elements(), rep.bytes_k_pruned,
              rep.bytes_v_pruned, rep.bytes_k_baseline]
    assert all(type(n) is int for n in counts)  # reports are written as JSON


@pytest.mark.parametrize("zeroed", [[], [(1, 0)]])
def test_live_store_elements_equal_stored_counts(zeroed):
    """`stored_k_elements`/`stored_v_elements`, which the memory claims rest
    on, count exactly the live elements of the four stores, before and after
    migrations. Layer 0 has a head keeping all d channels and one keeping 2;
    layer 1 has a streaming head, and with `zeroed` every head streams."""
    toy = make_model(12)
    bits = np.zeros(CFG.factor_shape, dtype=np.uint8)
    bits[0, 0] = 1
    bits[0, 1, :2] = 1
    bits[1, 0, ::2] = 1
    beta = BinaryChannelMask(bits=bits, r=1, keep_ratio=0.5)
    prompt = np.random.default_rng(12).integers(0, CFG.vocab_size, size=20)
    kv, logits = prefill_and_partition(toy, zero_heads(beta, zeroed), prompt, sink=2, window=3,
                                       migrate_every=4)
    assert (kv.counts[1] == 0).sum() == 1 + len(zeroed)

    def live(stores_full, stores_mid):
        rows, mid = kv.seq_len - kv.mid_tokens, kv.mid_tokens
        return sum(f[:rows].size + m[:, :mid].size for f, m in zip(stores_full, stores_mid))

    mids = set()
    for step in range(10):
        assert live(kv.k_full, kv.k_mid) == kv.stored_k_elements()
        assert live(kv.v_full, kv.v_mid) == kv.stored_v_elements()
        mids.add((kv.mid_tokens, kv.pending))
        logits = cache.decode_step(toy, kv, int(np.argmax(logits)))
    assert len({mid for mid, _ in mids}) >= 3  # prefill's migration and two in decode
    assert any(pending for _, pending in mids)


def test_memory_report_rejects_bad_sizes():
    ones = BinaryChannelMask.all_ones(CFG.factor_shape)
    for seq_len in (0, -5, 10.5, True):
        with pytest.raises(ValueError, match="seq_len must be a positive int"):
            memory_report(ones, CFG, seq_len, 4, 8)
    # a negative window counted 12 middle positions in a 10-position cache
    for sink, window, name in [(2, -4, "window"), (-3, 4, "sink"), (2.0, 4, "sink"),
                               (2, True, "window")]:
        with pytest.raises(ValueError, match=f"{name} must be an int >= 0"):
            memory_report(ones, CFG, 10, sink, window)
    for bpe in (0, -2, 2.5, True):  # 2.5 gave float byte counts
        with pytest.raises(ValueError, match="bytes_per_element must be a positive int"):
            memory_report(ones, CFG, 16, 4, 8, bytes_per_element=bpe)
    # a mask of another model's shape
    for shape, config in [((1, 1, 16), ModelConfig()), ((2, 2, 4), CFG), ((3, 2, 8), CFG)]:
        with pytest.raises(ValueError, match="mask shape"):
            memory_report(BinaryChannelMask.all_ones(shape), config, 2048, 16, 64)


def test_greedy_decode_checks_length_before_work(monkeypatch):
    toy = make_model(0)
    ones = BinaryChannelMask.all_ones(CFG.factor_shape)
    prompt = np.arange(CFG.max_pos - 5) % CFG.vocab_size
    monkeypatch.setattr(cache, "np_forward", None)  # any prefill would fail with a TypeError
    with pytest.raises(ValueError, match="max_pos"):
        greedy_decode(toy, prompt, 4, ones, 4, 8, question=[1, 2])
    monkeypatch.undo()
    toks, _, kv = greedy_decode(toy, prompt, 3, ones, 4, 8, question=[1, 2],
                                collect_logits=True)
    assert len(toks) == 3 and kv.seq_len == CFG.max_pos  # the last position is usable


def test_greedy_decode_skips_the_unread_last_step(monkeypatch):
    toy = make_model(14)
    prompt = np.random.default_rng(14).integers(0, CFG.vocab_size, size=24)
    question, n_new = [1, 2], 3
    ones = BinaryChannelMask.all_ones(CFG.factor_shape)
    calls, original = [], cache.decode_step

    def counted(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(cache, "decode_step", counted)
    toks, _, kv = greedy_decode(toy, prompt, n_new, ones, 4, 8, question=question)
    # len(question) + n_new - 1 steps: the last generated token, whose
    # logits nothing reads, is never fed
    assert calls == question + toks[:-1].tolist()
    assert kv.seq_len == len(prompt) + len(question) + n_new - 1
    calls.clear()
    want, trace, _ = greedy_decode(toy, prompt, n_new, ones, 4, 8, question=question,
                                   collect_logits=True)
    assert calls == question + want.tolist() and len(trace) == n_new
    np.testing.assert_array_equal(toks, want)


def test_question_tokens_decode_through_cache():
    toy = make_model(13)
    rng = np.random.default_rng(13)
    prompt = rng.integers(0, CFG.vocab_size, size=32)
    ones = BinaryChannelMask.all_ones(CFG.factor_shape)
    # feeding the tail through the decode path must equal prefill of the whole
    a, _, kv_a = greedy_decode(toy, prompt, 5, ones, 4, 8, collect_logits=True)
    b, _, kv_b = greedy_decode(toy, prompt[:-3], 5, ones, 4, 8, question=prompt[-3:],
                               collect_logits=True)
    np.testing.assert_array_equal(a, b)
    seq = np.concatenate([prompt, a])
    assert_stores_hold(kv_a, ones, toy, seq)
    assert_stores_hold(kv_b, ones, toy, seq)
