"""Partitioned-cache decoding checks against stateless references."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prunekv import cache, masking
from prunekv.cache import (greedy_decode, memory_report, migrate_window, np_forward,
                           prefill_and_partition)
from prunekv.masking import BinaryChannelMask
from prunekv.model import ModelConfig, ToyTransformer, forward_full

import helpers

CFG = ModelConfig(n_layers=2, n_q_heads=4, n_kv_heads=2, head_dim=8,
                  d_ff=32, vocab_size=64, max_pos=256)


def make_model(seed=0):
    return ToyTransformer.create(CFG, seed=seed)


def random_beta(rng, r=2):
    scores = rng.normal(size=CFG.factor_shape)
    keep = float(rng.choice([0.25, 0.5, 0.75]))
    return masking.select_mask(scores, keep, r)


def assert_stores_hold(kv, toy, seq):
    """Layer 0 of the cache holds the K/V of `seq` where the position partition
    puts them: full width below the sink and from the first unmigrated
    position on, pruned to the kept channels for the migrated middle. Layer
    0's K/V depend only on token and position, so one full forward gives them."""
    k, v = np_forward(toy.weights_numpy(), CFG, seq)[0][0]
    t, sink, mid = len(seq), kv.sink, kv.mid_tokens
    assert kv.seq_len == t
    full = np.r_[0:min(sink, t), sink + mid:t]
    np.testing.assert_allclose(kv.k_full[0][:len(full)], k[full], atol=1e-12)
    np.testing.assert_allclose(kv.v_full[0][:len(full)], v[full], atol=1e-12)
    # packed middle: k_mid rows are (head, kept channel) pairs in head order,
    # v_mid slabs the non-streaming heads; streaming heads have no rows
    kept = kv.kept_channels[0]
    heads = np.repeat(np.arange(CFG.n_kv_heads), [len(c) for c in kept])
    channels, kept_heads = np.concatenate(kept), np.flatnonzero(np.logical_not(kv.streaming[0]))
    assert kv.k_mid[0].shape[0] == len(heads) and kv.v_mid[0].shape[0] == len(kept_heads)
    np.testing.assert_allclose(kv.k_mid[0][:, :mid], k[sink:sink + mid, heads, channels].T,
                               atol=1e-12)
    np.testing.assert_allclose(kv.v_mid[0][:, :mid],
                               v[sink:sink + mid, kept_heads].transpose(1, 0, 2), atol=1e-12)


def test_np_forward_matches_tensor_forward():
    toy = make_model(1)
    tokens = np.random.default_rng(1).integers(0, CFG.vocab_size, size=20)
    _, logits = np_forward(toy.weights_numpy(), CFG, tokens)
    rec = forward_full(toy, tokens, 1)
    np.testing.assert_allclose(logits, rec.logits.data, rtol=1e-9, atol=1e-10)


@pytest.mark.parametrize("t", [1, cache.PREFILL_BLOCK - 1, cache.PREFILL_BLOCK,
                               cache.PREFILL_BLOCK + 1, 2 * cache.PREFILL_BLOCK + 3])
def test_blocked_prefill_matches_reference_across_block_edges(t):
    toy = make_model(3)
    tokens = np.random.default_rng(t).integers(0, CFG.vocab_size, size=t)
    layers, logits = np_forward(toy.weights_numpy(), CFG, tokens, want_q=True)
    want = helpers.reference_forward(toy.weights_numpy(), CFG, tokens)
    np.testing.assert_allclose(logits, want, rtol=1e-9, atol=1e-10)
    # want_q hands back the unscaled post-RoPE q, as the Tensor forward records it
    rec = forward_full(toy, tokens, 1, want_record=True)
    for (q, k, v), (rq, rk, rv) in zip(layers, rec.layers):
        for got, ref in [(q, rq), (k, rk), (v, rv)]:
            np.testing.assert_allclose(got.transpose(1, 0, 2), ref[0], rtol=1e-9, atol=1e-10)


def test_prefill_memory_bound_at_max_pos():
    # one prefill at T = max_pos = 2048 on the default model: the row blocks
    # keep the score buffer at (n_kv, g, PREFILL_BLOCK, T), about 34 MiB
    # traced; a full (n_kv, g, T, T) buffer plus a (T, T) mask took 306 MiB
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
    assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.0f} MiB"


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


def test_forced_streaming_equivalent_to_zeroed_head():
    rng = np.random.default_rng(5)
    toy = make_model(5)
    prompt = rng.integers(0, CFG.vocab_size, size=32)
    bits = np.ones(CFG.factor_shape, dtype=np.uint8)
    bits[1, 0] = 0
    zeroed = BinaryChannelMask(bits=bits, r=1, keep_ratio=0.75)
    ones = BinaryChannelMask.all_ones(CFG.factor_shape)
    a, ta, _ = greedy_decode(toy, prompt, 10, zeroed, 4, 8, collect_logits=True)
    b, tb, _ = greedy_decode(toy, prompt, 10, ones, 4, 8, forced_streaming=[(1, 0)],
                             collect_logits=True)
    np.testing.assert_array_equal(a, b)
    for x, y in zip(ta, tb):
        np.testing.assert_allclose(x, y, atol=1e-12)


@st.composite
def decode_layouts(draw):
    n_new = draw(st.integers(0, 12))
    heads = st.tuples(st.integers(0, CFG.n_layers - 1), st.integers(0, CFG.n_kv_heads - 1))
    return dict(prompt_len=draw(st.integers(1, 16)), sink=draw(st.integers(0, 6)),
                window=draw(st.integers(0, 10)), n_new=n_new,
                migrate_every=draw(st.integers(1, n_new + 1)), seed=draw(st.integers(0, 2 ** 16)),
                forced=sorted(draw(st.sets(heads, max_size=2))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(dict(prompt_len=2, sink=4, window=8, n_new=12, migrate_every=1, seed=0, forced=[]))
@given(decode_layouts())
def test_engine_matches_reference_on_any_layout(layout):
    """Sink and window from 0, prompts shorter than the sink, any migration
    batch up to n_new + 1 and forced streaming heads decode as the reference."""
    rng = np.random.default_rng(layout["seed"])
    toy = make_model(layout["seed"] % 3)
    prompt = rng.integers(0, CFG.vocab_size, size=layout["prompt_len"])
    beta = random_beta(rng)
    args = (toy, prompt, layout["n_new"], beta, layout["sink"], layout["window"],
            layout["migrate_every"], layout["forced"])
    if layout["sink"] + layout["window"] == 0 and (layout["forced"] or beta.streaming_heads()):
        with pytest.raises(ValueError, match="streaming heads"):
            greedy_decode(*args)
        return
    got, trace, _ = greedy_decode(*args, collect_logits=True)
    want, want_trace = helpers.reference_greedy_decode(
        toy.weights_numpy(), CFG, prompt, layout["n_new"], beta.bits, layout["sink"],
        layout["window"], streaming=layout["forced"])
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
    for i in range(CFG.n_layers):
        assert [len(kept) for kept in kv.kept_channels[i]] == counts[i].tolist()
        assert kv.k_mid[i].shape[0] == counts[i].sum()
        assert kv.v_mid[i].shape[0] == (counts[i] > 0).sum()
        assert kv.v_mid[i].shape[2] == CFG.head_dim
    assert_stores_hold(kv, toy, prompt)  # the first 28 rows of each middle store


def test_short_prompt_leaves_pruned_store_empty():
    toy = make_model(8)
    prompt = np.random.default_rng(8).integers(0, CFG.vocab_size, size=10)
    beta = random_beta(np.random.default_rng(8))
    kv, _ = prefill_and_partition(toy, beta, prompt, sink=4, window=8)
    assert kv.mid_tokens == 0 and kv.pending == 0
    assert_stores_hold(kv, toy, prompt)


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
    assert_stores_hold(kv, toy, seq)
    seq = np.append(seq, np.argmax(logits))
    cache.decode_step(toy, kv, seq[-1])
    assert kv.mid_tokens == mid0 + 16
    assert kv.pending == 0
    assert_stores_hold(kv, toy, seq)  # 40 prompt + 16 decoded, none lost or duplicated


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
    with pytest.raises(ValueError, match="migrate_every"):
        prefill_and_partition(toy, ones, prompt, 4, 8, migrate_every=0)
    with pytest.raises(ValueError, match="n_new"):
        greedy_decode(toy, prompt, -3, ones, 4, 8)
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
    seq_len, sink, window, bpe = 512, 16, 48, 2
    mid = seq_len - sink - window
    rep = memory_report(beta, c, seq_len, sink, window, bpe)
    baseline = 2 * 4 * seq_len * 16 * bpe
    k_pruned = (2 * 4 * (sink + window) * 16 + int(bits.sum(axis=-1).sum()) * mid) * bpe
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


@pytest.mark.parametrize("forced", [[], [(1, 0)]])
def test_live_store_elements_equal_stored_counts(forced):
    """`stored_k_elements`/`stored_v_elements`, which the memory claims rest
    on, count exactly the live elements of the four stores, before and after
    migrations. Layer 0 has a head keeping all d channels and one keeping 2;
    layer 1 has a streaming head, and with `forced` every head streams."""
    toy = make_model(12)
    bits = np.zeros(CFG.factor_shape, dtype=np.uint8)
    bits[0, 0] = 1
    bits[0, 1, :2] = 1
    bits[1, 0, ::2] = 1
    beta = BinaryChannelMask(bits=bits, r=1, keep_ratio=0.5)
    prompt = np.random.default_rng(12).integers(0, CFG.vocab_size, size=20)
    kv, logits = prefill_and_partition(toy, beta, prompt, sink=2, window=3, migrate_every=4,
                                       forced_streaming=forced)
    assert sum(kv.streaming[1]) == 1 + len(forced)

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
    for seq_len in (0, -5):
        with pytest.raises(ValueError, match="seq_len"):
            memory_report(ones, CFG, seq_len, 4, 8)
    for bpe in (0, -2):
        with pytest.raises(ValueError, match="bytes_per_element"):
            memory_report(ones, CFG, 16, 4, 8, bytes_per_element=bpe)


def test_greedy_decode_checks_length_before_work(monkeypatch):
    toy = make_model(0)
    ones = BinaryChannelMask.all_ones(CFG.factor_shape)
    prompt = np.arange(CFG.max_pos - 5) % CFG.vocab_size
    monkeypatch.setattr(cache, "np_forward", None)  # any prefill would fail with a TypeError
    with pytest.raises(ValueError, match="max_pos"):
        greedy_decode(toy, prompt, 4, ones, 4, 8, question=[1, 2])
    monkeypatch.undo()
    toks, _, kv = greedy_decode(toy, prompt, 3, ones, 4, 8, question=[1, 2])
    assert len(toks) == 3 and kv.seq_len == CFG.max_pos  # the last position is usable


def test_question_tokens_decode_through_cache():
    toy = make_model(13)
    rng = np.random.default_rng(13)
    prompt = rng.integers(0, CFG.vocab_size, size=32)
    ones = BinaryChannelMask.all_ones(CFG.factor_shape)
    # feeding the tail through the decode path must equal prefill of the whole
    a, _, kv_a = greedy_decode(toy, prompt, 5, ones, 4, 8)
    b, _, kv_b = greedy_decode(toy, prompt[:-3], 5, ones, 4, 8, question=prompt[-3:])
    np.testing.assert_array_equal(a, b)
    seq = np.concatenate([prompt, a])
    assert_stores_hold(kv_a, toy, seq)
    assert_stores_hold(kv_b, toy, seq)
