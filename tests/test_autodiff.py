"""Gradient and optimizer checks against finite differences and hand math."""
import operator
import re
import weakref

import numpy as np
import pytest

import prunekv.autodiff as ad
from prunekv.autodiff import Tensor

import helpers


def total(t):
    """The sum of t's entries as a scalar Tensor, whose gradient is exactly ones."""
    return ad.reshape(t.reshape(1, -1) @ np.ones((t.data.size, 1)), ())


def fd_check(build_loss, x0, rtol=1e-6, atol=1e-8, eps=1e-6):
    """Compare backward() gradient at x0 with central finite differences."""
    x = Tensor(x0.copy(), requires_grad=True)
    build_loss(x).backward()
    got = x.grad
    want = helpers.finite_difference_gradient(lambda a: float(build_loss(Tensor(a)).data), x0,
                                              eps)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


RNG = np.random.default_rng(7)


def test_add_mul_broadcast_grad():
    b = RNG.normal(size=(1, 4))
    fd_check(lambda x: total((x + b) * (x * 2.0 + 1.0)), RNG.normal(size=(3, 4)))


def test_sub_div_grad():
    b = RNG.normal(size=(3, 1)) + 2.0
    fd_check(lambda x: total((x - 1.5) * (1.0 / b)), RNG.normal(size=(3, 4)))


def test_matmul_grad():
    b = RNG.normal(size=(4, 2))
    fd_check(lambda x: total(x @ b), RNG.normal(size=(3, 4)))


def test_batched_matmul_broadcast_grad():
    b = RNG.normal(size=(1, 4, 2))
    fd_check(lambda x: ad.sum_squares(x @ b), RNG.normal(size=(5, 3, 4)))


def test_transpose_reshape_getitem_grad():
    def loss(x):
        y = x.transpose(1, 0, 2).reshape(4, 6)
        return ad.sum_squares(y[1:3, ::2])
    fd_check(loss, RNG.normal(size=(2, 2, 6)))


def test_concat_grad_splits_between_parts():
    const = RNG.normal(size=(2, 1, 3))
    w = RNG.normal(size=(2, 3, 3))
    # the constant part takes no gradient; the tensor appears twice
    fd_check(lambda x: ad.sum_squares(ad.concat([const, x, x * 2.0], axis=1) * w),
             RNG.normal(size=(2, 1, 3)))
    got = ad.concat([Tensor(np.zeros((1, 2))), Tensor(np.ones((2, 2)))], axis=0)
    np.testing.assert_array_equal(got.data, [[0, 0], [1, 1], [1, 1]])


def test_getitem_repeated_index_accumulates():
    x = Tensor(np.arange(4.0), requires_grad=True)
    idx = np.array([1, 1, 2])
    total(x[idx]).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 2.0, 1.0, 0.0])


@pytest.mark.parametrize("idx", [2, (slice(None), slice(1, 3)), (Ellipsis, 0),
                                 (None, 1, slice(None, None, -2)), (np.int64(1), Ellipsis, None)])
def test_getitem_basic_index_grad_equals_scatter_add(idx):
    # basic indexing selects no element twice, so `+=` gives np.add.at's bits
    assert ad._is_basic(idx)
    x0 = RNG.normal(size=(3, 4, 5))
    x = Tensor(x0, requires_grad=True)
    g = RNG.normal(size=x0[idx].shape)
    total(x[idx] * g).backward()
    want = np.zeros_like(x0)
    np.add.at(want, idx, g)
    np.testing.assert_array_equal(x.grad, want)
    for fancy in (np.array([1, 1]), [0, 2], (slice(None), np.array([0, 0])), True):
        assert not ad._is_basic(fancy)


def test_l1_norm_grad_and_zero_subgradient():
    x0 = np.array([1.5, -2.0, 0.0, 3.0])
    x = Tensor(x0, requires_grad=True)
    ad.l1_norm(x).backward()
    np.testing.assert_array_equal(x.grad, [1.0, -1.0, 0.0, 1.0])


def test_sum_squares_closed_form_grad():
    # L = ||Hs - Hf||^2  =>  dL/dHs = 2 (Hs - Hf)
    hf = RNG.normal(size=(2, 5))
    hs = Tensor(RNG.normal(size=(2, 5)), requires_grad=True)
    ad.sum_squares(hs - hf).backward()
    np.testing.assert_allclose(hs.grad, 2.0 * (hs.data - hf), rtol=1e-12)


def identity(s):
    """The score function whose one operand is the scores."""
    return s


def softmax(x, mask=0.0):
    """softmax(x + mask) over the last axis of x (g, Tq, Tk): the attention
    node with v the identity, whose output is its probabilities."""
    return ad.attention(identity, (x,), np.eye(x.shape[-1])[None], mask)


def test_softmax_rows_sum_to_one_and_grad():
    x0 = RNG.normal(size=(4, 6))[None]
    p = softmax(x0)
    assert type(p) is np.ndarray
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-12)
    np.testing.assert_array_equal(softmax(Tensor(x0)).data, p)
    w = RNG.normal(size=(4, 6))
    fd_check(lambda x: total(softmax(x) * w), x0)


def test_softmax_additive_mask_selects():
    mask = np.array([[0.0, 0.0, -1e30]])
    p = softmax(Tensor(np.zeros((1, 1, 3))), mask).data
    np.testing.assert_allclose(p, [[[0.5, 0.5, 0.0]]], atol=1e-15)
    fd_check(lambda x: ad.sum_squares(softmax(x, mask)), RNG.normal(size=(1, 3))[None])


def test_softmax_shift_invariance():
    x = RNG.normal(size=(2, 5))[None]
    np.testing.assert_allclose(softmax(Tensor(x)).data, softmax(Tensor(x + 100.0)).data,
                               rtol=1e-12)


def test_rms_norm_grad():
    w0 = RNG.normal(size=(6,))
    fd_check(lambda x: ad.sum_squares(ad.rms_norm(x, Tensor(w0))), RNG.normal(size=(3, 6)))
    x0 = RNG.normal(size=(3, 6))
    w = Tensor(w0.copy(), requires_grad=True)
    ad.sum_squares(ad.rms_norm(Tensor(x0), w)).backward()
    want = helpers.finite_difference_gradient(
        lambda a: float(ad.sum_squares(ad.rms_norm(Tensor(x0), Tensor(a))).data), w0)
    np.testing.assert_allclose(w.grad, want, rtol=1e-6, atol=1e-8)


def test_ffn_grad_matches_finite_differences():
    ops = [RNG.normal(size=s) for s in [(2, 3, 4), (4, 5), (4, 5), (5, 4)]]
    for i in range(4):  # each operand in turn carries the gradient, the others are ndarrays
        fd_check(lambda x: ad.sum_squares(ad.ffn(*ops[:i], x, *ops[i + 1:])), ops[i])


def unfused_ffn(h, w_gate, w_up, w_down, g):
    """The output of the FFN as the matmul, silu, mul and matmul chain it once
    was, and the gradients of h and the three weights for output gradient g,
    each formed as that chain's backward formed it."""
    def rows(a, w):  # one 2-D GEMM over all leading rows
        return (a.reshape(-1, w.shape[0]) @ w).reshape(*a.shape[:-1], w.shape[1])

    def summed(a, g):  # batched over the leading axes, then summed over them
        prod = np.swapaxes(a, -1, -2) @ g
        return prod.sum(axis=tuple(range(prod.ndim - 2)))

    gate, up = rows(h, w_gate), rows(h, w_up)
    sg, s = ad.silu_fwd(gate)
    prod = sg * up
    d_prod = rows(g, w_down.T)
    d_gate, d_up = d_prod * up * s * (1.0 + gate * (1.0 - s)), d_prod * sg
    d_h = rows(d_gate, w_gate.T) + rows(d_up, w_up.T)
    return rows(prod, w_down), d_h, summed(h, d_gate), summed(h, d_up), summed(prod, g)


ROWS = (1, 2, 127)  # one or two rows is where BLAS takes other paths than for many rows


@pytest.mark.parametrize("lead", [(r,) for r in ROWS] + [(b, r) for b in (1, 2, 8) for r in ROWS])
def test_ffn_matches_the_unfused_chain_bit_for_bit(lead):
    d, f = 128, 256
    ops = [RNG.normal(size=s) for s in [lead + (d,), (d, f), (d, f), (f, d)]]
    g = RNG.normal(size=lead + (d,))
    tensors = [Tensor(a, requires_grad=True) for a in ops]
    out = ad.ffn(*tensors)
    total(out * g).backward()  # out's gradient is exactly g
    want = unfused_ffn(*ops, g)
    np.testing.assert_array_equal(out.data, want[0])
    for t, grad in zip(tensors, want[1:]):
        np.testing.assert_array_equal(t.grad, grad)


def test_ffn_makes_no_gradient_node_for_ndarray_weights():
    h = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
    weights = [RNG.normal(size=s) for s in [(4, 5), (4, 5), (5, 4)]]
    out = ad.ffn(h, *weights)
    assert out._node.parents == (h._node,)
    total(out).backward()
    assert h.grad.shape == h.shape
    frozen = ad.ffn(Tensor(h.data), *(Tensor(w) for w in weights))
    assert not frozen.requires_grad and frozen._node is None


@pytest.mark.parametrize("lead", [(), (1,), (3,), (8,), (2, 3)])
def test_weight_grad_is_the_batched_product_summed(lead):
    for m, k, n in [(1, 5, 4), (2, 5, 4), (127, 128, 512)]:
        a, g = RNG.normal(size=lead + (m, k)), RNG.normal(size=lead + (m, n))
        batched = np.swapaxes(a, -1, -2) @ g
        got = ad._weight_grad(a, g)
        assert got.shape == (k, n)
        np.testing.assert_array_equal(got, batched.sum(axis=tuple(range(len(lead)))))


def test_rope_rotate_grad_and_norm_preservation():
    d = 8
    cos = np.cos(RNG.normal(size=(5, d // 2)))
    sin = np.sin(RNG.normal(size=(5, d // 2)))
    # not true angles, so renormalize the pair to make it a rotation
    norm = np.sqrt(cos ** 2 + sin ** 2)
    cos, sin = cos / norm, sin / norm
    x0 = RNG.normal(size=(2, 5, d))
    y = ad.rope_rotate(Tensor(x0), cos, sin).data
    np.testing.assert_allclose(np.linalg.norm(y, axis=-1), np.linalg.norm(x0, axis=-1),
                               rtol=1e-12)
    fd_check(lambda x: ad.sum_squares(ad.rope_rotate(x, cos, sin)), x0)


def test_layer_ops_on_ndarrays_return_the_tensor_op_values():
    x = RNG.normal(size=(2, 5, 3, 8))
    w = RNG.normal(size=(8,))
    cos, sin = np.cos(RNG.normal(size=(5, 1, 4))), np.sin(RNG.normal(size=(5, 1, 4)))
    mask = np.where(RNG.random(size=(3, 8)) < 0.3, ad.MASK_NEG, 0.0)
    ffn_weights = tuple(RNG.normal(size=s) for s in [(8, 6), (8, 6), (6, 8)])
    for op, args in [(ad.rms_norm, (w,)), (ad.ffn, ffn_weights), (ad.rope_rotate, (cos, sin)),
                     (ad.matmul, (RNG.normal(size=(8, 6)),))]:
        got = op(x, *args)
        assert type(got) is np.ndarray
        np.testing.assert_array_equal(got, op(Tensor(x), *args).data)
    parts = [x, RNG.normal(size=(2, 5, 1, 8))]
    got = ad.concat(parts, axis=-2)
    assert type(got) is np.ndarray
    np.testing.assert_array_equal(got, ad.concat([Tensor(p) for p in parts], axis=-2).data)


def test_ndarray_on_the_left_dispatches_to_the_tensor():
    a = RNG.normal(size=(3, 4))
    t = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    for out, sign in [(a + t, 1.0), (a * t, a)]:
        assert isinstance(out, Tensor)
        t.grad = None
        total(out).backward()
        np.testing.assert_array_equal(t.grad, np.broadcast_to(sign, a.shape))
    np.testing.assert_array_equal((a + t).data, a + t.data)
    with pytest.raises(TypeError):
        a - t  # no Tensor.__rsub__: nothing in the package needs it


def test_embedding_grad():
    ids = np.array([[0, 2], [2, 1]])
    w0 = RNG.normal(size=(4, 3))
    w = Tensor(w0.copy(), requires_grad=True)
    total(ad.embedding(w, ids)).backward()
    want = np.zeros_like(w0)
    for r in ids.reshape(-1):
        want[r] += 1.0
    np.testing.assert_array_equal(w.grad, want)


def test_cross_entropy_value_and_grad():
    logits = RNG.normal(size=(4, 6))
    targets = np.array([1, 0, 5, 2])
    loss = ad.cross_entropy(Tensor(logits), targets)
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(loss.data, -np.log(p[np.arange(4), targets]).mean(), rtol=1e-12)
    fd_check(lambda x: ad.cross_entropy(x, targets), logits)


def test_cross_entropy_shape_error():
    with pytest.raises(ad.ShapeError):
        ad.cross_entropy(Tensor(np.zeros((3, 5))), np.zeros(4, dtype=int))


def test_deep_graph_and_reuse():
    # same tensor used twice in the graph: gradients must accumulate
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    y = x * x + x
    total(y).backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0, rtol=1e-12)


def attention_case(rng, d, bsz=2, n_kv=2, g=2, t=9):
    q = rng.normal(size=(bsz, n_kv, g, t, d))
    k, v = rng.normal(size=(2, bsz, n_kv, 1, t, d))
    mask = np.where(np.tril(np.ones((t, t), dtype=bool)), 0.0, ad.MASK_NEG)
    return q, k, v, mask, rng.normal(size=q.shape)


def attention_grads(q0, k0, v0, scale, mask, w):
    """Output and q, k, v gradients of total(attention * w), with the scores
    built from a scaled q and k as `model._forward` builds them."""
    q, k, v = (Tensor(a.copy(), requires_grad=True) for a in (q0, k0, v0))
    out = ad.attention(operator.matmul, (q * scale, k.transpose(0, 1, 2, 4, 3)), v, mask)
    total(out * w).backward()
    return out.data, q.grad, k.grad, v.grad


def unfused_attention_grads(q, k, v, scale, mask, w):
    """The same, by hand in numpy, with the scale applied to the scores."""
    s = (q @ np.swapaxes(k, -1, -2)) * scale + mask
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    dp = w @ np.swapaxes(v, -1, -2)
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    dq = (ds @ k) * scale
    dk = np.swapaxes((np.swapaxes(q, -1, -2) @ ds).sum(axis=-3, keepdims=True), -1, -2) * scale
    dv = (np.swapaxes(p, -1, -2) @ w).sum(axis=-3, keepdims=True)
    return p @ v, dq, dk, dv


def test_attention_gives_the_kept_bits_at_the_edges_of_exps_underflow():
    # the node sets entries below -746 to 0.0 without np.exp, which underflows
    # them to +0.0 too. Each row's max is 0, so exp sees these values as they
    # are, and in the edge row the sum stays below 2, so the smallest
    # subnormal, exp(-745.1), survives the division.
    edges = [0.0, -np.inf, -1e30, -800.0, -746.0001, -746.0, -745.2, -745.14, -745.13, -745.1,
             -745.0, -744.5, -708.5, -700.0, -30.0]
    rng = np.random.default_rng(14)
    noise = -np.abs(rng.normal(scale=400.0, size=(2, len(edges))))
    noise[:, 0] = 0.0
    s0 = np.concatenate([[edges], noise, [edges[::-1]]])[None, None]
    eye, w = np.eye(s0.shape[-1])[None, None], rng.normal(size=s0.shape)
    got, want = attention_both_ways(identity, (s0,), eye, 0.0, w, (True,))
    assert got[0][0, 0, 0, 9] > 0.0  # exp(-745.1), the smallest subnormal
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
    np.testing.assert_array_equal(ad.attention(identity, (s0,), eye, 0.0), got[0])


@pytest.mark.parametrize("d, tol", [(16, 0.0), (8, 1e-12)])
def test_attention_matches_unfused_composition(d, tol):
    # at d=16 the scale 1/4 is a power of two, so scaling q before the
    # product rounds exactly as scaling the scores after it
    q, k, v, mask, w = attention_case(np.random.default_rng(d), d)
    scale = 1.0 / np.sqrt(d)
    got = attention_grads(q, k, v, scale, mask, w)
    want = unfused_attention_grads(q, k, v, scale, mask, w)
    for name, a, b in zip(("out", "dq", "dk", "dv"), got, want):
        assert a.shape == b.shape, name
        if tol == 0.0:
            np.testing.assert_array_equal(a, b, err_msg=name)
        else:
            np.testing.assert_allclose(a, b, rtol=tol, atol=tol, err_msg=name)


def test_attention_grad_finite_differences():
    q0, k0, v0, mask, w = attention_case(np.random.default_rng(3), d=4, t=5)
    parts = {"scores": (q0 @ np.swapaxes(k0, -1, -2)) * 0.5, "v": v0}
    for name in parts:
        def loss(x, name=name):
            args = {n: (x if n == name else Tensor(a)) for n, a in parts.items()}
            return total(ad.attention(identity, (args["scores"],), args["v"], mask) * w)
        fd_check(loss, parts[name])


def attention_both_ways(score, operands, v0, mask, w, needs_grad):
    """[output, v's gradient, then each grad-carrying operand's gradient] of
    total(attention * w), through the node and through the kept-probabilities
    oracle over the same score graph; fresh Tensors of the arrays each time."""
    def kept(score, ops, v, m):
        return helpers.kept_probs_attention(score(*ops), v, m)

    results = []
    for node in (ad.attention, kept):
        ops = [Tensor(a.copy(), requires_grad=r) for a, r in zip(operands, needs_grad)]
        v = Tensor(v0.copy(), requires_grad=True)
        out = node(score, ops, v, mask)
        total(out * w).backward()
        results.append([out.data, v.grad] + [o.grad for o in ops if o.requires_grad])
    return results


@pytest.mark.parametrize("tq", [1, 2, 9])
@pytest.mark.parametrize("d", [8, 16])
def test_attention_recompute_gives_the_kept_probabilities_bits(d, tq):
    # the node keeps each row's max and sum and recomputes the probabilities
    # in backward; output and gradients must be the bits of the node that
    # kept them, for `_forward`'s scores and for `answer_rows`' region-scaled
    # ones (whose q and keys carry a gradient past layer 0 only)
    rng = np.random.default_rng(100 * d + tq)
    bsz, n_kv, g, t, sink, window = 2, 2, 2, 9, 2, 3
    q = rng.normal(size=(bsz, n_kv, g, tq, d))
    keys, v = rng.normal(size=(bsz, n_kv, 1, d, t)), rng.normal(size=(bsz, n_kv, 1, t, d))
    factors, w = rng.uniform(size=(n_kv, d)), rng.normal(size=q.shape)
    pos, seen = np.arange(t), np.arange(t - tq + 1, t + 1)  # row r sees seen[r] keys
    causal = pos < seen[:, None]
    mid = (pos >= sink) & (pos < np.maximum(sink, seen - window)[:, None])
    f_sl, f_mid = (causal & ~mid) / np.sqrt(d), mid / np.sqrt(d)
    mask = np.where(causal, 0.0, ad.MASK_NEG)

    def region(q, keys, f):
        return (q @ keys) * f_sl + ((q * f.reshape(1, n_kv, 1, 1, d)) @ keys) * f_mid

    cases = [(operator.matmul, (q / np.sqrt(d), keys), (True, True)),
             (region, (q, keys, factors), (False, False, True)),
             (region, (q, keys, factors), (True, True, True))]
    for score, operands, needs_grad in cases:
        got, want = attention_both_ways(score, operands, v, mask, w, needs_grad)
        assert len(got) == len(want) == 2 + sum(needs_grad)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("score", [identity, lambda s: s[...]], ids=["itself", "a view"])
def test_attention_leaves_an_operand_that_is_the_scores_untouched(score):
    rng = np.random.default_rng(11)
    s0, v0 = rng.normal(size=(2, 2, 3, 5)), rng.normal(size=(2, 1, 5, 4))
    w = rng.normal(size=(2, 2, 3, 4))
    mask = np.where(np.tril(np.ones((3, 5), dtype=bool), k=2), 0.0, ad.MASK_NEG)
    s = Tensor(s0.copy(), requires_grad=True)
    out = ad.attention(score, (s,), v0, mask)
    np.testing.assert_array_equal(s.data, s0)
    total(out * w).backward()
    np.testing.assert_array_equal(s.data, s0)
    plain = s0.copy()
    ad.attention(score, (plain,), v0, mask)
    np.testing.assert_array_equal(plain, s0)
    for a, b in zip(*attention_both_ways(score, (s0,), v0, mask, w, (True,))):
        np.testing.assert_array_equal(a, b)


def test_matmul_2d_right_operand_matches_batched_form():
    rng = np.random.default_rng(5)
    a0, b0, w = rng.normal(size=(3, 7, 6)), rng.normal(size=(6, 5)), rng.normal(size=(3, 7, 5))
    outs = []
    for b_shape in ((6, 5), (1, 6, 5)):  # the 2-D path, then the batched one
        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.reshape(b_shape), requires_grad=True)
        out = a @ b
        total(out * w).backward()
        outs.append((out.data, a.grad, b.grad.reshape(6, 5)))
    for x, y in zip(*outs):
        np.testing.assert_array_equal(x, y)
    fd_check(lambda x: ad.sum_squares(x @ b0), a0)
    fd_check(lambda x: ad.sum_squares(Tensor(a0) @ x), b0)


def test_constant_operands_get_no_grad():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(2, 1, 3, 4)), requires_grad=True)
    shapes = ((4, 4), (2, 1, 4, 4), (4,), (4,), (2, 1, 3, 4), (2, 1, 3, 4), (2, 1, 3, 4))
    consts = [Tensor(rng.normal(size=s)) for s in shapes]
    w2, w3, norm_w, scale, other, k, v = consts
    y = ad.rms_norm(x @ w2, norm_w) @ w3
    y = ad.concat([y * scale + other, other - y, (other * other + 1.0) * y], axis=2)
    y = ad.attention(operator.matmul, (y, (k * 0.5).transpose(0, 1, 3, 2)), v, 0.0)
    ad.sum_squares(y).backward()
    assert x.grad is not None
    assert all(c.grad is None for c in consts)


def test_backward_returns_leaf_map():
    # interior grads are dropped once passed on; leaves keep theirs in .grad
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    w = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    h = x * w
    y = h + x
    loss = total(y)
    assert loss.backward() is None
    assert h.grad is None and y.grad is None and loss.grad is None
    np.testing.assert_array_equal(x.grad, [4.0, 0.0])
    np.testing.assert_array_equal(w.grad, [1.0, 2.0])


def test_backward_consumes_the_graph():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = x * 3.0
    loss = ad.sum_squares(h)
    loss.backward()
    np.testing.assert_array_equal(x.grad, [18.0, 36.0])
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        total(h).backward()  # a new loss over a consumed node
    np.testing.assert_array_equal(x.grad, [18.0, 36.0])  # no second set of gradients
    np.testing.assert_array_equal(h.data, [3.0, 6.0])  # a held value keeps its data


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_shape_errors():
    with pytest.raises(ad.ShapeError):
        Tensor(np.zeros((2, 3))) + Tensor(np.zeros((4, 5)))
    with pytest.raises(ad.ShapeError):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 5)))
    for scores in (np.zeros((2, 2, 3, 3)), Tensor(np.zeros((2, 2, 3, 3)))):
        with pytest.raises(ad.ShapeError):  # v must have a single head per group
            ad.attention(identity, (scores,), np.zeros((2, 2, 3, 4)), 0.0)
    with pytest.raises(ad.ShapeError):  # v must have a row per key
        ad.attention(identity, (np.zeros((2, 1, 3, 5)),), np.zeros((2, 1, 3, 4)), 0.0)


def test_adam_first_step_hand_computed():
    p0 = np.array([1.0, -2.0])
    g = np.array([0.5, -0.25])
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    assert (ad.Adam.BETA1, ad.Adam.BETA2, ad.Adam.EPS) == (b1, b2, eps)
    p = Tensor(p0.copy(), requires_grad=True)
    opt = ad.Adam([p], lr)
    p.grad = g.copy()
    opt.step()
    # after bias correction the first step is p - lr * g / (|g| + eps)
    want = p0 - lr * g / (np.abs(g) + eps)
    np.testing.assert_allclose(p.data, want, rtol=1e-12)
    assert opt.t == 1
    # second step, recomputed by hand
    new = p.data.copy()
    opt.step()
    m = (b1 * (1 - b1) * g + (1 - b1) * g) / (1 - b1 ** 2)
    v = (b2 * (1 - b2) * g * g + (1 - b2) * g * g) / (1 - b2 ** 2)
    np.testing.assert_allclose(p.data, new - lr * m / (np.sqrt(v) + eps), rtol=1e-12)
    assert opt.t == 2


def test_adam_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ad.Adam([Tensor(np.ones(2), requires_grad=True)], lr=0.0)
    with pytest.raises(ValueError):
        ad.Adam([Tensor(np.ones(2), requires_grad=True)], lr=-1.0)
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    opt = ad.Adam([a, b], lr=0.1)
    a.grad, b.grad = np.ones(2), np.ones(3)
    with pytest.raises(ad.ShapeError):
        opt.step()
    # the bad grad is found before any parameter moves
    np.testing.assert_array_equal(a.data, np.ones(2))
    assert opt.t == 0


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0, True, "0.1"])
def test_fit_and_adam_refuse_a_bad_lr_before_any_parameter_moves(lr):
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    message = re.escape(f"lr must be a positive finite number, got {lr!r}")
    with pytest.raises(ValueError, match=message):
        ad.Adam([p], lr)
    with pytest.raises(ValueError, match=message):
        ad.fit([p], lr, 3, lambda step: ad.sum_squares(p))
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert p.grad is None


@pytest.mark.parametrize("steps", [2.5, np.float64(2.0), True, False, -1, "3", None])
def test_fit_refuses_steps_that_are_not_an_int_before_any_step(steps):
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    calls = []

    def step_loss(step):
        calls.append(step)
        return ad.sum_squares(p)

    with pytest.raises(ValueError, match=re.escape(f"steps must be an int >= 0, got {steps!r}")):
        ad.fit([p], 0.1, steps, step_loss)
    assert calls == []
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    assert len(ad.fit([p], 0.1, np.int64(2), step_loss)) == 2  # any integral type


def test_adam_step_in_place_gives_the_out_of_place_bits():
    rng = np.random.default_rng(12)
    p0, lr = rng.normal(size=(3, 4)), 0.01
    p = Tensor(p0.copy(), requires_grad=True)
    opt = ad.Adam([p], lr)
    m, v, want = np.zeros_like(p0), np.zeros_like(p0), p0.copy()
    b1, b2, eps = ad.Adam.BETA1, ad.Adam.BETA2, ad.Adam.EPS
    for t in range(1, 4):
        g = rng.normal(size=p0.shape)
        p.grad = g.copy()
        before = p.data
        opt.step()
        m = m * b1 + (1 - b1) * g
        v = v * b2 + (1 - b2) * g * g
        want = want - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_array_equal(p.data, want)
        assert p.data is not before  # `.data` is replaced, not written into
        np.testing.assert_array_equal(p.grad, g)  # the gradient is left as it was


def test_rotate_half_and_silu_give_the_out_of_place_bits():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, 5, 3, 8))
    cos, sin = (a[:, None] for a in ad.rope_angles(8, np.arange(5), 10000.0))
    # rows, one row, and a transposed (non-contiguous) gradient; -sin is the inverse
    for a, c, s in ((x, cos, sin), (x[:, :1], cos[:1], sin[:1]),
                    (x.transpose(0, 2, 1, 3).copy().transpose(0, 2, 1, 3), cos, -sin)):
        a1, a2 = a[..., :4], a[..., 4:]
        want = np.concatenate([a1 * c - a2 * s, a1 * s + a2 * c], axis=-1)
        np.testing.assert_array_equal(ad.rotate_half(a, c, s), want)
    sg, sig = ad.silu_fwd(x)
    want = 1.0 / (1.0 + np.exp(-x))
    np.testing.assert_array_equal(sig, want)
    np.testing.assert_array_equal(sg, x * want)


def test_adam_converges_on_quadratic():
    p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = ad.Adam([p], lr=0.2)
    for _ in range(300):
        opt.zero_grad()
        ad.sum_squares(p).backward()
        opt.step()
    assert np.abs(p.data).max() < 1e-3


def test_finite_difference_rejects_bad_eps():
    with pytest.raises(ValueError):
        helpers.finite_difference_gradient(lambda x: float(x.sum()), np.ones(2), eps=0.0)


def test_divergence_error_carries_step():
    err = ad.DivergenceError(17, float("nan"))
    assert err.step == 17 and "17" in str(err)


def test_fit_stops_before_the_step_whose_loss_is_not_finite():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    seen = []

    def step_loss(step):
        loss = ad.sum_squares(p)
        return loss * float("nan") if step == 3 else loss

    with pytest.raises(ad.DivergenceError) as err:
        ad.fit([p], 0.1, 10, step_loss, log=lambda step, loss: seen.append((step, p.data.copy())))
    assert err.value.step == 3
    assert [s for s, _ in seen] == [0, 1, 2]
    np.testing.assert_array_equal(p.data, seen[-1][1])  # as after step 2


def test_fit_logs_each_step_and_matches_a_hand_written_adam_loop():
    p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    logged = []
    losses = ad.fit([p], 0.2, 6, lambda step: ad.sum_squares(p),
                    log=lambda step, loss: logged.append((step, loss)))
    assert logged == list(enumerate(losses)) and len(losses) == 6
    q = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = ad.Adam([q], lr=0.2)
    want = []
    for _ in range(6):
        opt.zero_grad()
        loss = ad.sum_squares(q)
        loss.backward()
        opt.step()
        want.append(float(loss.data))
    assert losses == want
    np.testing.assert_array_equal(p.data, q.data)
    with pytest.raises(ValueError, match="steps"):
        ad.fit([p], 0.2, -1, lambda step: ad.sum_squares(p))
    assert ad.fit([p], 0.2, 0, lambda step: ad.sum_squares(p)) == []


def test_fit_releases_each_steps_graph_before_the_next():
    p = Tensor(np.ones(4), requires_grad=True)
    refs = []

    def step_loss(step):
        assert all(ref() is None for ref in refs)  # earlier steps' interior arrays are gone
        hidden = p * 2.0
        refs.append(weakref.ref(hidden.data))
        return ad.sum_squares(hidden)

    ad.fit([p], 0.1, 3, step_loss)
    assert len(refs) == 3


def owner(a):
    """The ndarray that owns `a`'s memory."""
    return a if a.base is None else a.base


def test_graph_keeps_only_the_arrays_backward_reads():
    # rope_rotate's gradient reads only its tables, so the matmul product
    # under it is freed as soon as the forward drops it; the operand the
    # weight gradient reads lives until backward has passed it
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    w = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
    cos, sin = ad.rope_angles(4, np.arange(3), 10000.0)
    h = x * 2.0
    saved = weakref.ref(owner(h.data))
    prod = ad.matmul(h, w)
    product = weakref.ref(owner(prod.data))
    loss = ad.sum_squares(ad.rope_rotate(prod.reshape(3, 2, 4), cos[:, None], sin[:, None]))
    del h, prod
    assert product() is None
    assert saved() is not None
    loss.backward()
    assert saved() is None
    assert x.grad is not None and w.grad is not None
