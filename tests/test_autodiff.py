"""Gradient and optimizer checks against finite differences and hand math."""
import numpy as np
import pytest

import prunekv.autodiff as ad
from prunekv.autodiff import Tensor


def fd_check(build_loss, x0, rtol=1e-6, atol=1e-8, eps=1e-6):
    """Compare backward() gradient at x0 with central finite differences."""
    x = Tensor(x0.copy(), requires_grad=True)
    build_loss(x).backward()
    got = x.grad
    want = ad.finite_difference_gradient(lambda a: float(build_loss(Tensor(a)).data), x0, eps)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


RNG = np.random.default_rng(7)


def test_add_mul_broadcast_grad():
    b = RNG.normal(size=(1, 4))
    fd_check(lambda x: ((x + b) * (x * 2.0 + 1.0)).sum(), RNG.normal(size=(3, 4)))


def test_sub_div_grad():
    b = RNG.normal(size=(3, 1)) + 2.0
    fd_check(lambda x: ((x - 1.5) / b).sum(), RNG.normal(size=(3, 4)))


def test_div_by_tensor_grad():
    x0 = RNG.normal(size=(5,)) + 3.0
    x = Tensor(x0, requires_grad=True)
    (ad.tsum(2.0 / x)).backward()
    np.testing.assert_allclose(x.grad, -2.0 / x0 ** 2, rtol=1e-12)


def test_matmul_grad():
    b = RNG.normal(size=(4, 2))
    fd_check(lambda x: (x @ b).sum(), RNG.normal(size=(3, 4)))


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
    ad.tsum(x[idx]).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 2.0, 1.0, 0.0])


def test_sum_mean_axis_grad():
    fd_check(lambda x: ad.sum_squares(x.sum(axis=1, keepdims=True) + x.mean(axis=0)),
             RNG.normal(size=(3, 4)))


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


def test_softmax_rows_sum_to_one_and_grad():
    x0 = RNG.normal(size=(4, 6))
    p = ad.softmax(Tensor(x0)).data
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-12)
    w = RNG.normal(size=(4, 6))
    fd_check(lambda x: (ad.softmax(x) * w).sum(), x0)


def test_softmax_additive_mask_selects():
    mask = np.array([[0.0, 0.0, -1e30]])
    p = ad.softmax(Tensor(np.zeros((1, 3))), additive_mask=mask).data
    np.testing.assert_allclose(p, [[0.5, 0.5, 0.0]], atol=1e-15)
    fd_check(lambda x: ad.sum_squares(ad.softmax(x, additive_mask=mask)),
             RNG.normal(size=(1, 3)))


def test_softmax_shift_invariance():
    x = RNG.normal(size=(2, 5))
    np.testing.assert_allclose(ad.softmax(Tensor(x)).data,
                               ad.softmax(Tensor(x + 100.0)).data, rtol=1e-12)


def test_rms_norm_grad():
    w0 = RNG.normal(size=(6,))
    fd_check(lambda x: ad.sum_squares(ad.rms_norm(x, Tensor(w0))), RNG.normal(size=(3, 6)))
    x0 = RNG.normal(size=(3, 6))
    w = Tensor(w0.copy(), requires_grad=True)
    ad.sum_squares(ad.rms_norm(Tensor(x0), w)).backward()
    want = ad.finite_difference_gradient(
        lambda a: float(ad.sum_squares(ad.rms_norm(Tensor(x0), Tensor(a))).data), w0)
    np.testing.assert_allclose(w.grad, want, rtol=1e-6, atol=1e-8)


def test_silu_gelu_grad():
    fd_check(lambda x: ad.silu(x).sum(), RNG.normal(size=(7,)))


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


def test_embedding_grad():
    ids = np.array([[0, 2], [2, 1]])
    w0 = RNG.normal(size=(4, 3))
    w = Tensor(w0.copy(), requires_grad=True)
    ad.tsum(ad.embedding(w, ids)).backward()
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
    ad.tsum(y).backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 1.0, rtol=1e-12)


def test_backward_returns_leaf_map():
    x = Tensor(np.ones(3), requires_grad=True)
    leaves = ad.tsum(x * 2.0).backward()
    np.testing.assert_array_equal(leaves[id(x)], np.full(3, 2.0))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_shape_errors():
    with pytest.raises(ad.ShapeError):
        Tensor(np.zeros((2, 3))) + Tensor(np.zeros((4, 5)))
    with pytest.raises(ad.ShapeError):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 5)))


def test_adam_first_step_hand_computed():
    p0 = np.array([1.0, -2.0])
    g = np.array([0.5, -0.25])
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    new, state = ad.adam_step([p0], [g], None, lr, b1, b2, eps)
    # after bias correction the first step is p - lr * g / (|g| + eps)
    want = p0 - lr * g / (np.abs(g) + eps)
    np.testing.assert_allclose(new[0], want, rtol=1e-12)
    assert state["t"] == 1
    # second step, recomputed by hand
    new2, state2 = ad.adam_step(new, [g], state, lr, b1, b2, eps)
    m = (b1 * (1 - b1) * g + (1 - b1) * g) / (1 - b1 ** 2)
    v = (b2 * (1 - b2) * g * g + (1 - b2) * g * g) / (1 - b2 ** 2)
    np.testing.assert_allclose(new2[0], new[0] - lr * m / (np.sqrt(v) + eps), rtol=1e-12)
    assert state2["t"] == 2


def test_adam_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ad.adam_step([np.ones(2)], [np.ones(2)], None, lr=0.0)
    with pytest.raises(ad.ShapeError):
        ad.adam_step([np.ones(2)], [np.ones(3)], None, lr=0.1)
    with pytest.raises(ValueError):
        ad.Adam([Tensor(np.ones(2), requires_grad=True)], lr=-1.0)


def test_adam_class_matches_functional():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = ad.Adam([p], lr=0.05)
    ad.sum_squares(p).backward()
    g = p.grad.copy()
    opt.step()
    want, _ = ad.adam_step([np.array([1.0, 2.0])], [g], None, 0.05)
    np.testing.assert_allclose(p.data, want[0], rtol=1e-12)


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
        ad.finite_difference_gradient(lambda x: float(x.sum()), np.ones(2), eps=0.0)


def test_divergence_error_carries_step():
    err = ad.DivergenceError(17, float("nan"))
    assert err.step == 17 and "17" in str(err)
