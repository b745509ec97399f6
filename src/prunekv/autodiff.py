"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough machinery to backpropagate a distillation loss through a small
transformer: broadcasting elementwise ops, batched matmul, fused attention /
normalization primitives, an Adam optimizer, and a finite-difference oracle.
All arithmetic is 64-bit. A backward closure computes an operand's gradient
only if that operand requires one.
"""
from __future__ import annotations

import numpy as np

MASK_NEG = -1e30  # additive-mask value for keys a query must not see
RMS_EPS = 1e-6  # added to the mean square before RMSNorm's square root


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, step, value):
        super().__init__(f"non-finite loss {value!r} at step {step}")
        self.step = step


def _check_broadcast(a_shape, b_shape):
    try:
        return np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        raise ShapeError(f"incompatible shapes {tuple(a_shape)} and {tuple(b_shape)}") from None


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    shape = tuple(shape)
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")
    __array_ufunc__ = None  # `ndarray + Tensor` calls Tensor.__radd__, not a numpy ufunc

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def backward(self):
        """Backpropagate from a scalar loss.

        Accumulates into ``.grad`` of every requires-grad leaf. An interior
        node's ``.grad`` is dropped (set to None) as soon as the node has
        passed it on to its parents, so only one layer's gradients are alive
        at a time.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    # operator sugar; implementations below
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward_fn):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t, g):
    """Add `g` to ``t.grad``; callers skip operands that need no gradient."""
    t.grad = g if t.grad is None else t.grad + g


def add(a, b):
    a, b = _lift(a), _lift(b)
    _check_broadcast(a.shape, b.shape)

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _node(a.data + b.data, (a, b), bwd)


def sub(a, b):
    a, b = _lift(a), _lift(b)
    _check_broadcast(a.shape, b.shape)

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.shape))

    return _node(a.data - b.data, (a, b), bwd)


def mul(a, b):
    a, b = _lift(a), _lift(b)
    _check_broadcast(a.shape, b.shape)

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _node(a.data * b.data, (a, b), bwd)


def matmul(a, b):
    """a @ b; ndarray rows times a 2-D ndarray run as one 2-D GEMM over all
    leading rows, the same product as the Tensor path's `_matmul_2d` (numpy
    would send (B, 1, k) @ (k, n) to B one-row products)."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and b.ndim == 2:
        return (a.reshape(-1, b.shape[0]) @ b).reshape(*a.shape[:-1], b.shape[1])
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}")
    _check_broadcast(a.shape[:-2], b.shape[:-2])
    if b.ndim == 2:
        return _matmul_2d(a, b)

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _node(a.data @ b.data, (a, b), bwd)


def _matmul_2d(a, b):
    """(..., k) @ (k, n): the forward and a's gradient are one 2-D GEMM over
    all leading rows; b's gradient is batched and then summed, as in the
    general case, which keeps its float sums in the same order."""
    k, n = b.shape
    lead = a.shape[:-1]

    def bwd(g):
        if a.requires_grad:
            _accum(a, (g.reshape(-1, n) @ b.data.T).reshape(a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _node((a.data.reshape(-1, k) @ b.data).reshape(*lead, n), (a, b), bwd)


def transpose(a, axes):
    a = _lift(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        _accum(a, np.transpose(g, inv))

    return _node(np.transpose(a.data, axes), (a,), bwd)


def reshape(a, shape):
    a = _lift(a)

    def bwd(g):
        _accum(a, g.reshape(a.shape))

    return _node(a.data.reshape(shape), (a,), bwd)


def concat(parts, axis):
    """Join tensors along `axis`; each part's gradient is its slice of the output's.
    All-ndarray parts are joined by `np.concatenate` and stay an ndarray."""
    if all(isinstance(p, np.ndarray) for p in parts):
        return np.concatenate(parts, axis=axis)
    parts = [_lift(p) for p in parts]
    ends = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def bwd(g):
        for p, gp in zip(parts, np.split(g, ends, axis=axis)):
            if p.requires_grad:
                _accum(p, gp)

    return _node(np.concatenate([p.data for p in parts], axis=axis), parts, bwd)


def getitem(a, idx):
    a = _lift(a)

    def bwd(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        _accum(a, buf)

    return _node(a.data[idx], (a,), bwd)


def tsum(a, axis=None, keepdims=False):
    a = _lift(a)

    def bwd(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, a.shape).copy())

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def l1_norm(a):
    """Sum of absolute values; subgradient at 0 is 0."""
    a = _lift(a)

    def bwd(g):
        _accum(a, g * np.sign(a.data))

    return _node(np.abs(a.data).sum(), (a,), bwd)


def sum_squares(a):
    """Squared L2 (Frobenius) norm of all entries."""
    a = _lift(a)

    def bwd(g):
        _accum(a, 2.0 * g * a.data)

    return _node((a.data * a.data).sum(), (a,), bwd)


# Plain-ndarray kernels. The Tensor ops below take their forward values from
# them; `softmax`, `rms_norm`, `silu` and `rope_rotate` (and `concat` above)
# return the plain result when given ndarrays, so one layer body serves
# Tensors and plain numpy.

def softmax_(z):
    """Softmax over the last axis, normalised in place in `z`, which is returned."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def rms_norm_fwd(x, w):
    """(x / RMS(x) * w over the last axis, 1 / RMS(x) with that axis kept)."""
    inv = 1.0 / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + RMS_EPS)
    return x * inv * w, inv


def silu_fwd(x):
    """(x * sigmoid(x), sigmoid(x))."""
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s, s


def rope_angles(head_dim, positions, base):
    """(cos, sin) tables of shape (len(positions), head_dim // 2)."""
    if head_dim % 2 != 0:
        raise ValueError(f"head_dim must be even, got {head_dim}")
    positions = np.asarray(positions, dtype=np.float64)
    inv_freq = base ** (-2.0 * np.arange(head_dim // 2) / head_dim)
    ang = positions[:, None] * inv_freq[None, :]
    return np.cos(ang), np.sin(ang)


def rotate_half(x, cos, sin):
    """Rotate-half RoPE, pairing channel i with i + d/2; `cos`/`sin` broadcast
    against either half of `x`. With `-sin` it is the inverse and the gradient."""
    h = x.shape[-1] // 2
    x1, x2 = x[..., :h], x[..., h:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def softmax(a, additive_mask=None):
    """Softmax over the last axis; `additive_mask` is added to the logits first.

    Masked-out positions should carry a large negative value in the mask
    (selection semantics), never a multiplicative zero.
    """
    if isinstance(a, np.ndarray):
        return softmax_(a.copy() if additive_mask is None else a + additive_mask)
    a = _lift(a)
    p = softmax_(a.data.copy() if additive_mask is None else a.data + additive_mask)

    def bwd(g):
        _accum(a, p * (g - (g * p).sum(axis=-1, keepdims=True)))

    return _node(p, (a,), bwd)


def attention(q, k, v, scale, additive_mask):
    """softmax(q @ kᵀ * scale + additive_mask) @ v as one node.

    q is (..., g, Tq, d); k and v are (..., 1, Tk, d), each shared by the g
    query heads of its group. The scores come from a scaled copy of q and are
    softmaxed in place: the probabilities, (..., g, Tq, Tk), are the only
    score-sized array the node keeps. The product with v and the q gradient
    run the g heads as rows of one matmul; the k and v gradients are computed
    per head and then summed over g.
    """
    q, k, v = _lift(q), _lift(k), _lift(v)
    *lead, g, tq, d = q.shape
    if k.shape[:-2] != (*lead, 1) or k.shape[-1] != d or v.shape != k.shape:
        raise ShapeError(f"attention got q {q.shape}, k {k.shape}, v {v.shape}")
    tk = k.shape[-2]
    rows = (*lead, g * tq)
    k2, v2 = k.data[..., 0, :, :], v.data[..., 0, :, :]
    p = ((q.data * scale).reshape(*rows, d) @ np.swapaxes(k2, -1, -2)).reshape(*lead, g, tq, tk)
    p += additive_mask
    softmax_(p)

    def bwd(grad):
        ds = (grad.reshape(*rows, d) @ np.swapaxes(v2, -1, -2)).reshape(p.shape)
        if v.requires_grad:
            _accum(v, (np.swapaxes(p, -1, -2) @ grad).sum(axis=-3, keepdims=True))
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        if q.requires_grad:
            _accum(q, (ds.reshape(*rows, tk) @ k2).reshape(q.shape))
        if k.requires_grad:
            dkt = (np.swapaxes(q.data, -1, -2) @ ds).sum(axis=-3, keepdims=True)
            _accum(k, np.swapaxes(dkt, -1, -2))

    return _node((p.reshape(*rows, tk) @ v2).reshape(q.shape), (q, k, v), bwd)


def rms_norm(x, weight):
    """RMS-normalize over the last axis, then scale elementwise by `weight`."""
    if isinstance(x, np.ndarray):
        return rms_norm_fwd(x, weight)[0]
    x, weight = _lift(x), _lift(weight)
    n = x.shape[-1]
    out_data, inv = rms_norm_fwd(x.data, weight.data)

    def bwd(g):
        if x.requires_grad:
            gw_x = g * weight.data
            dot = (gw_x * x.data).sum(axis=-1, keepdims=True)
            _accum(x, gw_x * inv - x.data * (inv ** 3 / n) * dot)
        if weight.requires_grad:
            _accum(weight, _unbroadcast(g * x.data * inv, weight.shape))

    return _node(out_data, (x, weight), bwd)


def silu(x):
    if isinstance(x, np.ndarray):
        return silu_fwd(x)[0]
    x = _lift(x)
    out_data, s = silu_fwd(x.data)

    def bwd(g):
        _accum(x, g * s * (1.0 + x.data * (1.0 - s)))

    return _node(out_data, (x,), bwd)


def rope_rotate(x, cos, sin):
    """Rotate-half RoPE of x (..., d); `cos`/`sin` broadcast against either half."""
    if isinstance(x, np.ndarray):
        return rotate_half(x, cos, sin)
    x = _lift(x)
    d = x.shape[-1]
    if d % 2 != 0:
        raise ShapeError(f"rope needs an even head dimension, got {d}")

    def bwd(g):
        _accum(x, rotate_half(g, cos, -sin))

    return _node(rotate_half(x.data, cos, sin), (x,), bwd)


def embedding(weight, ids):
    """Row gather from an embedding table with scatter-add backward."""
    weight = _lift(weight)
    ids = np.asarray(ids)

    def bwd(g):
        buf = np.zeros_like(weight.data)
        np.add.at(buf, ids, g)
        _accum(weight, buf)

    return _node(weight.data[ids], (weight,), bwd)


def cross_entropy(logits, targets):
    """Mean negative log-likelihood of `targets` under softmax(logits).

    `logits` has shape (N, V), `targets` is an int array of shape (N,).
    """
    logits = _lift(logits)
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ShapeError(f"cross_entropy got logits {logits.shape}, targets {targets.shape}")
    n = logits.shape[0]
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    nll = lse - z[np.arange(n), targets]

    def bwd(g):
        p = np.exp(z)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(n), targets] -= 1.0
        _accum(logits, (float(g) / n) * p)

    return _node(nll.mean(), (logits,), bwd)


def finite_difference_gradient(f, x, eps=1e-5):
    """Central-difference gradient of scalar function `f` at ndarray `x`."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(x))
        flat[i] = orig - eps
        lo = float(f(x))
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


class Adam:
    """Adam with bias correction over a list of Tensors; the moment buffers
    are updated in place and each parameter's ``.data`` is replaced."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """One update from each parameter's ``.grad``; a missing grad counts as zero."""
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        for p, g in zip(self.params, grads):
            if p.shape != g.shape:
                raise ShapeError(f"param shape {p.shape} != grad shape {g.shape}")
        b1, b2 = self.BETA1, self.BETA2
        self.t += 1
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def fit(params, lr, steps, step_loss, log=None):
    """Minimise with Adam: `step_loss(step)` builds step `step`'s scalar loss
    Tensor over `params`; returns the per-step losses as floats.

    A non-finite loss raises DivergenceError before any parameter moves in
    that step. `log(step, loss)` runs after each step. A step's graph is
    released before the next `step_loss` call.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    opt = Adam(params, lr=lr)
    losses = []
    for step in range(steps):
        loss = step_loss(step)
        losses.append(float(loss.data))
        if not np.isfinite(losses[-1]):
            raise DivergenceError(step, losses[-1])
        opt.zero_grad()
        loss.backward()
        del loss
        opt.step()
        if log is not None:
            log(step, losses[-1])
    return losses
