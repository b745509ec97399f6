"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough machinery to backpropagate a distillation loss through a small
transformer: broadcasting elementwise ops, batched matmul, one attention
node, one SwiGLU FFN node, normalization primitives, and an Adam optimizer.
All arithmetic is 64-bit. A backward closure computes an operand's gradient
only if that operand requires one, and keeps only the arrays it reads.
"""
from __future__ import annotations

import numbers

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


def check_int(name, value, low=1):
    """ValueError naming `name` unless `value` is an int >= `low` (not a bool)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        kind = "a positive int" if low == 1 else f"an int >= {low}"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def is_real(value):
    """True for a real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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


class _Node:
    """A Tensor's gradient so far and, for an op's output, the nodes of the
    operands that need one and the closure that passes it to them; backward
    sets all three to None once it has passed the gradient on."""
    __slots__ = ("grad", "parents", "backward")

    def __init__(self, parents=(), backward=None):
        self.grad = None
        self.parents = parents
        self.backward = backward


class Tensor:
    """A float64 array and, once it takes part in a graph, the node that
    carries its gradient. The array is not part of the graph: each backward
    closure keeps only the arrays its formula reads."""
    __slots__ = ("data", "requires_grad", "_node")
    __array_ufunc__ = None  # `ndarray + Tensor` calls Tensor.__radd__, not a numpy ufunc

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._node = None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        self._node = self._node or _Node()
        self._node.grad = value

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def backward(self):
        """Backpropagate from a scalar loss, consuming its graph.

        Accumulates into ``.grad`` of every requires-grad leaf. An interior
        node drops its gradient, closure and parents as soon as it has passed
        the gradient on, so the arrays its closure saved are freed as backward
        walks down the graph. Tensors the caller still holds keep their
        ``.data``, but a second backward through a consumed node raises
        RuntimeError.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.shape}")
        self._node = self._node or _Node()
        topo = []
        seen = set()
        stack = [(self._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in seen:
                continue
            if node.parents is None:
                raise RuntimeError("backward through a graph that an earlier backward consumed")
            seen.add(node)
            stack.append((node, True))
            for p in node.parents:
                if p not in seen:
                    stack.append((p, False))
        self._node.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.backward is not None:
                node.backward(node.grad)
                node.grad = node.backward = node.parents = None

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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _grad_node(t):
    """t's node if t needs a gradient (made on first use for a leaf), else None."""
    if t.requires_grad:
        t._node = t._node or _Node()
        return t._node
    return None


def _node(data, parents, backward_fn):
    """A Tensor of `data` whose node runs `backward_fn` for the non-None nodes
    in `parents`; a plain Tensor if there are none."""
    out = Tensor(data)
    parents = tuple(p for p in parents if p is not None)
    if parents:
        out.requires_grad = True
        out._node = _Node(parents, backward_fn)
    return out


def _accum(node, g):
    """Add `g` to ``node.grad``; callers skip operands that need no gradient."""
    node.grad = g if node.grad is None else node.grad + g


def add(a, b):
    a, b = _lift(a), _lift(b)
    _check_broadcast(a.shape, b.shape)
    na, nb, a_shape, b_shape = _grad_node(a), _grad_node(b), a.shape, b.shape

    def bwd(g):
        if na:
            _accum(na, _unbroadcast(g, a_shape))
        if nb:
            _accum(nb, _unbroadcast(g, b_shape))

    return _node(a.data + b.data, (na, nb), bwd)


def sub(a, b):
    a, b = _lift(a), _lift(b)
    _check_broadcast(a.shape, b.shape)
    na, nb, a_shape, b_shape = _grad_node(a), _grad_node(b), a.shape, b.shape

    def bwd(g):
        if na:
            _accum(na, _unbroadcast(g, a_shape))
        if nb:
            _accum(nb, _unbroadcast(-g, b_shape))

    return _node(a.data - b.data, (na, nb), bwd)


def mul(a, b):
    a, b = _lift(a), _lift(b)
    _check_broadcast(a.shape, b.shape)
    na, nb, a_shape, b_shape = _grad_node(a), _grad_node(b), a.shape, b.shape
    a_data, b_data = a.data if nb else None, b.data if na else None

    def bwd(g):
        if na:
            _accum(na, _unbroadcast(g * b_data, a_shape))
        if nb:
            _accum(nb, _unbroadcast(g * a_data, b_shape))

    return _node(a.data * b.data, (na, nb), bwd)


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
    na, nb, a_shape, b_shape = _grad_node(a), _grad_node(b), a.shape, b.shape
    a_data, b_data = a.data if nb else None, b.data if na else None

    def bwd(g):
        if na:
            _accum(na, _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_shape))
        if nb:
            _accum(nb, _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_shape))

    return _node(a.data @ b.data, (na, nb), bwd)


def _matmul_2d(a, b):
    """(..., k) @ (k, n) through `matmul`'s 2-D GEMMs; b's gradient is `_weight_grad`'s."""
    na, nb = _grad_node(a), _grad_node(b)
    a_data, b_data = a.data if nb else None, b.data if na else None

    def bwd(g):
        if na:
            _accum(na, matmul(g, b_data.T))
        if nb:
            _accum(nb, _weight_grad(a_data, g))

    return _node(matmul(a.data, b.data), (na, nb), bwd)


def _weight_grad(a, g):
    """The (k, n) gradient of w in `a @ w`: a[r].T @ g[r] summed over leading blocks r
    of a (..., m, k) and g (..., m, n), in the order that summing their batched product does."""
    a, g = a.reshape(-1, *a.shape[-2:]), g.reshape(-1, *g.shape[-2:])
    out = a[0].T @ g[0]
    for a_r, g_r in zip(a[1:], g[1:]):
        out += a_r.T @ g_r
    return out


def transpose(a, axes):
    a = _lift(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    na = _grad_node(a)

    def bwd(g):
        _accum(na, np.transpose(g, inv))

    return _node(np.transpose(a.data, axes), (na,), bwd)


def reshape(a, shape):
    a = _lift(a)
    na, a_shape = _grad_node(a), a.shape

    def bwd(g):
        _accum(na, g.reshape(a_shape))

    return _node(a.data.reshape(shape), (na,), bwd)


def concat(parts, axis):
    """Join tensors along `axis`; each part's gradient is its slice of the output's.
    All-ndarray parts are joined by `np.concatenate` and stay an ndarray."""
    if all(isinstance(p, np.ndarray) for p in parts):
        return np.concatenate(parts, axis=axis)
    parts = [_lift(p) for p in parts]
    ends = np.cumsum([p.shape[axis] for p in parts])[:-1]
    nodes = [_grad_node(p) for p in parts]

    def bwd(g):
        for n, gp in zip(nodes, np.split(g, ends, axis=axis)):
            if n:
                _accum(n, gp)

    return _node(np.concatenate([p.data for p in parts], axis=axis), nodes, bwd)


def _is_basic(idx):
    """True if `idx` is numpy basic indexing (ints, slices, `...`, None), which
    selects no element twice."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is None or p is Ellipsis or isinstance(p, slice)
               or (isinstance(p, (int, np.integer)) and not isinstance(p, bool)) for p in parts)


def getitem(a, idx):
    """a[idx]. The gradient scatters into zeros of a's shape: by `+=` for basic
    indexing, by `np.add.at` (which sums repeated indexes) otherwise."""
    a = _lift(a)
    na, a_shape, basic = _grad_node(a), a.shape, _is_basic(idx)

    def bwd(g):
        buf = np.zeros(a_shape)
        if basic:
            buf[idx] += g
        else:
            np.add.at(buf, idx, g)
        _accum(na, buf)

    return _node(a.data[idx], (na,), bwd)


def l1_norm(a):
    """Sum of absolute values; subgradient at 0 is 0."""
    a = _lift(a)
    na, a_data = _grad_node(a), a.data

    def bwd(g):
        _accum(na, g * np.sign(a_data))

    return _node(np.abs(a.data).sum(), (na,), bwd)


def sum_squares(a):
    """Squared L2 (Frobenius) norm of all entries."""
    a = _lift(a)
    na, a_data = _grad_node(a), a.data

    def bwd(g):
        _accum(na, 2.0 * g * a_data)

    return _node((a.data * a.data).sum(), (na,), bwd)


# Plain-ndarray kernels. The Tensor ops below take their forward values from
# them; `attention`, `rms_norm`, `ffn` and `rope_rotate` (and `concat` above)
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
    s = np.negative(x)
    np.reciprocal(np.add(np.exp(s, out=s), 1.0, out=s), out=s)  # 1 / (1 + exp(-x)) in one array
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
    xr = x.reshape(x.shape[:-1] + (2, h))  # [x1, x2]; out is [x1 cos + x2 (-sin), x2 cos + x1 sin]
    out = xr * np.concatenate((cos, cos), axis=-1).reshape(cos.shape[:-1] + (2, h))
    out += xr[..., ::-1, :] * np.concatenate((-sin, sin), axis=-1).reshape(sin.shape[:-1] + (2, h))
    return out.reshape(out.shape[:-2] + (2 * h,))


def attention(score, operands, v, additive_mask):
    """softmax(score(*operands) + additive_mask) @ v as one node, over the last axis.

    `score` gives the scores (..., g, Tq, Tk), with the same bits on the
    operands' arrays as on the Tensors. v is (..., 1, Tk, d), shared by the g
    query heads of its group. The mask (large negative at masked-out keys) is
    added into the scores array the node owns, never into an operand's. The
    node keeps each row's max and sum and the operands' arrays, which the
    score graph holds anyway: backward recomputes the probabilities from them
    with the same ops (as FlashAttention, arXiv 2205.14135), so every gradient
    has the bits of a kept copy. With ndarray operands and v it is an ndarray.
    """
    scores = score(*operands)
    arrays = [o.data if isinstance(o, Tensor) else o for o in operands]
    if scores.shape[:-3] != v.shape[:-3] or v.shape[-3] != 1 or v.shape[-2] != scores.shape[-1]:
        raise ShapeError(f"attention got scores {scores.shape}, v {v.shape}")

    def probs(s, kept=None):  # softmax(s + mask), in s if s is no operand's; its row max and sum
        shared = any(np.may_share_memory(s, a) for a in arrays)
        s = np.add(s, additive_mask, out=None if shared else s)
        row_max = s.max(axis=-1, keepdims=True) if kept is None else kept[0]
        s -= row_max
        dead = s < -746.0  # exp is 0.0 there, and numpy's exp is slow wherever it underflows
        np.exp(s, out=s, where=~dead)
        np.copyto(s, 0.0, where=dead)
        row_sum = s.sum(axis=-1, keepdims=True) if kept is None else kept[1]
        s /= row_sum
        return s, (row_max, row_sum)

    if isinstance(scores, np.ndarray) and isinstance(v, np.ndarray):
        return probs(scores)[0] @ v
    scores, v = _lift(scores), _lift(v)
    p, kept = probs(scores.data)
    ns, nv = _grad_node(scores), _grad_node(v)
    v_data = v.data if ns else None

    def bwd(grad):
        p = probs(score(*arrays), kept)[0]
        if nv:
            _accum(nv, (np.swapaxes(p, -1, -2) @ grad).sum(axis=-3, keepdims=True))
        if ns:
            ds = grad @ np.swapaxes(v_data, -1, -2)
            for ds_r, p_r in zip(ds, p):  # one leading block's (ds * p) at a time
                ds_r -= (ds_r * p_r).sum(axis=-1, keepdims=True)
            ds *= p
            _accum(ns, ds)

    return _node(p @ v.data, (ns, nv), bwd)


def rms_norm(x, weight):
    """RMS-normalize over the last axis, then scale elementwise by `weight`."""
    if isinstance(x, np.ndarray):
        return rms_norm_fwd(x, weight)[0]
    x, weight = _lift(x), _lift(weight)
    n = x.shape[-1]
    out_data, inv = rms_norm_fwd(x.data, weight.data)
    nx, nw, w_shape = _grad_node(x), _grad_node(weight), weight.shape
    x_data, w_data = x.data, weight.data if nx else None

    def bwd(g):
        if nx:
            gw_x = g * w_data
            dot = (gw_x * x_data).sum(axis=-1, keepdims=True)
            _accum(nx, gw_x * inv - x_data * (inv ** 3 / n) * dot)
        if nw:
            _accum(nw, _unbroadcast(g * x_data * inv, w_shape))

    return _node(out_data, (nx, nw), bwd)


def ffn(h, w_gate, w_up, w_down):
    """The SwiGLU FFN (silu(h @ w_gate) * (h @ w_up)) @ w_down as one node of
    `matmul`'s 2-D GEMMs. It keeps h, gate and up: backward recomputes the rest
    and frees each temporary once used. With ndarray operands it is an ndarray."""
    if all(isinstance(t, np.ndarray) for t in (h, w_gate, w_up, w_down)):
        return matmul(silu_fwd(matmul(h, w_gate))[0] * matmul(h, w_up), w_down)
    ts = [_lift(t) for t in (h, w_gate, w_up, w_down)]
    (x, wg, wu, wd), (nh, ng, nu, nd) = [t.data for t in ts], [_grad_node(t) for t in ts]
    gate, up = matmul(x, wg), matmul(x, wu)

    def bwd(g):
        d_up, s = silu_fwd(gate)  # silu(gate) until it is scaled below
        if nd:
            _accum(nd, _weight_grad(d_up * up, g))
        d_gate = matmul(g, wd.T)  # the down projection input's gradient, then gate's
        d_up *= d_gate
        d_gate *= up
        d_gate *= s
        d_gate *= 1.0 + gate * (1.0 - s)  # ((dprod * up) * s) * (...), in this rounding order
        del s
        if ng:
            _accum(ng, _weight_grad(x, d_gate))
        if nu:
            _accum(nu, _weight_grad(x, d_up))
        if nh:
            _accum(nh, matmul(d_gate, wg.T) + matmul(d_up, wu.T))

    return _node(matmul(silu_fwd(gate)[0] * up, wd), (nh, ng, nu, nd), bwd)


def rope_rotate(x, cos, sin):
    """Rotate-half RoPE of x (..., d); `cos`/`sin` broadcast against either half."""
    if isinstance(x, np.ndarray):
        return rotate_half(x, cos, sin)
    x = _lift(x)
    d = x.shape[-1]
    if d % 2 != 0:
        raise ShapeError(f"rope needs an even head dimension, got {d}")
    nx = _grad_node(x)

    def bwd(g):
        _accum(nx, rotate_half(g, cos, -sin))

    return _node(rotate_half(x.data, cos, sin), (nx,), bwd)


def embedding(weight, ids):
    """Row gather from an embedding table with scatter-add backward."""
    weight = _lift(weight)
    ids = np.asarray(ids)
    nw, w_shape = _grad_node(weight), weight.shape

    def bwd(g):
        buf = np.zeros(w_shape)
        np.add.at(buf, ids, g)
        _accum(nw, buf)

    return _node(weight.data[ids], (nw,), bwd)


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
    nl = _grad_node(logits)

    def bwd(g):
        p = np.exp(z)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(n), targets] -= 1.0
        _accum(nl, (float(g) / n) * p)

    return _node(nll.mean(), (nl,), bwd)


class Adam:
    """Adam with bias correction over a list of Tensors; the moment buffers
    are updated in place and each parameter's ``.data`` is replaced."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        if not (is_real(lr) and 0 < lr < np.inf):
            raise ValueError(f"lr must be a positive finite number, got {lr!r}")
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
            den = v / (1 - b2 ** self.t)  # lr * m_hat / (sqrt(v_hat) + EPS), in place
            np.add(np.sqrt(den, out=den), self.EPS, out=den)
            delta = m / (1 - b1 ** self.t)
            np.divide(np.multiply(delta, self.lr, out=delta), den, out=delta)
            p.data = p.data - delta

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def _keep_freed_heap():
    """Let glibc keep up to 64 MiB of freed heap instead of returning it to the OS.

    Backward frees each node's arrays as it passes them, so a step ends with
    the top of the heap free; glibc's default trims it, and the next forward
    page-faults it back in (16 default pretraining steps: 85-150K minor faults
    and 10-20% more time, against about 250 faults with these settings). A C
    library without `mallopt` is left as it is.
    """
    import ctypes  # only training loads it
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays up to 32 MiB come from the heap
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def fit(params, lr, steps, step_loss, log=None):
    """Minimise with Adam: `step_loss(step)` builds step `step`'s scalar loss
    Tensor over `params`; returns the per-step losses as floats.

    A non-finite loss raises DivergenceError before any parameter moves in
    that step. `log(step, loss)` runs after each step. A step's graph is
    released before the next `step_loss` call.
    """
    check_int("steps", steps, low=0)
    _keep_freed_heap()
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
