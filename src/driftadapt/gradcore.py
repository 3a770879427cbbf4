"""Dense float64 arrays with reverse-mode automatic differentiation.

Just enough operations for the model and every adaptation loss: matmul,
elementwise arithmetic with limited broadcasting, softmax, layer norm with
affine parameters, cosine similarities against constant centroid sets,
row gathers, per-cluster means (``cluster_means``, on the array helper
``cluster_sums``), cross entropy, and the fusion block's self-attention with
mean pooling as one node (``attention_pool``). The per-row helpers
``rowdot``, ``rowscale``, ``stack_cols`` and ``col`` compose the same
attention op by op; the tests use them as an oracle for ``attention_pool``.
Gradients accumulate with ``+=`` so a sum of losses can be backpropagated
jointly or term by term with identical results.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ContractError,
    DegenerateVectorError,
    NumericError,
    ShapeMismatchError,
)

_NORM_FLOOR = 1e-12


class Tensor:
    """A float64 array node in a reverse-accumulation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def detach(self) -> np.ndarray:
        return self.data.copy()

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(_wrap(other), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other), mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def backward(root: Tensor):
    """Accumulate d(root)/d(leaf) into every requires_grad leaf."""
    if root.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.data.shape}")
    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    if root.grad is None:
        root.grad = np.zeros_like(root.data)
    root.grad += np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


# -- elementwise ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data + b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data * b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bwd)


def tsum(x: Tensor, axis=None) -> Tensor:
    x = _wrap(x)
    out_data = x.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.data.shape).copy())
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())

    return _make(out_data, (x,), bwd)


def tmean(x: Tensor, axis=None) -> Tensor:
    x = _wrap(x)
    n = x.data.size if axis is None else x.data.shape[axis]
    return mul(tsum(x, axis=axis), 1.0 / n)


def log_clamped(x: Tensor, floor: float = 1e-12) -> Tensor:
    """log(max(x, floor)); gradient is zero where the clamp is active."""
    x = _wrap(x)
    clamped = np.maximum(x.data, floor)
    out_data = np.log(clamped)

    def bwd(g):
        _accum(x, g * np.where(x.data > floor, 1.0 / clamped, 0.0))

    return _make(out_data, (x,), bwd)


def gelu(x: Tensor) -> Tensor:
    """Smooth GELU (tanh approximation)."""
    x = _wrap(x)
    c = np.sqrt(2.0 / np.pi)
    a = 0.044715
    # x * x * x, not x**3: numpy's pow loop is an order of magnitude slower
    x2 = x.data * x.data
    u = c * (x.data + a * (x2 * x.data))
    t = np.tanh(u)
    out_data = 0.5 * x.data * (1.0 + t)

    def bwd(g):
        du = c * (1.0 + 3.0 * a * x2)
        _accum(x, g * (0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t**2) * du))

    return _make(out_data, (x,), bwd)


# -- linear algebra -------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(
            f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}"
        )
    out_data = a.data @ b.data

    def bwd(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(out_data, (a, b), bwd)


def rowdot(a: Tensor, b: Tensor) -> Tensor:
    """Per-row dot product of two B x d tensors -> B."""
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"rowdot shapes differ: {a.data.shape} vs {b.data.shape}")
    out_data = np.einsum("ij,ij->i", a.data, b.data)

    def bwd(g):
        _accum(a, g[:, None] * b.data)
        _accum(b, g[:, None] * a.data)

    return _make(out_data, (a, b), bwd)


def rowscale(v: Tensor, m: Tensor) -> Tensor:
    """Scale row i of matrix m by scalar v[i]."""
    v, m = _wrap(v), _wrap(m)
    out_data = v.data[:, None] * m.data

    def bwd(g):
        _accum(v, np.einsum("ij,ij->i", g, m.data))
        _accum(m, g * v.data[:, None])

    return _make(out_data, (v, m), bwd)


def stack_cols(vs) -> Tensor:
    """Stack B-vectors as columns of a B x k matrix."""
    vs = [_wrap(v) for v in vs]
    out_data = np.stack([v.data for v in vs], axis=1)

    def bwd(g):
        for j, v in enumerate(vs):
            _accum(v, g[:, j])

    return _make(out_data, tuple(vs), bwd)


def col(x: Tensor, j: int) -> Tensor:
    x = _wrap(x)
    out_data = x.data[:, j].copy()

    def bwd(g):
        full = np.zeros_like(x.data)
        full[:, j] = g
        _accum(x, full)

    return _make(out_data, (x,), bwd)


def attention_pool(tokens, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """Self-attention over n B x d tokens, mean-pooled over the queries.

    Per sample, with x_i the i-th token: a = softmax_j((x_i wq).(x_j wk) / sqrt(d_k))
    and the output is (1/n) sum_i sum_j a_ij (x_j wv), a B x d_v tensor. One
    graph node: forward and backward are batched matmuls over the stacked
    B x n x d tokens.
    """
    tokens = [_wrap(t) for t in tokens]
    wq, wk, wv = _wrap(wq), _wrap(wk), _wrap(wv)
    shape = tokens[0].data.shape if tokens else None
    if shape is None or len(shape) != 2 or any(t.data.shape != shape for t in tokens):
        raise ShapeMismatchError(
            f"attention tokens must share one B x d shape, got {[t.data.shape for t in tokens]}"
        )
    b, d = shape
    n = len(tokens)
    if (wq.data.ndim != 2 or wq.data.shape != wk.data.shape
            or wq.data.shape[0] != d or wv.data.ndim != 2 or wv.data.shape[0] != d):
        raise ShapeMismatchError(
            f"attention projections {wq.data.shape}/{wk.data.shape}/{wv.data.shape} "
            f"do not fit token dim {d}"
        )
    x = np.stack([t.data for t in tokens], axis=1).reshape(b * n, d)
    q = (x @ wq.data).reshape(b, n, -1)
    k = (x @ wk.data).reshape(b, n, -1)
    v = (x @ wv.data).reshape(b, n, -1)
    scale = 1.0 / np.sqrt(q.shape[2])
    s = (q @ k.transpose(0, 2, 1)) * scale
    e = np.exp(s - s.max(axis=2, keepdims=True))
    attn = e / e.sum(axis=2, keepdims=True)
    out_data = (attn @ v).sum(axis=1) * (1.0 / n)

    def bwd(g):
        # every query row gets g / n, so d(attn)_ij = v_j . g / n for all i
        gv = (v @ g[:, :, None]).transpose(0, 2, 1) * (1.0 / n)   # B x 1 x n
        ds = attn * (gv - (attn * gv).sum(axis=2, keepdims=True)) * scale
        dq = (ds @ k).reshape(b * n, -1)
        dk = (ds.transpose(0, 2, 1) @ q).reshape(b * n, -1)
        dv = (attn.sum(axis=1)[:, :, None] * (g[:, None, :] * (1.0 / n))).reshape(b * n, -1)
        for w, dw in ((wq, dq), (wk, dk), (wv, dv)):
            if w.requires_grad:
                _accum(w, x.T @ dw)
        if any(t.requires_grad for t in tokens):
            dx = (dq @ wq.data.T + dk @ wk.data.T + dv @ wv.data.T).reshape(b, n, d)
            for i, t in enumerate(tokens):
                _accum(t, dx[:, i])

    return _make(out_data, (*tokens, wq, wk, wv), bwd)


def take_rows(x: Tensor, idx) -> Tensor:
    x = _wrap(x)
    idx = np.asarray(idx, dtype=np.intp)
    out_data = x.data[idx]

    def bwd(g):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        _accum(x, full)

    return _make(out_data, (x,), bwd)


def stack_rows(vs) -> Tensor:
    """Stack equal-length vectors as the rows of a matrix."""
    vs = [_wrap(v) for v in vs]

    def bwd(g):
        for v, row in zip(vs, g):
            _accum(v, row)

    return _make(np.stack([v.data for v in vs]), tuple(vs), bwd)


def cluster_sums(x: np.ndarray, labels, k: int):
    """Row sums and row counts per cluster of an n x d array, labels in [0, k).

    One weighted bincount adds each cluster's rows in row order, so a sum is
    bit for bit ``x[labels == j].sum(axis=0)`` when d >= 2 (numpy sums a
    single column pairwise). An empty cluster has a zero sum and count.
    """
    labels = np.asarray(labels, dtype=np.intp)
    d = x.shape[1]
    flat = (labels[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(flat, weights=x.ravel(), minlength=k * d).reshape(k, d)
    return sums, np.bincount(labels, minlength=k)


def cluster_means(x: Tensor, labels, k: int) -> Tensor:
    """k' x d row means of the nonempty clusters, in cluster order, with
    ``tmean``'s arithmetic: ``sum * (1/n)``, and ``g * (1/n)`` to each member."""
    x = _wrap(x)
    labels = np.asarray(labels, dtype=np.intp)
    sums, counts = cluster_sums(x.data, labels, k)
    filled = counts > 0
    inv = (1.0 / counts[filled])[:, None]
    row = np.cumsum(filled) - 1   # output row of each nonempty cluster

    def bwd(g):
        _accum(x, (g * inv)[row[labels]])

    return _make(sums[filled] * inv, (x,), bwd)


# -- nonlinear blocks -----------------------------------------------------


def softmax(x: Tensor, beta: float = 1.0, axis: int = -1) -> Tensor:
    """softmax(beta * x) along ``axis`` with max-subtraction."""
    x = _wrap(x)
    if x.data.size == 0:
        raise ContractError("softmax of empty input")
    if not np.isfinite(beta):
        raise ContractError("softmax temperature multiplier must be finite")
    z = beta * x.data
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * p).sum(axis=axis, keepdims=True)
        _accum(x, beta * p * (g - inner))

    return _make(p, (x,), bwd)


def layernorm_affine(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row standardization followed by elementwise gain * xhat + bias."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    if eps <= 0:
        raise ContractError("layernorm eps must be positive")
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeMismatchError(
            f"layernorm affine shapes {gain.data.shape}/{bias.data.shape} "
            f"do not match feature dim {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = gain.data * xhat + bias.data

    def bwd(g):
        _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        _accum(bias, g.reshape(-1, d).sum(axis=0))
        gy = g * gain.data
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        _accum(x, (gy - m1 - xhat * m2) * inv)

    return _make(out_data, (x, gain, bias), bwd)


def cosine_matrix(features: Tensor, centroids: np.ndarray) -> Tensor:
    """B x k cosine similarities; centroids are constants (no gradient)."""
    features = _wrap(features)
    c = np.asarray(centroids, dtype=np.float64)
    nf = np.linalg.norm(features.data, axis=1)
    nc = np.linalg.norm(c, axis=1)
    bad = np.flatnonzero(nf < _NORM_FLOOR)
    if bad.size:
        raise DegenerateVectorError(f"zero-norm feature row {int(bad[0])}")
    if np.any(nc < _NORM_FLOOR):
        raise DegenerateVectorError("zero-norm centroid")
    denom = nf[:, None] * nc[None, :]
    s = features.data @ c.T / denom

    def bwd(g):
        grad = (g / denom) @ c - ((g * s).sum(axis=1) / nf**2)[:, None] * features.data
        _accum(features, grad)

    return _make(s, (features,), bwd)


def max_axis1(x: Tensor):
    """Row maxima of a B x k tensor; returns (maxima, argmax indices).

    Ties broken by lowest index; gradient routes only to the argmax entry.
    """
    x = _wrap(x)
    idx = x.data.argmax(axis=1)
    out_data = x.data[np.arange(x.data.shape[0]), idx]

    def bwd(g):
        full = np.zeros_like(x.data)
        full[np.arange(x.data.shape[0]), idx] = g
        _accum(x, full)

    return _make(out_data, (x,), bwd), idx


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross entropy of row-wise softmax(logits) against integer labels."""
    logits = _wrap(logits)
    labels = np.asarray(labels, dtype=np.intp)
    n = logits.data.shape[0]
    if labels.shape != (n,):
        raise ShapeMismatchError(
            f"labels shape {labels.shape} does not match batch {n}"
        )
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1)
    loss = float(np.mean(np.log(total) - z[np.arange(n), labels]))
    p = e / total[:, None]

    def bwd(g):
        onehot = np.zeros_like(p)
        onehot[np.arange(n), labels] = 1.0
        _accum(logits, g * (p - onehot) / n)

    return _make(np.asarray(loss), (logits,), bwd)


# -- gradient checking ----------------------------------------------------


def finite_diff_params(loss_fn, params, h: float = 1e-5) -> float:
    """Gradient check of ``loss_fn`` w.r.t. a collection of parameter tensors.

    ``loss_fn`` takes no arguments and rebuilds the loss from the current
    ``.data`` of every parameter; it is re-evaluated at perturbed values.
    """
    if not (1e-7 <= h <= 1e-3):
        raise ContractError(f"step size {h} outside [1e-7, 1e-3]")
    params = list(params)
    for p in params:
        p.grad = None
    out = loss_fn()
    if not np.isfinite(out.data).all():
        raise NumericError("loss value is not finite")
    backward(out)
    analytic = [
        (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for p in params
    ]
    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn().data.item()
            flat[i] = orig - h
            fm = loss_fn().data.item()
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericError("perturbed loss value is not finite")
            numeric = (fp - fm) / (2.0 * h)
            err = abs(aflat[i] - numeric) / (abs(numeric) + 1e-12)
            worst = max(worst, err)
    for p in params:
        p.grad = None
    return worst
