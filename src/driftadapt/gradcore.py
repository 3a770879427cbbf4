"""Dense float64 arrays with reverse-mode automatic differentiation.

Just enough operations for the model and every adaptation loss: matmul,
elementwise arithmetic with limited broadcasting, softmax, layer norm with
affine parameters, cosine similarities against constant centroid sets,
row gathers, per-cluster means (``cluster_means``, on the array helper
``cluster_sums``, with ``cluster_ids`` giving the clusters of n rows of
indices one id space and ``cluster_counts`` their one bincount), cross
entropy, and one node per model block.

The model's modalities are one stacked leading axis, so the blocks take an
n x B x d stack: the encoders of all modalities are one
``linear_layernorm_gelu`` node over n x d_in x d_h weights (which shares its
array arithmetic with ``gelu`` and ``layernorm_affine``), the fusion block's
self-attention with mean pooling is one ``attention_pool`` node over the
stack, and the classifier (``linear``) scores B x d rows or each slice of a
stack. ``max_cosine`` scores a B x d batch or a whole stack against its
centroid stack in one node. Stacked matmuls, batch-axis sums and last-axis
reductions run slice by slice with the float operations of the unstacked
ones, so a stacked node's values and gradients are bit for bit those of one
node per slice; ``unstack`` gives per-slice nodes where a caller holds one
tensor per modality.

Each adaptation loss is one node over the stacks too: ``mean_entropy`` of
the fused logits, ``one_minus_means`` and ``one_minus_weighted_means`` of
the n x B max-cosine scores (one term per row), ``plogp_sums`` of the
per-cluster mean probabilities (one term per group of rows), and
``weighted_sum`` of the loss terms. Every softmax runs ``softmax_array``
and every clamped log ``log_clamped_array``; the fused ops share those and
the cosine arithmetic of ``cosine_matrix`` and ``max_axis1``. The op-by-op
compositions that each fused op replays, built from the small graph ops
(``add``, ``mul``, ``tsum``, ``rowdot``, ``rowscale``, ``stack_cols``,
``col`` and the rest, which no program code calls), live in
``tests/oracles.py`` as bitwise references.
A Tensor has no arithmetic operators: every graph node is built by a named
op, so ``1 - t`` is ``add(1.0, mul(t, -1.0))``.
Gradients accumulate with ``+=`` so a sum of losses can be backpropagated
jointly or term by term with identical results. A tensor's first gradient
is ``g + 0.0``, the bits of a sum that starts from zeros, written into its
``grad_buffer`` when it has one (an optimizer's flat gradient buffer).

A sum or max over a last axis shorter than 8 (the class, token and cluster
axes) runs as a left-to-right chain of ufuncs over its columns
(``sum_last``, ``max_last``); the attention node sums over its tokens the
same way, through a view with the token axis swapped last. Numpy reduces
in that same order there, so the bits are those of ``x.sum(axis=...)``,
without a reduction's overhead.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from .errors import ContractError, DegenerateDataError, NumericError

_NORM_FLOOR = 1e-12
_LOG_FLOOR = 1e-12
_LN_EPS = 1e-5
_FD_STEP = 1e-5   # central-difference step of finite_diff_params


class Tensor:
    """A float64 array node in a reverse-accumulation graph."""

    # grad_buffer: where a first gradient is written, None to allocate one;
    # softmax_parts: the arrays of softmax_entropy, once computed
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "grad_buffer", "softmax_parts")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.grad = None
        self.grad_buffer = None
        self.softmax_parts = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn = None

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> np.ndarray:
        return self.data.copy()


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
            break
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # g broadcast to the tensor's shape, plus 0.0: bit for bit the sum
        # zeros + g, -0.0 included
        out = t.grad_buffer if t.grad_buffer is not None else np.empty_like(t.data)
        t.grad = np.add(g, 0.0, out=out)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# numpy reduces a contiguous last axis shorter than this left to right,
# starting from 0.0 (so a row of -0.0 sums to +0.0), and unrolls a longer one
# by 8; it reduces a non-last axis in that same left-to-right order at any
# length. tests/test_gradcore.py pins both against the installed numpy.
_SHORT_AXIS = 8


def sum_last(x: np.ndarray, keepdims: bool = False):
    """``x.sum(axis=-1, keepdims=keepdims)`` bit for bit, of a C-contiguous x
    or of one with its last two axes swapped; a short last axis is summed as
    a chain of column adds, without a reduction's overhead."""
    n = x.shape[-1]
    if not 0 < n < _SHORT_AXIS:
        return x.sum(axis=-1, keepdims=keepdims)
    out = x[..., 0] + 0.0
    for j in range(1, n):
        out += x[..., j]
    return out[..., None] if keepdims else out


def max_last(x: np.ndarray, keepdims: bool = False):
    """``x.max(axis=-1, keepdims=keepdims)`` bit for bit, as ``sum_last``
    sums."""
    n = x.shape[-1]
    if not 0 < n < _SHORT_AXIS:
        return x.max(axis=-1, keepdims=keepdims)
    out = x[..., 0].copy() if n == 1 else np.maximum(x[..., 0], x[..., 1])
    for j in range(2, n):
        out = np.maximum(out, x[..., j])
    return out[..., None] if keepdims else out


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
        root.grad = np.ones_like(root.data)
    else:
        root.grad += 1.0
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
        g = g if axis is None else np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(g, x.data.shape).copy())

    return _make(out_data, (x,), bwd)


def tmean(x: Tensor, axis=None) -> Tensor:
    x = _wrap(x)
    n = x.data.size if axis is None else x.data.shape[axis]
    return mul(tsum(x, axis=axis), 1.0 / n)


def log_clamped_array(x: np.ndarray):
    """(log(max(x, 1e-12)), max(x, 1e-12)) of a plain array: the arithmetic
    of every clamped log."""
    clamped = np.maximum(x, _LOG_FLOOR)
    return np.log(clamped), clamped


def _log_clamped_backward(g, x: np.ndarray, clamped: np.ndarray):
    return g * np.where(x > _LOG_FLOOR, 1.0 / clamped, 0.0)


def log_clamped(x: Tensor) -> Tensor:
    """log(max(x, 1e-12)); gradient is zero where the clamp is active."""
    x = _wrap(x)
    out_data, clamped = log_clamped_array(x.data)

    def bwd(g):
        _accum(x, _log_clamped_backward(g, x.data, clamped))

    return _make(out_data, (x,), bwd)


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def _gelu_forward(x: np.ndarray):
    """Smooth GELU (tanh approximation) of an array: (out, x*x, tanh(u))."""
    # x * x * x, not x**3: numpy's pow loop is an order of magnitude slower
    x2 = x * x
    t = np.tanh(_GELU_C * (x + _GELU_A * (x2 * x)))
    return 0.5 * x * (1.0 + t), x2, t


def _gelu_backward(g, x, x2, t):
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
    return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)


def gelu(x: Tensor) -> Tensor:
    """Smooth GELU (tanh approximation)."""
    x = _wrap(x)
    out_data, x2, t = _gelu_forward(x.data)

    def bwd(g):
        _accum(x, _gelu_backward(g, x.data, x2, t))

    return _make(out_data, (x,), bwd)


# -- linear algebra -------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ContractError(f"matmul shapes incompatible: {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(out_data, (a, b), bwd)


def _linear_inputs(x, w, b):
    """Checks ``x @ w + b``: a B x d or n x B x d input times a d x h weight,
    or an n x B x d input times an n x d x h stack of weights, plus a bias
    of shape h or n x h to match the weight."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    xs, ws = x.data.shape, w.data.shape
    if (x.data.ndim not in (2, 3) or w.data.ndim not in (2, 3) or xs[-1] != ws[-2]
            or (w.data.ndim == 3 and (x.data.ndim != 3 or xs[0] != ws[0]))
            or b.data.shape != ws[:-2] + ws[-1:]):
        raise ContractError(f"linear shapes incompatible: {xs} x {ws} + {b.data.shape}")
    return x, w, b


def _batch_sum(g: np.ndarray, shape) -> np.ndarray:
    """Gradient of a parameter of ``shape`` that was broadcast over the batch
    axis (second to last) of g: one sum over that axis, then over any
    leading axis the parameter lacks."""
    return _unbroadcast(g.sum(axis=-2), shape)


def _linear_backward(g, x: Tensor, w: Tensor, b: Tensor):
    """Accumulates the gradients of ``x @ w + b`` as ``matmul`` and ``add`` do,
    slice by slice over a stacked leading axis."""
    if b.requires_grad:
        _accum(b, _batch_sum(g, b.data.shape))
    if w.requires_grad:
        _accum(w, _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.data.shape))
    if x.requires_grad:
        _accum(x, g @ np.swapaxes(w.data, -1, -2))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a B x d input, or for each slice of an n x B x d stack,
    and a bias of length w's column count."""
    x, w, b = _linear_inputs(x, w, b)

    def bwd(g):
        _linear_backward(g, x, w, b)

    return _make(x.data @ w.data + b.data[..., None, :], (x, w, b), bwd)


def rowdot(a: Tensor, b: Tensor) -> Tensor:
    """Per-row dot product of two B x d tensors -> B."""
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape:
        raise ContractError(f"rowdot shapes differ: {a.data.shape} vs {b.data.shape}")
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


def attention_pool(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> Tensor:
    """Self-attention over the n tokens of an n x B x d stack, mean-pooled
    over the queries.

    Per sample, with x_i the i-th token: a = softmax_j((x_i wq).(x_j wk) / sqrt(d_k))
    and the output is (1/n) sum_i sum_j a_ij (x_j wv), a B x d_v tensor. One
    graph node: forward and backward are batched matmuls over the B x n x d
    tokens.
    """
    x, wq, wk, wv = _wrap(x), _wrap(wq), _wrap(wk), _wrap(wv)
    if x.data.ndim != 3 or x.data.shape[0] == 0:
        raise ContractError(f"attention tokens must be an n x B x d stack, got {x.data.shape}")
    n, b, d = x.data.shape
    if (wq.data.ndim != 2 or wq.data.shape != wk.data.shape
            or wq.data.shape[0] != d or wv.data.ndim != 2 or wv.data.shape[0] != d):
        raise ContractError(
            f"attention projections {wq.data.shape}/{wk.data.shape}/{wv.data.shape} "
            f"do not fit token dim {d}"
        )
    rows = x.data.transpose(1, 0, 2).reshape(b * n, d)   # sample-major tokens
    q = (rows @ wq.data).reshape(b, n, -1)
    k = (rows @ wk.data).reshape(b, n, -1)
    v = (rows @ wv.data).reshape(b, n, -1)
    scale = 1.0 / np.sqrt(q.shape[2])
    s = (q @ k.transpose(0, 2, 1)) * scale
    attn = softmax_array(s)
    out_data = sum_last(np.swapaxes(attn @ v, 1, 2)) * (1.0 / n)

    def bwd(g):
        # every query row gets g / n, so d(attn)_ij = v_j . g / n for all i
        gv = (v @ g[:, :, None]).transpose(0, 2, 1) * (1.0 / n)   # B x 1 x n
        ds = attn * (gv - sum_last(attn * gv, keepdims=True)) * scale
        dq = (ds @ k).reshape(b * n, -1)
        dk = (ds.transpose(0, 2, 1) @ q).reshape(b * n, -1)
        dv = (sum_last(np.swapaxes(attn, 1, 2))[:, :, None]
              * (g[:, None, :] * (1.0 / n))).reshape(b * n, -1)
        for w, dw in ((wq, dq), (wk, dk), (wv, dv)):
            if w.requires_grad:
                _accum(w, rows.T @ dw)
        if x.requires_grad:
            dx = (dq @ wq.data.T + dk @ wk.data.T + dv @ wv.data.T).reshape(b, n, d)
            _accum(x, dx.transpose(1, 0, 2))

    return _make(out_data, (x, wq, wk, wv), bwd)


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
    """Stack equal-shape tensors along a new leading axis."""
    vs = [_wrap(v) for v in vs]

    def bwd(g):
        for v, row in zip(vs, g):
            _accum(v, row)

    return _make(np.stack([v.data for v in vs]), tuple(vs), bwd)


def unstack(x: Tensor) -> tuple:
    """The slices x[0], x[1], ... of a stacked tensor, one node each.

    A slice's gradient is added into its own row of x's gradient; since a
    gradient that starts from zeros is never -0.0, that row holds exactly
    the sum it would hold as a tensor of its own.
    """
    x = _wrap(x)

    def part(i):
        def bwd(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[i] += g

        return _make(x.data[i], (x,), bwd)

    return tuple(part(i) for i in range(x.data.shape[0]))


def cluster_ids(indices, k: int) -> tuple:
    """(ids, number of ids) of cluster indices in [0, k). Index j of row i
    of n x B indices is id j + k*i of n*k, so one bincount counts the
    clusters of every row, and one ``cluster_sums`` over the nB rows of an
    n x B x d stack sums them, each cluster's members in row order. The
    ids are raveled; a 1-D vector of indices is its own ids, of k."""
    indices = np.asarray(indices, dtype=np.intp)
    if indices.ndim == 1:
        return indices, k
    n = indices.shape[0]
    return (indices + k * np.arange(n)[:, None]).ravel(), k * n


def cluster_counts(indices, k: int) -> np.ndarray:
    """The members of each cluster of ``cluster_ids``: the one bincount that
    a caller shares between ``cluster_sums`` calls over the same indices."""
    ids, n_ids = cluster_ids(indices, k)
    return np.bincount(ids, minlength=n_ids)


def cluster_sums(x: np.ndarray, labels, k: int, counts=None):
    """Row sums and row counts per cluster of an n x d array, labels in [0, k).

    One weighted bincount adds each cluster's rows in row order, so a sum is
    bit for bit ``x[labels == j].sum(axis=0)`` when d >= 2 (numpy sums a
    single column pairwise). An empty cluster has a zero sum and count.
    ``counts``, the bincount of the labels, is taken as given when a caller
    has it (see ``cluster_counts``).
    """
    labels = np.asarray(labels, dtype=np.intp)
    d = x.shape[1]
    flat = (labels[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(flat, weights=x.ravel(), minlength=k * d).reshape(k, d)
    return sums, np.bincount(labels, minlength=k) if counts is None else counts


def cluster_means(x: Tensor, labels, k: int, counts=None) -> Tensor:
    """k' x d row means of the nonempty clusters, in cluster order, with
    ``tmean``'s arithmetic: ``sum * (1/n)``, and ``g * (1/n)`` to each member.

    The rows of x are those of its last axis: an n x B x d stack is nB rows
    with n x B labels. ``counts`` is passed on to ``cluster_sums``."""
    x = _wrap(x)
    labels = np.asarray(labels, dtype=np.intp).ravel()
    sums, counts = cluster_sums(x.data.reshape(-1, x.data.shape[-1]), labels, k, counts)
    filled = counts > 0
    inv = (1.0 / counts[filled])[:, None]
    row = np.cumsum(filled) - 1   # output row of each nonempty cluster

    def bwd(g):
        _accum(x, (g * inv)[row[labels]].reshape(x.data.shape))

    return _make(sums[filled] * inv, (x,), bwd)


# -- nonlinear blocks -----------------------------------------------------


def softmax_array(x: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """softmax(beta * x) of a plain array along the last axis with
    max-subtraction: the arithmetic of every softmax in the program but
    ``cross_entropy``'s log-sum-exp."""
    if x.size == 0:
        raise ContractError("softmax of empty input")
    # x * 1.0 is x bit for bit, so a unit beta skips the multiply
    if beta != 1.0:
        if not np.isfinite(beta):
            raise ContractError("softmax temperature multiplier must be finite")
        x = beta * x
    z = x - max_last(x, keepdims=True)
    e = np.exp(z)
    return e / sum_last(e, keepdims=True)


def _softmax_backward(g, p: np.ndarray, beta: float):
    inner = sum_last(g * p, keepdims=True)
    return beta * p * (g - inner)


def softmax(x: Tensor, beta: float = 1.0) -> Tensor:
    """softmax(beta * x) along the last axis with max-subtraction."""
    x = _wrap(x)
    p = softmax_array(x.data, beta)

    def bwd(g):
        _accum(x, _softmax_backward(g, p, beta))

    return _make(p, (x,), bwd)


def _layernorm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """gain * xhat + bias of the last-axis standardization xhat: (out, xhat, 1/std).
    A gain and bias of shape n x d act on the n slices of an n x B x d x.

    The mean and variance are ``np.mean`` and ``np.var``'s arithmetic (a sum
    divided by d, then the mean of the squared deviations) written out, so
    the deviations are computed once. A variance that is not finite raises
    NumericError: an overflow would otherwise make 1/std 0 and every output
    row ``bias``.
    """
    d = x.shape[-1]
    dev = x - x.sum(axis=-1, keepdims=True) / d
    var = (dev * dev).sum(axis=-1, keepdims=True) / d
    if not np.isfinite(var).all():
        raise NumericError("layer norm variance is not finite")
    inv = 1.0 / np.sqrt(var + eps)
    xhat = dev * inv
    return gain[..., None, :] * xhat + bias[..., None, :], xhat, inv


def _layernorm_backward(g, gain: np.ndarray, xhat, inv):
    """(d gain, d bias, d x) of ``_layernorm_forward`` for the upstream g."""
    d = xhat.shape[-1]
    gy = g * gain[..., None, :]
    m1 = gy.sum(axis=-1, keepdims=True) / d            # np.mean's arithmetic
    m2 = (gy * xhat).sum(axis=-1, keepdims=True) / d
    return (_batch_sum(g * xhat, gain.shape), _batch_sum(g, gain.shape),
            (gy - m1 - xhat * m2) * inv)


def _layernorm_inputs(gain, bias, shape):
    gain, bias = _wrap(gain), _wrap(bias)
    if gain.data.shape != shape or bias.data.shape != shape:
        raise ContractError(
            f"layernorm affine shapes {gain.data.shape}/{bias.data.shape} "
            f"do not match {shape}"
        )
    return gain, bias


def layernorm_affine(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row standardization of a B x d input followed by elementwise
    gain * xhat + bias."""
    x = _wrap(x)
    if x.data.ndim != 2:
        raise ContractError(f"layernorm_affine expects a B x d input, got {x.data.shape}")
    gain, bias = _layernorm_inputs(gain, bias, x.data.shape[-1:])
    out_data, xhat, inv = _layernorm_forward(x.data, gain.data, bias.data, _LN_EPS)

    def bwd(g):
        dgain, dbias, dx = _layernorm_backward(g, gain.data, xhat, inv)
        _accum(gain, dgain)
        _accum(bias, dbias)
        _accum(x, dx)

    return _make(out_data, (x, gain, bias), bwd)


def linear_layernorm_gelu(x: Tensor, w: Tensor, b: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """gelu(layernorm_affine(x @ w + b, gain, bias)) of each slice of a stack,
    as one graph node.

    ``x`` is n x B x d_in, ``w`` n x d_in x d_h, and ``b``, ``gain`` and
    ``bias`` n x d_h: slice i of the output is slice i of the input through
    slice i of every parameter. The forward and backward run the float
    operations of the three-op composition on each slice in the same order,
    so values and gradients are bit for bit those of ``linear``,
    ``layernorm_affine`` and ``gelu`` chained slice by slice.
    """
    x, w, b = _linear_inputs(x, w, b)
    if w.data.ndim != 3:
        raise ContractError(
            f"linear_layernorm_gelu expects an n x d_in x d_h weight stack, got {w.data.shape}"
        )
    gain, bias = _layernorm_inputs(gain, bias, b.data.shape)
    y, xhat, inv = _layernorm_forward(x.data @ w.data + b.data[:, None, :], gain.data,
                                      bias.data, _LN_EPS)
    out_data, y2, t = _gelu_forward(y)

    def bwd(g):
        dgain, dbias, dh = _layernorm_backward(_gelu_backward(g, y, y2, t), gain.data, xhat, inv)
        _accum(gain, dgain)
        _accum(bias, dbias)
        _linear_backward(dh, x, w, b)

    return _make(out_data, (x, w, b, gain, bias), bwd)


def _cosine_forward(f: np.ndarray, c: np.ndarray, nf=None):
    """(B x k cosines, feature norms, norm products) of feature rows f
    against centroid rows c, slice by slice for an n x B x d f and an
    n x k x d c; zero-norm rows raise. The feature norms ``nf`` are
    ``np.linalg.norm(f, axis=-1)``, computed here unless given."""
    if nf is None:
        nf = np.linalg.norm(f, axis=-1)
    nc = np.linalg.norm(c, axis=-1)
    bad = np.flatnonzero(nf < _NORM_FLOOR)
    if bad.size:
        raise DegenerateDataError(f"zero-norm feature row {int(bad[0]) % nf.shape[-1]}")
    if np.any(nc < _NORM_FLOOR):
        raise DegenerateDataError("zero-norm centroid")
    denom = nf[..., :, None] * nc[..., None, :]
    return f @ np.swapaxes(c, -1, -2) / denom, nf, denom


def _cosine_backward(g, f, c, s, nf, denom):
    return (g / denom) @ c - (sum_last(g * s) / nf**2)[..., None] * f


def cosine_matrix(features: Tensor, centroids: np.ndarray) -> Tensor:
    """B x k cosine similarities; centroids are constants (no gradient)."""
    features = _wrap(features)
    c = np.asarray(centroids, dtype=np.float64)
    s, nf, denom = _cosine_forward(features.data, c)

    def bwd(g):
        _accum(features, _cosine_backward(g, features.data, c, s, nf, denom))

    return _make(s, (features,), bwd)


def _max_rows(x: np.ndarray):
    """(row maxima, argmax, gradient router) along the last axis of x; ties
    go to the lowest index, and the router puts each row's g on its argmax
    entry."""
    flat = x.reshape(-1, x.shape[-1])
    rows = np.arange(flat.shape[0])
    idx = flat.argmax(axis=1)

    def route(g):
        full = np.zeros_like(flat)
        full[rows, idx] = g.reshape(-1)
        return full.reshape(x.shape)

    return flat[rows, idx].reshape(x.shape[:-1]), idx.reshape(x.shape[:-1]), route


def max_axis1(x: Tensor):
    """Row maxima of a B x k tensor; returns (maxima, argmax indices).

    Ties broken by lowest index; gradient routes only to the argmax entry.
    """
    x = _wrap(x)
    out_data, idx, route = _max_rows(x.data)

    def bwd(g):
        _accum(x, route(g))

    return _make(out_data, (x,), bwd), idx


def max_cosine(features: Tensor, centroids: np.ndarray, norms=None):
    """``max_axis1(cosine_matrix(features, centroids))`` as one graph node.

    Returns (maxima, argmax indices). B x d features score against k x d
    centroids; an n x B x d stack scores slice i against slice i of an
    n x k x d centroid stack, giving n x B maxima. The forward and backward
    run the float operations of the two-op composition on each slice in the
    same order, so values and gradients are bit for bit the same. ``norms``
    are the features' row norms, ``np.linalg.norm(features, axis=-1)``, for
    a caller that needs them too and computes them once.
    """
    features = _wrap(features)
    c = np.asarray(centroids, dtype=np.float64)
    if features.data.ndim not in (2, 3) or c.shape[:-2] != features.data.shape[:-2] \
            or c.ndim != features.data.ndim or c.shape[-1] != features.data.shape[-1] \
            or (norms is not None and norms.shape != features.data.shape[:-1]):
        raise ContractError(
            f"max_cosine shapes incompatible: {features.data.shape} vs centroids {c.shape}"
        )
    s, nf, denom = _cosine_forward(features.data, c, norms)
    out_data, idx, route = _max_rows(s)

    def bwd(g):
        _accum(features, _cosine_backward(route(g), features.data, c, s, nf, denom))

    return _make(out_data, (features,), bwd), idx


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross entropy of row-wise softmax(logits) against integer labels."""
    logits = _wrap(logits)
    labels = np.asarray(labels, dtype=np.intp)
    n = logits.data.shape[0]
    if labels.shape != (n,):
        raise ContractError(f"labels shape {labels.shape} does not match batch {n}")
    z = logits.data - max_last(logits.data, keepdims=True)
    e = np.exp(z)
    total = sum_last(e)
    loss = float(np.mean(np.log(total) - z[np.arange(n), labels]))
    p = e / total[:, None]

    def bwd(g):
        onehot = np.zeros_like(p)
        onehot[np.arange(n), labels] = 1.0
        _accum(logits, g * (p - onehot) / n)

    return _make(np.asarray(loss), (logits,), bwd)


# -- loss terms -------------------------------------------------------------
#
# One node per loss. Each forward and backward runs the float operations of
# the op-by-op composition it replaces, in the same order, so values and
# gradients are bit for bit those of the composition. A term of the form
# 1 - t was the graph ``add(1.0, mul(t, -1.0))``, and a sum over tensors the
# chain ``add(add(t_0, t_1), t_2)``, which passes the upstream gradient to
# every term unchanged.


def _plogp_backward(c, p: np.ndarray, logp: np.ndarray, clamped: np.ndarray):
    """Gradient of ``p * log_clamped(p)`` for the upstream scalar c, summed
    in the order of the ``mul`` and then the ``log_clamped`` backward."""
    return c * logp + _log_clamped_backward(c * p, p, clamped)


def entropy_array(p: np.ndarray):
    """Entropy -sum_c p log max(p, 1e-12) of each row of the probabilities p,
    which only the log clamps: (entropies, log, clamped p)."""
    logp, clamped = log_clamped_array(p)
    return sum_last(p * logp) * -1.0, logp, clamped


def softmax_entropy(logits: Tensor) -> tuple:
    """(p, per-row entropies, log, clamped p) of p = softmax(logits) along the
    last axis, computed on the first call and then kept on the node, which
    must be one whose data no longer changes (not a parameter). A batch's
    logged entropies, its pseudo-labels and its ``mean_entropy`` node share
    them."""
    if logits.softmax_parts is None:
        p = softmax_array(logits.data)
        logits.softmax_parts = (p, *entropy_array(p))
    return logits.softmax_parts


def mean_entropy(logits: Tensor) -> Tensor:
    """Mean over rows of the ``entropy_array`` of p = softmax(logits): the
    composition ``softmax``, ``log_clamped``, ``mul``, ``tsum(axis=1)``,
    ``mul(-1)``, ``tmean``. It reads the arrays that ``softmax_entropy``
    kept on the node, if any."""
    logits = _wrap(logits)
    if logits.softmax_parts is None:
        p = softmax_array(logits.data)
        per_row, logp, clamped = entropy_array(p)
    else:
        p, per_row, logp, clamped = logits.softmax_parts
    inv_n = 1.0 / per_row.size

    def bwd(g):
        gp = _plogp_backward(g * inv_n * -1.0, p, logp, clamped)
        _accum(logits, _softmax_backward(gp, p, 1.0))

    return _make(per_row.sum() * inv_n, (logits,), bwd)


def _rows(x: Tensor, what: str) -> Tensor:
    x = _wrap(x)
    if x.data.ndim != 2:
        raise ContractError(f"{what} expects an n x B stack, got {x.data.shape}")
    return x


def one_minus_means_array(x: np.ndarray):
    """1 - mean of each row of an n x B array, with the arithmetic of
    ``1.0 - tmean(row)``: (term values, 1/B)."""
    inv_n = 1.0 / x.shape[-1]
    return 1.0 + x.sum(axis=-1) * inv_n * -1.0, inv_n


def one_minus_means(x: Tensor):
    """Sum over the rows of an n x B tensor of 1 - mean(row): the composition
    ``1.0 - tmean(row)`` per row, then an ``add`` chain. Returns (sum, term
    values)."""
    x = _rows(x, "one_minus_means")
    values, inv_n = one_minus_means_array(x.data)

    def bwd(g):
        _accum(x, np.broadcast_to(g * -1.0 * inv_n, x.data.shape))

    return _make(reduce(operator.add, values), (x,), bwd), values


def one_minus_weighted_means(x: Tensor, beta: float):
    """Sum over the rows of an n x B tensor of 1 - sum(softmax(beta * row) *
    row): the composition ``1.0 - tsum(mul(softmax(row, beta), row))`` per
    row, then an ``add`` chain. Returns (sum, term values)."""
    x = _rows(x, "one_minus_weighted_means")
    w = softmax_array(x.data, beta)
    values = 1.0 + (w * x.data).sum(axis=-1) * -1.0

    def bwd(g):
        c = g * -1.0
        _accum(x, c * w + _softmax_backward(c * x.data, w, beta))

    return _make(reduce(operator.add, values), (x,), bwd), values


def plogp_sums(p: Tensor, scale: float, sizes):
    """Sum over groups of rows of scale * sum p log max(p, 1e-12): the rows of
    the K x C matrix p fall into consecutive groups of ``sizes`` rows, and
    each group is the composition
    ``mul(tsum(tsum(mul(q, log_clamped(q)), axis=1)), scale)`` of its own
    matrix q, then an ``add`` chain. Returns (sum, term values)."""
    p = _wrap(p)
    logp, clamped = log_clamped_array(p.data)
    per_row = sum_last(p.data * logp)
    ends = np.cumsum(sizes)
    if ends[-1] != per_row.size:
        raise ContractError(f"groups of {list(sizes)} rows do not fit {per_row.size} rows")
    values = [per_row[end - n:end].sum() * scale for n, end in zip(sizes, ends)]

    def bwd(g):
        _accum(p, _plogp_backward(g * scale, p.data, logp, clamped))

    return _make(reduce(operator.add, values), (p,), bwd), values


def weighted_sum(xs, weights) -> Tensor:
    """x_0 * w_0 + x_1 * w_1 + ... of scalar tensors and float weights, added
    left to right: the chain of ``mul`` and ``add`` nodes, whose backward
    gives each x the upstream times its weight."""
    xs = [_wrap(x) for x in xs]

    def bwd(g):
        for x, w in zip(xs, weights):
            _accum(x, g * w)

    terms = [x.data * w for x, w in zip(xs, weights)]
    return _make(reduce(operator.add, terms), tuple(xs), bwd)


# -- gradient checking ----------------------------------------------------


def finite_diff_params(loss_fn, params) -> float:
    """Gradient check of ``loss_fn`` w.r.t. a collection of parameter tensors.

    ``loss_fn`` takes no arguments and rebuilds the loss from the current
    ``.data`` of every parameter; it is re-evaluated at perturbed values.
    """
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
            flat[i] = orig + _FD_STEP
            fp = loss_fn().data.item()
            flat[i] = orig - _FD_STEP
            fm = loss_fn().data.item()
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NumericError("perturbed loss value is not finite")
            numeric = (fp - fm) / (2.0 * _FD_STEP)
            err = abs(aflat[i] - numeric) / (abs(numeric) + 1e-12)
            worst = max(worst, err)
    for p in params:
        p.grad = None
    return worst
