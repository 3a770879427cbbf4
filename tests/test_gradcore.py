"""Unit and property tests for the autodiff core.

Analytic gradients are checked against central finite differences; simple
ops additionally against closed-form expectations.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (attention_pool_inline_softmax, linear_layernorm_gelu_inline,
                     reference_max_cosine)

from driftadapt import gradcore as gc
from driftadapt.errors import ContractError, DegenerateDataError, NumericError
from driftadapt.gradcore import Tensor

TOL = 1e-6


# -- basic ops -------------------------------------------------------------


def test_add_mul_backward_closed_form():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    out = gc.tsum(gc.mul(gc.add(a, b), b))
    gc.backward(out)
    np.testing.assert_allclose(a.grad, [3.0, 4.0])
    np.testing.assert_allclose(b.grad, [1.0 + 2 * 3.0, 2.0 + 2 * 4.0])


def test_grad_accumulates_across_terms():
    # backprop of a sum equals term-by-term backprop with accumulation
    a = Tensor([1.0, -2.0], requires_grad=True)
    out = gc.add(gc.tsum(gc.mul(a, a)), gc.tsum(a))
    gc.backward(out)
    joint = a.grad.copy()
    a.grad = None
    gc.backward(gc.tsum(gc.mul(a, a)))
    gc.backward(gc.tsum(a))
    np.testing.assert_allclose(a.grad, joint)


def test_unbroadcast_row_vector():
    a = Tensor(np.ones((3, 2)), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    gc.backward(gc.tsum(gc.add(a, b)))
    np.testing.assert_allclose(b.grad, [3.0, 3.0])


def test_backward_requires_scalar_root():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        gc.backward(gc.mul(x, 2.0))


def test_matmul_shape_mismatch():
    with pytest.raises(ContractError):
        gc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_sum_mean_axis():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    assert gc.tmean(x).item() == pytest.approx(2.5)
    np.testing.assert_allclose(gc.tsum(x, axis=0).data, [3.0, 5.0, 7.0])
    np.testing.assert_allclose(gc.tmean(x, axis=1).data, [1.0, 4.0])


# -- finite-difference sweeps ---------------------------------------------


def _draws(seed, *shapes):
    rng = np.random.default_rng(seed)
    return [rng.normal(0.0, 1.0, shape) for shape in shapes]


_R34, _R43 = Tensor(np.arange(12.0).reshape(3, 4)), Tensor(np.arange(12.0).reshape(4, 3))
_OTHER = Tensor(_draws(13, (5, 4))[0])


def _attention_style_composite(t):
    # the fusion block's op pattern: rowdot + stack_cols + softmax + rowscale
    scores = gc.stack_cols([gc.rowdot(t, _OTHER), gc.rowdot(t, t)])
    attn = gc.softmax(scores)
    out = gc.add(gc.rowscale(gc.col(attn, 0), t), gc.rowscale(gc.col(attn, 1), _OTHER))
    return gc.tsum(gc.mul(out, _OTHER))


def _weighted(op):
    """The loss sum(op(*leaves) * weights), the weights drawn after the leaves."""
    return lambda *args: gc.tsum(gc.mul(op(*args[:-1]), args[-1]))


# op: (loss, seed, [(leaf shape, scale)], shapes of constants); the leaves
# are scale * N(0, 1) and then the constants N(0, 1), drawn in order from
# default_rng(seed); the loss takes the leaves, then the constants
FD_SWEEPS = {
    "mul": (lambda t: gc.tsum(gc.mul(t, t)), 0, [((4, 3), 1.0)], []),
    "matmul": (lambda t: gc.tsum(gc.matmul(t, Tensor(_draws(1, (3, 5))[0]))), 0,
               [((4, 3), 1.0)], []),
    "gelu": (lambda t: gc.tsum(gc.gelu(t)), 0, [((6,), 2.0)], []),
    "softmax": (lambda t: gc.tsum(gc.mul(gc.softmax(t, beta=3.0), _R34)), 0, [((3, 4), 1.0)], []),
    "log_clamped_above_floor": (lambda t: gc.tsum(gc.log_clamped(t)), 3, [((5,), 0.1)], []),
    "cosine_matrix": (lambda t: gc.tsum(gc.mul(gc.cosine_matrix(t, _draws(7, (3, 4))[0]), _R43)),
                      5, [((4, 4), 1.0)], []),
    "linear": (_weighted(gc.linear), 9, [((4, 3), 1.0), ((3, 2), 1.0), ((2,), 1.0)], [(4, 2)]),
    "attention_style_composite": (_attention_style_composite, 13, [((5, 4), 1.0)], []),
    # the leaf of layernorm_affine's input; its gain and bias get a gradient too
    "layernorm_affine": (lambda t: gc.tsum(gc.mul(gc.layernorm_affine(
        t, Tensor([1.5, 0.5, 2.0], requires_grad=True),
        Tensor([0.1, -0.2, 0.0], requires_grad=True)), _R43)), 0, [((4, 3), 1.0)], []),
    "cross_entropy": (lambda t: gc.cross_entropy(t, [0, 1]), 9, [((2, 2), 1.0)], []),
    **{f"attention_pool_batch{b}": (_weighted(gc.attention_pool), 17 + b,
                                    [((3, b, 5), 1.0)] + [((5, 5), 0.5)] * 3, [(b, 5)])
       for b in (1, 4)},
    **{f"linear_layernorm_gelu_batch{b}": (
        _weighted(gc.linear_layernorm_gelu), 31 + b,
        [((2, b, 3), 1.0), ((2, 3, 5), 1.0), ((2, 5), 0.5), ((2, 5), 1.0), ((2, 5), 0.5)],
        [(2, b, 5)]) for b in (1, 4)},
}


@pytest.mark.parametrize("op", FD_SWEEPS)
def test_finite_difference_sweep(op):
    f, seed, leaves, constants = FD_SWEEPS[op]
    rng = np.random.default_rng(seed)
    leaves = [Tensor(scale * rng.normal(0.0, 1.0, s), requires_grad=True) for s, scale in leaves]
    constants = [Tensor(rng.normal(0.0, 1.0, s)) for s in constants]
    assert gc.finite_diff_params(lambda: f(*leaves, *constants), leaves) < TOL


def test_gelu_forward_matches_closed_form():
    x = np.linspace(-8.0, 8.0, 4001)
    c = np.sqrt(2.0 / np.pi)
    expected = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
    np.testing.assert_allclose(gc.gelu(Tensor(x)).data, expected, rtol=0.0, atol=1e-14)


def test_log_clamped_zero_grad_below_floor():
    x = Tensor([-1.0, 0.5], requires_grad=True)
    gc.backward(gc.tsum(gc.log_clamped(x)))
    assert x.grad[0] == 0.0
    assert x.grad[1] == pytest.approx(2.0)


def test_layernorm_affine_grad():
    gain = Tensor(np.array([1.5, 0.5, 2.0]), requires_grad=True)
    bias = Tensor(np.array([0.1, -0.2, 0.0]), requires_grad=True)
    err = gc.finite_diff_params(
        lambda: gc.tsum(gc.mul(
            gc.layernorm_affine(Tensor(np.arange(12.0).reshape(4, 3)), gain, bias),
            Tensor(np.arange(12.0).reshape(4, 3) * 0.3))),
        [gain, bias])
    assert err < 1e-6


def test_cosine_matrix_values_in_range():
    rng = np.random.default_rng(11)
    s = gc.cosine_matrix(Tensor(rng.normal(0, 1, (20, 6))), rng.normal(0, 1, (4, 6)))
    assert np.all(s.data <= 1.0 + 1e-12)
    assert np.all(s.data >= -1.0 - 1e-12)


def test_cosine_degenerate_raises():
    for op in (gc.cosine_matrix, gc.max_cosine):
        with pytest.raises(DegenerateDataError):
            op(Tensor(np.zeros((2, 3))), np.ones((2, 3)))
        with pytest.raises(DegenerateDataError):
            op(Tensor(np.ones((2, 3))), np.zeros((2, 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 140), st.integers(1, 7), st.integers(2, 6),
       st.booleans(), st.integers(0, 3))
def test_max_cosine_equals_composition_bitwise(seed, b, k, d, ties, n):
    # n = 0: B x d features against k x d centroids; otherwise an n x B x d
    # stack against an n x k x d centroid stack, slice by slice
    rng = np.random.default_rng(seed)
    lead = (n,) if n else ()
    c = rng.normal(0, 1, (*lead, k, d))
    if ties:
        # 2c scales every product, norm and quotient exactly, so each
        # maximum is tied with an entry k columns further on
        c = np.concatenate([c, 2.0 * c], axis=-2)
    x = Tensor(rng.normal(0, 1, (*lead, b, d)), requires_grad=True)
    weights = Tensor(rng.normal(0, 1, (*lead, b)))
    composition = (lambda: reference_max_cosine(x, c)) if n else (
        lambda: gc.max_axis1(gc.cosine_matrix(x, c)))
    got, want = (_value_and_grads(lambda: f()[0], [x], weights)
                 for f in (lambda: gc.max_cosine(x, c), composition))
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1][0].tobytes() == want[1][0].tobytes()
    idx = gc.max_cosine(x, c)[1]
    assert np.array_equal(idx, composition()[1])
    if ties:
        s = np.stack([gc.cosine_matrix(xi, ci).data
                      for xi, ci in zip(x.data.reshape(-1, b, d), c.reshape(-1, 2 * k, d))])
        assert np.array_equal(s[..., :k], s[..., k:]) and (idx < k).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 140), st.integers(1, 7), st.integers(0, 3))
def test_max_cosine_with_given_norms_equals_its_own_bitwise(seed, b, k, n):
    # the feature norms that a bank step computes once and passes in give
    # the maxima, indices and input gradient of the node's own norms
    rng = np.random.default_rng(seed)
    lead = (n,) if n else ()
    c = rng.normal(0, 1, (*lead, k, 5))
    x = Tensor(rng.normal(0, 1, (*lead, b, 5)), requires_grad=True)
    weights = Tensor(rng.normal(0, 1, (*lead, b)))
    norms = np.linalg.norm(x.data, axis=-1)
    got, want = (_value_and_grads(lambda: f()[0], [x], weights)
                 for f in (lambda: gc.max_cosine(x, c, norms), lambda: gc.max_cosine(x, c)))
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1][0].tobytes() == want[1][0].tobytes()
    assert gc.max_cosine(x, c, norms)[1].tobytes() == gc.max_cosine(x, c)[1].tobytes()


def test_max_cosine_with_given_norms_still_checks_them():
    x = np.ones((3, 4, 2))
    x[1, 2] = 0.0
    with pytest.raises(DegenerateDataError, match="row 2"):
        gc.max_cosine(Tensor(x), np.ones((3, 2, 2)), np.linalg.norm(x, axis=-1))
    with pytest.raises(ContractError):
        gc.max_cosine(Tensor(np.ones((3, 4, 2))), np.ones((3, 2, 2)), np.ones((3, 5)))


def test_max_axis1_ties_lowest_index_and_grad_routing():
    x = Tensor(np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]]), requires_grad=True)
    s, idx = gc.max_axis1(x)
    np.testing.assert_array_equal(idx, [0, 1])
    gc.backward(gc.tsum(s))
    np.testing.assert_allclose(x.grad, [[1, 0, 0], [0, 1, 0]])


def test_take_rows_repeated_index_accumulates():
    x = Tensor(np.eye(3), requires_grad=True)
    gc.backward(gc.tsum(gc.take_rows(x, [0, 0, 2])))
    # each selected row receives a full ones-row of gradient; row 0 twice
    np.testing.assert_allclose(x.grad.sum(axis=1), [6.0, 0.0, 3.0])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(2, 8),
       st.integers(1, 12))
def test_cluster_sums_match_masked_sums_bitwise(seed, n, d, k):
    # k > n leaves clusters empty; a single column is excluded because numpy
    # sums it pairwise rather than in row order
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, d)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    labels = rng.integers(0, k, n)
    sums, counts = gc.cluster_sums(x, labels, k)
    assert sums.shape == (k, d) and counts.shape == (k,)
    for j in range(k):
        assert np.array_equal(sums[j], x[labels == j].sum(axis=0))
        assert counts[j] == np.count_nonzero(labels == j)


def test_cluster_means_grad_with_empty_and_singleton_clusters():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(0.0, 1.0, (6, 3)), requires_grad=True)
    labels = np.array([0, 2, 0, 3, 0, 3])   # cluster 1 empty, cluster 2 a singleton
    w = Tensor(rng.normal(0.0, 1.0, (3, 3)))

    def loss():
        means = gc.cluster_means(x, labels, 4)
        return gc.tsum(gc.mul(gc.mul(means, means), w))

    assert gc.cluster_means(x, labels, 4).data.shape == (3, 3)
    assert gc.finite_diff_params(loss, [x]) < TOL


def test_cluster_means_equal_tmean_of_member_rows_bitwise():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(0.0, 1.0, (9, 3)), requires_grad=True)
    labels = np.array([1, 0, 1, 1, 4, 0, 1, 4, 1])
    g = rng.normal(0.0, 1.0, (3, 3))
    fused = gc.cluster_means(x, labels, 5)
    gc.backward(gc.tsum(gc.mul(fused, g)))
    fused_grad, x.grad = x.grad, None
    rows = [gc.tmean(gc.take_rows(x, np.flatnonzero(labels == j)), axis=0)
            for j in (0, 1, 4)]
    loss = None
    for row, gj in zip(rows, g):
        term = gc.tsum(gc.mul(row, gj))
        loss = term if loss is None else gc.add(loss, term)
    gc.backward(loss)
    assert np.array_equal(fused.data, np.stack([r.data for r in rows]))
    assert np.array_equal(fused_grad, x.grad)


def test_stack_rows_grad():
    rows = [Tensor(np.array([1.0, 2.0]), requires_grad=True),
            Tensor(np.array([3.0, 4.0]), requires_grad=True)]
    m = gc.stack_rows(rows)
    np.testing.assert_array_equal(m.data, [[1.0, 2.0], [3.0, 4.0]])
    gc.backward(gc.tsum(gc.mul(m, np.array([[1.0, 2.0], [3.0, 4.0]]))))
    np.testing.assert_array_equal(rows[1].grad, [3.0, 4.0])


def test_cross_entropy_matches_manual_and_grad():
    logits = np.array([[2.0, -1.0], [0.5, 0.5]])
    labels = [0, 1]
    loss = gc.cross_entropy(Tensor(logits), labels)
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expected = -np.mean(np.log(p[np.arange(2), labels]))
    assert loss.item() == pytest.approx(expected, abs=1e-12)


def test_attention_pool_frozen_projections_get_no_grad():
    rng = np.random.default_rng(3)
    tokens = Tensor(rng.normal(0, 1, (3, 4, 3)), requires_grad=True)
    wq, wk, wv = (Tensor(rng.normal(0, 1, (3, 3))) for _ in range(3))
    gc.backward(gc.tsum(gc.attention_pool(tokens, wq, wk, wv)))
    assert tokens.grad is not None and tokens.grad.shape == (3, 4, 3)
    assert wq.grad is None and wk.grad is None and wv.grad is None


def test_attention_pool_shape_mismatch():
    w = Tensor(np.ones((3, 3)))
    with pytest.raises(ContractError):
        gc.attention_pool(Tensor(np.ones((2, 3))), w, w, w)       # not a stack
    with pytest.raises(ContractError):
        gc.attention_pool(Tensor(np.ones((0, 2, 3))), w, w, w)    # no tokens
    with pytest.raises(ContractError):
        gc.attention_pool(Tensor(np.ones((3, 2, 4))), w, w, w)
    # a seed axis needs one projection stack per seed
    with pytest.raises(ContractError):
        gc.attention_pool(Tensor(np.ones((2, 3, 2, 3))), w, w, w)
    ws = Tensor(np.ones((2, 3, 3)))
    with pytest.raises(ContractError):
        gc.attention_pool(Tensor(np.ones((3, 3, 2, 3))), ws, ws, ws)


def test_cross_entropy_shape_mismatch():
    with pytest.raises(ContractError):
        gc.cross_entropy(Tensor(np.ones((4, 2))), [0, 1, 0])
    with pytest.raises(ContractError):
        gc.cross_entropy(Tensor(np.ones((2, 4, 2))), [0, 1, 0, 1])    # one label row
    with pytest.raises(ContractError):
        gc.cross_entropy(Tensor(np.ones((1, 2, 4, 2))), np.zeros((1, 2, 4), dtype=int))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 40), st.integers(1, 6),
       st.integers(1, 5), st.sampled_from([0.1, 1.0, 30.0]), st.booleans())
def test_attention_pool_softmax_equals_inline_arithmetic_bitwise(seed, n, b, d, d_v, scale,
                                                                 frozen):
    # the node's softmax runs softmax_array; a scale of 30 saturates it, so
    # most attention weights underflow to zero or round to one
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(0, scale, (n, b, d)), requires_grad=True)
    wq, wk = (Tensor(rng.normal(0, 1, (d, d)), requires_grad=not frozen) for _ in range(2))
    wv = Tensor(rng.normal(0, 1, (d, d_v)), requires_grad=not frozen)
    leaves = [x, wq, wk, wv]
    weights = Tensor(rng.normal(0, 1, (b, d_v)))
    got, want = (_value_and_grads(lambda: op(x, wq, wk, wv), leaves, weights)
                 for op in (gc.attention_pool, attention_pool_inline_softmax))
    assert got[0].tobytes() == want[0].tobytes()
    assert ([None if g is None else g.tobytes() for g in got[1]]
            == [None if g is None else g.tobytes() for g in want[1]])


def _assert_stack_equals_per_slice(op, stacks, weights):
    """``op`` over leaves with a leading seed axis gives, in slice s of its
    value and of every leaf's gradient, the bytes of ``op`` over slice s of
    every leaf, signed zeros included; ``weights`` weigh the value for the
    backward."""
    value, grads = _value_and_grads(lambda: op(*stacks), stacks, weights)
    for s in range(weights.data.shape[0]):
        leaves = [Tensor(t.data[s], requires_grad=t.requires_grad) for t in stacks]
        want, want_grads = _value_and_grads(lambda: op(*leaves), leaves, Tensor(weights.data[s]))
        assert value[s].tobytes() == want.tobytes()
        assert ([None if g is None else g[s].tobytes() for g in grads]
                == [None if g is None else g.tobytes() for g in want_grads])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3), st.integers(1, 40),
       st.integers(1, 6), st.integers(1, 5), st.sampled_from([0.1, 1.0, 30.0]), st.booleans())
def test_attention_pool_over_seeds_equals_one_call_per_seed_bitwise(seed, n_seeds, n, b, d,
                                                                     d_v, scale, frozen):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(0, scale, (n_seeds, n, b, d)), requires_grad=True)
    wq, wk = (Tensor(rng.normal(0, 1, (n_seeds, d, d)), requires_grad=not frozen)
              for _ in range(2))
    wv = Tensor(rng.normal(0, 1, (n_seeds, d, d_v)), requires_grad=not frozen)
    _assert_stack_equals_per_slice(gc.attention_pool, [x, wq, wk, wv],
                                   Tensor(rng.normal(0, 1, (n_seeds, b, d_v))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 140), st.integers(1, 6),
       st.integers(2, 4), st.sampled_from([1.0, 40.0]))
def test_cross_entropy_over_seeds_equals_one_call_per_seed_bitwise(seed, n_seeds, b, d, c,
                                                                   scale):
    # the value is the sum of the per-seed means, which ``means`` receives;
    # a scale of 40 makes some probabilities round to 0 or 1
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(0, scale, (n_seeds, b, c)), requires_grad=True)
    labels = rng.integers(0, c, (n_seeds, b))
    means = np.full(n_seeds, np.nan)
    loss = gc.cross_entropy(logits, labels, means=means)
    gc.backward(loss)
    alone = [Tensor(logits.data[s], requires_grad=True) for s in range(n_seeds)]
    for s, t in enumerate(alone):
        one = gc.cross_entropy(t, labels[s])
        gc.backward(one)
        assert means[s].tobytes() == one.data.tobytes()
        assert logits.grad[s].tobytes() == t.grad.tobytes()
    assert loss.data.tobytes() == means.sum().tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 140), st.integers(1, 5),
       st.integers(1, 6), st.integers(2, 4))
def test_model_blocks_over_seeds_equal_one_call_per_seed_bitwise(seed, n_seeds, b, d_in, d, c):
    # the encoder over S x 3 slices with S x 3 weight stacks, and the
    # classifier with an S x d x c weight stack
    rng = np.random.default_rng(seed)
    leaves = [Tensor(rng.normal(0, 1, shape), requires_grad=True)
              for shape in ((n_seeds, 3, b, d_in), (n_seeds, 3, d_in, d), (n_seeds, 3, d),
                            (n_seeds, 3, d), (n_seeds, 3, d))]
    _assert_stack_equals_per_slice(gc.linear_layernorm_gelu, leaves,
                                   Tensor(rng.normal(0, 1, (n_seeds, 3, b, d))))
    leaves = [Tensor(rng.normal(0, 1, shape), requires_grad=True)
              for shape in ((n_seeds, b, d), (n_seeds, d, c), (n_seeds, c))]
    _assert_stack_equals_per_slice(gc.linear, leaves, Tensor(rng.normal(0, 1, (n_seeds, b, c))))


def test_unstack_rows_carry_their_gradients():
    x = Tensor(np.arange(12.0).reshape(3, 2, 2), requires_grad=True)
    parts = gc.unstack(x)
    assert [p.data.tolist() for p in parts] == x.data.tolist()
    # slice 1 is read twice and slice 2 never: its gradient row stays zero
    loss = gc.add(gc.tsum(gc.mul(parts[0], 2.0)), gc.tsum(gc.mul(parts[1], parts[1])))
    gc.backward(loss)
    np.testing.assert_array_equal(x.grad, [np.full((2, 2), 2.0), 2.0 * x.data[1],
                                           np.zeros((2, 2))])


def _value_and_grads(forward, leaves, weights):
    for t in leaves:
        t.grad = None
    out = forward()
    gc.backward(gc.tsum(gc.mul(out, weights)))
    return out.data, [t.grad for t in leaves]


def _assert_same_node(fused, composed, leaves, weights):
    (got, got_grads), (want, want_grads) = (
        _value_and_grads(f, leaves, weights) for f in (fused, composed))
    assert np.array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert np.array_equal(g, w)


def _per_slice(op, *stacks):
    """``op`` applied to slice i of every stack, the results stacked again."""
    return gc.stack_rows([op(*parts) for parts in zip(*(gc.unstack(t) for t in stacks))])


def _encoder_leaves(rng, n, b, d_in, d, offset):
    """x, w, b, gain and bias of the fused encoder; ``offset`` adds a part
    common to every column of w and b, so each row of ``x @ w + b`` has a
    mean about ``offset`` times larger than its spread."""
    x = rng.normal(0, 1, (n, b, d_in))
    w = rng.normal(0, 1, (n, d_in, d)) + offset * rng.normal(0, 1, (n, d_in, 1))
    bias = rng.normal(0, 0.5, (n, d)) + offset * rng.normal(0, 1, (n, 1))
    return [Tensor(a, requires_grad=True)
            for a in (x, w, bias, rng.normal(0, 1, (n, d)), rng.normal(0, 0.5, (n, d)))]


def _composed_encoder(x, w, b, gain, bias):
    """The op-by-op ``gelu(layernorm_affine(linear(...)))``, slice by slice."""
    return _per_slice(lambda *p: gc.gelu(gc.layernorm_affine(gc.linear(p[0], p[1], p[2]),
                                                             p[3], p[4])),
                      x, w, b, gain, bias)


_ENCODER_DRAWS = given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 140),
                       st.integers(1, 5), st.integers(1, 6), st.sampled_from([0.0, 30.0]))


@settings(max_examples=60, deadline=None)
@_ENCODER_DRAWS
def test_linear_layernorm_gelu_equals_inline_arithmetic_bitwise(seed, n, b, d_in, d, offset):
    rng = np.random.default_rng(seed)
    leaves = _encoder_leaves(rng, n, b, d_in, d, offset)
    weights = Tensor(rng.normal(0, 1, (n, b, d)))
    got, want = (_value_and_grads(lambda: op(*leaves), leaves, weights)
                 for op in (gc.linear_layernorm_gelu, linear_layernorm_gelu_inline))
    assert got[0].tobytes() == want[0].tobytes()
    assert [g.tobytes() for g in got[1]] == [g.tobytes() for g in want[1]]


def _encoder_rounding_bounds(x, w, b, gain, bias, g):
    """First-order bounds on how far the fused encoder's value and its five
    gradients (x, w, b, gain, bias) may lie from the op-by-op composition's
    for the upstream gradient g: each side's rounding, propagated.

    Both sides remove a row's mean from the linear output, the composition
    after the product and the fused op through the weights, so each leaves
    in the deviations a rounding error of about (d_in + d_h) eps times the
    row's magnitude before the removal, ``m``. The layer norm divides it by
    the row's std, so it reaches xhat as a relative error ``err`` of the
    row, times (1 + |xhat|); the GELU's slope is at most 1.13 and its
    curvature 0.8, so the value and each gradient term carry that relative
    error of their magnitudes, computed here from absolute values. Each sum
    over the batch or the row adds its length times eps."""
    eps = np.finfo(np.float64).eps
    n_b, d = x.shape[1], w.shape[-1]
    h = x @ w + b[:, None, :]
    inv = 1.0 / np.sqrt(h.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (h - h.mean(axis=-1, keepdims=True)) * inv
    a, ag = 1.0 + np.abs(xhat), np.abs(gain)[:, None, :]
    y = gain[:, None, :] * xhat + bias[:, None, :]
    m = (np.abs(x) @ np.abs(w).max(axis=-1, keepdims=True)
         + np.abs(b).max(axis=-1)[:, None, None])
    err = (x.shape[-1] + d + 4) * eps * (1.0 + m * inv)
    value = err * a * (ag + np.abs(bias)[:, None, :]) * (1.0 + np.abs(y))
    ga = np.abs(g) * (1.0 + ag) * a
    dgain = ((err + n_b * eps) * ga * a).sum(axis=1)
    dbias = ((err + n_b * eps) * ga).sum(axis=1)
    ua = inv * (ga * (1.0 + ag) + a * (ga * (1.0 + ag) * a).mean(axis=-1, keepdims=True))
    ua = ua + ua.max(axis=-1, keepdims=True)
    dw = np.abs(x).transpose(0, 2, 1) @ ((err + (n_b + d) * eps) * ua)
    db = ((err + (n_b + d) * eps) * ua).sum(axis=1)
    dx = ((err + (d + 2) * eps) * ua.sum(axis=-1, keepdims=True)
          * 2.0 * np.abs(w).max(axis=-1)[:, None, :])
    return value, [dx, dw, db, dgain, dbias]


@settings(max_examples=60, deadline=None)
@_ENCODER_DRAWS
def test_linear_layernorm_gelu_matches_composition_within_row_rounding(seed, n, b, d_in, d,
                                                                       offset):
    # over 20000 draws of these shapes the largest difference came to 0.09 of
    # the bound, for the value
    rng = np.random.default_rng(seed)
    leaves = _encoder_leaves(rng, n, b, d_in, d, offset)
    weights = Tensor(rng.normal(0, 1, (n, b, d)))
    (got, got_grads), (want, want_grads) = (
        _value_and_grads(op, leaves, weights)
        for op in (lambda: gc.linear_layernorm_gelu(*leaves), lambda: _composed_encoder(*leaves)))
    value, grads = _encoder_rounding_bounds(*(t.data for t in leaves), weights.data)
    assert (np.abs(got - want) <= value).all()
    for name, g, w, bound in zip("x w b gain bias".split(), got_grads, want_grads, grads):
        assert (np.abs(g - w) <= bound).all(), name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 140), st.integers(1, 6),
       st.integers(2, 4))
def test_linear_over_a_stack_equals_per_slice_bitwise(seed, n, b, d, c):
    # the classifier scores each modality slice of the features with one node
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(0, 1, (n, b, d)), requires_grad=True)
    w, bias = Tensor(rng.normal(0, 1, (d, c))), Tensor(rng.normal(0, 1, c))
    _assert_same_node(lambda: gc.linear(x, w, bias),
                      lambda: _per_slice(lambda xi: gc.linear(xi, w, bias), x),
                      [x], Tensor(rng.normal(0, 1, (n, b, c))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5), st.integers(1, 4))
def test_linear_equals_matmul_add_bitwise(seed, b, d_in, d):
    rng = np.random.default_rng(seed)
    x, w, bias = (Tensor(rng.normal(0, 1, shape), requires_grad=True)
                  for shape in ((b, d_in), (d_in, d), (d,)))
    _assert_same_node(lambda: gc.linear(x, w, bias),
                      lambda: gc.add(gc.matmul(x, w), bias),
                      [x, w, bias], Tensor(rng.normal(0, 1, (b, d))))


def test_linear_frozen_operands_get_no_grad():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(0, 1, (3, 2)), requires_grad=True)
    w, b = Tensor(rng.normal(0, 1, (2, 2))), Tensor(np.zeros(2))
    gc.backward(gc.tsum(gc.linear(x, w, b)))
    assert x.grad is not None and w.grad is None and b.grad is None


def test_linear_shape_mismatch():
    x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
    with pytest.raises(ContractError):
        gc.linear(x, Tensor(np.ones((2, 4))), Tensor(np.zeros(4)))
    with pytest.raises(ContractError):
        gc.linear(x, w, Tensor(np.zeros(3)))
    with pytest.raises(ContractError):
        gc.linear(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 3, 4))), Tensor(np.zeros((3, 4))))
    # the fused encoder takes stacked inputs alone
    with pytest.raises(ContractError):
        gc.linear_layernorm_gelu(x, w, Tensor(np.zeros(4)), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    xs, ws, b = Tensor(np.ones((2, 2, 3))), Tensor(np.ones((2, 3, 4))), Tensor(np.zeros((2, 4)))
    with pytest.raises(ContractError):
        gc.linear_layernorm_gelu(xs, ws, b, Tensor(np.ones(4)), Tensor(np.zeros(4)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 140), st.integers(1, 40))
def test_layernorm_statistics_are_einsum_sums_bitwise_and_numpys_mean_and_var_within_eps(
        seed, n, b, d):
    # layernorm_affine removes each row's einsum mean; the layer norm takes
    # the variance of those deviations as a fused dot and hands back the row
    # gradient before the mean removal, which layernorm_affine centres
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 3, (n, b, d)) + rng.normal(0, 100, (n, b, 1))
    gain, bias, g = rng.normal(0, 1, (n, d)), rng.normal(0, 1, (n, d)), rng.normal(0, 1, x.shape)
    dev = x - np.einsum("...d->...", x)[..., None] / d
    assert gc._centred(x).tobytes() == dev.tobytes()
    out, xhat, inv = gc._layernorm_forward(dev, gain, bias, 1e-5)
    want_inv = 1.0 / np.sqrt(np.einsum("...d,...d->...", dev, dev)[..., None] / d + 1e-5)
    want_xhat = dev * want_inv
    assert inv.tobytes() == want_inv.tobytes() and xhat.tobytes() == want_xhat.tobytes()
    assert out.tobytes() == (gain[:, None, :] * want_xhat + bias[:, None, :]).tobytes()
    gy = g * gain[:, None, :]
    want_ddev = (gy - xhat * (np.einsum("...d,...d->...", gy, xhat)[..., None] / d)) * inv
    dgain, dbias, ddev = gc._layernorm_backward(g, gain, xhat, inv)
    assert ddev.tobytes() == want_ddev.tobytes()
    dx = gc._centred(ddev)
    assert dx.tobytes() == (want_ddev - np.einsum("...d->...", want_ddev)[..., None] / d).tobytes()
    assert dgain.tobytes() == np.einsum("...bd,...bd->...d", g, xhat).tobytes()
    assert dbias.tobytes() == np.einsum("...bd->...d", g).tobytes()
    # np.mean and np.var sum in another order: each differs from the einsum
    # statistics by at most the rounding of a d-term sum, d * eps * max|row|
    # (relative, for the nonnegative squares; 1/std adds a square root's and
    # a division's rounding)
    eps = np.finfo(np.float64).eps
    mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
    np.testing.assert_allclose(inv, 1.0 / np.sqrt(var + 1e-5), rtol=(d + 2) * eps, atol=0.0)
    kappa = np.abs(x).max(axis=-1, keepdims=True) * inv
    assert (np.abs(xhat - (x - mu) / np.sqrt(var + 1e-5)) <= d * eps * kappa).all()
    # centring the row gradient removes m1 = mean(gy) and, with it,
    # m2 * mean(xhat), where the rounded xhat's row mean is up to
    # d * eps * kappa rather than 0
    numpys_dx = (gy - gy.mean(axis=-1, keepdims=True)
                 - xhat * (gy * xhat).mean(axis=-1, keepdims=True)) * inv
    tol = (d * eps * np.abs(gy).max(axis=-1, keepdims=True)
           * np.maximum(np.abs(xhat).max(axis=-1, keepdims=True), 1.0) * inv * (1.0 + kappa))
    assert (np.abs(dx - numpys_dx) <= tol).all()


def test_overflowing_layer_norm_variance_is_numeric_error():
    # the squared deviations of 1e200-scale rows overflow to inf, which would
    # make 1/std 0 and every row of the output the gelu of its bias
    rng = np.random.default_rng(3)
    x, w = rng.normal(0, 1, (3, 4, 5)), Tensor(rng.normal(0, 1, (3, 5, 6)))
    b, gain, shift = Tensor(np.zeros((3, 6))), Tensor(np.ones((3, 6))), Tensor(np.zeros((3, 6)))
    assert np.isfinite(gc.linear_layernorm_gelu(Tensor(x), w, b, gain, shift).data).all()
    with pytest.raises(NumericError, match="layer norm variance is not finite"):
        gc.linear_layernorm_gelu(Tensor(x * 1e200), w, b, gain, shift)


def test_gelu_constant_is_shared_by_the_fused_encoder(monkeypatch):
    rng = np.random.default_rng(2)
    leaves = _encoder_leaves(rng, 1, 4, 3, 5, 0.0)
    before = gc.linear_layernorm_gelu(*leaves).data
    monkeypatch.setattr(gc, "_GELU_A", 0.0449)
    after = gc.linear_layernorm_gelu(*leaves).data
    assert after.tobytes() == linear_layernorm_gelu_inline(*leaves).data.tobytes()
    # gelu reads the patched constant too: the composition moves with the
    # fused op, by far more than their rounding bound
    value, _ = _encoder_rounding_bounds(*(t.data for t in leaves), np.ones(after.shape))
    assert (np.abs(after - _composed_encoder(*leaves).data) <= value).all()
    assert (np.abs(after - before) > value).any()


# inputs where exp overflows (below about -21), the tail before it, and a
# large positive input, where the exp is 0
_GELU_TAIL = np.concatenate([np.linspace(-40.0, -20.0, 201), [-1e3, 1e3]])


def test_gelu_tail_is_finite_and_reaches_its_limits_without_warnings():
    x = Tensor(_GELU_TAIL, requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = gc.gelu(x)
        gc.backward(gc.tsum(out))
    assert np.isfinite(out.data).all() and np.isfinite(x.grad).all()
    tail = _GELU_TAIL < 0.0
    assert (out.data[tail] <= 0.0).all() and (np.abs(out.data[tail]) < 1e-250).all()
    assert (np.abs(x.grad[tail]) < 1e-250).all()
    # the limits: -0.0 and a slope of 0 where exp overflows, x and 1 at 1e3
    gone = _GELU_TAIL < -22.0
    assert np.signbit(out.data[gone]).all() and (out.data[gone] == 0.0).all()
    assert (x.grad[gone] == 0.0).all()
    assert out.data[-1] == 1e3 and x.grad[-1] == 1.0


@pytest.mark.parametrize("gain", [0.0, 1.0])
def test_linear_layernorm_gelu_tail_is_finite_and_reaches_its_limits_without_warnings(gain):
    # the GELU's input is gain * xhat + shift, with |xhat| <= 2 over 5 columns,
    # so the norm's shift puts each column in the tail or at 1e3
    shift = np.array([-1e3, -40.0, -30.0, -20.0, 1e3])
    rng = np.random.default_rng(11)
    n, b = 2, 7
    leaves = [Tensor(a, requires_grad=True)
              for a in (rng.normal(0, 1, (n, b, 3)), rng.normal(0, 1, (n, 3, 5)),
                        rng.normal(0, 1, (n, 5)), np.full((n, 5), gain), np.tile(shift, (n, 1)))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = gc.linear_layernorm_gelu(*leaves)
        gc.backward(gc.tsum(out))
    assert np.isfinite(out.data).all() and all(np.isfinite(t.grad).all() for t in leaves)
    assert (out.data[..., :4] <= 0.0).all() and (np.abs(out.data[..., :4]) < 1e-150).all()
    # the shift's gradient sums the GELU's slope over the batch: 0 where the
    # exp overflows, one per row at 1e3
    gone = out.data[..., :2]
    assert np.signbit(gone).all() and (gone == 0.0).all()
    assert (leaves[4].grad[:, :2] == 0.0).all() and (leaves[4].grad[:, 4] == b).all()
    if gain == 0.0:
        assert (out.data[..., 4] == 1e3).all()


@settings(max_examples=40, deadline=None)
@_ENCODER_DRAWS
def test_linear_layernorm_gelu_weight_and_bias_gradients_have_zero_mean_over_d_h(
        seed, n, b, d_in, d, offset):
    # the layer norm is blind to a shift common to every column of x @ w + b,
    # so the exact gradients of w and b have zero mean over d_h. The node
    # centres them, which leaves a mean of at most (d + 2) eps times the
    # largest uncentred entry, itself at most |x|^T |u| and sum_b |u| for the
    # row gradient u before the layer norm's centring (the last factor 2
    # covers the rounding of the u and the sums the node computes)
    rng = np.random.default_rng(seed)
    leaves = _encoder_leaves(rng, n, b, d_in, d, offset)
    weights = Tensor(rng.normal(0, 1, (n, b, d)))
    _, grads = _value_and_grads(lambda: gc.linear_layernorm_gelu(*leaves), leaves, weights)
    x, w, bias, gain, shift = (t.data for t in leaves)
    h = x @ w + bias[:, None, :]
    inv = 1.0 / np.sqrt(h.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (h - h.mean(axis=-1, keepdims=True)) * inv
    y = gain[:, None, :] * xhat + shift[:, None, :]
    t = np.tanh(gc._GELU_C * (y + gc._GELU_A * y**3))
    slope = 0.5 * (1.0 + t) + 0.5 * y * (1.0 - t**2) * gc._GELU_C * (1.0 + 3 * gc._GELU_A * y**2)
    gy = weights.data * slope * gain[:, None, :]
    u = np.abs(gy - xhat * (gy * xhat).mean(axis=-1, keepdims=True)) * inv
    tol = 2.0 * (d + 2) * np.finfo(np.float64).eps
    assert (np.abs(grads[1].mean(axis=-1))
            <= tol * (np.abs(x).transpose(0, 2, 1) @ u).max(axis=-1)).all()
    assert (np.abs(grads[2].mean(axis=-1)) <= tol * u.sum(axis=1).max(axis=-1)).all()


# -- long-axis reductions --------------------------------------------------
#
# The layer norm's row sums and the parameter gradients' batch sums run
# through einsum. A row must get the same bits whatever rows share the call:
# the final pass runs the encoders chunk by chunk, a stacked node must equal
# its slices, and repeated runs and every workers setting must be
# byte-identical. A BLAS product with a ones vector is faster, but its bits
# for a row depend on how many rows share the call.


def _at_offset(a, offset):
    """A copy of a that starts ``offset`` float64s (8 bytes each) into a
    fresh buffer."""
    out = np.empty(a.size + offset)[offset:].reshape(a.shape)
    out[...] = a
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 160), st.integers(1, 70))
def test_einsum_reductions_are_row_independent(seed, n, b, d):
    rng = np.random.default_rng(seed)
    x, y = (rng.normal(0, 1, (n, b, d)) * 10.0 ** rng.integers(-3, 4, (n, b, 1))
            for _ in range(2))
    eps = np.finfo(np.float64).eps
    for args in ((x,), (x, y)):
        terms = args[0] if len(args) == 1 else args[0] * args[1]
        # a row's sum: alone, inside its batch, in the stack, at every offset
        stacked = gc._row_sums(*args)
        for i in range(n):
            batch = gc._row_sums(*(a[i] for a in args))
            assert batch.tobytes() == stacked[i].tobytes()
            for j in range(b):
                assert gc._row_sums(*(a[i, j] for a in args)).tobytes() == batch[j].tobytes()
        for offset in range(8):
            moved = gc._row_sums(*(_at_offset(a, offset) for a in args))
            assert moved.tobytes() == stacked.tobytes()
        bound = 2 * d * eps * np.abs(terms).sum(axis=-1, keepdims=True)
        assert (np.abs(stacked - terms.sum(axis=-1, keepdims=True)) <= bound).all()
        # a B x d slice's batch sum: alone, in the stack, at every offset
        stacked = gc._batch_sum(x, (n, d), *args[1:])
        for i in range(n):
            alone = gc._batch_sum(x[i], (d,), *(a[i] for a in args[1:]))
            assert alone.tobytes() == stacked[i].tobytes()
        for offset in range(8):
            moved = gc._batch_sum(_at_offset(x, offset), (n, d),
                                  *(_at_offset(a, offset) for a in args[1:]))
            assert moved.tobytes() == stacked.tobytes()
        bound = 2 * b * eps * np.abs(terms).sum(axis=-2)
        assert (np.abs(stacked - terms.sum(axis=-2)) <= bound).all()


# -- short-axis reductions -------------------------------------------------
#
# The chains replace numpy's own reductions in every softmax, entropy and
# cosine backward, so the program's bytes rest on numpy summing a short last
# axis, and a middle axis, left to right from 0.0. A numpy that reorders
# either fails here instead of moving outputs silently.


def _hard_values(rng, shape):
    """Magnitudes over 40 decades, with +-0.0, +-inf and NaN entries, whole
    rows of -0.0, and rows of saturated softmax probabilities (exact 0s and
    1s) and exponentials."""
    x = rng.normal(0, 1, shape) * 10.0 ** rng.integers(-20, 20, shape)
    flat = x.reshape(-1)
    for value, share in ((-0.0, 0.2), (0.0, 0.1), (np.inf, 0.05), (-np.inf, 0.05),
                         (np.nan, 0.05)):
        flat[rng.random(flat.size) < share] = value
    rows = x.reshape(-1, shape[-1])
    logits = rng.normal(0, 1, rows.shape) * 1e3
    kind = rng.integers(0, 4, len(rows))   # 0 leaves a row as it is
    rows[kind == 1] = -0.0
    rows[kind == 2] = gc.softmax_array(logits)[kind == 2]
    rows[kind == 3] = np.exp(logits - logits.max(axis=-1, keepdims=True))[kind == 3]
    return x


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("lead", [(), (37,), (11, 3)])
def test_short_axis_reductions_equal_numpys_bitwise(n, lead):
    # below 8 the helpers chain columns; from 8 on they call numpy, which
    # unrolls by 8 there
    rng = np.random.default_rng(n)
    for _ in range(20):
        x = _hard_values(rng, (*lead, n))
        for keepdims in (False, True):
            with np.errstate(invalid="ignore"):
                got_sum, want_sum = gc.sum_last(x, keepdims), x.sum(axis=-1, keepdims=keepdims)
                got_max, want_max = gc.max_last(x, keepdims), x.max(axis=-1, keepdims=keepdims)
            assert np.shape(got_sum) == np.shape(want_sum)
            assert np.asarray(got_sum).tobytes() == np.asarray(want_sum).tobytes()
            assert np.shape(got_max) == np.shape(want_max)
            assert np.asarray(got_max).tobytes() == np.asarray(want_max).tobytes()
    # a row of -0.0 sums to +0.0 (numpy starts from 0.0) and maxes to -0.0
    zeros = np.full((2, n), -0.0)
    assert gc.sum_last(zeros).tobytes() == np.zeros(2).tobytes()
    assert gc.max_last(zeros).tobytes() == zeros[:, 0].tobytes()


def test_short_axis_max_of_one_column_is_a_copy():
    x = np.arange(4.0).reshape(4, 1)
    out = gc.max_last(x)
    out[0] = 9.0
    assert x[0, 0] == 0.0


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("b, m", [(1, 1), (5, 1), (128, 3), (40, 16)])
def test_token_sums_equal_numpys_bitwise(n, b, m):
    # the attention node's sums over its n tokens (axis 1 of B x n x m),
    # taken by sum_last over the view with that axis swapped last; the
    # infinities and NaNs sit in different columns, because which of two NaNs
    # of opposite sign (inf + -inf is -NaN) survives their sum is the choice
    # of numpy's strided loop, not of an order. No such sign reaches an
    # output: a non-finite attention output raises in SourceModel.head.
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        x = _hard_values(rng, (b, n, m))
        if m > 1:
            x[:, :, 1:][np.isinf(x[:, :, 1:])] = 1.0
            x[:, :, :1][np.isnan(x[:, :, :1])] = 2.0
        else:
            x[np.isnan(x)] = 2.0
        with np.errstate(invalid="ignore"):
            got, want = gc.sum_last(np.swapaxes(x, 1, 2)), x.sum(axis=1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- property tests --------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(2, 6))
def test_softmax_rows_normalized(seed, n, k):
    rng = np.random.default_rng(seed)
    p = gc.softmax(Tensor(rng.normal(0, 5, (n, k)))).data
    assert np.all(p > 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_array_of_unit_beta_skips_only_an_exact_multiply():
    # a unit beta skips beta * x, whose product is x bit for bit: -0.0,
    # infinities and NaN included; a non-finite beta is still rejected
    x = np.array([[-0.0, 0.0, 1.5, -3.25], [np.inf, 1.0, -2.0, 0.5],
                  [-np.inf, 0.0, 7.0, -0.0], [np.nan, 1.0, 2.0, 3.0]])
    x = np.concatenate([x, np.random.default_rng(5).normal(0, 40, (50, 4))])
    assert (1.0 * x).tobytes() == x.tobytes()
    with np.errstate(invalid="ignore"):
        z = 1.0 * x
        z = z - gc.max_last(z, keepdims=True)
        e = np.exp(z)
        want = e / gc.sum_last(e, keepdims=True)
        assert gc.softmax_array(x).tobytes() == want.tobytes()
    for beta in (np.nan, np.inf):
        with pytest.raises(ContractError, match="finite"):
            gc.softmax_array(x, beta)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_softmax_shift_invariant(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 3, 7)
    p1 = gc.softmax(Tensor(x)).data
    p2 = gc.softmax(Tensor(x + 1000.0)).data
    np.testing.assert_allclose(p1, p2, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_composite_finite_diff(seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(0, 1, (3, 4))

    def f(t):
        h = gc.gelu(gc.matmul(t, Tensor(w)))
        return gc.tsum(gc.mul(gc.softmax(h), h))

    x = Tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
    assert gc.finite_diff_params(lambda: f(x), [x]) < 1e-5


def test_finite_diff_raises_on_non_finite_perturbed_value():
    # finite at x = 1, overflows to inf at x + h
    x = Tensor(1.0, requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        gc.finite_diff_params(lambda: gc.tsum(gc.mul(x, np.finfo(float).max)), [x])


def test_tracking_marks_a_step_and_gives_back_each_flag():
    frozen, marked = Tensor(np.ones(2)), Tensor(np.ones(2), requires_grad=True)
    frozen.grad = marked.grad = np.ones(2)
    with gc.tracking([frozen, marked]):
        assert frozen.requires_grad and marked.requires_grad
        assert frozen.grad is None and marked.grad is None
    assert (frozen.requires_grad, marked.requires_grad) == (False, True)
    # a step that raises gives the flags back too
    with pytest.raises(NumericError), gc.tracking([frozen]):
        assert frozen.requires_grad
        raise NumericError("not finite")
    assert not frozen.requires_grad


def test_finite_diff_leaves_each_flag_as_found_and_perturbs_without_a_graph(made):
    # the analytic pass alone is tracked, so the perturbed passes of frozen
    # parameters build no node with parents
    rng = np.random.default_rng(2)
    w, v = Tensor(rng.normal(0, 1, (2, 3))), Tensor(rng.normal(0, 1, (3, 2)))
    graphs = []

    def loss():
        made.clear()
        out = gc.tsum(gc.gelu(gc.matmul(w, v)))
        graphs.append(any(t._parents for t in made))
        return out

    assert gc.finite_diff_params(loss, [w, v]) < 1e-5
    assert graphs == [True] + [False] * 2 * (w.data.size + v.data.size)
    assert (w.requires_grad, v.requires_grad) == (False, False)
    v.requires_grad = True
    assert gc.finite_diff_params(loss, [w, v]) < 1e-5
    assert (w.requires_grad, v.requires_grad) == (False, True)
