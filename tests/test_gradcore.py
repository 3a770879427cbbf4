"""Unit and property tests for the autodiff core.

Analytic gradients are checked against central finite differences; simple
ops additionally against closed-form expectations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import attention_pool_inline_softmax, reference_max_cosine

from driftadapt import gradcore as gc
from driftadapt.errors import ContractError, DegenerateDataError, NumericError
from driftadapt.gradcore import Tensor

TOL = 1e-6


def _check(f, shape, seed=0, scale=1.0, tol=1e-6):
    rng = np.random.default_rng(seed)
    x = Tensor(scale * rng.normal(0.0, 1.0, shape), requires_grad=True)
    assert gc.finite_diff_params(lambda: f(x), [x]) < tol


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


def test_mul_grad():
    _check(lambda t: gc.tsum(gc.mul(t, t)), (4, 3))


def test_matmul_grad():
    w = np.random.default_rng(1).normal(0.0, 1.0, (3, 5))
    _check(lambda t: gc.tsum(gc.matmul(t, Tensor(w))), (4, 3))


def test_gelu_grad():
    _check(lambda t: gc.tsum(gc.gelu(t)), (6,), scale=2.0)


def test_gelu_forward_matches_closed_form():
    x = np.linspace(-8.0, 8.0, 4001)
    c = np.sqrt(2.0 / np.pi)
    expected = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
    np.testing.assert_allclose(gc.gelu(Tensor(x)).data, expected, rtol=0.0, atol=1e-14)


def test_softmax_grad():
    _check(lambda t: gc.tsum(gc.mul(gc.softmax(t, beta=3.0),
                                    Tensor(np.arange(12.0).reshape(3, 4)))),
           (3, 4))


def test_log_clamped_grad_above_floor():
    _check(lambda t: gc.tsum(gc.log_clamped(t)), (5,), scale=0.1, seed=3)


def test_log_clamped_zero_grad_below_floor():
    x = Tensor([-1.0, 0.5], requires_grad=True)
    gc.backward(gc.tsum(gc.log_clamped(x)))
    assert x.grad[0] == 0.0
    assert x.grad[1] == pytest.approx(2.0)


def test_layernorm_affine_grad():
    gain = Tensor(np.array([1.5, 0.5, 2.0]), requires_grad=True)
    bias = Tensor(np.array([0.1, -0.2, 0.0]), requires_grad=True)
    _check(lambda t: gc.tsum(gc.mul(gc.layernorm_affine(t, gain, bias),
                                    Tensor(np.arange(12.0).reshape(4, 3)))),
           (4, 3))
    err = gc.finite_diff_params(
        lambda: gc.tsum(gc.mul(
            gc.layernorm_affine(Tensor(np.arange(12.0).reshape(4, 3)), gain, bias),
            Tensor(np.arange(12.0).reshape(4, 3) * 0.3))),
        [gain, bias])
    assert err < 1e-6


def test_cosine_matrix_grad():
    c = np.random.default_rng(7).normal(0.0, 1.0, (3, 4))
    _check(lambda t: gc.tsum(gc.mul(gc.cosine_matrix(t, c),
                                    Tensor(np.arange(12.0).reshape(4, 3)))),
           (4, 4), seed=5)


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
    _check(lambda t: gc.cross_entropy(t, labels), (2, 2), seed=9)


def test_attention_style_composite_grad():
    # the fusion block's op pattern: rowdot + stack_cols + softmax + rowscale
    rng = np.random.default_rng(13)
    other = Tensor(rng.normal(0, 1, (5, 4)))

    def f(t):
        scores = gc.stack_cols([gc.rowdot(t, other), gc.rowdot(t, t)])
        attn = gc.softmax(scores)
        out = gc.add(gc.rowscale(gc.col(attn, 0), t),
                     gc.rowscale(gc.col(attn, 1), other))
        return gc.tsum(gc.mul(out, other))

    _check(f, (5, 4), seed=13)


@pytest.mark.parametrize("batch", [1, 4])
def test_attention_pool_grad(batch):
    rng = np.random.default_rng(17 + batch)
    tokens = Tensor(rng.normal(0, 1, (3, batch, 5)), requires_grad=True)
    wq, wk, wv = (Tensor(rng.normal(0, 0.5, (5, 5)), requires_grad=True) for _ in range(3))
    weights = Tensor(rng.normal(0, 1, (batch, 5)))

    def loss():
        return gc.tsum(gc.mul(gc.attention_pool(tokens, wq, wk, wv), weights))

    assert gc.finite_diff_params(loss, [tokens, wq, wk, wv]) < 1e-6


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 140), st.integers(1, 5),
       st.integers(1, 6))
def test_linear_layernorm_gelu_equals_composition_bitwise(seed, n, b, d_in, d):
    rng = np.random.default_rng(seed)
    x, w, bias, gain, shift = (
        Tensor(rng.normal(0, s, shape), requires_grad=True)
        for s, shape in ((1.0, (n, b, d_in)), (1.0, (n, d_in, d)), (0.5, (n, d)),
                         (1.0, (n, d)), (0.5, (n, d))))
    _assert_same_node(
        lambda: gc.linear_layernorm_gelu(x, w, bias, gain, shift),
        lambda: _per_slice(lambda *p: gc.gelu(gc.layernorm_affine(
            gc.add(gc.matmul(p[0], p[1]), p[2]), p[3], p[4])), x, w, bias, gain, shift),
        [x, w, bias, gain, shift], Tensor(rng.normal(0, 1, (n, b, d))))


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


@pytest.mark.parametrize("batch", [1, 4])
def test_linear_layernorm_gelu_grad(batch):
    rng = np.random.default_rng(31 + batch)
    leaves = [Tensor(rng.normal(0, s, shape), requires_grad=True)
              for s, shape in ((1.0, (2, batch, 3)), (1.0, (2, 3, 5)), (0.5, (2, 5)),
                               (1.0, (2, 5)), (0.5, (2, 5)))]
    weights = Tensor(rng.normal(0, 1, (2, batch, 5)))
    err = gc.finite_diff_params(
        lambda: gc.tsum(gc.mul(gc.linear_layernorm_gelu(*leaves), weights)), leaves)
    assert err < 1e-6


def test_linear_grad():
    rng = np.random.default_rng(9)
    leaves = [Tensor(rng.normal(0, 1, shape), requires_grad=True)
              for shape in ((4, 3), (3, 2), (2,))]
    weights = Tensor(rng.normal(0, 1, (4, 2)))
    assert gc.finite_diff_params(
        lambda: gc.tsum(gc.mul(gc.linear(*leaves), weights)), leaves) < 1e-6


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
def test_layernorm_statistics_are_numpys_mean_and_var_bitwise(seed, n, b, d):
    # the layer norm writes out np.mean and np.var to share the deviations
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 3, (n, b, d)) + rng.normal(0, 100, (n, b, 1))
    gain, bias, g = rng.normal(0, 1, (n, d)), rng.normal(0, 1, (n, d)), rng.normal(0, 1, x.shape)
    out, xhat, inv = gc._layernorm_forward(x, gain, bias, 1e-5)
    mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
    want_inv = 1.0 / np.sqrt(var + 1e-5)
    want_xhat = (x - mu) * want_inv
    assert inv.tobytes() == want_inv.tobytes() and xhat.tobytes() == want_xhat.tobytes()
    assert out.tobytes() == (gain[:, None, :] * want_xhat + bias[:, None, :]).tobytes()
    gy = g * gain[:, None, :]
    want_dx = (gy - gy.mean(axis=-1, keepdims=True)
               - xhat * (gy * xhat).mean(axis=-1, keepdims=True)) * inv
    assert gc._layernorm_backward(g, gain, xhat, inv)[2].tobytes() == want_dx.tobytes()


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
    x, w = Tensor(rng.normal(0, 1, (1, 4, 3))), Tensor(rng.normal(0, 1, (1, 3, 5)))
    b, gain, shift = Tensor(np.zeros((1, 5))), Tensor(np.ones((1, 5))), Tensor(np.zeros((1, 5)))
    before = gc.linear_layernorm_gelu(x, w, b, gain, shift).data
    monkeypatch.setattr(gc, "_GELU_A", 0.0449)
    after = gc.linear_layernorm_gelu(x, w, b, gain, shift).data
    assert not np.array_equal(before, after)
    linear = gc.linear(Tensor(x.data[0]), Tensor(w.data[0]), b.data[0])
    composed = gc.gelu(gc.layernorm_affine(linear, gain.data[0], shift.data[0]))
    assert np.array_equal(after[0], composed.data)


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
