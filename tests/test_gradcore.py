"""Unit and property tests for the autodiff core.

Analytic gradients are checked against central finite differences; simple
ops additionally against closed-form expectations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftadapt import gradcore as gc
from driftadapt.errors import (
    ContractError,
    DegenerateVectorError,
    NumericError,
    ShapeMismatchError,
)
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
    a.zero_grad()
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
    with pytest.raises(ShapeMismatchError):
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
    _check(lambda t: gc.tsum(gc.mul(gc.softmax(t, beta=3.0, axis=1),
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
    with pytest.raises(DegenerateVectorError):
        gc.cosine_matrix(Tensor(np.zeros((2, 3))), np.ones((2, 3)))


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

    assert gc.cluster_means(x, labels, 4).shape == (3, 3)
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
        attn = gc.softmax(scores, axis=1)
        out = gc.add(gc.rowscale(gc.col(attn, 0), t),
                     gc.rowscale(gc.col(attn, 1), other))
        return gc.tsum(gc.mul(out, other))

    _check(f, (5, 4), seed=13)


@pytest.mark.parametrize("batch", [1, 4])
def test_attention_pool_grad(batch):
    rng = np.random.default_rng(17 + batch)
    tokens = [Tensor(rng.normal(0, 1, (batch, 5)), requires_grad=True) for _ in range(3)]
    wq, wk, wv = (Tensor(rng.normal(0, 0.5, (5, 5)), requires_grad=True) for _ in range(3))
    weights = Tensor(rng.normal(0, 1, (batch, 5)))

    def loss():
        return gc.tsum(gc.mul(gc.attention_pool(tokens, wq, wk, wv), weights))

    assert gc.finite_diff_params(loss, [*tokens, wq, wk, wv]) < 1e-6


def test_attention_pool_frozen_projections_get_no_grad():
    rng = np.random.default_rng(3)
    tokens = [Tensor(rng.normal(0, 1, (4, 3)), requires_grad=True) for _ in range(3)]
    wq, wk, wv = (Tensor(rng.normal(0, 1, (3, 3))) for _ in range(3))
    gc.backward(gc.tsum(gc.attention_pool(tokens, wq, wk, wv)))
    assert all(t.grad is not None for t in tokens)
    assert wq.grad is None and wk.grad is None and wv.grad is None


def test_attention_pool_shape_mismatch():
    w = Tensor(np.ones((3, 3)))
    with pytest.raises(ShapeMismatchError):
        gc.attention_pool([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], w, w, w)
    with pytest.raises(ShapeMismatchError):
        gc.attention_pool([Tensor(np.ones((2, 4)))] * 3, w, w, w)


# -- property tests --------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(2, 6))
def test_softmax_rows_normalized(seed, n, k):
    rng = np.random.default_rng(seed)
    p = gc.softmax(Tensor(rng.normal(0, 5, (n, k))), axis=1).data
    assert np.all(p > 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


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
        return gc.tsum(gc.mul(gc.softmax(h, axis=1), h))

    x = Tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
    assert gc.finite_diff_params(lambda: f(x), [x]) < 1e-5


def test_finite_diff_raises_on_non_finite_perturbed_value():
    # finite at x = 1, overflows to inf at x + h
    x = Tensor(1.0, requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        gc.finite_diff_params(lambda: gc.tsum(gc.mul(x, np.finfo(float).max)), [x])
