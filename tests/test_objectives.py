"""Loss-family tests with hand-derived frozen values and property checks."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import tiny_batch, tiny_model
from oracles import (
    reference_can_loss, reference_div_loss, reference_em_loss, reference_max_cosine,
    reference_scan_loss, reference_total_loss,
)

from driftadapt import gradcore as gc, objectives as obj, ttaloop as tt
from driftadapt.centroids import Assignment
from driftadapt.config import AdaptConfig
from driftadapt.errors import ConfigError, ContractError
from driftadapt.gradcore import Tensor
from driftadapt.objectives import MethodVariant


def _slices(stack):
    """{modality: slice node} of a stack, as the per-modality graph read it."""
    return dict(zip(_MODALITIES, gc.unstack(stack)))


def _fused_total_loss(*args, **kwargs):
    """obj.total_loss as (total, {"<term>_<modality>": float})."""
    bd = obj.total_loss(*args, **kwargs)
    return bd.total, {key: v for key, v in bd.row.items() if key not in ("em", "total")}


def _bits(x):
    return None if x is None else np.asarray(x, dtype=np.float64).tobytes()


def _value_terms_grads(loss, leaves, upstream):
    """Bytes of the loss value, of each per-modality term (a float, or an
    oracle's Tensor) and of every leaf gradient after backpropagating
    ``upstream * loss``."""
    for t in leaves:
        t.grad = None
    out = loss()
    total, terms = out if isinstance(out, tuple) else (out, {})
    gc.backward(gc.mul(total, upstream))
    return (_bits(total.data),
            {m: _bits(t.data if isinstance(t, Tensor) else t) for m, t in terms.items()},
            [_bits(t.grad) for t in leaves])


def _assert_same_bits(fused, reference, leaves, upstream):
    assert (_value_terms_grads(fused, leaves, upstream)
            == _value_terms_grads(reference, leaves, upstream))


_MODALITIES = ("v", "t", "a")
# a logit margin of 40 puts the other classes' probabilities near e^-40,
# below the 1e-12 floor of the clamped log
_MARGINS = st.sampled_from([0.0, 40.0])
# negative upstreams flip the sign of every gradient; -0.0 and 0.0 probe
# the signed zeros of an accumulation that starts from zeros
_UPSTREAM = st.one_of(st.floats(-3.0, 3.0, allow_nan=False),
                      st.sampled_from([-1.0, -0.0, 0.0]))
# how one modality's rows fall into k clusters
_PATTERNS = st.sampled_from(["random", "empty", "one", "singleton"])


def _logits(rng, shape, margin):
    x = rng.normal(0, 2, shape)
    x[..., 0] += margin
    return Tensor(x, requires_grad=True)


def _cluster_indices(rng, b, k, patterns):
    """n x B cluster indices, one row per pattern: ``random`` spreads the rows
    over the k clusters, ``empty`` leaves cluster k-1 empty, ``one`` puts
    every row in cluster 0 and ``singleton`` leaves one row in cluster k-1."""
    rows = []
    for pattern in patterns:
        idx = rng.integers(0, k, b)
        if pattern == "empty" and k >= 2:
            idx[idx == k - 1] = 0
        elif pattern == "one":
            idx[:] = 0
        elif pattern == "singleton" and k >= 2:
            idx[idx == k - 1] = 0
            idx[rng.integers(b)] = k - 1
        rows.append(idx)
    return np.stack(rows)


def _similarities(rng, n, b, ties):
    s = rng.uniform(-1, 1, (n, b))
    return Tensor(np.round(s, 1) if ties else s, requires_grad=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 140), st.integers(2, 4), _MARGINS, _UPSTREAM)
def test_em_loss_equals_composition_bitwise(seed, b, c, margin, upstream):
    x = _logits(np.random.default_rng(seed), (b, c), margin)
    if margin:
        assert (gc.softmax(x).data < 1e-12).any()
    _assert_same_bits(lambda: obj.em_loss(x), lambda: reference_em_loss(x), [x], upstream)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 140),
       st.one_of(st.just(0.0), st.floats(0.0, 20.0)), st.booleans(), _UPSTREAM)
def test_can_and_scan_equal_composition_bitwise(seed, n_mod, b, beta, ties, upstream):
    # one node over the n x B stack against the per-modality graph of its
    # slices; rounding to one decimal makes ties within and across rows
    sims = _similarities(np.random.default_rng(seed), n_mod, b, ties)
    _assert_same_bits(lambda: obj.can_loss(sims), lambda: reference_can_loss(_slices(sims)),
                      [sims], upstream)
    _assert_same_bits(lambda: obj.scan_loss(sims, beta),
                      lambda: reference_scan_loss(_slices(sims), beta), [sims], upstream)
    # the CAN terms that scan and scanner log from the values alone
    assert ({m: _bits(t) for m, t in obj._can_terms(sims).items()}
            == {m: _bits(t) for m, t in obj.can_loss(sims)[1].items()})

    # the weights inside the fused node are those of adaptive_weights, row by row
    seen = []

    def spy(x, beta=1.0):
        seen.append(softmax_array(x, beta))
        return seen[-1]

    softmax_array = gc.softmax_array
    with mock.patch.object(gc, "softmax_array", spy):
        obj.scan_loss(sims, beta)
    assert len(seen) == 1
    assert [w.tobytes() for w in seen[0]] == [
        obj.adaptive_weights(s, beta).data.tobytes() for s in gc.unstack(sims)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 140), st.integers(2, 4),
       st.integers(1, 7), st.lists(_PATTERNS, min_size=3, max_size=3), _MARGINS, _UPSTREAM,
       st.booleans())
def test_div_loss_equals_composition_bitwise(seed, n_mod, b, c, k, patterns, margin, upstream,
                                             shared):
    # one softmax, one cluster mean over the nB rows and one plogp node
    # against a softmax, a cluster mean and a plogp chain per modality; with
    # ``shared`` the cluster mean reads the counts that a bank step shares
    rng = np.random.default_rng(seed)
    logits = _logits(rng, (n_mod, b, c), margin)
    idx = _cluster_indices(rng, b, k, patterns[:n_mod])
    counts = gc.cluster_counts(idx, k)
    assert counts.tobytes() == np.concatenate([np.bincount(i, minlength=k) for i in idx]).tobytes()
    sizes = obj._filled_clusters(counts, k)
    assert sizes == [np.unique(i).size for i in idx]

    def fused():
        return obj.div_loss(obj.cluster_avg_probs(logits, idx, k, counts if shared else None),
                            k, sizes)

    def reference():
        return reference_div_loss({m: gc.cluster_means(gc.softmax(x), i, k)
                                    for (m, x), i in zip(_slices(logits).items(), idx)}, k)

    _assert_same_bits(fused, reference, [logits], upstream)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["can", "scan", "scanner"]),
       st.integers(1, 3), st.integers(1, 60), st.integers(1, 5),
       st.lists(_PATTERNS, min_size=3, max_size=3), st.booleans(),
       st.sampled_from([0.0, 0.3]), st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
       _MARGINS, _UPSTREAM)
def test_total_loss_equals_composition_bitwise(seed, variant, n_mod, b, k, patterns, ties,
                                               alpha, beta, margin, upstream):
    # from the features to the weighted total: one max-cosine node over the
    # stack and the stacked losses against the per-modality graph; ties
    # repeat a centroid and a feature row, so the argmax and the scores tie
    rng = np.random.default_rng(seed)
    f = rng.normal(0, 1, (n_mod, b, 4))
    centroids = rng.normal(0, 1, (n_mod, k, 4))
    if ties:
        f[:, -1] = f[:, 0]
        centroids[:, -1] = centroids[:, 0]
    features = Tensor(f, requires_grad=True)
    logits = _logits(rng, (n_mod, b, 2), margin)
    fused_logits = _logits(rng, (b, 2), margin)
    idx = _cluster_indices(rng, b, k, patterns[:n_mod])
    weights = dict(k=k, variant=MethodVariant(variant), eps_w=0.1, lam=2.0,
                   alpha=alpha, beta=beta)

    def fused():
        s, _ = gc.max_cosine(features, centroids)
        return _fused_total_loss(s, logits, fused_logits, idx, **weights)

    def reference():
        s, _ = reference_max_cosine(features, centroids)
        return reference_total_loss(_slices(s), _slices(logits), fused_logits, idx, **weights)

    _assert_same_bits(fused, reference, [features, logits, fused_logits], upstream)


def test_dict_inputs_equal_the_stacks_bitwise():
    # per-modality tensors in a dict, as model.forward_full returns them,
    # give the stacked losses' values and gradients
    rng = np.random.default_rng(3)
    sims = _similarities(rng, 3, 9, False)
    logits = _logits(rng, (3, 9, 2), 0.0)
    fused_logits = _logits(rng, (9, 2), 0.0)
    idx = _cluster_indices(rng, 9, 3, ["random", "empty", "one"])
    assigns = {m: Assignment(indices=i) for m, i in zip(_MODALITIES, idx)}
    args = dict(k=3, variant=MethodVariant.SCANNER, eps_w=0.1, lam=2.0, alpha=0.3, beta=3.0)
    leaves = [sims, logits, fused_logits]
    _assert_same_bits(lambda: _fused_total_loss(sims, logits, fused_logits, idx, **args),
                      lambda: _fused_total_loss(_slices(sims), _slices(logits), fused_logits,
                                                assigns, **args), leaves, 1.0)
    _assert_same_bits(lambda: obj.can_loss(sims), lambda: obj.can_loss(_slices(sims)),
                      leaves, 1.0)
    _assert_same_bits(
        lambda: obj.div_loss(obj.cluster_avg_probs(logits, idx, 3), 3,
                             obj._filled_clusters(gc.cluster_counts(idx, 3), 3)),
        lambda: obj.div_loss({m: obj.cluster_avg_probs(x, i, 3)
                              for (m, x), i in zip(_slices(logits).items(), idx)}, 3),
        leaves, 1.0)
    # {cluster: Tensor[C]} rows per modality, one modality without any
    rows = {"v": {0: rng.dirichlet(np.ones(3)), 2: rng.dirichlet(np.ones(3))},
            "t": {}, "a": {1: rng.dirichlet(np.ones(3))}}
    rows = {m: {j: Tensor(r, requires_grad=True) for j, r in ps.items()} for m, ps in rows.items()}
    _assert_same_bits(lambda: obj.div_loss(rows, 3), lambda: reference_div_loss(rows, 3),
                      [t for ps in rows.values() for t in ps.values()], -2.0)


@pytest.mark.parametrize("variant", ["tent_em", "can", "scan", "scanner"])
def test_adapt_steps_equal_composition_bitwise(monkeypatch, variant):
    # whole adaptation steps, so the order in which an encoder output sums
    # the gradients of its consumers (fusion, classifier, cosine) is pinned:
    # the step on the stacks against the per-modality graph of every loss
    def run():
        model = tiny_model()
        state = tt.init_adapt_state(model, AdaptConfig(k=3, batch_size=24, lr=1e-2), variant)
        rng = np.random.default_rng(1)
        rows = [tt.adapt_batch(state, tiny_batch(rng, n=24)) for _ in range(3)]
        return ([({key: _bits(v) for key, v in r.loss_row.items()}, _bits(r.grad_norm))
                 for r in rows],
                {name: _bits(p.data) for name, p in model.named_parameters().items()})

    # the shims take the step's shared norms and counts and ignore them: the
    # references recompute everything from their inputs
    def reference_breakdown(s, logits, fused_logits, idx, counts=None, **kw):
        total, terms = reference_total_loss(
            _slices(s), None if logits is None else _slices(logits), fused_logits, idx, **kw)
        row = {"em": reference_em_loss(fused_logits).item(), "total": total.item()}
        row.update({key: t.item() for key, t in terms.items()})
        return obj.LossBreakdown(total=total, row=row)

    fused = run()
    monkeypatch.setattr(obj, "em_loss", reference_em_loss)
    monkeypatch.setattr(obj, "total_loss", reference_breakdown)
    monkeypatch.setattr(gc, "max_cosine",
                        lambda features, centroids, norms=None:
                        reference_max_cosine(features, centroids))
    assert fused == run()


def test_can_loss_hand_value():
    # row v, s = [0.2, 0.6]: 1 - 0.4 = 0.6; row t adds 1 - 0.9 = 0.1
    total, terms = obj.can_loss(Tensor(np.array([[0.2, 0.6], [0.9, 0.9]])))
    assert terms["v"] == pytest.approx(0.6, abs=1e-12)
    assert terms["t"] == pytest.approx(0.1, abs=1e-12)
    assert total.item() == pytest.approx(0.7, abs=1e-12)


def test_can_loss_frozen_value():
    # s = [0.1, 0.5, 0.8, -0.2, 0.9, 0.3, 0.7, 0.4]: 1 - mean = 0.5625
    # (combined with the scan value below these pin the implementation)
    s = Tensor(np.array([[0.1, 0.5, 0.8, -0.2, 0.9, 0.3, 0.7, 0.4]]))
    total, _ = obj.can_loss(s)
    assert total.item() == pytest.approx(0.5625, abs=1e-12)
    # independent mean: 1 - (0.2 + 0.6 + 0.8 - 0.3) / 4 = 0.675
    total2, _ = obj.can_loss(Tensor(np.array([[0.2, 0.6, 0.8, -0.3]])))
    assert total2.item() == pytest.approx(0.675, abs=1e-12)


def test_adaptive_weights_hand_value():
    # beta=1, s=[0, ln 2] gives softmax = [1/3, 2/3]
    w = obj.adaptive_weights(Tensor(np.array([0.0, np.log(2.0)])), beta=1.0)
    np.testing.assert_allclose(w.data, [1 / 3, 2 / 3], atol=1e-12)


def test_adaptive_weights_sum_to_one_and_order(rng):
    s = rng.uniform(-1, 1, 16)
    w = obj.adaptive_weights(Tensor(s), beta=7.0).data
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w > 0)
    # higher similarity never gets lower weight
    order = np.argsort(s)
    assert np.all(np.diff(w[order]) >= -1e-15)


def test_adaptive_weights_beta_zero_uniform():
    w = obj.adaptive_weights(Tensor(np.array([0.9, -0.5, 0.1])), beta=0.0).data
    np.testing.assert_allclose(w, np.full(3, 1 / 3), atol=1e-12)


def test_adaptive_weights_negative_beta_rejected():
    with pytest.raises(ConfigError):
        obj.adaptive_weights(Tensor(np.array([0.1])), beta=-1.0)
    with pytest.raises(ConfigError):
        obj.scan_loss(Tensor(np.array([[0.1, 0.2]])), beta=-1.0)


def test_empty_batch_rejected():
    with pytest.raises(ContractError):
        obj.can_loss(Tensor(np.zeros((3, 0))))
    with pytest.raises(ContractError):
        obj.can_loss({"v": Tensor(np.zeros(0))})
    with pytest.raises(ContractError):
        obj.scan_loss(Tensor(np.zeros((1, 0))), beta=1.0)
    with pytest.raises(ContractError):
        obj.adaptive_weights(Tensor(np.zeros(0)), beta=1.0)
    with pytest.raises(ContractError):
        obj.em_loss(Tensor(np.zeros((0, 2))))


def test_scan_loss_frozen_value():
    # beta=2, s=[0.2, 0.6, 0.8, -0.3]; value frozen from an independent
    # numpy softmax computation
    s = Tensor(np.array([[0.2, 0.6, 0.8, -0.3]]))
    total, _ = obj.scan_loss(s, beta=2.0)
    assert total.item() == pytest.approx(0.409700983689017, abs=1e-12)


def test_scan_leq_can_on_example():
    s = Tensor(np.array([[0.2, 0.6, 0.8, -0.3]]))
    can_total, _ = obj.can_loss(s)
    scan_total, _ = obj.scan_loss(s, beta=2.0)
    assert scan_total.item() <= can_total.item()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 12),
       st.floats(0.0, 20.0, allow_nan=False))
def test_scan_never_exceeds_can(seed, n_mod, n, beta):
    # the softmax weighting favors high similarities, so the weighted mean
    # dominates the plain mean and no scan term is larger than its can term
    rng = np.random.default_rng(seed)
    s = Tensor(rng.uniform(-1, 1, (n_mod, n)))
    can_total, can_terms = obj.can_loss(s)
    scan_total, scan_terms = obj.scan_loss(s, beta=beta)
    assert scan_total.item() <= can_total.item() + 1e-9
    assert all(scan_terms[m] <= can_terms[m] + 1e-9 for m in can_terms)


def test_scan_equals_can_when_similarities_equal():
    s = Tensor(np.full((2, 5), 0.42))
    can_total, _ = obj.can_loss(s)
    scan_total, _ = obj.scan_loss(s, beta=9.0)
    assert scan_total.item() == pytest.approx(can_total.item(), abs=1e-12)


def test_em_loss_frozen_value():
    # two rows of logits [ln 3, 0]: p = [0.75, 0.25], H = 0.5623351446188083
    logits = Tensor(np.array([[np.log(3.0), 0.0], [np.log(3.0), 0.0]]))
    assert obj.em_loss(logits).item() == pytest.approx(0.5623351446188083, abs=1e-12)


def test_em_loss_bounds():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(0, 3, (20, 4)))
    h = obj.em_loss(logits).item()
    assert 0.0 <= h <= np.log(4.0) + 1e-12


def test_div_loss_frozen_value():
    # k=2, cluster averages [0.5, 0.5] and [1, 0]:
    # (1/2) * (-ln 2 + 0) = -0.34657359027997264
    avg = {"v": {0: Tensor(np.array([0.5, 0.5])), 1: Tensor(np.array([1.0, 0.0]))}}
    total, terms = obj.div_loss(avg, k=2)
    assert total.item() == pytest.approx(-0.34657359027997264, abs=1e-9)
    assert terms["v"] == pytest.approx(total.item(), abs=1e-12)


def test_div_loss_empty_modality_zero():
    total, terms = obj.div_loss({"v": {}}, k=3)
    assert total.item() == 0.0
    assert terms["v"] == 0.0


def test_div_loss_minimized_by_uniform():
    uniform = {"v": {0: Tensor(np.full(4, 0.25))}}
    peaked = {"v": {0: Tensor(np.array([0.97, 0.01, 0.01, 0.01]))}}
    u, _ = obj.div_loss(uniform, k=1)
    p, _ = obj.div_loss(peaked, k=1)
    assert u.item() < p.item()


def test_cluster_avg_probs_skips_empty_and_averages():
    logits = Tensor(np.array([[10.0, 0.0], [0.0, 10.0], [10.0, 0.0]]))
    avg = obj.cluster_avg_probs(logits, np.array([0, 0, 2]), k=3)
    # empty cluster 1 has no row; the rows are clusters 0 and 2, in order
    assert avg.data.shape == (2, 2)
    np.testing.assert_allclose(avg.data[0], [0.5, 0.5], atol=1e-4)
    np.testing.assert_allclose(avg.data[1], [1.0, 0.0], atol=1e-4)


def test_stacked_cluster_avg_probs_rows_follow_modality_then_cluster():
    # modality v fills clusters 0 and 2 of k=3, modality t cluster 1 alone
    logits = Tensor(np.array([[[10.0, 0.0], [0.0, 10.0], [10.0, 0.0]],
                              [[0.0, 10.0], [0.0, 10.0], [0.0, 10.0]]]))
    idx = np.array([[0, 0, 2], [1, 1, 1]])
    avg = obj.cluster_avg_probs(logits, idx, k=3)
    assert obj._filled_clusters(gc.cluster_counts(idx, 3), 3) == [2, 1]
    np.testing.assert_allclose(avg.data, [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]], atol=1e-4)
    total, terms = obj.div_loss(avg, 3, [2, 1])
    assert set(terms) == {"v", "t"}
    # (1/3) * (-ln 2 + 0) for v; t's single row is nearly one-hot
    assert terms["v"] == pytest.approx(-np.log(2.0) / 3, abs=1e-3)
    assert terms["t"] == pytest.approx(0.0, abs=1e-3)
    assert total.item() == terms["v"] + terms["t"]


def test_div_loss_rejects_groups_that_do_not_fit():
    with pytest.raises(ContractError):
        obj.div_loss(Tensor(np.full((3, 2), 0.5)), 1, [1, 1])


def test_stacked_losses_reject_more_rows_than_modalities():
    with pytest.raises(ContractError):
        obj.can_loss(Tensor(np.zeros((4, 2))))
    with pytest.raises(ContractError):
        obj.can_loss(Tensor(np.zeros(3)))


def _toy_inputs(seed=0, n=6, k=2):
    """n x B scores, n x B x C modality logits, fused logits and n x B cluster
    indices of three modalities."""
    rng = np.random.default_rng(seed)
    sims = Tensor(rng.uniform(-0.5, 0.9, (3, n)), requires_grad=True)
    logits = Tensor(rng.normal(0, 1, (3, n, 2)), requires_grad=True)
    fused = Tensor(rng.normal(0, 1, (n, 2)), requires_grad=True)
    return sims, logits, fused, rng.integers(0, k, (3, n))


def test_total_loss_variant_dispatch():
    sims, logits, fused, assigns = _toy_inputs()
    args = dict(eps_w=0.1, lam=2.0, alpha=0.5, beta=3.0)
    can = obj.total_loss(sims, logits, fused, assigns, 2, MethodVariant.CAN, **args)
    scan = obj.total_loss(sims, logits, fused, assigns, 2, MethodVariant.SCAN, **args)
    scanner = obj.total_loss(sims, logits, fused, assigns, 2,
                             MethodVariant.SCANNER, **args)

    def terms(bd, name):
        return [v for key, v in bd.row.items() if key.startswith(f"{name}_")]

    # CAN and SCAN drop the diversity term entirely
    assert terms(can, "div") == [] and terms(scan, "div") == []
    assert terms(scanner, "div") != []
    # CAN: total = eps*EM + lam * sum of plain alignment terms
    expect_can = 0.1 * can.row["em"] + 2.0 * sum(terms(can, "can"))
    assert can.row["total"] == pytest.approx(expect_can, abs=1e-12)
    # SCAN: adaptive alignment replaces the plain one
    expect_scan = 0.1 * scan.row["em"] + 2.0 * sum(terms(scan, "scan"))
    assert scan.row["total"] == pytest.approx(expect_scan, abs=1e-12)
    # SCANNER adds the diversity penalty on top of SCAN's terms
    expect_full = (0.1 * scanner.row["em"] + 2.0 * sum(terms(scanner, "scan"))
                   + 0.5 * sum(terms(scanner, "div")))
    assert scanner.row["total"] == pytest.approx(expect_full, abs=1e-12)
    for bd in (can, scan, scanner):
        assert bd.row["total"] == bd.total.item()


def test_total_loss_rejects_negative_weights():
    sims, logits, fused, assigns = _toy_inputs()
    with pytest.raises(ConfigError):
        obj.total_loss(sims, logits, fused, assigns, 2, MethodVariant.SCANNER,
                       eps_w=-0.1, lam=1.0, alpha=0.1, beta=1.0)


def test_total_loss_rejects_non_clustering_variant():
    sims, logits, fused, assigns = _toy_inputs()
    with pytest.raises(ConfigError):
        obj.total_loss(sims, logits, fused, assigns, 2, MethodVariant.TENT_EM,
                       eps_w=0.1, lam=1.0, alpha=0.1, beta=1.0)


def test_total_loss_gradient_matches_finite_diff():
    sims, logits, fused, assigns = _toy_inputs(seed=5)

    def loss_fn():
        return obj.total_loss(sims, logits, fused, assigns, 2,
                              MethodVariant.SCANNER, eps_w=0.1, lam=2.0,
                              alpha=0.5, beta=3.0).total

    assert gc.finite_diff_params(loss_fn, [sims, logits, fused]) < 1e-5


def test_breakdown_as_row_keys():
    sims, logits, fused, assigns = _toy_inputs()
    bd = obj.total_loss(sims, logits, fused, assigns, 2, MethodVariant.SCANNER,
                        eps_w=0.1, lam=1.0, alpha=0.2, beta=2.0)
    row = bd.row
    assert {"em", "total"} <= set(row)
    assert "scan_v" in row and "div_t" in row and "can_a" in row
