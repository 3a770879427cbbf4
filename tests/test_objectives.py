"""Loss-family tests with hand-derived frozen values and property checks."""

from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import tiny_batch, tiny_model

from driftadapt import gradcore as gc, objectives as obj, ttaloop as tt
from driftadapt.centroids import Assignment
from driftadapt.config import AdaptConfig
from driftadapt.errors import ConfigError, ContractError
from driftadapt.gradcore import Tensor
from driftadapt.objectives import MethodVariant


# -- the op-by-op compositions that each fused loss node replays -----------


def _reference_can_loss(similarities: dict):
    terms = {m: 1.0 - gc.tmean(s) for m, s in similarities.items()}
    return reduce(gc.add, terms.values()), terms


def _reference_scan_loss(similarities: dict, beta: float):
    terms = {m: 1.0 - gc.tsum(gc.mul(obj.adaptive_weights(s, beta), s))
             for m, s in similarities.items()}
    return reduce(gc.add, terms.values()), terms


def _reference_div_loss(avg_probs: dict, k: int):
    terms = {}
    for m, p in avg_probs.items():
        if isinstance(p, dict):
            p = gc.stack_rows(list(p.values())) if p else Tensor(np.zeros((0, 1)))
        neg_ent = gc.tsum(gc.mul(p, gc.log_clamped(p)), axis=1)
        terms[m] = gc.mul(gc.tsum(neg_ent), 1.0 / k)
    return reduce(gc.add, terms.values()), terms


def _reference_em_loss(fused_logits: Tensor) -> Tensor:
    p = gc.softmax(fused_logits)
    per_sample = gc.mul(gc.tsum(gc.mul(p, gc.log_clamped(p)), axis=1), -1.0)
    return gc.tmean(per_sample)


def _reference_max_cosine(features, centroids):
    """Per modality slice ``max_axis1(cosine_matrix(...))``, stacked again."""
    parts = [gc.max_axis1(gc.cosine_matrix(f, c))
             for f, c in zip(gc.unstack(features), centroids)]
    return gc.stack_rows([s for s, _ in parts]), np.stack([idx for _, idx in parts])


def _bits(x):
    return None if x is None else np.asarray(x, dtype=np.float64).tobytes()


def _value_terms_grads(loss, leaves, upstream):
    """Bytes of the loss value, of each per-modality term and of every leaf
    gradient after backpropagating ``upstream * loss``."""
    for t in leaves:
        t.grad = None
    out = loss()
    total, terms = out if isinstance(out, tuple) else (out, {})
    gc.backward(gc.mul(total, upstream))
    return (_bits(total.data), {m: _bits(t.data) for m, t in terms.items()},
            [_bits(t.grad) for t in leaves])


def _assert_same_bits(fused, reference, leaves, upstream):
    assert (_value_terms_grads(fused, leaves, upstream)
            == _value_terms_grads(reference, leaves, upstream))


_MODALITIES = ("v", "t", "a")
# a logit margin of 40 puts the other classes' probabilities near e^-40,
# below the 1e-12 floor of the clamped log
_MARGINS = st.sampled_from([0.0, 40.0])
_UPSTREAM = st.floats(-3.0, 3.0, allow_nan=False)


def _logits(rng, b, c, margin):
    x = rng.normal(0, 2, (b, c))
    x[:, 0] += margin
    return Tensor(x, requires_grad=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 140), st.integers(2, 4), _MARGINS, _UPSTREAM)
def test_em_loss_equals_composition_bitwise(seed, b, c, margin, upstream):
    x = _logits(np.random.default_rng(seed), b, c, margin)
    if margin:
        assert (gc.softmax(x).data < 1e-12).any()
    _assert_same_bits(lambda: obj.em_loss(x), lambda: _reference_em_loss(x), [x], upstream)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 140),
       st.one_of(st.just(0.0), st.floats(0.0, 20.0)), st.booleans(), _UPSTREAM)
def test_can_and_scan_equal_composition_bitwise(seed, n_mod, b, beta, ties, upstream):
    rng = np.random.default_rng(seed)
    sims = {}
    for m in _MODALITIES[:n_mod]:
        s = rng.uniform(-1, 1, b)
        sims[m] = Tensor(np.round(s, 1) if ties else s, requires_grad=True)
    leaves = list(sims.values())
    _assert_same_bits(lambda: obj.can_loss(sims), lambda: _reference_can_loss(sims),
                      leaves, upstream)
    _assert_same_bits(lambda: obj.scan_loss(sims, beta),
                      lambda: _reference_scan_loss(sims, beta), leaves, upstream)

    # the weights inside the fused node are those of adaptive_weights
    seen = []

    def spy(x, beta=1.0):
        seen.append(softmax_array(x, beta))
        return seen[-1]

    softmax_array = gc.softmax_array
    with mock.patch.object(gc, "softmax_array", spy):
        obj.scan_loss(sims, beta)
    assert [w.tobytes() for w in seen] == [
        obj.adaptive_weights(s, beta).data.tobytes() for s in leaves]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 140), st.integers(2, 4),
       st.integers(1, 7), _MARGINS, _UPSTREAM)
def test_div_loss_equals_composition_bitwise(seed, n_mod, b, c, k, margin, upstream):
    rng = np.random.default_rng(seed)
    logits, labels = {}, {}
    for m in _MODALITIES[:n_mod]:
        logits[m] = _logits(rng, b, c, margin)
        idx = rng.integers(0, k, b)
        if k >= 2:
            idx[idx == k - 1] = 0          # cluster k-1 empty
        if k >= 3:
            idx[idx == k - 2] = 0
            idx[rng.integers(b)] = k - 2   # cluster k-2 a singleton
        labels[m] = idx

    def avg():
        return {m: obj.cluster_avg_probs(logits[m], labels[m], k) for m in logits}

    _assert_same_bits(lambda: obj.div_loss(avg(), k), lambda: _reference_div_loss(avg(), k),
                      list(logits.values()), upstream)


@pytest.mark.parametrize("variant", ["tent_em", "can", "scan", "scanner"])
def test_adapt_steps_equal_composition_bitwise(monkeypatch, variant):
    # whole adaptation steps, so the order in which an encoder output sums
    # the gradients of its consumers (fusion, classifier, cosine) is pinned
    def run():
        model = tiny_model()
        state = tt.init_adapt_state(model, AdaptConfig(k=3, batch_size=24, lr=1e-2), variant)
        rng = np.random.default_rng(1)
        rows = [tt.adapt_batch(state, tiny_batch(rng, n=24)) for _ in range(3)]
        return ([({key: _bits(v) for key, v in r.loss_row.items()}, _bits(r.grad_norm))
                 for r in rows],
                {name: _bits(p.data) for name, p in model.named_parameters().items()})

    fused = run()
    for name, reference in (("can_loss", _reference_can_loss), ("scan_loss", _reference_scan_loss),
                            ("div_loss", _reference_div_loss), ("em_loss", _reference_em_loss)):
        monkeypatch.setattr(obj, name, reference)
    monkeypatch.setattr(gc, "max_cosine", _reference_max_cosine)
    assert fused == run()


def test_can_loss_hand_value():
    # one modality, s = [0.2, 0.6]: 1 - 0.4 = 0.6; second adds 1 - 0.9 = 0.1
    sims = {"v": Tensor(np.array([0.2, 0.6])), "t": Tensor(np.array([0.9, 0.9]))}
    total, terms = obj.can_loss(sims)
    assert terms["v"].item() == pytest.approx(0.6, abs=1e-12)
    assert terms["t"].item() == pytest.approx(0.1, abs=1e-12)
    assert total.item() == pytest.approx(0.7, abs=1e-12)


def test_can_loss_frozen_value():
    # s = [0.1, 0.5, 0.8, -0.2, 0.9, 0.3, 0.7, 0.4]: 1 - mean = 0.5625
    # (combined with the scan value below these pin the implementation)
    s = Tensor(np.array([0.1, 0.5, 0.8, -0.2, 0.9, 0.3, 0.7, 0.4]))
    total, _ = obj.can_loss({"v": s})
    assert total.item() == pytest.approx(0.5625, abs=1e-12)
    # independent mean: 1 - (0.2 + 0.6 + 0.8 - 0.3) / 4 = 0.675
    total2, _ = obj.can_loss({"v": Tensor(np.array([0.2, 0.6, 0.8, -0.3]))})
    assert total2.item() == pytest.approx(0.675, abs=1e-12)


def test_adaptive_weights_hand_value():
    # beta=1, s=[0, ln 2] gives softmax = [1/3, 2/3]
    w = obj.adaptive_weights(Tensor(np.array([0.0, np.log(2.0)])), beta=1.0)
    np.testing.assert_allclose(w.data, [1 / 3, 2 / 3], atol=1e-12)


def test_adaptive_weights_sum_to_one_and_order():
    rng = np.random.default_rng(0)
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


def test_empty_batch_rejected():
    with pytest.raises(ContractError):
        obj.can_loss({"v": Tensor(np.zeros(0))})
    with pytest.raises(ContractError):
        obj.adaptive_weights(Tensor(np.zeros(0)), beta=1.0)
    with pytest.raises(ContractError):
        obj.em_loss(Tensor(np.zeros((0, 2))))


def test_scan_loss_frozen_value():
    # beta=2, s=[0.2, 0.6, 0.8, -0.3]; value frozen from an independent
    # numpy softmax computation
    s = Tensor(np.array([0.2, 0.6, 0.8, -0.3]))
    total, _ = obj.scan_loss({"v": s}, beta=2.0)
    assert total.item() == pytest.approx(0.409700983689017, abs=1e-12)


def test_scan_leq_can_on_example():
    s = {"v": Tensor(np.array([0.2, 0.6, 0.8, -0.3]))}
    can_total, _ = obj.can_loss(s)
    scan_total, _ = obj.scan_loss(s, beta=2.0)
    assert scan_total.item() <= can_total.item()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12),
       st.floats(0.0, 20.0, allow_nan=False))
def test_scan_never_exceeds_can(seed, n, beta):
    # the softmax weighting favors high similarities, so the weighted mean
    # dominates the plain mean and the scan term is never larger
    rng = np.random.default_rng(seed)
    s = {"v": Tensor(rng.uniform(-1, 1, n))}
    can_total, _ = obj.can_loss(s)
    scan_total, _ = obj.scan_loss(s, beta=beta)
    assert scan_total.item() <= can_total.item() + 1e-9


def test_scan_equals_can_when_similarities_equal():
    s = {"v": Tensor(np.full(5, 0.42))}
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
    assert terms["v"].item() == pytest.approx(total.item(), abs=1e-12)


def test_div_loss_empty_modality_zero():
    total, terms = obj.div_loss({"v": {}}, k=3)
    assert total.item() == 0.0
    assert terms["v"].item() == 0.0


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
    assert avg.shape == (2, 2)
    np.testing.assert_allclose(avg.data[0], [0.5, 0.5], atol=1e-4)
    np.testing.assert_allclose(avg.data[1], [1.0, 0.0], atol=1e-4)


def _toy_inputs(seed=0, n=6, k=2):
    rng = np.random.default_rng(seed)
    sims = {m: Tensor(rng.uniform(-0.5, 0.9, n), requires_grad=True)
            for m in ("v", "t", "a")}
    logits = {m: Tensor(rng.normal(0, 1, (n, 2)), requires_grad=True)
              for m in ("v", "t", "a")}
    fused = Tensor(rng.normal(0, 1, (n, 2)), requires_grad=True)
    assigns = {m: Assignment(indices=rng.integers(0, k, n), similarities=np.ones(n))
               for m in ("v", "t", "a")}
    return sims, logits, fused, assigns


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

    params = list(sims.values()) + list(logits.values()) + [fused]
    assert gc.finite_diff_params(loss_fn, params) < 1e-5


def test_breakdown_as_row_keys():
    sims, logits, fused, assigns = _toy_inputs()
    bd = obj.total_loss(sims, logits, fused, assigns, 2, MethodVariant.SCANNER,
                        eps_w=0.1, lam=1.0, alpha=0.2, beta=2.0)
    row = bd.row
    assert {"em", "total"} <= set(row)
    assert "scan_v" in row and "div_t" in row and "can_a" in row
