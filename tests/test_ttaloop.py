"""Adaptation-loop behavior tests on tiny synthetic streams."""

import numpy as np
import pytest

from conftest import tiny_batch, tiny_model

from driftadapt import driftgen as dg, gradcore as gc, ttaloop as tt
from driftadapt.config import AdaptConfig, BenchmarkConfig
from driftadapt.errors import ContractError
from driftadapt.model import MODALITIES
from driftadapt.objectives import MethodVariant


def _cfg(**kw):
    base = dict(k=2, batch_size=16, lr=1e-2)
    base.update(kw)
    return AdaptConfig(**base)


def _tiny_target(seed=0, n=64):
    bench = BenchmarkConfig(preset="custom", n_cores=2, d_z=4, d_in=4,
                            p_hate=[1.0, 0.0], severity=0.5)
    cores = dg.make_core_spec(bench, seed=seed)
    _, tgt = dg.make_domain_pair(bench, seed=seed)
    return dg.generate_domain(cores, tgt, n, seed=seed + 50)


def _param_snapshot(model):
    return {k: p.data.copy() for k, p in model.named_parameters().items()}


def _stats_snapshot(model):
    return ({m: model.input_mean[m].copy() for m in MODALITIES},
            {m: model.input_var[m].copy() for m in MODALITIES})


def test_source_variant_is_noop():
    model = tiny_model()
    before = _param_snapshot(model)
    stats_before = _stats_snapshot(model)
    state = tt.init_adapt_state(model, _cfg(), MethodVariant.SOURCE)
    res = tt.adapt_batch(state, tiny_batch(np.random.default_rng(0), n=8))
    assert res.predictions.shape == (8,)
    for k, v in _param_snapshot(model).items():
        np.testing.assert_array_equal(v, before[k])
    assert _stats_snapshot(model)[0]["v"].sum() == stats_before[0]["v"].sum()


def test_norm_variant_touches_only_stats():
    model = tiny_model()
    before = _param_snapshot(model)
    state = tt.init_adapt_state(model, _cfg(), MethodVariant.NORM)
    batch = tiny_batch(np.random.default_rng(1), n=8)
    tt.adapt_batch(state, batch)
    for k, v in _param_snapshot(model).items():
        np.testing.assert_array_equal(v, before[k])
    # EMA moved toward the batch statistics
    expect = 0.1 * batch["v"].mean(axis=0)
    np.testing.assert_allclose(model.input_mean["v"], expect, atol=1e-12)


def test_grad_variants_keep_frozen_params_fixed():
    for variant in (MethodVariant.TENT_EM, MethodVariant.SCANNER):
        model = tiny_model()
        frozen_before = {k: p.data.copy()
                         for k, p in model.frozen_parameters().items()}
        trainable_before = {k: p.data.copy()
                            for k, p in model.trainable_parameters().items()}
        state = tt.init_adapt_state(model, _cfg(), variant)
        batch = tiny_batch(np.random.default_rng(2), n=16)
        tt.adapt_batch(state, batch)
        for k, p in model.frozen_parameters().items():
            np.testing.assert_array_equal(p.data, frozen_before[k])
        moved = any(np.any(p.data != trainable_before[k])
                    for k, p in model.trainable_parameters().items())
        assert moved, variant


def test_predict_then_adapt_convention():
    # first-batch predictions must equal the unadapted model's predictions
    model = tiny_model()
    batch = tiny_batch(np.random.default_rng(3), n=16)
    reference = tiny_model().forward_full(batch)[2].data.argmax(axis=1)
    state = tt.init_adapt_state(model, _cfg(), MethodVariant.TENT_EM)
    res = tt.adapt_batch(state, batch)
    np.testing.assert_array_equal(res.predictions, reference)


def test_st_threshold_controls_updates():
    model = tiny_model()
    state = tt.init_adapt_state(model, _cfg(st_confidence=0.9999999), MethodVariant.ST)
    before = _param_snapshot(model)
    res = tt.adapt_batch(state, tiny_batch(np.random.default_rng(4), n=16))
    # nothing clears an (effectively) unreachable confidence bar
    assert res.loss_row["n_confident"] == 0.0
    for k, v in _param_snapshot(model).items():
        np.testing.assert_array_equal(v, before[k])

    state2 = tt.init_adapt_state(tiny_model(), _cfg(st_confidence=0.51), MethodVariant.ST)
    res2 = tt.adapt_batch(state2, tiny_batch(np.random.default_rng(4), n=16))
    assert res2.loss_row["n_confident"] > 0


def test_cluster_variants_build_banks_lazily():
    model = tiny_model()
    state = tt.init_adapt_state(model, _cfg(), MethodVariant.SCANNER)
    assert state.banks is None
    res = tt.adapt_batch(state, tiny_batch(np.random.default_rng(5), n=16))
    assert set(state.banks) == set(MODALITIES)
    assert all(state.banks[m].k == 2 for m in MODALITIES)
    assert all(state.banks[m].tau == 1 for m in MODALITIES)
    assert set(res.assignments) == set(MODALITIES)
    assert "scan_v" in res.loss_row and "div_v" in res.loss_row


def test_scan_variant_has_no_div_terms():
    state = tt.init_adapt_state(tiny_model(), _cfg(), MethodVariant.SCAN)
    res = tt.adapt_batch(state, tiny_batch(np.random.default_rng(6), n=16))
    assert "div_v" not in res.loss_row
    assert "scan_v" in res.loss_row


def test_run_stream_deterministic():
    target = _tiny_target()
    cfg = _cfg(batch_size=16)
    reports = []
    for _ in range(2):
        model = tiny_model(seed=1)
        model.set_input_stats(target.features)
        reports.append(tt.run_stream(model, target, cfg, "scanner", seed=0))
    a, b = (r.to_dict() for r in reports)
    assert a == b


def test_run_stream_report_contents():
    target = _tiny_target()
    model = tiny_model(seed=1)
    model.set_input_stats(target.features)
    report = tt.run_stream(model, target, _cfg(batch_size=16), "scanner", seed=0)
    n_batches = int(np.ceil(len(target) / 16))
    assert len(report.loss_trace) == n_batches
    assert len(report.grad_norm_trace) == n_batches
    assert len(report.mean_entropy_trace) == n_batches
    assert 0.0 <= report.online_accuracy <= 1.0
    assert 0.0 <= report.final_macro_f1 <= 1.0
    assert report.collapse_gap is not None
    assert set(report.cluster_ratios) == set(MODALITIES)
    assert all(np.isfinite(g) for g in report.grad_norm_trace)


def test_run_stream_source_has_no_banks():
    target = _tiny_target()
    model = tiny_model(seed=1)
    model.set_input_stats(target.features)
    report = tt.run_stream(model, target, _cfg(), "source", seed=0)
    assert report.collapse_gap is None
    assert report.cluster_ratios == {}
    assert report.grad_norm_trace == [0.0] * len(report.grad_norm_trace)


def test_run_stream_rejects_empty_target():
    target = _tiny_target()
    empty = dg.SyntheticDataset(
        features={m: target.features[m][:0] for m in MODALITIES},
        labels=target.labels[:0], cores=target.cores[:0],
    )
    with pytest.raises(ContractError):
        tt.run_stream(tiny_model(), empty, _cfg(), "source")


def test_labels_never_reach_adaptation():
    # adapt_batch accepts only feature batches; corrupting every label leaves
    # the adapted parameters bit-identical
    target = _tiny_target()
    flipped = dg.SyntheticDataset(
        features={m: target.features[m].copy() for m in MODALITIES},
        labels=1 - target.labels, cores=target.cores,
    )
    params = []
    for ds in (target, flipped):
        model = tiny_model(seed=1)
        model.set_input_stats(ds.features)
        tt.run_stream(model, ds, _cfg(batch_size=16), "scanner", seed=0)
        params.append(_param_snapshot(model))
    for k in params[0]:
        np.testing.assert_array_equal(params[0][k], params[1][k])


def test_adaptation_reduces_entropy_trace():
    target = _tiny_target(n=256)
    model = tiny_model(seed=1)
    model.set_input_stats(target.features)
    report = tt.run_stream(model, target, _cfg(batch_size=32, lr=5e-2),
                           "tent_em", seed=0)
    assert report.mean_entropy_trace[-1] < report.mean_entropy_trace[0]


def test_nonfinite_grad_skips_step():
    model = tiny_model()
    state = tt.init_adapt_state(model, _cfg(), MethodVariant.TENT_EM)
    before = _param_snapshot(model)

    class FakeLoss:
        data = np.asarray(0.5)

    # monkeypatch-free: drive _apply_step directly with a poisoned gradient
    res = tt.BatchResult(tau=0, predictions=np.zeros(1, dtype=np.int64),
                         entropies=np.zeros(1), loss_row={}, grad_norm=0.0)
    import driftadapt.gradcore as gc_mod

    orig_backward = gc_mod.backward
    try:
        def poisoned(loss):
            for p in state.optimizer.params.values():
                p.grad = np.full_like(p.data, np.nan)

        tt.gc.backward = poisoned
        tt._apply_step(state, FakeLoss(), res)
    finally:
        tt.gc.backward = orig_backward
    assert res.skipped
    for k, v in _param_snapshot(model).items():
        np.testing.assert_array_equal(v, before[k])


@pytest.mark.parametrize("variant, budget", [("can", 51), ("scan", 68), ("scanner", 95)])
def test_cluster_batch_graph_size(monkeypatch, variant, budget):
    # after the banks are seeded at tau=0, a k=5 batch with every cluster
    # filled; per-cluster graph loops in DIV built 180 nodes for scanner
    made = []
    make = gc._make
    monkeypatch.setattr(gc, "_make", lambda *args: made.append(1) or make(*args))
    state = tt.init_adapt_state(tiny_model(), AdaptConfig(k=5, batch_size=32), variant)
    batch = tiny_batch(np.random.default_rng(0), n=32)
    tt.adapt_batch(state, batch)
    made.clear()
    res = tt.adapt_batch(state, batch)
    assert all(len(set(a.tolist())) == 5 for a in res.assignments.values())
    assert len(made) <= budget
