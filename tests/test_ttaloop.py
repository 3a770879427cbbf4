"""Adaptation-loop behavior tests on tiny synthetic streams."""

import json
import pickle
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from conftest import tiny_batch, tiny_model

from driftadapt import centroids as cb, driftgen as dg, gradcore as gc, ttaloop as tt
from driftadapt.config import AdaptConfig, BenchmarkConfig
from driftadapt.errors import ContractError, DivergenceError, NumericError
from driftadapt.model import MODALITIES, ModalityEncoder, ModelDims, SourceModel
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


def _fitted_model(target):
    """A seed-1 model whose input statistics are the target's."""
    model = tiny_model(seed=1)
    model.set_input_stats(target.features)
    return model


def _param_snapshot(model):
    return {k: p.data.copy() for k, p in model.named_parameters().items()}


def _stats_snapshot(model):
    return model.input_mean.copy(), model.input_var.copy()


def test_source_variant_is_noop():
    model = tiny_model()
    before = _param_snapshot(model)
    stats_before = _stats_snapshot(model)
    state = tt.init_adapt_state(model, _cfg(), MethodVariant.SOURCE)
    res = tt.adapt_batch(state, tiny_batch(np.random.default_rng(0), n=8))
    assert res.predictions.shape == (8,)
    for k, v in _param_snapshot(model).items():
        np.testing.assert_array_equal(v, before[k])
    assert np.array_equal(_stats_snapshot(model)[0], stats_before[0])
    assert np.array_equal(_stats_snapshot(model)[1], stats_before[1])


def test_norm_variant_touches_only_stats():
    # from the zero mean of a new model, (1 - m) * 0 and (1 + m) * 0 agree;
    # statistics fitted to a shifted source batch, as a checkpoint's are, do not
    for fitted in (False, True):
        model = tiny_model()
        if fitted:
            model.set_input_stats({m: np.random.default_rng(4).normal(1.5, 2.0, (32, 4))
                                   for m in MODALITIES})
        before = _param_snapshot(model)
        old_mean, old_var = _stats_snapshot(model)
        state = tt.init_adapt_state(model, _cfg(), MethodVariant.NORM)
        batch = tiny_batch(np.random.default_rng(1), n=8)
        tt.adapt_batch(state, batch)
        for k, v in _param_snapshot(model).items():
            np.testing.assert_array_equal(v, before[k])
        # EMA moved toward the batch statistics, modality by modality, at the
        # default momentum 0.1
        x = np.stack([batch[m] for m in MODALITIES])
        assert model.input_mean.tobytes() == (0.9 * old_mean + 0.1 * x.mean(axis=1)).tobytes()
        assert model.input_var.tobytes() == (0.9 * old_var + 0.1 * x.var(axis=1)).tobytes()


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
    assert state.bank is None
    res = tt.adapt_batch(state, tiny_batch(np.random.default_rng(5), n=16))
    # one bank over the modality stack: slice i is MODALITIES[i]'s
    assert state.bank.centroids.shape == (len(MODALITIES), 2, model.dims.d_h)
    assert state.bank.k == 2
    assert "scan_v" in res.loss_row and "div_v" in res.loss_row
    # the seeded centroids are Lloyd's fixed point on the tau=0 features, so
    # that batch's means equal them to rounding; the next batch's means move
    # every slice of the bank off them, and the stored centroids stay put
    seeded = [c.copy() for c in state.seeded]
    tt.adapt_batch(state, tiny_batch(np.random.default_rng(6), n=16))
    assert all(np.abs(own - c).max() > 1e-6 for own, c in zip(state.bank.centroids, seeded))
    assert all(np.array_equal(c, s) for c, s in zip(state.seeded, seeded))


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
        model = _fitted_model(target)
        reports.append(tt.run_stream(model, target, cfg, "scanner", seed=0))
    a, b = (r.to_dict() for r in reports)
    assert a == b


def test_run_stream_report_contents():
    target = _tiny_target()
    model = _fitted_model(target)
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
    model = _fitted_model(target)
    report = tt.run_stream(model, target, _cfg(), "source", seed=0)
    assert report.collapse_gap is None
    assert report.cluster_ratios == {}
    assert report.grad_norm_trace == [0.0] * len(report.grad_norm_trace)


@pytest.mark.parametrize("variant", ["scanner", "source", "norm", "can", "scan"])
def test_final_pass_chunks_match_one_full_forward(monkeypatch, variant):
    # 70 rows in batches of 16: the last chunk of the final pass has 6 rows
    target = _tiny_target(n=70)
    model = _fitted_model(target)
    states = []
    init = tt.init_adapt_state
    monkeypatch.setattr(tt, "init_adapt_state",
                        lambda *a, **kw: states.append(init(*a, **kw)) or states[-1])
    report = tt.run_stream(model, target, _cfg(batch_size=16), variant, seed=0)

    features, _, fused_logits = model.forward_full(target.features)
    preds = fused_logits.data.argmax(axis=1)
    assert report.final_accuracy == dg.accuracy(preds, target.labels)
    assert report.final_macro_f1 == dg.macro_f1(preds, target.labels)
    if variant == "source":
        assert report.final_accuracy == report.online_accuracy
        assert report.final_macro_f1 == report.online_macro_f1
    bank = states[0].bank
    if bank is None:
        return
    # the diagnostics built chunk by chunk against the stacked bank equal
    # those of one full-length scoring of the features by each modality's own
    # k x d_h bank and one classifier forward of their unit rows per
    # modality, bit for bit
    for m, centroids in zip(MODALITIES, bank.centroids):
        idx = cb.max_similarity(cb.CentroidBank(m, centroids.copy()), features[m].data)[1]
        normalized = cb.l2_normalize_rows(features[m].data)
        member_ent = dg.entropy_rows(model.classifier.forward(gc.Tensor(normalized)).data)
        assert report.cluster_ratios[m] == dg.cluster_ratio_diag(idx, preds, target.labels, 2)
        assert report.entropy_table[m] == dg.entropy_diag(centroids.copy(), model, member_ent,
                                                          idx)


@pytest.mark.parametrize("variant", ["can", "scan", "scanner"])
def test_seeded_bank_run_normalizes_no_rows_on_their_own(monkeypatch, variant):
    # the online steps and the final pass take each batch's unit rows from
    # the norms that its scoring takes, so a run whose banks are already
    # seeded never calls l2_normalize_rows; the final pass once called it on
    # each of its 5 chunks
    target = _tiny_target(n=70)
    models = [_fitted_model(target), _fitted_model(target)]
    seeded = []
    tt.run_stream(models[0], target, _cfg(batch_size=16), variant, seed=0, seeded=seeded)
    assert len(seeded) == len(MODALITIES)
    calls = []
    normalize = cb.l2_normalize_rows
    monkeypatch.setattr(cb, "l2_normalize_rows", lambda x: calls.append(x.shape) or normalize(x))
    tt.run_stream(models[1], target, _cfg(batch_size=16), variant, seed=0, seeded=seeded)
    assert calls == []


def test_bank_run_memory_does_not_grow_with_a_feature_stack():
    # a bank run keeps 3 x n cluster indices and member entropies for its
    # diagnostics, never the 3 x n x d_h features of the whole target: four
    # times the rows must raise the traced peak by less than one such stack
    d_h, n = 32, 512
    cfg = _cfg(batch_size=32)

    def traced_peak(target):
        model = SourceModel(ModelDims(d_in=4, d_h=d_h, n_classes=2), seed=1)
        model.set_input_stats(target.features)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tt.run_stream(model, target, cfg, "scanner", seed=0)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    small, large = _tiny_target(n=n), _tiny_target(n=4 * n)
    # a first run outside the comparison, so that one-time allocations of
    # the first call do not count in either peak
    traced_peak(_tiny_target(n=64))
    stack = len(MODALITIES) * 4 * n * d_h * np.dtype(np.float64).itemsize
    assert traced_peak(large) - traced_peak(small) < stack


@pytest.mark.parametrize("variant, passes", [
    ("source", 1), ("norm", 2), ("tent_em", 2), ("scanner", 2),
])
def test_only_source_skips_the_final_pass(monkeypatch, variant, passes):
    # source's final predictions are its online ones; every other variant
    # scores the stream once more after adapting
    calls = []
    head = SourceModel.head
    monkeypatch.setattr(SourceModel, "head",
                        lambda self, features: calls.append(1) or head(self, features))
    target = _tiny_target(n=70)
    model = _fitted_model(target)
    tt.run_stream(model, target, _cfg(batch_size=16), variant, seed=0)
    assert len(calls) == passes * 5   # ceil(70 / 16) batches per pass


@pytest.mark.parametrize("variant", ["source", "norm"])
def test_inference_variants_build_no_graph(made, variant):
    state = tt.init_adapt_state(tiny_model(), _cfg(), variant)
    tt.adapt_batch(state, tiny_batch(np.random.default_rng(0), n=8))
    assert made and not any(t._parents for t in made)


@pytest.mark.parametrize("variant", ["st", "tent_em", "can", "scan", "scanner"])
def test_gradient_runs_end_with_every_parameter_frozen(monkeypatch, made, variant):
    # each batch is a training step that builds a graph; the final pass runs
    # outside any step, so it builds no node with parents, and the finished
    # run leaves no parameter requiring a gradient
    ends, adapt_batch = [], tt.adapt_batch
    monkeypatch.setattr(tt, "adapt_batch", lambda state, batch: (
        adapt_batch(state, batch), ends.append(len(made)))[0])
    target = _tiny_target()
    model = _fitted_model(target)
    tt.run_stream(model, target, _cfg(batch_size=16), variant, seed=0)
    steps, final = made[:ends[-1]], made[ends[-1]:]
    assert len(ends) == 4 and any(t._parents for t in steps)
    assert final and not any(t._parents for t in final)
    assert not any(p.requires_grad for p in model.named_parameters().values())


@pytest.mark.parametrize("where, error", [("head", NumericError),
                                          ("_apply_step", DivergenceError)])
@pytest.mark.parametrize("variant", ["st", "tent_em", "can", "scan", "scanner"])
def test_a_run_that_raises_mid_stream_ends_with_every_parameter_frozen(
        monkeypatch, variant, where, error):
    # the third batch's step raises where such an error arises: a step
    # releases its flags also when it does not finish
    owner = SourceModel if where == "head" else tt
    real, calls = getattr(owner, where), []

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise error("raised at the third call")
        return real(*args)

    monkeypatch.setattr(owner, where, failing)
    target = _tiny_target()
    model = _fitted_model(target)
    with pytest.raises(error):
        tt.run_stream(model, target, _cfg(batch_size=16, st_confidence=0.51), variant, seed=0)
    assert len(calls) == 3
    assert not any(p.requires_grad for p in model.named_parameters().values())


def test_tent_em_loss_rows_log_em_as_the_total():
    report = _adapted_run(_tiny_target(), "tent_em")
    assert [set(row) for row in report.loss_trace] == [{"tau", "em", "total"}] * 4
    assert all(row["em"] == row["total"] > 0 for row in report.loss_trace)


def test_reused_model_adapts_again():
    target = _tiny_target()
    model = _fitted_model(target)
    tt.run_stream(model, target, _cfg(), "scanner", seed=0)
    before = {k: p.data.copy() for k, p in model.trainable_parameters().items()}
    tt.run_stream(model, target, _cfg(), "scanner", seed=0)
    assert any(np.any(p.data != before[k]) for k, p in model.trainable_parameters().items())


def _adapted_run(target, variant, seeded=None):
    model = _fitted_model(target)
    return tt.run_stream(model, target, _cfg(batch_size=16), variant, seed=3,
                         seeded=seeded)


def test_stored_bank_seeds_stay_those_of_a_fresh_seeding(monkeypatch):
    target = _tiny_target()
    states = []
    init = tt.init_adapt_state
    monkeypatch.setattr(tt, "init_adapt_state",
                        lambda *a, **kw: states.append(init(*a, **kw)) or states[-1])
    seeded = []
    _adapted_run(target, "can", seeded)
    assert states[0].seeded is seeded and len(seeded) == len(MODALITIES)
    model = _fitted_model(target)
    fresh = model.embed({m: target.features[m][:16] for m in MODALITIES}).data
    for i, (stored, own) in enumerate(zip(seeded, states[0].bank.centroids)):
        bank = cb.init_kmeanspp(fresh[i], 2, seed=3 * 101 + i)
        assert stored.tobytes() == bank.centroids.tobytes()
        # the run's own bank slice moved away from the stored centroids
        assert own.tobytes() != bank.centroids.tobytes()
    assert states[0].tau == 4   # ceil(64 / 16) batches, each of which updates the banks


def test_report_dict_equals_its_deep_copy():
    # k = 12 clusters: sort_keys orders the cluster keys as text, "10" before "2"
    report = tt.RunReport(variant="scanner", seed=3, online_accuracy=0.5,
                          final_macro_f1=0.25, loss_trace=[{"tau": 0, "total": 1.5}],
                          grad_norm_trace=[0.5], mean_entropy_trace=[0.1], skipped_steps=1,
                          collapse_gap=0.125)
    for m in MODALITIES:
        report.cluster_ratios[m] = {j: (j / 12, 1 - j / 12) for j in range(12)}
        report.entropy_table[m] = {j: (0.1 * j, 0.2 * j) for j in range(12)}
    reference = asdict(report)
    for name in ("cluster_ratios", "entropy_table"):
        reference[name] = {m: {str(j): v for j, v in t.items()}
                           for m, t in reference[name].items()}
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    assert text == json.dumps(reference, indent=2, sort_keys=True)
    assert text.index('"10"') < text.index('"2"')


def test_run_stream_rejects_empty_target():
    target = _tiny_target()
    empty = dg.SyntheticDataset(
        stack=target.stack[:, :0],
        labels=target.labels[:0], cores=target.cores[:0],
    )
    with pytest.raises(ContractError):
        tt.run_stream(tiny_model(), empty, _cfg(), "source")


@pytest.mark.parametrize("variant", ["norm", "tent_em", "scanner"])
def test_run_stream_batches_are_views_of_the_target_stack(monkeypatch, variant):
    # every online batch, every norm update and every final-pass chunk reads
    # a 3 x B x d_in slice of the target's one stack, never a copy of it
    target = _tiny_target(n=70)
    seen = {"adapt": [], "norm": [], "embed": []}
    adapt_batch, norm_update, embed = tt.adapt_batch, tt._norm_update, SourceModel.embed
    monkeypatch.setattr(tt, "adapt_batch",
                        lambda state, batch: seen["adapt"].append(batch)
                        or adapt_batch(state, batch))
    monkeypatch.setattr(tt, "_norm_update",
                        lambda model, batch, momentum: seen["norm"].append(batch)
                        or norm_update(model, batch, momentum))
    monkeypatch.setattr(SourceModel, "embed",
                        lambda self, batch: seen["embed"].append(batch) or embed(self, batch))
    model = _fitted_model(target)
    tt.run_stream(model, target, _cfg(batch_size=16), variant, seed=0)
    assert len(seen["adapt"]) == 5 and len(seen["embed"]) == 10
    assert len(seen["norm"]) == (5 if variant == "norm" else 0)
    for batch in (b for batches in seen.values() for b in batches):
        assert isinstance(batch, np.ndarray) and batch.base is target.stack
        assert batch.shape[0] == len(MODALITIES) and batch.shape[2] == target.stack.shape[2]
    sizes = [b.shape[1] for b in seen["adapt"]]
    assert sizes == [16, 16, 16, 16, 6]


@pytest.mark.parametrize("variant", [v.value for v in MethodVariant])
def test_adapt_batch_gives_the_same_bytes_on_a_stack_slice_and_a_dict(variant):
    target = _tiny_target(n=64)
    results, states = [], []
    for as_dict in (False, True):
        model = _fitted_model(target)
        state = tt.init_adapt_state(model, _cfg(batch_size=16), variant, seed=0, seeded=[])
        rows = []
        for start in range(0, 64, 16):
            batch = target.stack[:, start:start + 16]
            if as_dict:
                batch = {m: x.copy() for m, x in zip(MODALITIES, batch)}
            res = tt.adapt_batch(state, batch)
            rows.append((res.predictions.tobytes(), res.entropies.tobytes(),
                         repr(res.loss_row), repr(res.grad_norm), res.skipped))
        results.append(rows)
        states.append([p.tobytes() for p in _param_snapshot(model).values()]
                      + [x.tobytes() for x in _stats_snapshot(model)])
    assert results[0] == results[1]
    assert states[0] == states[1]


def test_labels_never_reach_adaptation():
    # adapt_batch accepts only feature batches; corrupting every label leaves
    # the adapted parameters bit-identical
    target = _tiny_target()
    flipped = dg.SyntheticDataset(
        stack=target.stack.copy(),
        labels=1 - target.labels, cores=target.cores,
    )
    params = []
    for ds in (target, flipped):
        model = _fitted_model(ds)
        tt.run_stream(model, ds, _cfg(batch_size=16), "scanner", seed=0)
        params.append(_param_snapshot(model))
    for k in params[0]:
        np.testing.assert_array_equal(params[0][k], params[1][k])


def test_adaptation_reduces_entropy_trace():
    target = _tiny_target(n=256)
    model = _fitted_model(target)
    report = tt.run_stream(model, target, _cfg(batch_size=32, lr=5e-2),
                           "tent_em", seed=0)
    assert report.mean_entropy_trace[-1] < report.mean_entropy_trace[0]


def test_nonfinite_loss_raises_divergence_with_its_tau():
    state = tt.init_adapt_state(tiny_model(), _cfg(), MethodVariant.TENT_EM)
    state.tau = 2

    class NanLoss:
        data = np.asarray(np.nan)

    res = tt.BatchResult(tau=2, predictions=np.zeros(1, dtype=np.int64),
                         entropies=np.zeros(1), loss_row={"em": np.nan}, grad_norm=0.0)
    with pytest.raises(DivergenceError) as info:
        tt._apply_step(state, NanLoss(), res)
    assert (str(info.value), info.value.tau) == ("non-finite loss at tau=2: {'em': nan}", 2)
    # a pool job pickles the error back to the parent, tau included
    back = pickle.loads(pickle.dumps(info.value))
    assert (str(back), back.tau) == (str(info.value), 2)


def test_nonfinite_grad_skips_step(monkeypatch):
    model = tiny_model()
    state = tt.init_adapt_state(model, _cfg(), MethodVariant.TENT_EM)
    before = _param_snapshot(model)

    class FakeLoss:
        data = np.asarray(0.5)

    def poisoned(loss):
        for p in model.trainable_parameters().values():
            p.grad = np.full_like(p.data, np.nan)

    # drive _apply_step directly with a poisoned gradient
    monkeypatch.setattr(tt.gc, "backward", poisoned)
    res = tt.BatchResult(tau=0, predictions=np.zeros(1, dtype=np.int64),
                         entropies=np.zeros(1), loss_row={}, grad_norm=0.0)
    tt._apply_step(state, FakeLoss(), res)
    assert res.skipped
    for k, v in _param_snapshot(model).items():
        np.testing.assert_array_equal(v, before[k])


@pytest.mark.parametrize("skip_at", [None, 1], ids=["steps", "skip1"])
@pytest.mark.parametrize("variant", [v.value for v in tt.GRAD_VARIANTS])
def test_each_backward_starts_from_clear_gradients(monkeypatch, variant, skip_at):
    # adapt_batch's gc.tracking is the one gradient reset: no trainable
    # parameter holds a gradient at any backward, also after a batch whose
    # NaN gradients skipped its step
    model = tiny_model()
    params = list(model.trainable_parameters().values())
    backward, clear = gc.backward, []

    def checked(loss):
        clear.append(all(p.grad is None for p in params))
        backward(loss)
        if len(clear) - 1 == skip_at:
            for p in params:
                p.grad = np.full_like(p.data, np.nan)

    monkeypatch.setattr(tt.gc, "backward", checked)
    report = tt.run_stream(model, _tiny_target(), _cfg(batch_size=16, st_confidence=0.51),
                           variant, seed=0)
    assert clear == [True] * 4
    assert report.skipped_steps == (skip_at is not None)


# graph nodes per adapt_batch: one encoder node over the modality stack, one
# attention and one classifier node, one max-cosine node over the stack, one
# node per loss over the stacks and one weighted total; scanner adds one
# classifier node over the stack and DIV's softmax, cluster-mean and plogp
# nodes. Losses that read per-modality slices of the stacks made these 5,
# 4, 12, 13 and 26; one encoder and one max-cosine node per modality 7, 6,
# 13, 14 and 26; op-by-op losses 80 for scanner, 55 scan, 38 can, 12 tent_em.
# With alpha = 0 DIV does not run, and scanner builds scan's graph (it built
# the unread classifier node too, 8)
CLUSTER_BATCH_NODE_BUDGET = {"st": 5, "tent_em": 4, "can": 7, "scan": 7, "scanner": 11,
                             "scanner-alpha0": 7}


@pytest.mark.parametrize("case", sorted(CLUSTER_BATCH_NODE_BUDGET))
def test_cluster_batch_graph_size(monkeypatch, made, case):
    # after the banks are seeded at tau=0, a k=5 batch with every cluster
    # filled; st keeps some pseudo-labels, so every variant takes a step.
    # The batch builds one Tensor per node and one for the standardized
    # input, and no Assignment: a leaf Tensor per logged term and an
    # Assignment per bank made can, scan and scanner build 11, 14 and 21
    tensors, assignments = [], []
    init, real = gc.Tensor.__init__, cb.Assignment
    monkeypatch.setattr(gc.Tensor, "__init__",
                        lambda self, *a, **kw: tensors.append(1) or init(self, *a, **kw))
    monkeypatch.setattr(cb, "Assignment", lambda **kw: assignments.append(kw) or real(**kw))
    variant, _, alpha = case.partition("-alpha")
    cfg = AdaptConfig(k=5, batch_size=32, st_confidence=0.51,
                      alpha=float(alpha) if alpha else AdaptConfig.alpha)
    state = tt.init_adapt_state(tiny_model(), cfg, variant)
    batch = tiny_batch(np.random.default_rng(0), n=32)
    tt.adapt_batch(state, batch)
    for counter in (made, tensors, assignments):
        counter.clear()
    res = tt.adapt_batch(state, batch)
    assert state.bank is None or state.bank.carried_forward == [[]] * len(MODALITIES)
    assert res.grad_norm > 0
    assert len(made) == CLUSTER_BATCH_NODE_BUDGET[case]
    assert (len(tensors), assignments) == (len(made) + 1, [])


@pytest.mark.parametrize("variant", ["can", "scan", "scanner"])
def test_bank_batch_computes_its_norms_and_counts_once(monkeypatch, variant):
    # after the banks are seeded at tau=0, a bank batch takes its feature
    # row norms once for scoring and tracking, counts its clusters with one
    # bincount for tracking and DIV, and stacks no centroids
    state = tt.init_adapt_state(tiny_model(), _cfg(k=3), variant)
    batch = np.stack(list(tiny_batch(np.random.default_rng(0), n=16).values()))
    tt.adapt_batch(state, batch)
    normed, counted, stacked = [], [], []
    norm, bincount, stack = np.linalg.norm, np.bincount, np.stack
    monkeypatch.setattr(np.linalg, "norm",
                        lambda x, *a, **kw: normed.append(x.shape) or norm(x, *a, **kw))
    monkeypatch.setattr(np, "bincount", lambda x, weights=None, minlength=0: (
        counted.append(weights is None) or bincount(x, weights, minlength)))
    monkeypatch.setattr(np, "stack", lambda *a, **kw: stacked.append(1) or stack(*a, **kw))
    tt.adapt_batch(state, batch)
    # the other norm is the centroids', inside the max-cosine node
    assert sorted(normed) == [(3, 3, 6), (3, 16, 6)]
    # one counts bincount; the weighted ones are tracking's sums and DIV's
    assert counted == [True, False] + [False] * (variant == "scanner")
    assert stacked == []


def test_grad_norm_sums_the_per_modality_slices_in_name_order(rng):
    # the trace keeps the bits of a sum over the 12 per-modality tensors, in
    # checkpoint-name order; magnitudes 1e-8 to 1e8 make the order matter
    model = tiny_model()
    params = model.trainable_parameters()
    for p in params.values():
        p.grad = rng.normal(0, 1, p.data.shape) * 10.0 ** rng.integers(-8, 9, p.data.shape)
    per_modality = {f"enc.{m}.{name}": params[f"enc.{name}"].grad[i].copy()
                    for i, m in enumerate(MODALITIES) for name in ModalityEncoder.NAMES}
    assert list(per_modality) == [k for k in model.state_arrays() if k.startswith("enc.")]
    total = 0.0
    for g in per_modality.values():
        total += float((g**2).sum())
    assert np.float64(tt._grad_norm(model)).tobytes() == np.float64(np.sqrt(total)).tobytes()
    # summing whole stacks instead gives other bits
    stacked = 0.0
    for p in params.values():
        stacked += float((p.grad**2).sum())
    assert np.sqrt(stacked) != tt._grad_norm(model)


@pytest.mark.parametrize("without", [(), ("bias",), ("weight", "norm_bias")])
def test_grad_norm_reduces_each_parameter_once_with_the_slice_sums_bits(without):
    # one squared sum per parameter over its (3, -1) view; each row's sum has
    # the bits of its slice summed alone, so the total is bit for bit the
    # slice-by-slice sum in checkpoint order. A weight slice's 12 x 32 = 384
    # entries take numpy's blocked pairwise summation; a parameter with no
    # gradient adds nothing
    model = SourceModel(ModelDims(d_in=12, d_h=32, n_classes=2), seed=0)
    enc = model.encoder
    rng = np.random.default_rng(1)
    for name in ModalityEncoder.NAMES:
        p = getattr(enc, name)
        p.grad = (None if name in without else
                  rng.normal(0, 1, p.data.shape) * 10.0 ** rng.integers(-8, 9, p.data.shape))
    total = 0.0
    for i in range(len(MODALITIES)):
        for name in ModalityEncoder.NAMES:
            g = getattr(enc, name).grad
            if g is not None:
                total += float((g[i] ** 2).sum())
    assert np.float64(tt._grad_norm(model)).tobytes() == np.float64(np.sqrt(total)).tobytes()


@pytest.mark.parametrize("variant", ["source", "st", "tent_em", "scanner"])
def test_each_batch_computes_its_fused_softmax_once(monkeypatch, variant):
    # the logged entropies, st's pseudo-labels and the em loss share one
    # softmax of the B x 2 fused logits; the other softmaxes (attention,
    # adaptive weights, DIV) have other shapes
    softmax_array, fused = gc.softmax_array, []

    def counting(x, beta=1.0):
        fused.append(x.shape == (8, 2))
        return softmax_array(x, beta)

    monkeypatch.setattr(gc, "softmax_array", counting)
    monkeypatch.setattr(dg, "softmax_array", counting)
    state = tt.init_adapt_state(tiny_model(), _cfg(k=2, st_confidence=0.51), variant)
    rng = np.random.default_rng(3)
    for _ in range(2):
        res = tt.adapt_batch(state, tiny_batch(rng, n=8))
        assert sum(fused) == 1
        fused.clear()
    assert res.entropies.shape == (8,)
