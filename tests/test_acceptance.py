"""Acceptance gate: nine pass/fail checks covering gradient correctness,
loss bounds, clustering optimality, momentum contraction, metric oracles,
benchmark ordering, collapse repair, gradient stability, and hygiene.

Each test prints one PASS/FAIL line. The two benchmark presets run once per
session through the real harness (pretrain + adapt) and are shared across
the ordering, collapse, and stability checks.
"""

import inspect
import time

import numpy as np
import pytest

from driftadapt import centroids as cbk
from driftadapt import driftgen as dg
from driftadapt import gradcore as gc
from driftadapt import harness, objectives as obj, ttaloop
from driftadapt.config import (
    AdaptConfig,
    ExperimentConfig,
    preset_benchmark,
)
from driftadapt.gradcore import Tensor
from driftadapt.model import MODALITIES, ModelDims, SourceModel
from driftadapt.objectives import MethodVariant


def _report(name, ok, detail=""):
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- 1. gradient oracle ----------------------------------------------------


def test_criterion_1_gradient_oracle():
    t0 = time.time()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model = SourceModel(ModelDims(d_in=4, d_h=6, n_classes=2), seed=seed)
        batch = {m: rng.normal(0, 1, (12, 4)) for m in MODALITIES}
        feats = model.encode(batch)
        banks = {
            m: cbk.init_kmeanspp(feats[m].detach(), k=2, seed=seed, modality=m)
            for m in MODALITIES
        }
        params = list(model.trainable_parameters().values())

        def forward():
            features, modality_logits, fused_logits = model.forward_full(batch)
            sims, assigns = {}, {}
            for m in MODALITIES:
                s, idx = cbk.max_similarity(banks[m], features[m])
                sims[m] = s
                assigns[m] = cbk.Assignment(indices=idx, similarities=s.data.copy())
            return sims, modality_logits, fused_logits, assigns

        def can_fn():
            sims, _, _, _ = forward()
            return obj.can_loss(sims)[0]

        def scan_fn():
            sims, _, _, _ = forward()
            return obj.scan_loss(sims, beta=3.0)[0]

        def div_fn():
            _, logits, _, assigns = forward()
            avg = {m: obj.cluster_avg_probs(logits[m], assigns[m].indices, 2)
                   for m in MODALITIES}
            return obj.div_loss(avg, 2)[0]

        def em_fn():
            _, _, fused, _ = forward()
            return obj.em_loss(fused)

        def total_fn():
            sims, logits, fused, assigns = forward()
            return obj.total_loss(sims, logits, fused, assigns, 2,
                                  MethodVariant.SCANNER, eps_w=0.1, lam=2.0,
                                  alpha=0.3, beta=3.0).total

        for fn in (can_fn, scan_fn, div_fn, em_fn, total_fn):
            worst = max(worst, gc.finite_diff_params(fn, params))

    elapsed = time.time() - t0
    _report(
        "criterion 1 (gradient oracle)",
        worst < 1e-4 and elapsed < 120,
        f"max relative error {worst:.3g} over 10 seeds x 5 losses in {elapsed:.1f}s",
    )


# -- 2. loss bounds --------------------------------------------------------


def test_criterion_2_loss_bounds():
    rng = np.random.default_rng(0)
    ok = True
    detail = ""
    for trial in range(10_000):
        n = int(rng.integers(1, 16))
        s = rng.uniform(-1, 1, n)
        beta = float(rng.uniform(0, 20))
        st = Tensor(s)
        can = obj.can_loss({"v": st})[0].item()
        scan = obj.scan_loss({"v": st}, beta)[0].item()
        w = obj.adaptive_weights(st, beta).data
        if not (0.0 <= can <= 2.0):
            ok, detail = False, f"can term {can} outside [0, 2]"
            break
        lo, hi = 1.0 - s.max(), 1.0 - s.mean()
        if not (lo - 1e-9 <= scan <= hi + 1e-9):
            ok, detail = False, f"scan term {scan} outside [{lo}, {hi}]"
            break
        if scan > can + 1e-9:
            ok, detail = False, "scan exceeded can"
            break
        if np.ptp(s) < 1e-15 and abs(scan - can) > 1e-9:
            ok, detail = False, "equality violated for equal similarities"
            break
        if not (np.all(w > 0) and abs(w.sum() - 1.0) <= 1e-12):
            ok, detail = False, "adaptive weights not a distribution"
            break
        if trial % 10 == 0:
            logits = Tensor(rng.normal(0, 3, (n, 2)))
            em = obj.em_loss(logits).item()
            if not (0.0 <= em <= np.log(2.0) + 1e-12):
                ok, detail = False, f"em term {em} outside [0, ln 2]"
                break
            avg = {
                m: {j: gc.softmax(Tensor(rng.normal(0, 3, 2))) for j in range(2)}
                for m in MODALITIES
            }
            div = obj.div_loss(avg, 2)[0].item()
            if not (-3 * np.log(2.0) - 1e-12 <= div <= 1e-12):
                ok, detail = False, f"div total {div} outside [-3 ln 2, 0]"
                break
    _report("criterion 2 (loss bounds)", ok,
            detail or "10000 random inputs within bounds")


# -- 3. clustering oracle --------------------------------------------------


def test_criterion_3_clustering_oracle():
    rng = np.random.default_rng(0)
    worst_gap = 0.0
    monotone = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        x = cbk.l2_normalize_rows(rng.normal(0, 1, (n, 3)))
        best = np.inf
        for bits in range(1, 2**n - 1):
            mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
            c = np.stack([x[mask].mean(axis=0), x[~mask].mean(axis=0)])
            best = min(best, cbk._sse(x, c)[1])
        found = np.inf
        for s in range(10):
            bank = cbk.init_kmeanspp(x, k=2, seed=s)
            sses = []
            b = cbk.CentroidBank("v", bank.centroids.copy())
            for _ in range(5):
                b, sse = cbk.lloyd_iterate(b, x, _normalized=True)
                sses.append(sse)
            monotone &= all(v <= u + 1e-12 for u, v in zip(sses, sses[1:]))
            found = min(found, cbk._sse(x, bank.centroids)[1])
        worst_gap = max(worst_gap, found - best)
    _report("criterion 3 (clustering oracle)",
            worst_gap <= 1e-9 and monotone,
            f"worst SSE gap to brute force {worst_gap:.3g}, monotone={monotone}")


# -- 4. momentum contract --------------------------------------------------


def test_criterion_4_momentum_contract():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(50):
        c0 = rng.normal(0, 1, (3, 4))
        b = rng.normal(0, 1, (3, 4))
        bank = cbk.CentroidBank("v", c0.copy(), momentum=0.9)
        for t in range(1, 11):
            cbk.momentum_update(bank, b)
            got = np.linalg.norm(bank.centroids - b)
            want = 0.9**t * np.linalg.norm(c0 - b)
            worst = max(worst, abs(got - want))
    _report("criterion 4 (momentum contract)", worst <= 1e-9,
            f"max deviation from geometric contraction {worst:.3g}")


# -- 5. metric oracles -----------------------------------------------------


def _f1_oracle(preds, labels):
    cm = np.zeros((2, 2), dtype=int)
    for p, y in zip(preds, labels):
        cm[y, p] += 1
    f1s = []
    for c in range(2):
        tp = cm[c, c]
        prec = tp / cm[:, c].sum() if cm[:, c].sum() else 0.0
        rec = tp / cm[c, :].sum() if cm[c, :].sum() else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return float(np.mean(f1s))


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        worst = max(worst, abs(dg.macro_f1(preds, labels) - _f1_oracle(preds, labels)))
        worst = max(worst, abs(dg.accuracy(preds, labels)
                               - float(np.mean(preds == labels))))
    # all-one-class predictions on balanced binary labels: 1/3 exactly
    balanced = np.array([0, 1] * 50)
    one_class = dg.macro_f1(np.zeros(100, dtype=int), balanced)
    _report("criterion 5 (metric oracles)",
            worst == 0.0 and one_class == pytest.approx(1 / 3, abs=1e-12),
            f"max oracle deviation {worst}, one-class case {one_class:.6f}")


# -- benchmark fixtures ----------------------------------------------------


@pytest.fixture(scope="session")
def severe_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("severe")
    cfg = ExperimentConfig(
        benchmark=preset_benchmark("severe"),
        adapt=AdaptConfig(),
        variants=["source", "tent_em", "can", "scan", "scanner"],
        seeds=[0, 1, 2, 3, 4],
        workers=4,
    )
    harness.cmd_pretrain(cfg, out)
    return harness.cmd_adapt(cfg, out, out)


@pytest.fixture(scope="session")
def collapse_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("collapse")
    cfg = ExperimentConfig(
        benchmark=preset_benchmark("collapse"),
        adapt=AdaptConfig(),
        variants=["scan", "scanner"],
        seeds=[0, 1, 2, 3, 4],
        workers=4,
    )
    harness.cmd_pretrain(cfg, out)
    return harness.cmd_adapt(cfg, out, out)


def _mean_f1(doc, variant):
    return doc["aggregate"][variant]["final_macro_f1"]["mean"]


# -- 6. benchmark ordering -------------------------------------------------


def test_criterion_6_benchmark_ordering(severe_doc):
    f1 = {v: 100.0 * _mean_f1(severe_doc, v)
          for v in ("source", "tent_em", "can", "scan", "scanner")}
    gains_ok = (f1["scanner"] >= f1["tent_em"] + 1.0
                and f1["scanner"] >= f1["source"] + 2.0)
    ablation_ok = (f1["scanner"] >= f1["scan"] - 0.5
                   and f1["scan"] >= f1["can"] - 0.5
                   and f1["can"] >= f1["source"] - 0.5)
    detail = ", ".join(f"{v}={f1[v]:.2f}" for v in f1)
    _report("criterion 6 (benchmark ordering)", gains_ok and ablation_ok, detail)


# -- 7. collapse repair ----------------------------------------------------


def test_criterion_7_collapse_repair(collapse_doc):
    gaps = {}
    for run in collapse_doc["runs"]:
        gaps.setdefault(run["variant"], {})[run["seed"]] = run["collapse_gap"]
    wins = sum(
        gaps["scanner"][s] < gaps["scan"][s] for s in sorted(gaps["scanner"])
    )
    _report("criterion 7 (collapse repair)", wins >= 4,
            f"scanner beats scan on cluster-ratio gap in {wins}/5 seeds")


# -- 8. gradient stability -------------------------------------------------


def test_criterion_8_gradient_stability(severe_doc):
    traces = {}
    for run in severe_doc["runs"]:
        traces.setdefault(run["variant"], {})[run["seed"]] = run["grad_norm_trace"]
    ratios = []
    for s in sorted(traces["scan"]):
        ratios.append(max(traces["scan"][s]) / max(traces["can"][s]))
    stable = sum(r <= 0.5 for r in ratios)
    finite = all(
        np.isfinite(t).all()
        for v in ("scan", "scanner")
        for t in traces[v].values()
    )
    _report("criterion 8 (gradient stability)",
            stable >= 4 and finite,
            f"max-grad ratios {[round(r, 3) for r in ratios]}, "
            f"{stable}/5 seeds <= 0.5, finite={finite}")


# -- 9. determinism & hygiene ----------------------------------------------


def test_criterion_9_determinism_and_hygiene(tmp_path):
    from conftest import tiny_experiment

    cfg = tiny_experiment(tmp_path)
    cfg.variants = ["source", "tent_em", "scanner"]
    harness.cmd_pretrain(cfg, tmp_path)

    # byte-identical reports for identical config + seed
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    harness.cmd_adapt(cfg, tmp_path, out_a)
    harness.cmd_adapt(cfg, tmp_path, out_b)
    identical = ((out_a / "report.json").read_bytes()
                 == (out_b / "report.json").read_bytes())

    # frozen parameters untouched by a full adaptation run
    model = harness.load_compatible(harness.checkpoint_path(tmp_path, 0), cfg)
    frozen_before = {k: p.data.copy() for k, p in model.frozen_parameters().items()}
    _, target = harness.build_domains(cfg, 0)
    ttaloop.run_stream(model, target, cfg.adapt, "scanner", seed=0)
    frozen_ok = all(
        np.array_equal(p.data, frozen_before[k])
        for k, p in model.frozen_parameters().items()
    )

    # interface audit: no adaptation entry point accepts label arguments
    audited = [
        ttaloop.adapt_batch, ttaloop.init_adapt_state, ttaloop._apply_step,
        ttaloop._cluster_step, ttaloop._st_step, ttaloop._norm_update,
        obj.total_loss, obj.can_loss, obj.scan_loss, obj.em_loss,
        cbk.max_similarity, cbk.momentum_update, cbk.batch_means,
        cbk.init_kmeanspp,
    ]
    leaky = [
        f"{fn.__module__}.{fn.__name__}"
        for fn in audited
        for name in inspect.signature(fn).parameters
        if "label" in name.lower() or name.lower() in ("y", "target_y", "gt")
    ]
    _report(
        "criterion 9 (determinism & hygiene)",
        identical and frozen_ok and not leaky,
        f"byte-identical={identical}, frozen-untouched={frozen_ok}, "
        f"label-free-interfaces={'yes' if not leaky else leaky}",
    )
