"""Correctness checks on what a benchmarked command wrote.

The fused prediction of a checkpoint is recomputed here in plain numpy,
without driftadapt's autodiff core, and compared with the accuracy and
macro-F1 the program reports. Reports must also be internally consistent,
every loss and gradient norm finite, and repeated runs byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from driftadapt import checkpoint, harness
from driftadapt.model import MODALITIES

# constants of the model's forward pass (model.STATS_EPS, layernorm eps, GELU)
STATS_EPS = 1e-6
LAYERNORM_EPS = 1e-5
GELU_C = math.sqrt(2.0 / math.pi)
# share of the source domain pretrain_source holds out (its default)
HOLDOUT_FRAC = 0.2
# logit margins below this may round either way between two implementations
TIE_MARGIN = 1e-9


class CheckFailed(Exception):
    """An output of the benchmarked program is wrong."""


def reference_logits(arrays: dict, features: dict, stats: dict = None) -> np.ndarray:
    """Fused logits of a checkpoint; ``stats`` overrides its input statistics."""
    d_h = int(arrays["dims"][1])
    tokens = []
    for m in MODALITIES:
        mean, var = stats[m] if stats else (arrays[f"stats.{m}.mean"], arrays[f"stats.{m}.var"])
        x = (np.asarray(features[m]) - mean) / np.sqrt(var + STATS_EPS)
        h = x @ arrays[f"enc.{m}.weight"] + arrays[f"enc.{m}.bias"]
        h = (h - h.mean(axis=1, keepdims=True)) / np.sqrt(h.var(axis=1, keepdims=True) + LAYERNORM_EPS)
        h = arrays[f"enc.{m}.norm_gain"] * h + arrays[f"enc.{m}.norm_bias"]
        tokens.append(0.5 * h * (1.0 + np.tanh(GELU_C * (h + 0.044715 * h * h * h))))
    t = np.stack(tokens, axis=1)                          # B x 3 x d_h
    q, k, v = (t @ arrays[f"fusion.{w}"] for w in ("wq", "wk", "wv"))
    scores = np.einsum("bid,bjd->bij", q, k) / np.sqrt(d_h)
    attn = np.exp(scores - scores.max(axis=2, keepdims=True))
    attn /= attn.sum(axis=2, keepdims=True)
    pooled = np.einsum("bij,bjd->bd", attn, v) / len(MODALITIES)
    return pooled @ arrays["clf.weight"] + arrays["clf.bias"]


def _scores(logits: np.ndarray, labels: np.ndarray, n_classes: int):
    """(accuracy, macro-F1, tolerance) from an independent confusion count.

    The tolerance covers samples whose top two logits nearly tie, since
    another summation order may predict the other class for them.
    """
    preds = logits.argmax(axis=1)
    top2 = np.sort(logits, axis=1)[:, -2:]
    near_ties = int(np.sum(top2[:, 1] - top2[:, 0] < TIE_MARGIN))
    f1s = []
    for c in range(n_classes):
        tp = np.sum((preds == c) & (labels == c))
        wrong = np.sum((preds == c) != (labels == c))
        f1s.append(2.0 * tp / (2.0 * tp + wrong) if tp + wrong else 0.0)
    tol = 1e-12 + 4.0 * near_ties / len(labels)
    return float(np.mean(preds == labels)), float(np.mean(f1s)), tol


def _expect_close(what: str, got: float, want: float, tol: float):
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{what}: program reports {got!r}, reference gives {want!r}")


def _expect_finite(what: str, values):
    for v in values:
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise CheckFailed(f"{what} has a non-finite entry {v!r}")


def check_pretrain(out_dir, cfg) -> tuple:
    """Checks pretrain_summary.json and the checkpoints against a reference
    forward pass on each seed's holdout split.

    Returns (mean holdout accuracy, mean holdout macro-F1) over the seeds.
    """
    out = Path(out_dir)
    summary = json.loads((out / "pretrain_summary.json").read_text())
    if sorted(summary["seeds"]) != sorted(str(s) for s in cfg.seeds):
        raise CheckFailed(f"summary seeds {sorted(summary['seeds'])} != {cfg.seeds}")
    accs, f1s = [], []
    for seed in sorted(cfg.seeds):
        row = summary["seeds"][str(seed)]
        _expect_finite(f"seed {seed} final_loss", [row["final_loss"]])
        arrays = checkpoint.load(harness.checkpoint_path(out, seed))
        source, _ = harness.build_domains(cfg, seed)
        n = len(source)
        n_train = n - int(round(n * HOLDOUT_FRAC))
        for m in MODALITIES:
            x = source.features[m][:n_train]
            if not (np.allclose(arrays[f"stats.{m}.mean"], x.mean(axis=0), rtol=1e-10, atol=1e-12)
                    and np.allclose(arrays[f"stats.{m}.var"], x.var(axis=0), rtol=1e-10, atol=1e-12)):
                raise CheckFailed(f"seed {seed}: input statistics of {m} are not the training split's")
        hold = slice(n_train, n)
        logits = reference_logits(arrays, {m: source.features[m][hold] for m in MODALITIES})
        acc, f1, tol = _scores(logits, source.labels[hold], cfg.n_classes)
        _expect_close(f"seed {seed} holdout accuracy", row["holdout_accuracy"], acc, tol)
        accs.append(row["holdout_accuracy"])
        f1s.append(f1)
    return float(np.mean(accs)), float(np.mean(f1s))


def _entropy(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.maximum(np.exp(z) / np.exp(z).sum(axis=1, keepdims=True), 1e-12)
    return -(p * np.log(p)).sum(axis=1)


def _online_pass(arrays: dict, features: dict, batch_size: int, momentum: float):
    """Replays an online pass of a model whose only change is the Norm
    baseline's EMA of the input statistics (``momentum`` 0: the frozen source
    model). Returns the mean prediction entropy of every batch, predicted
    before its update, and the statistics after the last batch."""
    stats = {m: (arrays[f"stats.{m}.mean"], arrays[f"stats.{m}.var"]) for m in MODALITIES}
    entropies = []
    for start in range(0, len(features[MODALITIES[0]]), batch_size):
        batch = {m: np.asarray(features[m][start:start + batch_size]) for m in MODALITIES}
        entropies.append(float(_entropy(reference_logits(arrays, batch, stats)).mean()))
        if momentum:
            stats = {m: ((1 - momentum) * mean + momentum * batch[m].mean(axis=0),
                         (1 - momentum) * var + momentum * batch[m].var(axis=0))
                     for m, (mean, var) in stats.items()}
    return entropies, stats


def check_adapt(out_dir, cfg, ckpt_dir) -> float:
    """Checks report.json, metrics.csv and diagnostics/ of one cmd_adapt run.

    The per-batch mean entropies and final metrics of ``source`` and ``norm``
    runs are recomputed from the checkpoint. Returns the mean final macro-F1
    over all runs.
    """
    out = Path(out_dir)
    doc = json.loads((out / "report.json").read_text())
    runs = {(r["variant"], r["seed"]): r for r in doc["runs"]}
    expected = {(v, s) for v in cfg.variants for s in cfg.seeds}
    if set(runs) != expected or len(doc["runs"]) != len(expected):
        raise CheckFailed(f"report runs {sorted(runs)} != {sorted(expected)}")
    n_batches = math.ceil(cfg.benchmark.n_target / cfg.adapt.batch_size)
    targets = {}
    for (variant, seed), r in sorted(runs.items()):
        what = f"{variant} seed {seed}"
        for key in ("loss_trace", "grad_norm_trace", "mean_entropy_trace"):
            if len(r[key]) != n_batches:
                raise CheckFailed(f"{what}: {key} has {len(r[key])} rows, expected {n_batches}")
        for row in r["loss_trace"]:
            _expect_finite(f"{what} loss_trace", [v for k, v in row.items() if k != "tau"])
        _expect_finite(f"{what} grad_norm_trace", r["grad_norm_trace"])
        for key in ("online_accuracy", "online_macro_f1", "final_accuracy", "final_macro_f1"):
            if not 0.0 <= r[key] <= 1.0:
                raise CheckFailed(f"{what}: {key} {r[key]!r} outside [0, 1]")
        if not (out / "diagnostics" / f"{variant}_seed{seed}.csv").is_file():
            raise CheckFailed(f"{what}: diagnostics file missing")
        if variant not in ("source", "norm"):
            continue
        if seed not in targets:
            targets[seed] = harness.build_domains(cfg, seed)[1]
        target = targets[seed]
        arrays = checkpoint.load(harness.checkpoint_path(ckpt_dir, seed))
        momentum = cfg.adapt.norm_momentum if variant == "norm" else 0.0
        entropies, stats = _online_pass(arrays, target.features, cfg.adapt.batch_size, momentum)
        for tau, (got, want) in enumerate(zip(r["mean_entropy_trace"], entropies)):
            _expect_close(f"{what} mean entropy of batch {tau}", got, want, 1e-9)
        acc, f1, tol = _scores(reference_logits(arrays, target.features, stats),
                               target.labels, cfg.n_classes)
        _expect_close(f"{what} final accuracy", r["final_accuracy"], acc, tol)
        _expect_close(f"{what} final macro-F1", r["final_macro_f1"], f1, tol)
        if variant == "source":
            _expect_close(f"{what}: online vs final accuracy of a frozen model",
                          r["online_accuracy"], r["final_accuracy"], tol)

    for variant in cfg.variants:
        values = [runs[(variant, s)]["final_macro_f1"] for s in sorted(cfg.seeds)]
        _expect_close(f"{variant} aggregate final macro-F1 mean",
                      doc["aggregate"][variant]["final_macro_f1"]["mean"],
                      float(np.mean(values)), 1e-12)
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != 1 + len(runs) + len(cfg.variants):
        raise CheckFailed(f"metrics.csv has {len(rows)} rows")
    return float(np.mean([r["final_macro_f1"] for _, r in sorted(runs.items())]))


def check_same_files(reference_dir, other_dir):
    """Every file under ``other_dir`` is byte-identical to the reference."""
    ref, other = Path(reference_dir), Path(other_dir)
    ref_files = sorted(p.relative_to(ref) for p in ref.rglob("*") if p.is_file())
    other_files = sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file())
    if ref_files != other_files:
        raise CheckFailed(f"{other} holds other files than {ref}")
    for rel in ref_files:
        if (ref / rel).read_bytes() != (other / rel).read_bytes():
            raise CheckFailed(f"{rel} differs between repetitions")
