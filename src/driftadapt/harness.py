"""Experiment orchestration: pretrain -> adapt -> evaluate across variants
and seeds, with reproducible file outputs.

Per seed, a core spec and a source/target domain pair are derived from the
benchmark config, a source model is pretrained on the source domain, and
every requested variant adapts a fresh copy of that model on the same
target stream.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__, driftgen
from .config import ExperimentConfig
from .errors import DriftAdaptError, error_code
from .model import MODALITIES, ModelDims, SourceModel, pretrain_source
from .ttaloop import METRICS, RunReport, run_stream

PRETRAIN_SEED_OFFSET = 7000


def _data_seeds(seed: int):
    """(core spec seed, domain seed, source data seed, target data seed)."""
    return 1000 + seed, 2000 + seed, 3000 + seed, 4000 + seed


def build_domain(cfg: ExperimentConfig, seed: int, role: str):
    """The "source" or the "target" domain of a seed alone.

    Each domain draws its rows from its own data seed, so they equal the
    rows build_domains returns for both domains at once.
    """
    i = ("source", "target").index(role)
    core_seed, dom_seed, *data_seeds = _data_seeds(seed)
    cores = driftgen.make_core_spec(cfg.benchmark, core_seed)
    domain = driftgen.make_domain_pair(cfg.benchmark, dom_seed)[i]
    n = (cfg.benchmark.n_source, cfg.benchmark.n_target)[i]
    return driftgen.generate_domain(cores, domain, n, data_seeds[i])


def build_domains(cfg: ExperimentConfig, seed: int):
    return build_domain(cfg, seed, "source"), build_domain(cfg, seed, "target")


def checkpoint_path(out_dir, seed: int) -> Path:
    return Path(out_dir) / f"pretrain_seed{seed}.ckpt"


def model_dims(cfg: ExperimentConfig) -> ModelDims:
    """The dims of the source model that ``cfg`` pretrains and adapts."""
    return ModelDims(cfg.benchmark.d_in, cfg.d_h, cfg.n_classes)


def cmd_pretrain(cfg: ExperimentConfig, out_dir) -> dict:
    """Pretrain one source model per seed; writes checkpoints + summary.
    Of the ``adapt`` block, only ``batch_size`` reaches a checkpoint."""
    cfg.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"version": __version__, "config": cfg.recorded(), "seeds": {}}
    for seed in cfg.seeds:
        source = build_domain(cfg, seed, "source")
        model = SourceModel(model_dims(cfg), seed=seed)
        result = pretrain_source(model, source.stack, source.labels,
                                 epochs=cfg.pretrain_epochs, batch_size=cfg.adapt.batch_size,
                                 seed=PRETRAIN_SEED_OFFSET + seed)
        model.save(checkpoint_path(out, seed))
        summary["seeds"][str(seed)] = {
            "holdout_accuracy": result.holdout_accuracy,
            "final_loss": result.losses[-1] if result.losses else None,
        }
    (out / "pretrain_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True)
    )
    return summary


def load_compatible(ckpt_path, cfg: ExperimentConfig) -> SourceModel:
    return SourceModel.load(ckpt_path, model_dims(cfg))


def run_seed(cfg: ExperimentConfig, ckpt_dir, seed: int) -> list:
    """The adapt job of one seed: per variant of ``cfg``, in config order, the
    RunReport of a run on a fresh model from the seed's checkpoint in
    ``ckpt_dir``, or the error it raised; a target that cannot be built fails
    every run. The bank runs share one ``seeded`` list, so they seed once."""
    try:
        target = build_domain(cfg, seed, "target")
    except DriftAdaptError as exc:
        return [exc] * len(cfg.variants)
    seeded, outcomes = [], []
    for variant in cfg.variants:
        try:
            outcomes.append(run_stream(load_compatible(checkpoint_path(ckpt_dir, seed), cfg),
                                       target, cfg.adapt, variant, seed=seed, seeded=seeded))
        except (DriftAdaptError, OSError) as exc:
            outcomes.append(exc)
    return outcomes


def _failure(variant: str, seed: int, exc: Exception) -> dict:
    """A ``failed_runs`` entry, with the CLI's code of the error."""
    entry = {"variant": variant, "seed": seed, "code": error_code(exc), "message": str(exc)}
    if getattr(exc, "tau", None) is not None:   # the batch it raised at
        entry["tau"] = exc.tau
    return entry


def cmd_adapt(cfg: ExperimentConfig, ckpt_dir, out_dir) -> dict:
    """Run every (variant, seed) pair; writes reports, metrics, diagnostics.

    Each seed is one ``run_seed`` job, ``workers`` of them, but no more than
    the seeds, in parallel processes; one job runs in this process. The
    outputs list the runs variant by variant whatever ``workers`` is.
    A run that raises a DriftAdaptError or an OSError fails alone:
    ``report.json`` lists it under ``failed_runs`` (variant, seed, error code,
    message and, for a divergence or numeric failure, its batch's ``tau``),
    and every other run's files are written as if it had not run. Without a
    failure there is no ``failed_runs`` key.
    """
    cfg.validate()
    out = Path(out_dir)
    (out / "diagnostics").mkdir(parents=True, exist_ok=True)
    jobs = (repeat(cfg), repeat(ckpt_dir), cfg.seeds)
    # a forked pool starts all of its processes at the first job
    workers = min(cfg.workers, len(cfg.seeds))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            by_seed = list(pool.map(run_seed, *jobs))
    else:
        by_seed = list(map(run_seed, *jobs))
    # variant-major, the order of the runs in every output
    runs = [(variant, seed, outcomes[i]) for i, variant in enumerate(cfg.variants)
            for seed, outcomes in zip(cfg.seeds, by_seed)]
    reports = [r for *_, r in runs if isinstance(r, RunReport)]
    failed = [_failure(*run) for run in runs if not isinstance(run[2], RunReport)]

    report_doc = {
        "version": __version__,
        "config": cfg.recorded(),
        "runs": [r.to_dict() for r in reports],
        "aggregate": aggregate(reports),
    }
    if failed:
        report_doc["failed_runs"] = failed
    (out / "report.json").write_text(json.dumps(report_doc, indent=2, sort_keys=True))
    write_metrics_csv(out / "metrics.csv", reports, report_doc["aggregate"])
    for r in reports:
        write_diagnostics_csv(out / "diagnostics" / f"{r.variant}_seed{r.seed}.csv", r)
    return report_doc


def aggregate(reports) -> dict:
    """Mean and std per variant, recomputable from the per-seed rows."""
    out = {}
    by_variant = {}
    for r in reports:
        by_variant.setdefault(r.variant, []).append(r)
    for variant, rs in by_variant.items():
        out[variant] = {}
        for metric in METRICS:
            vals = np.asarray([getattr(r, metric) for r in rs])
            out[variant][metric] = {"mean": float(vals.mean()), "std": float(vals.std())}
    return out


def write_metrics_csv(path, reports, agg: dict):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["variant", "seed", *METRICS, "skipped_steps"])
        for r in reports:
            w.writerow([r.variant, r.seed, *(f"{getattr(r, m):.6f}" for m in METRICS),
                        r.skipped_steps])
        for variant, metrics in agg.items():
            w.writerow([variant, "mean", *(f"{metrics[m]['mean']:.6f}" for m in METRICS), ""])


def write_diagnostics_csv(path, report: RunReport):
    loss_keys = sorted({k for row in report.loss_trace for k in row if k != "tau"})
    # final-pass ratios, repeated on every row for easy plotting
    ratios = {f"pred_pos_ratio_{m}_{j}": f"{report.cluster_ratios[m][j][0]:.6f}"
              for m in MODALITIES for j in sorted(report.cluster_ratios.get(m, {}))}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tau", *loss_keys, "gradient_norm", "mean_entropy", *ratios])
        for i, row in enumerate(report.loss_trace):
            w.writerow([row["tau"], *(row.get(k, "") for k in loss_keys),
                        f"{report.grad_norm_trace[i]:.6g}",
                        f"{report.mean_entropy_trace[i]:.6f}", *ratios.values()])


def cmd_export_embeddings(cfg: ExperimentConfig, ckpt_path, out_path):
    """Per-sample mean of the modality-encoder outputs on the data of the
    first config seed, tagged by domain."""
    cfg.validate()
    model = load_compatible(ckpt_path, cfg)
    model.freeze()
    source, target = build_domains(cfg, cfg.seeds[0])
    # both domains are embedded before the file is opened, so a failed
    # forward leaves no partial CSV
    embedded = [(tag, ds, np.mean(model.embed(ds.stack).data, axis=0))
                for tag, ds in (("source", source), ("target", target))]
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        d_h = model.dims.d_h
        w.writerow(["domain", "label", "core"] + [f"e{i}" for i in range(d_h)])
        for tag, ds, mean_emb in embedded:
            for i in range(len(ds)):
                w.writerow([tag, int(ds.labels[i]), int(ds.cores[i])]
                           + [f"{v:.8g}" for v in mean_emb[i]])
