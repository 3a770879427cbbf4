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
from pathlib import Path

import numpy as np

from . import __version__, driftgen
from .config import AdaptConfig, ExperimentConfig
from .errors import CompatibilityError
from .model import MODALITIES, ModelDims, SourceModel, pretrain_source
from .ttaloop import RunReport, run_stream

PRETRAIN_SEED_OFFSET = 7000


def _data_seeds(seed: int):
    """(core spec seed, domain seed, source data seed, target data seed)."""
    return 1000 + seed, 2000 + seed, 3000 + seed, 4000 + seed


def build_domains(cfg: ExperimentConfig, seed: int):
    core_seed, dom_seed, src_seed, tgt_seed = _data_seeds(seed)
    cores = driftgen.make_core_spec(cfg.benchmark, core_seed)
    source_dom, target_dom = driftgen.make_domain_pair(cfg.benchmark, dom_seed)
    source = driftgen.generate_domain(cores, source_dom, cfg.benchmark.n_source, src_seed)
    target = driftgen.generate_domain(cores, target_dom, cfg.benchmark.n_target, tgt_seed)
    return source, target


def checkpoint_path(out_dir, seed: int) -> Path:
    return Path(out_dir) / f"pretrain_seed{seed}.ckpt"


def cmd_pretrain(cfg: ExperimentConfig, out_dir) -> dict:
    """Pretrain one source model per seed; writes checkpoints + summary."""
    cfg.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {"version": __version__, "config": cfg.recorded(), "seeds": {}}
    for seed in cfg.seeds:
        source, _ = build_domains(cfg, seed)
        model = SourceModel(
            ModelDims(cfg.benchmark.d_in, cfg.d_h, cfg.n_classes), seed=seed
        )
        result = pretrain_source(
            model, source.features, source.labels,
            epochs=cfg.pretrain_epochs, batch_size=cfg.adapt.batch_size,
            lr=cfg.adapt.lr, weight_decay=cfg.adapt.weight_decay,
            seed=PRETRAIN_SEED_OFFSET + seed,
        )
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
    model = SourceModel.load(ckpt_path)
    if (model.dims.d_in, model.dims.d_h, model.dims.n_classes) != (
        cfg.benchmark.d_in, cfg.d_h, cfg.n_classes
    ):
        raise CompatibilityError(
            f"checkpoint dims {model.dims} do not match config "
            f"({cfg.benchmark.d_in}, {cfg.d_h}, {cfg.n_classes})"
        )
    return model


def run_one(cfg: ExperimentConfig, ckpt_path, target, variant: str, seed: int) -> RunReport:
    return run_stream(load_compatible(ckpt_path, cfg), target, cfg.adapt, variant,
                      seed=seed, n_classes=cfg.n_classes)


def cmd_adapt(cfg: ExperimentConfig, ckpt_dir, out_dir) -> dict:
    """Run every (variant, seed) pair; writes reports, metrics, diagnostics.

    Each seed's target stream is built once and shared by all its variants.
    """
    cfg.validate()
    out = Path(out_dir)
    (out / "diagnostics").mkdir(parents=True, exist_ok=True)
    targets = {seed: build_domains(cfg, seed)[1] for seed in cfg.seeds}
    jobs = [(cfg, checkpoint_path(ckpt_dir, seed), targets[seed], variant, seed)
            for variant in cfg.variants for seed in cfg.seeds]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(run_one, *job) for job in jobs]
            reports = [f.result() for f in futures]
    else:
        reports = [run_one(*job) for job in jobs]

    report_doc = {
        "version": __version__,
        "config": cfg.recorded(),
        "runs": [r.to_dict() for r in reports],
        "aggregate": aggregate(reports),
    }
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
        for metric in ("online_accuracy", "online_macro_f1",
                       "final_accuracy", "final_macro_f1"):
            vals = np.asarray([getattr(r, metric) for r in rs])
            out[variant][metric] = {
                "mean": float(vals.mean()),
                "std": float(vals.std()),
            }
    return out


def write_metrics_csv(path, reports, agg: dict):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["variant", "seed", "online_accuracy", "online_macro_f1",
                    "final_accuracy", "final_macro_f1", "skipped_steps"])
        for r in reports:
            w.writerow([r.variant, r.seed, f"{r.online_accuracy:.6f}",
                        f"{r.online_macro_f1:.6f}", f"{r.final_accuracy:.6f}",
                        f"{r.final_macro_f1:.6f}", r.skipped_steps])
        for variant, metrics in agg.items():
            w.writerow([variant, "mean", f"{metrics['online_accuracy']['mean']:.6f}",
                        f"{metrics['online_macro_f1']['mean']:.6f}",
                        f"{metrics['final_accuracy']['mean']:.6f}",
                        f"{metrics['final_macro_f1']['mean']:.6f}", ""])


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
    source, target = build_domains(cfg, cfg.seeds[0])
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        d_h = model.dims.d_h
        w.writerow(["domain", "label", "core"] + [f"e{i}" for i in range(d_h)])
        for tag, ds in (("source", source), ("target", target)):
            feats = model.encode(ds.features)
            mean_emb = np.mean([feats[m].data for m in MODALITIES], axis=0)
            for i in range(len(ds)):
                w.writerow([tag, int(ds.labels[i]), int(ds.cores[i])]
                           + [f"{v:.8g}" for v in mean_emb[i]])
