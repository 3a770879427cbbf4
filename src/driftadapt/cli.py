"""Command-line entry point.

Subcommands: pretrain, adapt, export-embeddings, selftest. Every failure
exits nonzero and prints one machine-readable line ``ERROR <code>: <text>``;
``adapt`` prints one such line per failed (variant, seed) run, after
writing the outputs of the others. The commands compute with numpy's
floating-point warnings off, so stderr holds the ERROR lines alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import PRESETS, ExperimentConfig
from .errors import DriftAdaptError, error_code
from .harness import cmd_adapt, cmd_export_embeddings, cmd_pretrain
from .selftest import run_selftest


def _load_config(args) -> ExperimentConfig:
    """The config document, with --preset and --workers written in, resolved once."""
    raw = ExperimentConfig.parse_json(Path(args.config).read_bytes()) if args.config else {}
    if isinstance(raw, dict):
        if args.preset and isinstance(raw.get("benchmark", {}), dict):
            # the preset is the base of the benchmark block; the config's
            # explicit benchmark fields still override it
            raw["benchmark"] = {**raw.get("benchmark", {}), "preset": args.preset}
        if getattr(args, "workers", None) is not None:
            raw["workers"] = args.workers
    return ExperimentConfig.from_dict(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftadapt",
        description="Test-time adaptation benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON file")
        p.add_argument("--out", default="runs", help="output directory")
        p.add_argument("--preset", choices=PRESETS,
                       help="benchmark preset under the config's explicit benchmark fields")

    p = sub.add_parser("pretrain", help="pretrain source models, one per seed")
    common(p)

    p = sub.add_parser("adapt", help="run adaptation for every (variant, seed)")
    common(p)
    p.add_argument("--checkpoints", default=None,
                   help="directory with pretrain checkpoints (default: --out)")
    p.add_argument("--workers", type=int, default=None,
                   help="seeds run in parallel, each with all its variants")

    p = sub.add_parser("export-embeddings",
                       help="export mean encoder embeddings with domain tags")
    common(p)
    p.add_argument("--checkpoint", required=True, help="model checkpoint file")
    p.add_argument("--csv", default=None, help="output CSV path")

    sub.add_parser("selftest", help="run the fast invariant suites")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            results = run_selftest()
            for name, ok, detail in results:
                print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
            return 0 if all(ok for _, ok, _ in results) else 1
        cfg = _load_config(args)
        if args.command == "pretrain":
            summary = cmd_pretrain(cfg, args.out)
            for seed, row in summary["seeds"].items():
                print(f"seed {seed}: source holdout accuracy {row['holdout_accuracy']:.4f}")
        elif args.command == "adapt":
            ckpt_dir = args.checkpoints or args.out
            doc = cmd_adapt(cfg, ckpt_dir, args.out)
            for variant, metrics in sorted(doc["aggregate"].items()):
                online, final = metrics["online_macro_f1"], metrics["final_macro_f1"]
                print(f"{variant}: macro-F1 {online['mean']:.4f} +/- {online['std']:.4f} online, "
                      f"{final['mean']:.4f} +/- {final['std']:.4f} final")
            # a failed (variant, seed) run leaves the others' outputs written
            for run in doc.get("failed_runs", []):
                print(f"ERROR {run['code']}: {run['variant']} seed {run['seed']}: "
                      f"{run['message']}", file=sys.stderr)
            if doc.get("failed_runs"):
                return 2
        elif args.command == "export-embeddings":
            out_csv = args.csv or str(Path(args.out) / "embeddings.csv")
            Path(args.out).mkdir(parents=True, exist_ok=True)
            cmd_export_embeddings(cfg, args.checkpoint, out_csv)
            print(f"wrote {out_csv}")
        return 0
    except (DriftAdaptError, OSError) as exc:
        print(f"ERROR {error_code(exc)}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
