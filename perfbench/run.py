"""driftadapt benchmark: pretrain and online-adapt throughput, per-batch
latency, and a traced per-module breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload adapt_grad --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the details (sample
counts, provenance, errors, and for a traced run the spans) are written under
``.perfbench_work/<workload>/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("pretrain_severe", "adapt_infer", "adapt_grad")
# Pinned before numpy loads, so that the two-worker pretrain uses no more
# threads than a two-core machine has.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _int_at_least(low: int):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    return parse


def _parse_args(argv):
    non_negative, positive = _int_at_least(0), _int_at_least(1)

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=non_negative, default=0,
                   help="run seed: permutes the order of the command's jobs")
    p.add_argument("--seconds", type=positive, default=20,
                   help="how long the untraced run repeats the command")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    p.add_argument("--workload-seed", type=non_negative, default=0,
                   help="added to every data seed of the workload (default 0 "
                        "gives the documented seed lists)")
    return p.parse_args(argv)


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "driftadapt" / "__init__.py").is_file():
        print(f"error: no driftadapt sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import driftadapt

    if Path(driftadapt.__file__).resolve().parent != SRC / "driftadapt":
        print(f"error: driftadapt imported from {driftadapt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    w = workloads.WORKLOADS[args.workload]
    cfg = workloads.make_config(w, args.seed, args.workload_seed)
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.trace:
        run_id = f"{w.name}/seed{args.seed}/workload-seed{args.workload_seed}"
        outcome = workloads.trace(w, cfg, work, run_id)
    else:
        outcome = workloads.measure(w, cfg, work, args.seconds)

    ops = outcome["ops"]
    metrics = outcome["metrics"]
    notes = [
        "spans inside worker processes are not recorded; only calls made in "
        "the benchmark process are traced",
    ]
    variants = cfg.variants if w.variants else []
    detail = {
        "workload": w.name, "trace": args.trace, "seed": args.seed,
        "workload_seed": args.workload_seed, "seconds": args.seconds,
        "command": w.command, "variants": variants, "seeds": cfg.seeds,
        "workers": cfg.workers, "preset": cfg.benchmark.preset,
        "provenance": provenance(),
        "counts": outcome.get("counts", {}),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (metrics or {}).items()},
        "errors": ops.errors, "notes": notes,
    }
    (work / "result.json").write_text(json.dumps(detail, indent=2))

    print(f"workload {w.name}: {w.command} variants={variants} seeds={cfg.seeds} "
          f"workers={cfg.workers} preset={cfg.benchmark.preset}")
    print("provenance " + json.dumps(detail["provenance"]))
    print("counts " + json.dumps(detail["counts"]))
    for note in notes:
        print(f"note: {note}")
    for err in ops.errors:
        print(f"FAILED {err['operation']}: {err['error']}: {err['message']}")
    correct = metrics is not None and not ops.errors
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": len(ops.errors),
        "metrics": detail["metrics"],
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
