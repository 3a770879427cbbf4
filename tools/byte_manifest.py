"""Byte-identity manifest of the standard output matrix.

A development tool, not a test gate. It runs ``pretrain`` and then ``adapt``
through ``driftadapt.cli.main`` for every (preset, workers) cell of a fixed
matrix, each cell in its own directory, then ``export-embeddings`` on the
first seed's checkpoint of the first cell (severe, workers 1), and writes a
JSON manifest with

- the sha256 of every output file (checkpoints, summaries, reports,
  metrics, diagnostics and the embeddings CSV), keyed by its path under the
  work directory;
- for each JSON output, the sha256 of each top-level key's value, so that a
  diff names the keys of a file that moved;
- the acceptance margins read from each preset's ``report.json`` at the
  first workers setting: the mean final macro-F1 of every variant in percent
  (criterion 6 on ``severe``), the per-seed (scanner, scan) collapse gaps
  (criterion 7 on ``collapse``) and the per-seed ratio of the largest
  ``scan`` to the largest ``can`` gradient norm (criterion 8 on ``severe``).

The ``driftadapt`` package is whichever one Python imports, so the same
tool measures two trees:

    PYTHONPATH=/path/to/parent/src python tools/byte_manifest.py write parent.json
    PYTHONPATH=src python tools/byte_manifest.py write change.json
    python tools/byte_manifest.py diff parent.json change.json

``diff`` lists every file and margin that moved, with the top-level keys that
changed in a JSON file and each margin's relative change, sums up with the
largest relative margin move, and exits 1 if anything moved.
Digests depend on the numpy and BLAS build and on the BLAS kernel that runs,
so a manifest records its ``kernel``: numpy's version, the ``blas`` entry of
``numpy.show_config(mode="dicts")``, ``OPENBLAS_CORETYPE`` and
``OPENBLAS_NUM_THREADS``, and the core that the OpenBLAS numpy bundles runs
on, which a ``DYNAMIC_ARCH`` build picks at run time and the ``blas`` entry
does not name. ``diff`` says so in one line when two manifests record
different kernels. Compare manifests made on one machine; no golden
manifest is kept in the repository.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ALL_VARIANTS = ("source", "norm", "st", "tent_em", "can", "scan", "scanner")
# (preset, variants) cells of the standard matrix
MATRIX = (("severe", ALL_VARIANTS), ("collapse", ("can", "scan", "scanner")))
SEEDS = (0, 1, 2, 3, 4)
WORKERS = (1, 4)
# the OpenBLAS settings that choose the kernel a run's floats come from
KERNEL_VARS = ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")
# the functions that name the running core, as the OpenBLAS builds spell them
CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                    "openblas_get_corename")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def openblas_core():
    """The core name that the OpenBLAS in numpy's wheel (``numpy.libs``)
    reports, or None when no library there exports one of
    ``CORENAME_SYMBOLS``. Loading the library again returns the handle numpy
    already holds, so the name is the one its kernels run with."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in CORENAME_SYMBOLS:
            corename = getattr(handle, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def kernel() -> dict:
    """The numpy build, BLAS build, OpenBLAS settings and OpenBLAS core of
    this process: the kernel that a manifest's digests hold for."""
    return {"numpy": np.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
            **{var: os.environ.get(var) for var in KERNEL_VARS},
            "openblas_core": openblas_core()}


def key_digests(path: Path) -> dict:
    """The sha256 of each top-level value of a JSON object file, as
    canonical JSON."""
    return {key: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
            for key, value in json.loads(path.read_text()).items()}


def margins(report: dict) -> dict:
    """Criterion 6's means, criterion 7's gaps and criterion 8's ratios as far
    as the report's variants allow."""
    runs = {}
    for run in report["runs"]:
        runs.setdefault(run["variant"], {})[run["seed"]] = run
    out = {"final_macro_f1_pct": {v: 100.0 * m["final_macro_f1"]["mean"]
                                  for v, m in sorted(report["aggregate"].items())}}
    if "scan" in runs and "scanner" in runs:
        out["collapse_gap_scanner_scan"] = {
            str(s): [runs["scanner"][s]["collapse_gap"], runs["scan"][s]["collapse_gap"]]
            for s in sorted(runs["scan"])}
    if "scan" in runs and "can" in runs:
        out["grad_ratio_scan_can"] = {
            str(s): max(runs["scan"][s]["grad_norm_trace"])
            / max(runs["can"][s]["grad_norm_trace"])
            for s in sorted(runs["scan"])}
    return out


def run_matrix(work_dir, matrix=MATRIX, seeds=SEEDS, workers=WORKERS, overrides=None) -> dict:
    """Runs every cell under ``work_dir``, and the export in the first one,
    and returns the manifest.

    ``overrides`` is merged into each cell's config document; its
    ``benchmark`` block goes under the preset's.
    """
    from driftadapt import cli   # the tree under test, from the caller's path

    work = Path(work_dir)
    work.mkdir(parents=True, exist_ok=True)
    overrides = dict(overrides or {})
    bench = overrides.pop("benchmark", {})
    doc = {"kernel": kernel(), "python": platform.python_version(),
           "files": {}, "keys": {}, "margins": {}}
    for preset, variants in matrix:
        config = {**overrides, "benchmark": {**bench, "preset": preset},
                  "variants": list(variants), "seeds": list(seeds)}
        config_path = work / f"{preset}.json"
        config_path.write_text(json.dumps(config))
        for w in workers:
            out = work / f"{preset}_w{w}"
            commands = [["pretrain"], ["adapt", "--workers", str(w)]]
            if (preset, w) == (matrix[0][0], workers[0]):
                commands.append(["export-embeddings", "--checkpoint",
                                 str(out / f"pretrain_seed{seeds[0]}.ckpt")])
            for argv in commands:
                code = cli.main([*argv, "--config", str(config_path), "--out", str(out)])
                if code != 0:
                    raise RuntimeError(f"{argv[0]} exited {code} in cell {out.name}")
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                name = path.relative_to(work).as_posix()
                doc["files"][name] = _sha256(path)
                if path.suffix == ".json":
                    doc["keys"][name] = key_digests(path)
        report = json.loads((work / f"{preset}_w{workers[0]}" / "report.json").read_text())
        doc["margins"][preset] = margins(report)
    return doc


def relative_move(a, b):
    """(b - a) / |a| of two margins, the one of largest size over the entries
    of two equal-length lists, or None when a side is missing."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b) and a:
        moves = [relative_move(x, y) for x, y in zip(a, b)]
        return None if None in moves else max(moves, key=abs)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return (b - a) / abs(a) if a else (0.0 if b == a else math.copysign(math.inf, b))
    return None


def moved_margins(old, new, path=""):
    """(dotted path, old value, new value) of each margin that differs
    between two manifests' ``margins``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(set(old) | set(new)):
            yield from moved_margins(old.get(k), new.get(k), f"{path}.{k}")
    elif old != new:
        yield path[1:], old, new


def diff(old: dict, new: dict) -> list:
    """One line per file or margin that differs between two manifests."""
    lines = []
    ka, kb = old.get("kernel", {}), new.get("kernel", {})
    differ = [k for k in sorted(set(ka) | set(kb)) if ka.get(k) != kb.get(k)]
    if differ:
        lines.append(f"kernel: the manifests come from different kernels ({', '.join(differ)}); "
                     "digests hold per kernel")
    if old.get("python") != new.get("python"):
        lines.append(f"environment python: {old.get('python')} -> {new.get('python')}")
    for name in sorted(set(old["files"]) | set(new["files"])):
        a, b = old["files"].get(name), new["files"].get(name)
        if a != b:
            state = "missing" if b is None else "new" if a is None else "changed"
            keys_a, keys_b = old.get("keys", {}).get(name), new.get("keys", {}).get(name)
            if keys_a is not None and keys_b is not None:
                moved = [k for k in sorted(set(keys_a) | set(keys_b))
                         if keys_a.get(k) != keys_b.get(k)]
                if moved:
                    state += f" ({', '.join(moved)})"
            lines.append(f"file {name}: {state}")
    for path, a, b in moved_margins(old["margins"], new["margins"]):
        move = relative_move(a, b)
        size = "" if move is None else f" (relative {move:+.1e})"
        lines.append(f"margin {path}: {a} -> {b}{size}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("write", help="run the matrix and write a manifest")
    p.add_argument("manifest")
    p = sub.add_parser("diff", help="list the files and margins that moved")
    p.add_argument("old")
    p.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "write":
        with tempfile.TemporaryDirectory() as work:
            doc = run_matrix(work)
        Path(args.manifest).write_text(json.dumps(doc, indent=2, sort_keys=True))
        print(f"{len(doc['files'])} files")
        return 0
    old, new = (json.loads(Path(p).read_text()) for p in (args.old, args.new))
    lines = diff(old, new)
    for line in lines:
        print(line)
    same = sum(old["files"].get(k) == v for k, v in new["files"].items())
    moves = [relative_move(a, b) for _, a, b in moved_margins(old["margins"], new["margins"])]
    largest = max((abs(m) for m in moves if m is not None), default=None)
    print(f"{same} of {len(set(old['files']) | set(new['files']))} files identical, "
          f"{len(moves)} margins moved"
          + ("" if largest is None else f", largest relative move {largest:.1e}"))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
