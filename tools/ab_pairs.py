"""Interleaved A/B pairs of benchmark runs: a base commit against the working
tree.

A development tool, not a test gate, and the sibling of
``byte_manifest.py``. It puts two copies of the repository in one layout
under a temporary directory, ``parent/`` from ``git archive`` of the base
commit (default ``HEAD``) and ``change/`` with the working tree's tracked
and untracked, not ignored, files. It then runs ``perfbench/run.py`` of each
copy once per pair, untraced, and alternates which side runs first: pair 0
runs the parent first, pair 1 the change, and so on. Where a copy sits can
move a metric by a few percent on identical code, so both copies sit side by
side, at names of one length. With ``--aa`` both sides are archives of the
base, which shows the spread that identical code gives.

    python tools/ab_pairs.py --workload adapt_grad --pairs 10 --seconds 20
    python tools/ab_pairs.py --workload adapt_grad --pairs 10 --workload-seed 5
    python tools/ab_pairs.py --workload adapt_infer --pairs 6 --aa
    python tools/ab_pairs.py --workload pretrain_severe --pairs 10 --json BENCH.json

Each run's end-to-end metrics are printed as it finishes. The table at the
end gives, for each end-to-end metric of ``BENCHMARK.json``, the parent's
median and quartiles, the change's median and its relative difference, the
number of pairs in which the change is better in the metric's ``better``
direction, and whether the change's median is better by more than the
parent's interquartile range, and each side's failed operations. Two more
columns give the verdicts that a performance claim is judged by:

- ``claim`` is "yes" only when the change wins at least 9 in 10 of the pairs
  run, ties counting for neither side, and its median is better by more
  than the parent's interquartile range;
- ``bound`` is "past" when the change's median is worse than the parent's by
  more than the metric's ``bound`` in ``BENCHMARK.json``, a relative change
  like the ``diff`` column, "within" when it is not, and "-" for a metric
  without a bound.

With ``--json PATH`` the tool also writes the table to PATH as the record
of a speed claim: a JSON object keyed by workload, whose entry holds the
``summarize`` rows, the pairs, seconds, workload seed, base commit and
``--aa`` of the batch, each side's failed and attempted operations, and
``byte_manifest.kernel()``, the numpy and BLAS kernel that the runs inherit
from this process. The entries of other workloads already in the file are
kept, so one file can hold the tables of every workload.

A run that prints no JSON result line stops the tool.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

from byte_manifest import kernel   # the sibling tool, beside this script on sys.path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _git(repo: Path, *args) -> bytes:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True).stdout


def layout(repo, base: str, dest, aa: bool = False) -> dict:
    """Writes ``dest/parent`` (an archive of ``base``) and ``dest/change``
    (the working tree, or a second archive of ``base`` with ``aa``) and
    returns {side: path}."""
    repo, dest = Path(repo), Path(dest)
    archive = _git(repo, "archive", "--format=tar", base)
    paths = {side: dest / side for side in SIDES}
    for side, path in paths.items():
        path.mkdir(parents=True)
        if side == "parent" or aa:
            with tarfile.open(fileobj=BytesIO(archive)) as tar:
                tar.extractall(path, filter="data")
            continue
        listed = _git(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, listed.decode().split("\0")):
            source = repo / name
            if source.is_file():   # a tracked file deleted in the tree is left out
                (path / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, path / name)
    return paths


def perfbench_runner(workload: str, seconds: int, workload_seed: int):
    """A runner: runs one copy's ``perfbench/run.py`` untraced and returns
    the JSON object of its last output line, with each metric's value in
    place of its {value, unit} entry. A run whose operations failed exits 1
    and still prints that line, so it counts; a run without it raises."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def run(tree: Path) -> dict:
        argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
                "--seconds", str(seconds), "--trace", "0",
                "--workload-seed", str(workload_seed)]
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
        except (IndexError, ValueError, KeyError, TypeError):
            raise RuntimeError(f"{tree.name}: run.py exited {done.returncode} with no result: "
                               f"{done.stderr.strip()[-500:]}") from None
        return result

    return run


def run_pairs(paths: dict, pairs: int, runner, report=print) -> dict:
    """{side: [result, ...]} of ``pairs`` interleaved runs; pair i runs the
    parent first when i is even and the change first when i is odd."""
    results = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = runner(paths[side])
            results[side].append(result)
            shown = " ".join(f"{k}={v:g}" for k, v in result["metrics"].items())
            report(f"pair {i} {side}: {shown}")
    return results


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(results: dict, metrics: list) -> list:
    """One row per end-to-end metric that both sides report: name, parent
    median, Q1, Q3, change median, relative difference, wins, whether the
    change's median is better by more than the parent's IQR, whether that
    makes a claim (see the module docstring) and whether it is worse than
    the parent's by more than the metric's bound (None without one)."""
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        pairs = [(a["metrics"].get(name), b["metrics"].get(name))
                 for a, b in zip(results["parent"], results["change"])]
        pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
        if not pairs:
            continue
        old, new = [a for a, _ in pairs], [b for _, b in pairs]
        m_old, m_new = statistics.median(old), statistics.median(new)
        q1, q3 = _quartiles(old)
        diff = (m_new - m_old) / m_old if m_old else float("nan")
        wins = sum(sign * (b - a) > 0 for a, b in pairs)
        beyond_iqr = sign * (m_new - m_old) > q3 - q1
        bound = metric.get("bound")
        rows.append({
            "metric": name, "parent": m_old, "q1": q1, "q3": q3, "change": m_new,
            "diff": diff, "wins": wins, "pairs": len(pairs), "beyond_iqr": beyond_iqr,
            "claim": beyond_iqr and 10 * wins >= 9 * len(pairs),
            "past_bound": None if bound is None else sign * diff < -bound,
        })
    return rows


def operations(results: dict) -> dict:
    """{side: {"failed": n, "attempted": n}}, summed over a side's runs."""
    return {side: {key: sum(r.get(key, 0) for r in results[side])
                   for key in ("failed", "attempted")} for side in SIDES}


def write_record(path, workload: str, entry: dict):
    """Sets ``workload``'s entry of the JSON record at path, keeping the
    entries of other workloads that the file holds."""
    path = Path(path)
    record = json.loads(path.read_text()) if path.exists() else {}
    record[workload] = entry
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def format_table(rows: list, results: dict) -> list:
    lines = [f"{'metric':<16} {'parent median (Q1-Q3)':>30} {'change':>12} "
             f"{'diff':>8} {'wins':>6}  gap > IQR  claim  bound"]
    for r in rows:
        spread = f"{r['parent']:.6g} ({r['q1']:.6g}-{r['q3']:.6g})"
        bound = {None: "-", True: "past", False: "within"}[r["past_bound"]]
        lines.append(f"{r['metric']:<16} {spread:>30} {r['change']:>12.6g} "
                     f"{r['diff']:>+8.1%} {r['wins']:>3}/{r['pairs']:<2}  "
                     f"{'yes' if r['beyond_iqr'] else 'no':<9}  "
                     f"{'yes' if r['claim'] else 'no':<5}  {bound}")
    for side, ops in operations(results).items():
        lines.append(f"{side}: {ops['failed']} of {ops['attempted']} operations failed")
    return lines


def main(argv=None, repo=ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workload-seed", type=int, default=0)
    parser.add_argument("--base", default="HEAD", help="the parent commit (default HEAD)")
    parser.add_argument("--aa", action="store_true",
                        help="A/A: both sides are archives of the base commit")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the table to this JSON record, under the workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((Path(repo) / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory() as tmp:
        paths = layout(repo, args.base, tmp, aa=args.aa)
        runner = perfbench_runner(args.workload, args.seconds, args.workload_seed)
        results = run_pairs(paths, args.pairs, runner)
    rows = summarize(results, metrics)
    mode = "A/A, both sides" if args.aa else "parent"
    print(f"{args.workload} (workload seed {args.workload_seed}): {args.pairs} pairs, "
          f"{mode} = {args.base}")
    for line in format_table(rows, results):
        print(line)
    if args.json:
        base = _git(Path(repo), "rev-parse", args.base).decode().strip()
        write_record(args.json, args.workload, {
            "rows": rows, "pairs": args.pairs, "seconds": args.seconds,
            "workload_seed": args.workload_seed, "base": base, "aa": args.aa,
            "operations": operations(results), "kernel": kernel()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
