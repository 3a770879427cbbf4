"""The A/B pair runner on stub benchmark runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
sys.path.insert(0, str(_PATH.parent))   # as for the script: its sibling byte_manifest
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

METRICS = [{"name": "samples_per_s", "better": "higher"},
           {"name": "peak_rss_mb", "better": "lower"},
           {"name": "final_macro_f1", "better": "higher"}]

# a stand-in for perfbench/run.py: its tree's VALUE file gives its throughput;
# like run.py it exits 1 after printing a result with a failed operation
STUB_RUN = '''
import json, os, sys
from pathlib import Path
if os.environ.get("PYTHONPATH") or sys.argv[1:] != [
        "--workload", "w", "--seconds", "3", "--trace", "0", "--workload-seed", "5"]:
    sys.exit(2)
value = float((Path(__file__).resolve().parents[1] / "VALUE").read_text())
print("workload w")
print(json.dumps({"correct": False, "attempted": 2, "failed": 1, "metrics": {
    "samples_per_s": {"value": value, "unit": "1/s"},
    "peak_rss_mb": {"value": 50.0, "unit": "MiB"}}}))
sys.exit(1)
'''


def _result(samples, rss):
    return {"correct": 1, "attempted": 1, "failed": 0,
            "metrics": {"samples_per_s": samples, "peak_rss_mb": rss, "final_macro_f1": 0.9}}


def test_pairs_alternate_which_side_runs_first():
    order, queue = [], {"parent": [100.0, 104.0, 96.0, 100.0], "change": [110.0, 103.0, 99.0, 120.0]}

    def runner(tree):
        order.append(tree)
        return _result(queue[tree].pop(0), 50.0 if tree == "parent" else 49.0)

    results = ab.run_pairs({"parent": "parent", "change": "change"}, 4, runner,
                           report=lambda line: None)
    assert order == ["parent", "change", "change", "parent"] * 2
    rows = {r["metric"]: r for r in ab.summarize(results, METRICS)}
    samples = rows["samples_per_s"]
    assert (samples["parent"], samples["q1"], samples["q3"]) == (100.0, 99.0, 101.0)
    assert samples["change"] == 106.5 and samples["wins"] == 3 and samples["pairs"] == 4
    # 6.5 better than the parent median, against an interquartile range of 2
    assert samples["beyond_iqr"] and samples["diff"] == pytest.approx(0.065)
    # lower is better: 49 beats 50 in every pair
    assert rows["peak_rss_mb"]["wins"] == 4 and rows["peak_rss_mb"]["beyond_iqr"]
    # equal values win no pair and are not beyond a zero IQR
    assert rows["final_macro_f1"]["wins"] == 0 and not rows["final_macro_f1"]["beyond_iqr"]
    lines = ab.format_table(list(rows.values()), results)
    assert lines[1].split()[:2] == ["samples_per_s", "100"]
    # 3 of 4 pairs make no claim; the stub metrics have no bound
    assert lines[1].endswith("3/4   yes        no     -")
    assert lines[-2:] == ["parent: 0 of 4 operations failed", "change: 0 of 4 operations failed"]


# the parent's runs: median 100, quartiles 99.5 and 100.5, so an IQR of 1
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]
# each metric's change runs against those parent runs, pair by pair
VERDICTS = {
    # 9 wins and 1 loss, median 5 better: a claim
    "nine": ("higher", [v + 5.0 for v in PARENT[:9]] + [PARENT[9] - 1.0], "yes", "within"),
    # 8 wins: no claim, however far the median moves
    "eight": ("higher", [v + 5.0 for v in PARENT[:8]] + [v - 1.0 for v in PARENT[8:]],
              "no", "within"),
    # 8 wins and 2 ties: a tie counts for neither side, so 8 of 10
    "tied": ("higher", [v + 5.0 for v in PARENT[:8]] + PARENT[8:], "no", "within"),
    # 10 wins, but the median gains 0.5, inside the parent's IQR
    "close": ("higher", [v + 0.5 for v in PARENT], "no", "within"),
    # lower is better and the change is 15% higher: past a bound of 10%
    "rss": ("lower", [v * 1.15 for v in PARENT], "no", "past"),
    # 5% worse: within the bound
    "p50": ("lower", [v * 1.05 for v in PARENT], "no", "within"),
}


def test_claim_and_bound_columns_judge_ten_stub_pairs():
    runs = {"parent": [{name: a for name in VERDICTS} for a in PARENT],
            "change": [{name: v[1][i] for name, v in VERDICTS.items()} for i in range(10)]}

    def runner(tree):
        return {"attempted": 1, "failed": 0, "metrics": runs[tree].pop(0)}

    results = ab.run_pairs({"parent": "parent", "change": "change"}, 10, runner,
                           report=lambda line: None)
    metrics = [{"name": name, "better": v[0], "bound": 0.1} for name, v in VERDICTS.items()]
    rows = ab.summarize(results, metrics)
    lines = ab.format_table(rows, results)
    for name, (_, _, claim, bound) in VERDICTS.items():
        line = next(line for line in lines if line.split()[0] == name)
        assert line.split()[-2:] == [claim, bound], name
    rows = {r["metric"]: r for r in rows}
    assert (rows["nine"]["wins"], rows["eight"]["wins"], rows["tied"]["wins"]) == (9, 8, 8)
    assert rows["eight"]["beyond_iqr"] and rows["tied"]["beyond_iqr"]
    assert rows["close"]["wins"] == 10 and not rows["close"]["beyond_iqr"]


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, capture_output=True)


@pytest.mark.parametrize("aa", [False, True])
def test_main_runs_both_trees_of_one_layout(tmp_path, capsys, aa):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "VALUE").write_text("100")
    (repo / "GONE").write_text("")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    # the working tree: a changed and a deleted tracked file, an untracked
    # file and an ignored one
    (repo / "VALUE").write_text("125")
    (repo / "GONE").unlink()
    (repo / "NEW").write_text("")
    (repo / "junk.log").write_text("")

    paths = ab.layout(repo, "HEAD", tmp_path / "pairs", aa=aa)
    assert {p.parent for p in paths.values()} == {tmp_path / "pairs"}
    names = {side: sorted(f.relative_to(p).as_posix() for f in p.rglob("*") if f.is_file())
             for side, p in paths.items()}
    assert names["parent"] == [".gitignore", "BENCHMARK.json", "GONE", "VALUE", "perfbench/run.py"]
    assert names["change"] == (names["parent"] if aa else
                               [".gitignore", "BENCHMARK.json", "NEW", "VALUE", "perfbench/run.py"])

    argv = ["--workload", "w", "--pairs", "2", "--seconds", "3", "--workload-seed", "5"]
    assert ab.main(argv + ["--aa"] * aa, repo=repo) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == [
        "pair 0 parent: samples_per_s=100 peak_rss_mb=50",
        f"pair 0 change: samples_per_s={100 if aa else 125} peak_rss_mb=50",
        f"pair 1 change: samples_per_s={100 if aa else 125} peak_rss_mb=50",
        "pair 1 parent: samples_per_s=100 peak_rss_mb=50",
    ]
    row = next(line for line in out if line.startswith("samples_per_s"))
    assert row.endswith("0/2   no         no     -" if aa else "2/2   yes        yes    -")
    assert out[-2:] == ["parent: 2 of 4 operations failed", "change: 2 of 4 operations failed"]


def test_a_failing_run_stops_the_tool(tmp_path):
    tree = tmp_path / "parent"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text("import sys; sys.exit(2)")
    with pytest.raises(RuntimeError, match="parent: run.py exited 2 with no result"):
        ab.perfbench_runner("w", 3, 5)(tree)


# the stub run.py above, for a workload of any name
STUB_ANY_WORKLOAD = STUB_RUN.replace('"--workload", "w", ', '"--workload", sys.argv[2], ')


def test_json_record_keeps_each_workloads_table(tmp_path, capsys):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB_ANY_WORKLOAD)
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    (repo / "VALUE").write_text("100")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    base = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()

    record = tmp_path / "BENCH.json"
    argv = ["--pairs", "2", "--seconds", "3", "--workload-seed", "5", "--json", str(record)]
    changes = {"w": 125.0, "v": 90.0}   # each workload's change runs at its own value
    for workload, value in changes.items():
        (repo / "VALUE").write_text(str(value))
        assert ab.main(["--workload", workload, *argv], repo=repo) == 0
    capsys.readouterr()

    def stub(value):
        return {"attempted": 2, "failed": 1,
                "metrics": {"samples_per_s": value, "peak_rss_mb": 50.0}}

    want = {}
    for workload, value in changes.items():
        rows = ab.summarize({"parent": [stub(100.0)] * 2, "change": [stub(value)] * 2}, METRICS)
        want[workload] = {
            "rows": rows, "pairs": 2, "seconds": 3, "workload_seed": 5, "base": base,
            "aa": False, "kernel": ab.kernel(),
            "operations": {side: {"failed": 2, "attempted": 4} for side in ab.SIDES}}
    # the second workload's table did not replace the first one's
    assert json.loads(record.read_text()) == want
    assert [r["metric"] for r in want["w"]["rows"]] == ["samples_per_s", "peak_rss_mb"]
    assert [(r["wins"], r["claim"]) for r in (want["w"]["rows"][0], want["v"]["rows"][0])] \
        == [(2, True), (0, False)]
