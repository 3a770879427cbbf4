"""The byte-identity manifest tool on a one-seed miniature of its matrix."""

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "byte_manifest.py"
_SPEC = importlib.util.spec_from_file_location("byte_manifest", _PATH)
bm = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bm)

MINI_MATRIX = (("severe", ("source", "can", "scan")), ("collapse", ("scan", "scanner")))
MINI_CONFIG = {"pretrain_epochs": 2, "d_h": 8,
               "benchmark": {"n_source": 96, "n_target": 256}}


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    work = tmp_path_factory.mktemp("manifest")
    return bm.run_matrix(work, matrix=MINI_MATRIX, seeds=(0,), workers=(1, 2),
                         overrides=MINI_CONFIG)


def test_manifest_hashes_every_output_of_every_cell(manifest):
    expected = set()
    for preset, variants in MINI_MATRIX:
        for w in (1, 2):
            expected |= {f"{preset}_w{w}/{name}" for name in (
                "pretrain_seed0.ckpt", "pretrain_summary.json", "report.json", "metrics.csv")}
            expected |= {f"{preset}_w{w}/diagnostics/{v}_seed0.csv" for v in variants}
    # export-embeddings runs once, on the first cell
    expected.add("severe_w1/embeddings.csv")
    assert set(manifest["files"]) == expected
    assert all(len(digest) == 64 for digest in manifest["files"].values())
    # the JSON outputs also have one digest per top-level key
    assert set(manifest["keys"]) == {name for name in expected if name.endswith(".json")}
    assert set(manifest["keys"]["severe_w1/report.json"]) == {
        "version", "config", "runs", "aggregate"}
    assert set(manifest["keys"]["severe_w1/pretrain_summary.json"]) == {
        "version", "config", "seeds"}
    # outputs do not depend on the workers setting
    for name, digest in manifest["files"].items():
        if "_w1/" in name and not name.endswith("embeddings.csv"):
            assert manifest["files"][name.replace("_w1/", "_w2/")] == digest, name


def test_manifest_records_the_acceptance_margins(manifest):
    severe, collapse = manifest["margins"]["severe"], manifest["margins"]["collapse"]
    assert set(severe["final_macro_f1_pct"]) == {"source", "can", "scan"}
    assert all(0.0 <= v <= 100.0 for v in severe["final_macro_f1_pct"].values())
    assert set(severe["grad_ratio_scan_can"]) == {"0"} and severe["grad_ratio_scan_can"]["0"] > 0
    assert "collapse_gap_scanner_scan" not in severe
    gaps = collapse["collapse_gap_scanner_scan"]["0"]
    assert len(gaps) == 2 and all(g >= 0.0 for g in gaps)
    assert "grad_ratio_scan_can" not in collapse


def test_diff_lists_each_file_and_margin_that_moved(manifest, tmp_path, capsys):
    assert bm.diff(manifest, manifest) == []
    moved = copy.deepcopy(manifest)
    moved["files"]["severe_w2/report.json"] = "0" * 64
    moved["keys"]["severe_w2/report.json"]["config"] = "0" * 64
    moved["files"]["severe_w2/pretrain_summary.json"] = "0" * 64
    del moved["keys"]["severe_w2/pretrain_summary.json"]["version"]
    moved["keys"]["severe_w2/pretrain_summary.json"]["failed"] = "0" * 64
    moved["files"]["collapse_w2/metrics.csv"] = "0" * 64
    del moved["files"]["collapse_w1/metrics.csv"]
    ratio = manifest["margins"]["severe"]["grad_ratio_scan_can"]["0"]
    moved["margins"]["severe"]["grad_ratio_scan_can"]["0"] = ratio + 1e-12
    # each margin line gives its relative change; a list's is its largest
    # entry's, and a margin that one side lacks has none
    base = copy.deepcopy(manifest)
    base["margins"]["collapse"]["collapse_gap_scanner_scan"]["0"] = [0.2, 0.4]
    moved["margins"]["collapse"]["collapse_gap_scanner_scan"]["0"] = [0.21, 0.3]
    f1 = moved["margins"]["severe"]["final_macro_f1_pct"].pop("can")
    assert bm.diff(base, moved) == [
        "file collapse_w1/metrics.csv: missing",
        "file collapse_w2/metrics.csv: changed",
        "file severe_w2/pretrain_summary.json: changed (failed, version)",
        "file severe_w2/report.json: changed (config)",
        "margin collapse.collapse_gap_scanner_scan.0: [0.2, 0.4] -> [0.21, 0.3] "
        "(relative -2.5e-01)",
        f"margin severe.final_macro_f1_pct.can: {f1} -> None",
        f"margin severe.grad_ratio_scan_can.0: {ratio} -> {ratio + 1e-12} "
        f"(relative {1e-12 / ratio:+.1e})",
    ]
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(base))
    new.write_text(json.dumps(moved))
    assert bm.main(["diff", str(old), str(old)]) == 0
    n = len(manifest["files"])
    assert capsys.readouterr().out == f"{n} of {n} files identical, 0 margins moved\n"
    assert bm.main(["diff", str(old), str(new)]) == 1
    assert capsys.readouterr().out.endswith(
        f"{n - 4} of {n} files identical, 3 margins moved, largest relative move 2.5e-01\n")
    # the sizes of single moves: a move from zero is infinite
    assert bm.relative_move(2.0, 2.5) == 0.25 and bm.relative_move(-2.0, -2.5) == -0.25
    assert bm.relative_move(0.0, 1e-300) == float("inf")
    assert bm.relative_move(0.0, -1e-300) == -float("inf")
    assert bm.relative_move([1.0, 2.0], [0.5, 2.0]) == -0.5
    assert bm.relative_move([1.0], None) is None and bm.relative_move(1.0, [1.0]) is None


def test_key_digests_name_each_top_level_value(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"b": [1, {"y": 2, "x": 1}], "a": 1.5}))
    digests = bm.key_digests(path)
    assert sorted(digests) == ["a", "b"]
    # canonical JSON: the key order inside a value changes no digest
    path.write_text(json.dumps({"a": 1.5, "b": [1, {"x": 1, "y": 2}]}, indent=2))
    assert bm.key_digests(path) == digests
    path.write_text(json.dumps({"a": 1.5, "b": [1, {"x": 1, "y": 3}]}))
    assert bm.key_digests(path)["a"] == digests["a"]
    assert bm.key_digests(path)["b"] != digests["b"]


def test_manifest_records_the_kernel_its_digests_hold_for(manifest, monkeypatch):
    kernel = manifest["kernel"]
    assert set(kernel) == {"numpy", "blas", "OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS",
                           "openblas_core"}
    assert kernel["numpy"] == bm.np.__version__ and "name" in kernel["blas"]
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Prescott")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert bm.kernel() == {**kernel, "OPENBLAS_CORETYPE": "Prescott",
                           "OPENBLAS_NUM_THREADS": None}


def test_diff_says_in_one_line_when_the_kernels_differ(manifest):
    other = copy.deepcopy(manifest)
    other["kernel"]["OPENBLAS_CORETYPE"] = "Prescott"
    other["kernel"]["blas"] = {**other["kernel"]["blas"], "version": "0.0.0"}
    other["files"]["severe_w1/metrics.csv"] = "0" * 64
    assert bm.diff(manifest, other) == [
        "kernel: the manifests come from different kernels (OPENBLAS_CORETYPE, blas); "
        "digests hold per kernel",
        "file severe_w1/metrics.csv: changed",
    ]
    # a manifest that records no kernel differs in every entry that is set
    del other["kernel"]
    named = [k for k, v in sorted(manifest["kernel"].items()) if v is not None]
    assert bm.diff(other, manifest)[0] == (
        f"kernel: the manifests come from different kernels ({', '.join(named)}); "
        "digests hold per kernel")


def test_kernel_names_the_openblas_core_that_runs(monkeypatch):
    core = bm.openblas_core()
    if core is None:
        pytest.skip("this numpy bundles no OpenBLAS that names its core")
    assert core and bm.kernel()["openblas_core"] == core
    # the core is chosen when the library loads: a process started with
    # another core type reports that one
    script = (f"import sys; sys.path.insert(0, {str(_PATH.parent)!r}); "
              "import byte_manifest; print(byte_manifest.openblas_core())")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott"}
    other = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                           capture_output=True, text=True).stdout.strip()
    assert other not in (core, "None")
    monkeypatch.setattr(bm, "CORENAME_SYMBOLS", ("no_such_symbol",))
    assert bm.openblas_core() is None


def test_diff_names_a_change_of_core(manifest):
    other = copy.deepcopy(manifest)
    other["kernel"]["openblas_core"] = "Prescott"
    assert bm.diff(manifest, other) == [
        "kernel: the manifests come from different kernels (openblas_core); "
        "digests hold per kernel"]
