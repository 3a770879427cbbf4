"""Harness and CLI tests on a miniature experiment."""

import csv
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import tiny_experiment, tiny_model

from driftadapt import checkpoint, cli, errors, harness
from driftadapt.cli import main as cli_main
from driftadapt.config import AdaptConfig, BenchmarkConfig, ExperimentConfig, preset_benchmark
from driftadapt.errors import (
    CompatibilityError,
    ConfigError,
    DegenerateDataError,
    NumericError,
)
from driftadapt.model import SourceModel
from driftadapt.selftest import run_selftest


# -- config round trip -----------------------------------------------------


def test_config_json_round_trip(tmp_path):
    cfg = tiny_experiment(tmp_path)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg


def test_config_unknown_field_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"learning_rate": 0.1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"adapt": {"momentum": 0.9}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"out_dir": "runs"})


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        AdaptConfig(k=0).validate()
    with pytest.raises(ConfigError):
        AdaptConfig(gamma=1.0).validate()
    with pytest.raises(ConfigError):
        BenchmarkConfig(preset="weird").validate()
    with pytest.raises(ConfigError):
        BenchmarkConfig(p_hate=[0.5]).validate()
    with pytest.raises(ConfigError):
        BenchmarkConfig(outlier_mode="mixed").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(variants=["nonsense"]).validate()


# -- pretrain + adapt ------------------------------------------------------


def test_pretrain_writes_checkpoints_and_summary(tmp_path):
    cfg = tiny_experiment(tmp_path)
    summary = harness.cmd_pretrain(cfg, tmp_path)
    assert harness.checkpoint_path(tmp_path, 0).exists()
    assert (tmp_path / "pretrain_summary.json").exists()
    assert "0" in summary["seeds"]
    assert 0.0 <= summary["seeds"]["0"]["holdout_accuracy"] <= 1.0


def test_pretrain_checkpoints_byte_identical(tmp_path):
    cfg = tiny_experiment(tmp_path)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    harness.cmd_pretrain(cfg, a_dir)
    harness.cmd_pretrain(cfg, b_dir)
    a = harness.checkpoint_path(a_dir, 0).read_bytes()
    b = harness.checkpoint_path(b_dir, 0).read_bytes()
    assert a == b


def test_adapt_outputs_and_aggregate(tmp_path):
    cfg = tiny_experiment(tmp_path)
    harness.cmd_pretrain(cfg, tmp_path)
    doc = harness.cmd_adapt(cfg, tmp_path, tmp_path)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "metrics.csv").exists()
    for variant in cfg.variants:
        assert (tmp_path / "diagnostics" / f"{variant}_seed0.csv").exists()
    assert set(doc["aggregate"]) == set(cfg.variants)
    runs = doc["runs"]
    assert len(runs) == len(cfg.variants) * len(cfg.seeds)
    # aggregate is recomputable from the per-run rows
    src_f1 = [r["final_macro_f1"] for r in runs if r["variant"] == "source"]
    assert doc["aggregate"]["source"]["final_macro_f1"]["mean"] == pytest.approx(
        float(np.mean(src_f1))
    )


def test_metrics_csv_matches_report(tmp_path):
    cfg = tiny_experiment(tmp_path)
    harness.cmd_pretrain(cfg, tmp_path)
    doc = harness.cmd_adapt(cfg, tmp_path, tmp_path)
    with open(tmp_path / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    per_seed = [r for r in rows if r["seed"] != "mean"]
    assert len(per_seed) == len(doc["runs"])
    for row, run in zip(per_seed, doc["runs"]):
        assert row["variant"] == run["variant"]
        assert float(row["final_macro_f1"]) == pytest.approx(
            run["final_macro_f1"], abs=1e-6
        )


def test_diagnostics_csv_has_trace_rows(tmp_path):
    cfg = tiny_experiment(tmp_path)
    harness.cmd_pretrain(cfg, tmp_path)
    doc = harness.cmd_adapt(cfg, tmp_path, tmp_path)
    run = next(r for r in doc["runs"] if r["variant"] == "scanner")
    with open(tmp_path / "diagnostics" / "scanner_seed0.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(run["loss_trace"])
    assert "gradient_norm" in rows[0] and "mean_entropy" in rows[0]


def test_adapt_report_deterministic(tmp_path):
    cfg = tiny_experiment(tmp_path)
    harness.cmd_pretrain(cfg, tmp_path)
    out_a, out_b = tmp_path / "ra", tmp_path / "rb"
    harness.cmd_adapt(cfg, tmp_path, out_a)
    harness.cmd_adapt(cfg, tmp_path, out_b)
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_adapt_outputs_independent_of_workers(tmp_path):
    cfg = tiny_experiment(tmp_path)
    cfg.seeds = [0, 1]
    cfg.variants = ["source", "tent_em", "scanner"]
    harness.cmd_pretrain(cfg, tmp_path)
    outs = {}
    for workers in (1, 2):
        cfg.workers = workers
        outs[workers] = tmp_path / f"w{workers}"
        harness.cmd_adapt(cfg, tmp_path, outs[workers])
    one, two = outs[1], outs[2]
    assert (one / "metrics.csv").read_bytes() == (two / "metrics.csv").read_bytes()
    diag = sorted(p.name for p in (one / "diagnostics").glob("*.csv"))
    assert len(diag) == 6
    assert diag == sorted(p.name for p in (two / "diagnostics").glob("*.csv"))
    for name in diag:
        assert (one / "diagnostics" / name).read_bytes() == \
            (two / "diagnostics" / name).read_bytes()
    # workers is an execution setting: the recorded config leaves it out
    assert (one / "report.json").read_bytes() == (two / "report.json").read_bytes()
    assert "workers" not in json.loads((one / "report.json").read_text())["config"]
    summary = json.loads((tmp_path / "pretrain_summary.json").read_text())
    assert "workers" not in summary["config"]


def test_adapt_builds_each_seed_target_once(tmp_path, monkeypatch):
    cfg = tiny_experiment(tmp_path)
    cfg.seeds = [0, 1]
    cfg.variants = ["source", "scanner"]
    harness.cmd_pretrain(cfg, tmp_path)
    calls = []
    build = harness.build_domains

    def counting_build(cfg, seed):
        calls.append(seed)
        return build(cfg, seed)

    monkeypatch.setattr(harness, "build_domains", counting_build)
    harness.cmd_adapt(cfg, tmp_path, tmp_path / "out")
    assert sorted(calls) == [0, 1]


def _cut_to_half(blob):
    return blob[: len(blob) // 2]


def _cut_to_ten_bytes(blob):
    return blob[:10]


def _drop_input_stats(blob):
    arrays = checkpoint.loads(blob)
    del arrays["stats.v.mean"], arrays["stats.v.var"]
    return checkpoint.dumps(arrays)


def _garble_first_name(blob):
    # the first entry name starts after magic, count and name length
    return blob[:16] + b"\xff" + blob[17:]


CORRUPTIONS = [_cut_to_half, _cut_to_ten_bytes, _drop_input_stats, _garble_first_name]


def _corrupt_checkpoint(ckpt_dir, corrupt):
    path = harness.checkpoint_path(ckpt_dir, 0)
    path.parent.mkdir(parents=True, exist_ok=True)
    tiny_model().save(path)
    path.write_bytes(corrupt(path.read_bytes()))
    return path


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.lstrip("_"))
def test_corrupt_checkpoint_raises_compat(tmp_path, corrupt):
    path = _corrupt_checkpoint(tmp_path, corrupt)
    with pytest.raises(CompatibilityError):
        SourceModel.load(path)


def test_load_compatible_rejects_dim_mismatch(tmp_path):
    cfg = tiny_experiment(tmp_path)
    harness.cmd_pretrain(cfg, tmp_path)
    bad = tiny_experiment(tmp_path)
    bad.d_h = 12
    with pytest.raises(CompatibilityError):
        harness.load_compatible(harness.checkpoint_path(tmp_path, 0), bad)


def test_export_embeddings(tmp_path):
    cfg = tiny_experiment(tmp_path)
    harness.cmd_pretrain(cfg, tmp_path)
    out_csv = tmp_path / "emb.csv"
    harness.cmd_export_embeddings(cfg, harness.checkpoint_path(tmp_path, 0), out_csv)
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    n = cfg.benchmark.n_source + cfg.benchmark.n_target
    assert len(rows) == n + 1
    assert rows[0][:3] == ["domain", "label", "core"]
    assert {r[0] for r in rows[1:]} == {"source", "target"}
    assert len(rows[1]) == 3 + cfg.d_h


# -- CLI -------------------------------------------------------------------


def _write_cfg(tmp_path):
    cfg = tiny_experiment(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    return path


def test_cli_pretrain_and_adapt(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert cli_main(["pretrain", "--config", str(cfg_path), "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "holdout accuracy" in captured
    assert cli_main(["adapt", "--config", str(cfg_path), "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "scanner: macro-F1" in captured
    assert Path(out, "report.json").exists()


def test_cli_adapt_prints_online_and_final_macro_f1(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["pretrain", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert cli_main(["adapt", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    aggregate = json.loads((out / "report.json").read_text())["aggregate"]
    for variant, metrics in aggregate.items():
        online, final = metrics["online_macro_f1"], metrics["final_macro_f1"]
        assert (f"{variant}: macro-F1 {online['mean']:.4f} +/- {online['std']:.4f} online, "
                f"{final['mean']:.4f} +/- {final['std']:.4f} final") in lines


def test_cli_export_embeddings(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = str(tmp_path / "out")
    cli_main(["pretrain", "--config", str(cfg_path), "--out", out])
    capsys.readouterr()
    code = cli_main([
        "export-embeddings", "--config", str(cfg_path), "--out", out,
        "--checkpoint", str(harness.checkpoint_path(out, 0)),
    ])
    assert code == 0
    assert Path(out, "embeddings.csv").exists()


def test_cli_missing_config_file(tmp_path, capsys):
    code = cli_main(["pretrain", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR io:")


def test_cli_bad_config_contents(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"no_such_field": 1}))
    code = cli_main(["pretrain", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR config:")


@pytest.mark.parametrize("raw", [{"adapt": {"batch_size": 0}}, {"d_h": 0}])
def test_cli_zero_size_is_config_error(tmp_path, capsys, raw):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(raw))
    code = cli_main(["pretrain", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR config:")


def _cli_config_error(tmp_path, capsys, text, *extra):
    path = tmp_path / "probe.json"
    path.write_text(text)
    code = cli_main(["adapt", "--config", str(path), "--out", str(tmp_path), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR config:") and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_cli_zero_cores_is_config_error(tmp_path, capsys):
    _cli_config_error(tmp_path, capsys, '{"benchmark": {"n_cores": 0, "p_hate": []}}')


def test_cli_string_k_is_config_error(tmp_path, capsys):
    _cli_config_error(tmp_path, capsys, '{"adapt": {"k": "5"}}')


def test_cli_string_seed_is_config_error(tmp_path, capsys):
    _cli_config_error(tmp_path, capsys, '{"seeds": ["a"]}')


def test_cli_nan_lr_is_config_error(tmp_path, capsys):
    # Python's json module reads the bare NaN token as float("nan")
    _cli_config_error(tmp_path, capsys, '{"adapt": {"lr": NaN}}')


def test_cli_negative_pretrain_epochs_is_config_error(tmp_path, capsys):
    path = tmp_path / "probe.json"
    path.write_text('{"pretrain_epochs": -1}')
    code = cli_main(["pretrain", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR config:")
    assert not harness.checkpoint_path(tmp_path, 0).exists()


def test_cli_zero_workers_is_config_error(tmp_path, capsys):
    _cli_config_error(tmp_path, capsys, _write_cfg(tmp_path).read_text(), "--workers", "0")


def test_cli_malformed_json_is_config_error(tmp_path, capsys):
    _cli_config_error(tmp_path, capsys, '{"adapt": ')


def test_cli_k_above_first_batch_is_config_error(tmp_path, capsys):
    # k=40 clusters cannot be seeded from a first batch of 32 rows; the config
    # is rejected before any run, so no command writes anything
    cfg_path = _write_cfg(tmp_path)
    ckpts = tmp_path / "ckpts"
    assert cli_main(["pretrain", "--config", str(cfg_path), "--out", str(ckpts)]) == 0
    raw = json.loads(cfg_path.read_text())
    raw["adapt"]["k"] = 40
    probe = tmp_path / "k40.json"
    probe.write_text(json.dumps(raw))
    out = tmp_path / "out"
    for command, *extra in (["adapt", "--checkpoints", str(ckpts)], ["pretrain"]):
        code = cli_main([command, "--config", str(probe), "--out", str(out), *extra])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR config: k=40")
        assert not out.exists()


def test_config_k_checked_against_first_batch_of_bank_variants():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"adapt": {"k": 40, "batch_size": 32},
                                    "variants": ["source", "can"]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"adapt": {"k": 40}, "benchmark": {"n_target": 39}})
    # no centroid bank: k is never used
    ExperimentConfig.from_dict({"adapt": {"k": 40, "batch_size": 32},
                                "variants": ["source", "tent_em"]})
    ExperimentConfig.from_dict({"adapt": {"k": 32, "batch_size": 32}})


def test_preset_is_the_base_of_the_benchmark_block():
    severe = preset_benchmark("severe")
    assert ExperimentConfig.from_json('{"benchmark": {"preset": "severe"}}').benchmark == severe
    cfg = ExperimentConfig.from_json('{"benchmark": {"preset": "severe", "n_target": 96}}')
    assert cfg.benchmark == replace(severe, n_target=96)
    custom = ExperimentConfig.from_json('{"benchmark": {"preset": "custom"}}').benchmark
    assert custom == BenchmarkConfig(preset="custom")


@pytest.mark.parametrize("raw, extra", [
    ({"benchmark": {"n_target": 96}}, ["--preset", "severe"]),
    ({"benchmark": {"preset": "collapse", "n_target": 96}}, ["--preset", "severe"]),
    ({"benchmark": {"preset": "severe", "n_target": 96}}, []),
])
def test_cli_preset_keeps_explicit_benchmark_fields(tmp_path, monkeypatch, raw, extra):
    seen = []
    monkeypatch.setattr(cli, "cmd_pretrain", lambda cfg, out: seen.append(cfg) or {"seeds": {}})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli_main(["pretrain", "--config", str(path), "--out", str(tmp_path), *extra]) == 0
    assert seen[0].benchmark == replace(preset_benchmark("severe"), n_target=96)


@pytest.mark.parametrize("raw", [
    {"adapt": {"k": True}}, {"adapt": {"k": 2.0}}, {"d_h": "32"},
    {"benchmark": {"core_jitter": [0.1, 0.2]}}, {"benchmark": {"p_hate": 1.0}},
    {"benchmark": {"severity": float("inf")}}, {"benchmark": 3},
    {"seeds": [0, 0]}, {"seeds": [-1]}, {"variants": []}, {"variants": [["can"]]},
    {"n_classes": 1}, {"adapt": {"adam_eps": 0.0}}, [1, 2],
])
def test_config_rejects_wrong_types_and_ranges(raw):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


_ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _changes(klass):
    """Up to three plain fields of ``klass`` set to arbitrary JSON-like values,
    or to small numbers of a plausible type, so that many draws validate."""
    names = [f.name for f in fields(klass) if f.name not in ("benchmark", "adapt")]
    return st.dictionaries(st.sampled_from(names),
                           _ANY_VALUE | st.integers(0, 8) | st.floats(0, 1), max_size=3)


def _mutated(klass):
    base = {f.name: getattr(klass(), f.name) for f in fields(klass)}
    return _changes(klass).map(lambda changes: {**base, **changes})


@settings(max_examples=300, deadline=None)
@given(st.builds(
    lambda bench, adapt, top: {"benchmark": bench, "adapt": adapt, **top},
    _mutated(BenchmarkConfig), _mutated(AdaptConfig), _changes(ExperimentConfig),
))
def test_config_from_dict_fuzz(raw):
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    for block in (cfg, cfg.benchmark, cfg.adapt):
        for f in fields(block):
            value = getattr(block, f.name)
            if f.type == "int":
                assert isinstance(value, int) and not isinstance(value, bool)
            elif f.type == "float":
                assert isinstance(value, (int, float)) and np.isfinite(value)
    assert all(isinstance(s, int) and s >= 0 for s in cfg.seeds)
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_cli_missing_checkpoint(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    code = cli_main(["adapt", "--config", str(cfg_path),
                     "--out", str(tmp_path / "empty")])
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR io:")


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.lstrip("_"))
def test_cli_corrupt_checkpoint_is_compat_error(tmp_path, capsys, corrupt):
    cfg_path = _write_cfg(tmp_path)
    ckpts = tmp_path / "ckpts"
    _corrupt_checkpoint(ckpts, corrupt)
    code = cli_main(["adapt", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--checkpoints", str(ckpts)])
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR compat:")


@pytest.mark.parametrize("exc, code", [
    (DegenerateDataError("all points identical"), "degenerate"),
    (NumericError("non-finite value"), "numeric"),
])
def test_cli_reports_error_code_of_any_driftadapt_error(tmp_path, capsys, monkeypatch,
                                                        exc, code):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "cmd_adapt", fail)
    rc = cli_main(["adapt", "--config", str(_write_cfg(tmp_path)),
                   "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"ERROR {code}: {exc}")


def test_every_error_class_carries_a_code():
    expected = {
        "ShapeMismatchError": "shape", "DegenerateVectorError": "degenerate",
        "DegenerateDataError": "degenerate", "ConfigError": "config",
        "ContractError": "contract", "DivergenceError": "divergence",
        "NumericError": "numeric", "CompatibilityError": "compat",
    }
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, Exception)
               and cls is not errors.DriftAdaptError}
    assert set(classes) == set(expected)
    for name, cls in classes.items():
        assert issubclass(cls, errors.DriftAdaptError)
        assert issubclass(cls, (ValueError, RuntimeError))
        assert cls.code == expected[name]


def test_cli_selftest(capsys):
    assert cli_main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_selftest_checks_cover_invariants():
    results = run_selftest()
    assert len(results) >= 5
    assert all(ok for _, ok, _ in results)
