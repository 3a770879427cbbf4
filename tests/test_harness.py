"""Harness and CLI tests on a miniature experiment."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TINY_DIMS, tiny_experiment, tiny_model

from driftadapt import (
    centroids as cb, checkpoint, cli, driftgen, errors, gradcore as gc, harness, selftest,
)
from driftadapt.cli import main as cli_main
from driftadapt.config import (
    PRESETS, AdaptConfig, BenchmarkConfig, ExperimentConfig, preset_benchmark,
)
from driftadapt.errors import (
    CompatibilityError,
    ConfigError,
    DegenerateDataError,
    DivergenceError,
    NumericError,
)
from driftadapt.model import ModelDims, SourceModel
from driftadapt.objectives import MethodVariant
from driftadapt.selftest import run_selftest


# -- config round trip -----------------------------------------------------


def test_config_json_round_trip(tmp_path):
    cfg = tiny_experiment(tmp_path)
    back = ExperimentConfig.from_dict(json.loads(json.dumps(asdict(cfg))))
    assert back == cfg


def test_config_unknown_field_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"learning_rate": 0.1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"adapt": {"momentum": 0.9}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"out_dir": "runs"})
    # the AdamW moment decays and eps are fixed optimizer constants
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"adapt": {"adam_beta1": 0.9}})


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


def test_pretrain_checkpoint_reads_no_adapt_optimizer_setting(tmp_path):
    # pretraining's lr and weight decay are model constants, so a sweep of
    # adaptation's optimizer settings trains the same source model
    cfg = tiny_experiment()
    harness.cmd_pretrain(cfg, tmp_path / "default")
    cfg.adapt = replace(cfg.adapt, lr=5e-2, weight_decay=0.0)
    harness.cmd_pretrain(cfg, tmp_path / "swept")
    assert (harness.checkpoint_path(tmp_path / "default", 0).read_bytes()
            == harness.checkpoint_path(tmp_path / "swept", 0).read_bytes())


_RUN_BOTH = ("import sys; from driftadapt.cli import main; "
             "sys.exit(main(['pretrain', *sys.argv[1:]]) or main(['adapt', *sys.argv[1:]]))")


def test_metrics_agree_across_blas_kernels(tmp_path):
    # bytes hold per BLAS kernel; across kernels the F1s are equal and the
    # gradient norms agree far inside 1e-9 relative (about 1e-15 measured)
    cfg = tiny_experiment()
    cfg.variants = ["source", "tent_em", "scanner"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(asdict(cfg)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(harness.__file__).parents[1])   # the tree under test
    runs = []
    for coretype in (None, "Prescott"):
        out = tmp_path / str(coretype)
        subprocess.run([sys.executable, "-c", _RUN_BOTH, "--config", str(config),
                        "--out", str(out)], check=True, capture_output=True,
                       env={**env, "OPENBLAS_CORETYPE": coretype} if coretype else env)
        runs.append(json.loads((out / "report.json").read_text())["runs"])
    default, prescott = runs
    assert [(r["variant"], r["seed"]) for r in default] == [
        (r["variant"], r["seed"]) for r in prescott]
    for a, b in zip(default, prescott):
        assert a["final_macro_f1"] == b["final_macro_f1"], a["variant"]
        assert np.allclose(a["grad_norm_trace"], b["grad_norm_trace"], rtol=1e-9, atol=0.0)


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


def test_pretrain_outputs_independent_of_workers(tmp_path, monkeypatch):
    # the seeds train one after another in this process whatever workers is
    def no_pool(*args, **kwargs):
        raise AssertionError("cmd_pretrain started a process pool")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    cfg = tiny_experiment(tmp_path)
    cfg.seeds = [0, 1]
    outs = {}
    for workers in (1, 2):
        cfg.workers = workers
        outs[workers] = tmp_path / f"w{workers}"
        harness.cmd_pretrain(cfg, outs[workers])
    names = ["pretrain_summary.json", "pretrain_seed0.ckpt", "pretrain_seed1.ckpt"]
    assert sorted(p.name for p in outs[1].iterdir()) == sorted(names)
    for name in names:
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name


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
    # 3 workers are more than the 2 seeds, so the pool starts 2 processes
    for workers in (1, 2, 3):
        cfg.workers = workers
        outs[workers] = tmp_path / f"w{workers}"
        harness.cmd_adapt(cfg, tmp_path, outs[workers])
    one = outs[1]
    diag = sorted(p.name for p in (one / "diagnostics").glob("*.csv"))
    assert len(diag) == 6
    for many in (outs[2], outs[3]):
        assert (one / "metrics.csv").read_bytes() == (many / "metrics.csv").read_bytes()
        assert diag == sorted(p.name for p in (many / "diagnostics").glob("*.csv"))
        for name in diag:
            assert (one / "diagnostics" / name).read_bytes() == \
                (many / "diagnostics" / name).read_bytes()
        # workers is an execution setting: the recorded config leaves it out
        assert (one / "report.json").read_bytes() == (many / "report.json").read_bytes()
    assert "workers" not in json.loads((one / "report.json").read_text())["config"]
    summary = json.loads((tmp_path / "pretrain_summary.json").read_text())
    assert "workers" not in summary["config"]


class _RecordingPool:
    """A stand-in for ProcessPoolExecutor: it records the size it is built
    with and runs its jobs in this process, starting none."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_adapt_pool_starts_no_more_processes_than_seeds(tmp_path, monkeypatch):
    cfg = tiny_experiment(tmp_path)
    cfg.seeds = [0, 1, 2]
    harness.cmd_pretrain(cfg, tmp_path)
    sizes = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(sizes, max_workers))
    # (workers, seeds, the pool's size; None: the jobs run in this process)
    for workers, seeds, pool in ((4, [0], None), (1, [0, 1], None), (4, [0, 1], 2),
                                 (2, [0, 1, 2], 2), (8, [0, 1, 2], 3)):
        sizes.clear()
        harness.cmd_adapt(replace(cfg, workers=workers, seeds=seeds), tmp_path,
                          tmp_path / f"w{workers}s{len(seeds)}")
        assert sizes == ([] if pool is None else [pool]), (workers, seeds)


def test_adapt_builds_each_seed_target_once(tmp_path, monkeypatch):
    cfg = tiny_experiment(tmp_path)
    cfg.seeds = [0, 1]
    cfg.variants = ["source", "scanner"]
    harness.cmd_pretrain(cfg, tmp_path)
    calls = []
    build = harness.build_domain

    def counting_build(cfg, seed, role):
        calls.append((seed, role))
        return build(cfg, seed, role)

    monkeypatch.setattr(harness, "build_domain", counting_build)
    harness.cmd_adapt(cfg, tmp_path, tmp_path / "out")
    assert sorted(calls) == [(0, "target"), (1, "target")]


def test_pool_workers_build_the_targets(tmp_path, monkeypatch):
    cfg = tiny_experiment(tmp_path)
    cfg.seeds = [0, 1]
    cfg.workers = 2
    harness.cmd_pretrain(cfg, tmp_path)
    log = tmp_path / "build_domain_calls.txt"
    build = harness.build_domain

    def logging_build(cfg, seed, role):
        # forked pool processes share no Python list, so each call logs a line
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {seed} {role}\n")
        return build(cfg, seed, role)

    # the pool's processes fork after the patch, so they run it too
    monkeypatch.setattr(harness, "build_domain", logging_build)
    harness.cmd_adapt(cfg, tmp_path, tmp_path / "out")
    calls = [line.split() for line in log.read_text().splitlines()]
    # the parent builds no target; each seed's job builds its own, once
    assert str(os.getpid()) not in {pid for pid, *_ in calls}
    assert sorted((int(seed), role) for _, seed, role in calls) == [(0, "target"), (1, "target")]


def _counting_kmeanspp(monkeypatch, fail_seeds=()):
    """Patch the bank seeding to record each call's k-means++ seed and to
    raise DegenerateDataError for the seeds in ``fail_seeds``."""
    calls = []
    init = cb.init_kmeanspp

    def counting(features, k, seed=0, **kwargs):
        calls.append(seed)
        if seed in fail_seeds:
            raise DegenerateDataError("all points identical; cannot seed k>1 clusters")
        return init(features, k, seed=seed, **kwargs)

    monkeypatch.setattr(cb, "init_kmeanspp", counting)
    return calls


def test_adapt_seeds_each_seeds_banks_once(tmp_path, monkeypatch):
    cfg = tiny_experiment(tmp_path)
    cfg.seeds = [0, 1]
    cfg.variants = ["can", "scan", "scanner"]
    harness.cmd_pretrain(cfg, tmp_path)
    calls = _counting_kmeanspp(monkeypatch)
    shared = harness.cmd_adapt(cfg, tmp_path, tmp_path / "shared")
    # one k-means++ per (seed, modality), seeded in the first bank run (can)
    assert calls == [0, 1, 2, 101, 102, 103]
    for variant in cfg.variants:
        out = tmp_path / variant
        alone = harness.cmd_adapt(replace(cfg, variants=[variant]), tmp_path, out)
        runs = [r for r in shared["runs"] if r["variant"] == variant]
        assert [json.dumps(r, sort_keys=True) for r in runs] == \
            [json.dumps(r, sort_keys=True) for r in alone["runs"]]
        for seed in cfg.seeds:
            name = f"{variant}_seed{seed}.csv"
            assert (out / "diagnostics" / name).read_bytes() == \
                (tmp_path / "shared" / "diagnostics" / name).read_bytes()
    # every run alone seeds its own banks
    assert len(calls) == 6 + 3 * 6


def test_pool_seeds_each_seeds_banks_once(tmp_path, monkeypatch):
    cfg = tiny_experiment(tmp_path)
    cfg.seeds = [0, 1]
    cfg.variants = ["can", "scan", "scanner"]
    cfg.workers = 2
    harness.cmd_pretrain(cfg, tmp_path)
    log = tmp_path / "kmeanspp_seeds.txt"
    init = cb.init_kmeanspp

    def logging(features, k, seed=0, **kwargs):
        # forked pool processes share no Python list, so each call logs a line
        with open(log, "a") as fh:
            fh.write(f"{seed}\n")
        return init(features, k, seed=seed, **kwargs)

    # the pool's processes fork after the patch, so they run it too
    monkeypatch.setattr(cb, "init_kmeanspp", logging)
    harness.cmd_adapt(cfg, tmp_path, tmp_path / "out")
    # one k-means++ per (seed, modality), not one per (variant, seed, modality)
    assert sorted(int(line) for line in log.read_text().split()) == [0, 1, 2, 101, 102, 103]


# 101 and 102 seed the first and the second modality of seed 1: a failure in
# the second must leave no first-modality centroids for the next bank run
@pytest.mark.parametrize("workers, fail_seed", [(1, 101), (2, 101), (1, 102), (2, 102)],
                         ids=["1", "2", "1-102", "2-102"])
def test_degenerate_bank_seeding_fails_each_bank_run_alone(tmp_path, monkeypatch, workers,
                                                           fail_seed):
    cfg = tiny_experiment(tmp_path)
    cfg.seeds = [0, 1]
    cfg.variants = ["source", "can", "scanner"]
    cfg.workers = workers
    harness.cmd_pretrain(cfg, tmp_path)
    clean = harness.cmd_adapt(cfg, tmp_path, tmp_path / "clean")
    # the pool's processes fork after the patch, so they run it too
    _counting_kmeanspp(monkeypatch, fail_seeds={fail_seed})
    doc = harness.cmd_adapt(cfg, tmp_path, tmp_path / "out")
    message = "all points identical; cannot seed k>1 clusters"
    assert doc["failed_runs"] == [
        {"variant": variant, "seed": 1, "code": "degenerate", "message": message}
        for variant in ("can", "scanner")]
    assert doc["runs"] == [r for r in clean["runs"] if (r["variant"], r["seed"]) not in
                           {("can", 1), ("scanner", 1)}]

def test_each_command_generates_only_the_domain_it_reads(tmp_path, monkeypatch):
    cfg = tiny_experiment(tmp_path)
    cfg.benchmark.n_target = 64
    sizes = []
    generate = driftgen.generate_domain

    def counting_generate(cores, domain, n, seed):
        sizes.append(n)
        return generate(cores, domain, n, seed)

    monkeypatch.setattr(driftgen, "generate_domain", counting_generate)
    harness.cmd_pretrain(cfg, tmp_path)
    assert sizes == [96]
    sizes.clear()
    harness.cmd_adapt(cfg, tmp_path, tmp_path / "out")
    assert sizes == [64]


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


def _bad_magic(blob):
    return b"NOTACKPT" + blob[8:]


def _trailing_bytes(blob):
    return blob + b"\x00"


def _nan_encoder_weight(blob):
    arrays = checkpoint.loads(blob)
    arrays["enc.v.weight"][0, 0] = np.nan
    return checkpoint.dumps(arrays)


def _overflowing_encoder_weight(blob):
    # finite, so the checkpoint loads, but its layer norm variance overflows
    arrays = checkpoint.loads(blob)
    arrays["enc.v.weight"] *= 1e200
    return checkpoint.dumps(arrays)


CORRUPTIONS = [_bad_magic, _cut_to_half, _cut_to_ten_bytes, _drop_input_stats,
               _garble_first_name, _trailing_bytes]


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
        SourceModel.load(path, TINY_DIMS)


@pytest.mark.parametrize("name, value", [("enc.v.weight", np.nan), ("stats.a.var", np.inf),
                                         ("clf.bias", -np.inf)])
def test_non_finite_checkpoint_entry_raises_compat_naming_it(tmp_path, name, value):
    path = tmp_path / "model.ckpt"
    tiny_model().save(path)
    arrays = checkpoint.load(path)
    arrays[name].flat[-1] = value
    checkpoint.save(path, arrays)
    with pytest.raises(CompatibilityError, match=f"checkpoint entry {name} holds NaN or inf"):
        SourceModel.load(path, TINY_DIMS)


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


def test_export_embeddings_builds_no_graph(tmp_path, monkeypatch):
    cfg = tiny_experiment(tmp_path)
    harness.cmd_pretrain(cfg, tmp_path)
    made = []
    make = gc._make
    monkeypatch.setattr(gc, "_make", lambda *args: made.append(make(*args)) or made[-1])
    harness.cmd_export_embeddings(cfg, harness.checkpoint_path(tmp_path, 0),
                                  tmp_path / "emb.csv")
    assert made and not any(t._parents for t in made)


# -- CLI -------------------------------------------------------------------


def _write_cfg(tmp_path):
    cfg = tiny_experiment(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(asdict(cfg)))
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


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_run_stays_in_its_own_run(tmp_path, capsys, monkeypatch, workers):
    cfg = tiny_experiment(tmp_path)
    cfg.seeds = [0, 1]
    cfg.variants = ["source", "scanner"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    harness.cmd_pretrain(cfg, tmp_path)
    clean, out = tmp_path / "clean", tmp_path / "out"
    argv = ["adapt", "--config", str(cfg_path), "--checkpoints", str(tmp_path),
            "--workers", str(workers)]
    assert cli_main(argv + ["--out", str(clean)]) == 0
    capsys.readouterr()
    doc = json.loads((clean / "report.json").read_text())
    assert "failed_runs" not in doc

    run = harness.run_stream

    def diverging(model, target, adapt_cfg, variant, seed=0, seeded=None):
        if (variant, seed) == ("scanner", 1):
            raise DivergenceError("non-finite loss at tau=3: {}", tau=3)
        return run(model, target, adapt_cfg, variant, seed=seed, seeded=seeded)

    # the pool's processes fork after the patch, so they run it too
    monkeypatch.setattr(harness, "run_stream", diverging)
    assert cli_main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "ERROR divergence: scanner seed 1: non-finite loss at tau=3: {}"]
    assert "source: macro-F1" in captured.out and "scanner: macro-F1" in captured.out

    failed = json.loads((out / "report.json").read_text())
    # the pool pickles the error, tau included, back to the parent
    assert failed.pop("failed_runs") == [{"variant": "scanner", "seed": 1, "code": "divergence",
                                          "message": "non-finite loss at tau=3: {}", "tau": 3}]
    kept = [r for r in doc["runs"] if (r["variant"], r["seed"]) != ("scanner", 1)]
    assert failed["runs"] == kept
    assert failed["aggregate"]["source"] == doc["aggregate"]["source"]
    diag = sorted(p.name for p in (out / "diagnostics").iterdir())
    assert diag == ["scanner_seed0.csv", "source_seed0.csv", "source_seed1.csv"]
    for name in diag:
        assert (out / "diagnostics" / name).read_bytes() == \
            (clean / "diagnostics" / name).read_bytes()
    rows = (out / "metrics.csv").read_text().splitlines()
    assert rows[:4] == (clean / "metrics.csv").read_text().splitlines()[:4]
    assert not any(row.startswith("scanner,1,") for row in rows)


def test_cli_export_embeddings_of_a_non_finite_checkpoint_is_compat_error(tmp_path, capsys):
    path = _corrupt_checkpoint(tmp_path / "ckpts", _nan_encoder_weight)
    code = cli_main(["export-embeddings", "--config", str(_write_cfg(tmp_path)),
                     "--out", str(tmp_path / "out"), "--checkpoint", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR compat: checkpoint entry enc.v.weight")
    assert not (tmp_path / "out" / "embeddings.csv").exists()


def test_cli_export_embeddings_of_an_overflowing_checkpoint_is_numeric_error(tmp_path, capsys):
    path = _corrupt_checkpoint(tmp_path / "ckpts", _overflowing_encoder_weight)
    code = cli_main(["export-embeddings", "--config", str(_write_cfg(tmp_path)),
                     "--out", str(tmp_path / "out"), "--checkpoint", str(path)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "ERROR numeric: layer norm variance is not finite"]
    assert not (tmp_path / "out" / "embeddings.csv").exists()


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
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    code = cli_main(["adapt", "--config", str(path), "--out", str(tmp_path), *extra])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ERROR config:") and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "diagnostics").exists()


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


# a UTF-16 byte order mark and a truncated unit; a stray byte after UTF-8 JSON
@pytest.mark.parametrize("raw", [b"\xff\xfe\x00", b'{"seeds": [0]}\xff'],
                         ids=["utf16-truncated", "utf8-stray-byte"])
def test_cli_config_in_no_json_encoding_is_config_error(tmp_path, capsys, raw):
    _cli_config_error(tmp_path, capsys, raw)


def test_cli_adam_field_is_config_error(tmp_path, capsys):
    _cli_config_error(tmp_path, capsys, '{"adapt": {"adam_beta1": 0.9}}')


def test_cli_n_classes_field_is_config_error(tmp_path, capsys):
    # the class count is the binary benchmark's fixed 2, not a config field
    assert ExperimentConfig.n_classes == ExperimentConfig().n_classes == 2
    assert "n_classes" not in ExperimentConfig().recorded()
    _cli_config_error(tmp_path, capsys, '{"n_classes": 2}')


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
    assert ExperimentConfig.from_dict({"benchmark": {"preset": "severe"}}).benchmark == severe
    cfg = ExperimentConfig.from_dict({"benchmark": {"preset": "severe", "n_target": 96}})
    assert cfg.benchmark == replace(severe, n_target=96)
    custom = ExperimentConfig.from_dict({"benchmark": {"preset": "custom"}}).benchmark
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


def test_recorded_config_states_only_the_numbers_that_ran(tmp_path, capsys):
    # every mild field is explicit, so --preset severe changes no number;
    # the recorded config then carries no preset label to contradict them
    raw = json.loads(json.dumps(asdict(tiny_experiment())))
    raw["benchmark"] = {**asdict(BenchmarkConfig()), "n_source": 96, "n_target": 96}
    path = tmp_path / "mild.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    for command in ("pretrain", "adapt"):
        assert cli_main([command, "--config", str(path), "--out", str(out),
                         "--preset", "severe"]) == 0
    capsys.readouterr()
    ran = {k: v for k, v in raw["benchmark"].items() if k != "preset"}
    for name in ("pretrain_summary.json", "report.json"):
        recorded = json.loads((out / name).read_text())["config"]
        assert recorded["benchmark"] == ran
        assert ExperimentConfig.from_dict(recorded).benchmark == BenchmarkConfig(**ran)


@pytest.mark.parametrize("raw", [
    {"adapt": {"k": True}}, {"adapt": {"k": 2.0}}, {"d_h": "32"},
    {"benchmark": {"core_jitter": [0.1, 0.2]}}, {"benchmark": {"p_hate": 1.0}},
    {"benchmark": {"severity": float("inf")}}, {"benchmark": 3},
    {"seeds": [0, 0]}, {"seeds": [-1]}, {"variants": []}, {"variants": [["can"]]},
    {"n_classes": 1}, {"adapt": {"norm_momentum": 1.5}}, {"adapt": {"st_confidence": 0.5}},
    {"adapt": {"beta": -1.0}}, {"adapt": {"lr": -1e-3}}, [1, 2],
    {"benchmark": {"p_hate": [1.5, 0.0, 0.0, 0.0]}}, {"benchmark": {"core_jitter": -0.1}},
    {"benchmark": {"style_drift": -1.0}}, {"benchmark": {"label_noise": 1.5}},
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


# values that the config's checks accept, by field name or else by declared
# type: every float range admits (0.5, 1), style_drift and core_jitter (type
# object) any number >= 0, and n_cores the length of every p_hate drawn here;
# a batch holds at least the k clusters that seed the banks
_IN_RANGE = {
    "int": st.integers(1, 8),
    "float": st.floats(0.51, 0.99),
    "object": st.floats(0.0, 1.0),
    "n_cores": st.just(4),
    "batch_size": st.integers(8, 64),
    "preset": st.sampled_from(PRESETS),
    "outlier_mode": st.sampled_from(["scatter", "clump"]),
    "p_hate": st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    "variants": st.lists(st.sampled_from([v.value for v in MethodVariant]),
                         min_size=1, max_size=3, unique=True),
    "seeds": st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
}


def _value(f, n):
    """A value that field ``f``'s check accepts or, in one draw of ``n``, an
    arbitrary JSON-like value; the accepted values are the simplest draws."""
    return st.integers(1, n).flatmap(
        lambda i: _ANY_VALUE if i == n else _IN_RANGE.get(f.name, _IN_RANGE.get(f.type)))


def _changes(klass, n):
    """Up to three plain fields of ``klass``, each set to a ``_value``."""
    plain = [f for f in fields(klass) if f.name not in ("benchmark", "adapt")]
    change = st.sampled_from(plain).flatmap(lambda f: st.tuples(st.just(f.name), _value(f, n)))
    return st.lists(change, max_size=3).map(dict)


def _documents(n):
    """Config documents whose blocks change their fields by ``_changes``."""
    def mutated(klass):
        base = {f.name: getattr(klass(), f.name) for f in fields(klass)}
        return _changes(klass, n).map(lambda changes: {**base, **changes})

    return st.builds(lambda bench, adapt, top: {"benchmark": bench, "adapt": adapt, **top},
                     mutated(BenchmarkConfig), mutated(AdaptConfig),
                     _changes(ExperimentConfig, n))


# half of the changed values are arbitrary, to probe every check
@settings(max_examples=300, deadline=None)
@given(_documents(2))
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
    assert ExperimentConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg


# every code an ERROR line may carry: one per error class, and io for an OSError
ERROR_CODES = {cls.code for cls in errors.DriftAdaptError.__subclasses__()} | {"io"}


def _run_cli(argv):
    """(exit status, stderr lines) of one CLI command; an error that the CLI
    does not report as an ERROR line propagates as its traceback would."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue().splitlines()


def _error_codes(lines):
    """The codes of the ERROR lines; any other line must be a warning."""
    codes = []
    for line in lines:
        found = re.match(r"ERROR (\w+): ", line)
        if found:
            codes.append(found.group(1))
        else:
            # numpy's RuntimeWarning and the source line it echoes
            assert "Warning: " in line or line.startswith(" "), line
    return codes


# one changed value in twenty is arbitrary, so that most documents run
@settings(max_examples=25, deadline=None)
@given(_documents(20))
def test_fuzzed_config_runs_or_fails_with_documented_codes(raw):
    # a drawn document at small sizes either runs every (variant, seed) or
    # ends each failure in a documented ERROR line, never a traceback
    raw["benchmark"].update(n_source=48, n_target=48, d_in=4, d_z=4)
    raw.update(d_h=4, pretrain_epochs=1, workers=1)
    seeds = raw.setdefault("seeds", [0, 1])
    if isinstance(seeds, list):
        raw["seeds"] = seeds[:2]
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp, "cfg.json"), Path(tmp, "out")
        cfg_path.write_text(json.dumps(raw))
        code, err = _run_cli(["pretrain", "--config", str(cfg_path), "--out", str(out)])
        codes = _error_codes(err)
        assert (code, len(codes)) in ((0, 0), (2, 1)) and set(codes) <= ERROR_CODES
        code, err = _run_cli(["adapt", "--config", str(cfg_path), "--out", str(out)])
        codes = _error_codes(err)
        assert set(codes) <= ERROR_CODES
        report = out / "report.json"
        doc = json.loads(report.read_text()) if report.exists() else None
        if code == 0:
            assert not codes
            cfg = ExperimentConfig.from_dict(raw)
            assert {(r["variant"], r["seed"]) for r in doc["runs"]} == \
                {(v, s) for v in cfg.variants for s in cfg.seeds}
        else:
            assert code == 2
            failed = doc["failed_runs"] if doc else [{"code": codes[0]}]
            assert codes == [f["code"] for f in failed]


def test_cli_missing_checkpoint(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    code = cli_main(["adapt", "--config", str(cfg_path),
                     "--out", str(tmp_path / "empty")])
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR io:")
    # each job reads its own checkpoint, so every run fails alone with io
    failed = json.loads((tmp_path / "empty" / "report.json").read_text())["failed_runs"]
    assert [(f["variant"], f["code"]) for f in failed] == [("source", "io"), ("scanner", "io")]


def _delete_checkpoint(ckpt_dir, monkeypatch):
    harness.checkpoint_path(ckpt_dir, 1).unlink()
    return "io"


def _fail_target(ckpt_dir, monkeypatch):
    build = harness.build_domain

    def failing(cfg, seed, role):
        if seed == 1:
            raise ConfigError("cores never separate")
        return build(cfg, seed, role)

    # the pool's processes fork after the patch, so they run it too
    monkeypatch.setattr(harness, "build_domain", failing)
    return "config"


def test_numeric_failures_record_the_batch_they_raised_at(tmp_path):
    # a huge step overflows the encoder a few batches in; the failed run
    # records that batch's index as a divergence does
    cfg = tiny_experiment(tmp_path)
    cfg.variants = ["tent_em", "scanner"]
    harness.cmd_pretrain(cfg, tmp_path)
    cfg.adapt.lr = 1e60
    with np.errstate(over="ignore", invalid="ignore"):
        doc = harness.cmd_adapt(cfg, tmp_path, tmp_path / "out")
    n_batches = -(-cfg.benchmark.n_target // cfg.adapt.batch_size)
    failed = doc["failed_runs"]
    assert [(f["variant"], f["code"]) for f in failed] == [("tent_em", "numeric"),
                                                           ("scanner", "numeric")]
    assert all(type(f["tau"]) is int and 0 < f["tau"] < n_batches for f in failed)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["failed_runs"] == failed


def _nan_in_checkpoint(ckpt_dir, monkeypatch):
    # its NaN features made scanner's k-means++ seeding raise a ValueError
    # that wrote no report, and source score one-class predictions
    path = harness.checkpoint_path(ckpt_dir, 1)
    path.write_bytes(_nan_encoder_weight(path.read_bytes()))
    return "compat"


def _overflow_in_checkpoint(ckpt_dir, monkeypatch):
    # its encoder turned every row into the bias: source scored the collapse
    # with no error and scanner failed as degenerate
    path = harness.checkpoint_path(ckpt_dir, 1)
    path.write_bytes(_overflowing_encoder_weight(path.read_bytes()))
    return "numeric"


def _overflow_in_attention(ckpt_dir, monkeypatch):
    # a finite checkpoint whose attention scores overflow: its NaN fused
    # logits were scored as source predictions, and tent_em and scanner
    # failed as divergence at tau=0
    path = harness.checkpoint_path(ckpt_dir, 1)
    arrays = checkpoint.load(path)
    arrays["fusion.wq"] *= 1e160
    arrays["fusion.wk"] *= 1e160
    checkpoint.save(path, arrays)
    return "numeric"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("break_seed", [_delete_checkpoint, _fail_target, _nan_in_checkpoint,
                                        _overflow_in_checkpoint, _overflow_in_attention],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_unreadable_seed_inputs_fail_only_that_seeds_runs(tmp_path, capsys, monkeypatch,
                                                           break_seed, workers):
    cfg = tiny_experiment(tmp_path)
    cfg.seeds = [0, 1]
    cfg.variants = ["source", "scanner"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(asdict(cfg)))
    harness.cmd_pretrain(cfg, tmp_path)
    harness.cmd_adapt(cfg, tmp_path, tmp_path / "clean")
    clean = json.loads((tmp_path / "clean" / "report.json").read_text())
    code = break_seed(tmp_path, monkeypatch)
    out = tmp_path / "out"
    assert cli_main(["adapt", "--config", str(cfg_path), "--checkpoints", str(tmp_path),
                     "--out", str(out), "--workers", str(workers)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == [f"ERROR {code}"] * 2
    assert [line.split(": ")[1] for line in err] == ["source seed 1", "scanner seed 1"]
    doc = json.loads((out / "report.json").read_text())
    assert [(f["variant"], f["seed"], f["code"]) for f in doc["failed_runs"]] == \
        [("source", 1, code), ("scanner", 1, code)]
    assert doc["runs"] == [r for r in clean["runs"] if r["seed"] == 0]
    assert sorted(p.name for p in (out / "diagnostics").iterdir()) == \
        ["scanner_seed0.csv", "source_seed0.csv"]
    for name in ("scanner_seed0.csv", "source_seed0.csv"):
        assert (out / "diagnostics" / name).read_bytes() == \
            (tmp_path / "clean" / "diagnostics" / name).read_bytes()


def test_cli_three_class_checkpoint_is_compat_error(tmp_path, capsys):
    # the benchmark's labels are binary, so a 3-class head cannot adapt to it
    cfg_path = _write_cfg(tmp_path)
    SourceModel(ModelDims(d_in=4, d_h=6, n_classes=3), seed=0).save(
        harness.checkpoint_path(tmp_path, 0))
    code = cli_main(["adapt", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--checkpoints", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2   # one line per failed (variant, seed) run
    assert all(line.startswith("ERROR compat:") and "dims [4.0, 6.0, 3.0]" in line
               for line in err)


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.lstrip("_"))
def test_cli_corrupt_checkpoint_is_compat_error(tmp_path, capsys, corrupt):
    cfg_path = _write_cfg(tmp_path)
    ckpts = tmp_path / "ckpts"
    _corrupt_checkpoint(ckpts, corrupt)
    code = cli_main(["adapt", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--checkpoints", str(ckpts)])
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR compat:")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("dims", [[4, 6], [4, float("nan"), 2], [4, -6, 2], [[4, 6, 2]],
                                  [4, 6.5, 2], [4, 1e12, 2]], ids=str)
def test_cli_malformed_checkpoint_dims_is_compat_error(tmp_path, capsys, dims, workers):
    # the tiny checkpoint's dims are [4, 6, 2]; each entry is compared with
    # the config's dims before a model is built, so 6.5 is not cut to 6 and
    # 1e12 allocates nothing
    cfg_path = _write_cfg(tmp_path)
    ckpts = tmp_path / "ckpts"

    def set_dims(blob):
        arrays = checkpoint.loads(blob)
        arrays["dims"] = np.asarray(dims, dtype=np.float64)
        return checkpoint.dumps(arrays)

    _corrupt_checkpoint(ckpts, set_dims)
    code = cli_main(["adapt", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--checkpoints", str(ckpts), "--workers", str(workers)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2   # one line per failed (variant, seed) run
    assert all(line.startswith("ERROR compat:") and "dims" in line for line in err)


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
        # every error can carry the index of the batch it raised at
        assert cls("x").tau is None and cls("x", tau=4).tau == 4


def test_readme_error_table_lists_each_code_once():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("### Errors", 1)[1].split("\n#", 1)[0]
    codes = re.findall(r"^\| `(\w+)` +\|", table, flags=re.MULTILINE)
    assert sorted(codes) == sorted(ERROR_CODES)


def test_cli_selftest(capsys):
    assert cli_main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_selftest_reports_an_error_as_one_failed_check(monkeypatch, capsys):
    def _check_softmax(rng):
        raise errors.NumericError("loss value is not finite")

    monkeypatch.setattr(selftest, "_check_softmax", _check_softmax)
    assert cli_main(["selftest"]) == 1
    captured = capsys.readouterr()
    rows = captured.out.splitlines()
    assert rows[0] == "FAIL check_softmax: NumericError: loss value is not finite"
    assert all(row.startswith("PASS ") for row in rows[1:])
    assert rows[-1].startswith("PASS check_loss_gradients:")
    assert "ERROR" not in captured.err


def test_selftest_checks_cover_invariants():
    results = run_selftest()
    assert len(results) >= 5
    assert all(ok for _, ok, _ in results)
