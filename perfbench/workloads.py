"""The benchmark's workloads and how one run of a workload is measured.

Every workload runs one of the two commands users run, ``harness.cmd_pretrain``
or ``harness.cmd_adapt``, on the ``severe`` preset with the default
``AdaptConfig`` (batch 128, k=5) and 50 pretrain epochs.
"""

from __future__ import annotations

import math
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from driftadapt import harness, optim, ttaloop
from driftadapt.config import AdaptConfig, ExperimentConfig, preset_benchmark

import checks
from gauge import SpeedGauge
from spans import SpanRecorder, patched, traced_names

PRESET = "severe"
PRETRAIN_EPOCHS = 50
# A short set-up is repeated until this much set-up time has passed, for a
# steady median; the adapt set-up (pretraining three checkpoints, about 10 s)
# runs once, so that the time budget of a run goes to the repetitions.
SETUP_MIN_SECONDS = 2.0
# The command runs at least this often, so that a median of repetitions
# still has three samples when a slow machine stretches a pretrain to 12 s.
MIN_REPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # "pretrain" or "adapt"
    variants: tuple
    seeds: tuple        # data seeds; --workload-seed adds to each
    workers: int


# Why each workload was chosen, and what it should and should not move:
# perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("pretrain_severe", "pretrain", (), (0, 1), 2),
    Workload("adapt_infer", "adapt", ("source", "norm"), (0, 1, 2), 1),
    Workload("adapt_grad", "adapt", ("st", "tent_em", "can", "scan", "scanner"), (0, 1, 2), 1),
)}


def make_config(w: Workload, run_seed: int, workload_seed: int) -> ExperimentConfig:
    """The experiment config of one run.

    ``workload_seed`` shifts the data seeds, which changes the data and the
    results. ``run_seed`` only permutes the order in which the command runs
    its (variant, seed) jobs, so every run seed does the same work and gives
    the same quality metrics.
    """
    rng = np.random.default_rng(run_seed)
    seeds = [w.seeds[i] + workload_seed for i in rng.permutation(len(w.seeds))]
    extra = {"variants": [w.variants[i] for i in rng.permutation(len(w.variants))]} if w.variants else {}
    return ExperimentConfig(
        benchmark=preset_benchmark(PRESET), adapt=AdaptConfig(), seeds=seeds,
        workers=w.workers, pretrain_epochs=PRETRAIN_EPOCHS, **extra,
    )


def _n_train(cfg: ExperimentConfig) -> int:
    n = cfg.benchmark.n_source
    return n - int(round(n * checks.HOLDOUT_FRAC))


def samples_per_command(w: Workload, cfg: ExperimentConfig) -> int:
    """Samples one command processes: n_train x epochs x seeds for pretrain,
    n_target x runs for adapt."""
    if w.command == "pretrain":
        return _n_train(cfg) * cfg.pretrain_epochs * len(cfg.seeds)
    return cfg.benchmark.n_target * len(cfg.variants) * len(cfg.seeds)


class Operations:
    """Counts attempted operations and records each one that failed.

    An operation is one set-up or one command run together with its checks;
    a driftadapt exception or a failed check fails it, and the run goes on.
    """

    def __init__(self):
        self.attempted = 0
        self.errors = []

    def attempt(self, label, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # recorded as a failed operation
            self.errors.append({
                "operation": label, "error": type(exc).__name__,
                "message": str(exc), "traceback": traceback.format_exc(),
            })
            return None


@dataclass(frozen=True)
class Interval:
    """A timed piece of work: clock times and its own seconds (the wall time
    less the calibration kernel runs inside it)."""
    start: float
    end: float
    seconds: float


def timed(gauge: SpeedGauge, fn, *args) -> Interval:
    """Runs ``fn`` between two calibration kernel runs."""
    gauge.tick()
    spent, start = gauge.spent, time.perf_counter()
    fn(*args)
    end = time.perf_counter()
    seconds = end - start - (gauge.spent - spent)
    gauge.read()
    return Interval(start, end, seconds)


def gauge_in_steps(gauge: SpeedGauge) -> dict:
    """Runs the kernel between optimizer steps of a pretrain in this process."""
    def wrap(step):
        def step_after_tick(self):
            gauge.tick()
            return step(self)

        return step_after_tick

    return {(optim.AdamW, "step"): wrap}


class BatchClock:
    """Latency of every ``ttaloop.adapt_batch`` call, one pair of clock reads
    per call, keyed by its position (variant, seed, tau) in the command.

    The calibration kernel runs between batches, outside the clock reads.
    Every repetition of a command runs the same batches; each latency is
    scaled by the speed of the machine during its repetition.
    """

    def __init__(self, gauge: SpeedGauge):
        self.gauge = gauge
        self.rep = 0            # the repetition of the command now running
        self.samples_ms = {}    # position -> [(repetition, milliseconds)]

    def patches(self) -> dict:
        return {(ttaloop, "adapt_batch"): self._time_batch}

    def _time_batch(self, adapt_batch):
        def timed_batch(state, batch):
            key = (state.variant.value, state.seed, state.tau)
            self.gauge.tick()
            start = time.perf_counter()
            result = adapt_batch(state, batch)
            ms = (time.perf_counter() - start) * 1e3
            self.samples_ms.setdefault(key, []).append((self.rep, ms))
            return result

        return timed_batch

    def scaled_ms(self, rep_scales: dict, first_only: bool = False) -> list:
        """Per position, its latencies in the repetitions of ``rep_scales``
        (those that completed), each times its repetition's scale."""
        return [[ms * rep_scales[rep] for rep, ms in v if rep in rep_scales]
                for (_, _, tau), v in sorted(self.samples_ms.items())
                if tau == 0 or not first_only]


def pretrain_steps(cfg: ExperimentConfig) -> int:
    return cfg.pretrain_epochs * math.ceil(_n_train(cfg) / cfg.adapt.batch_size) * len(cfg.seeds)


def _set_up(w: Workload, cfg, out: Path):
    """Data generation, plus the checkpoints an adapt workload reads."""
    if w.command == "adapt":
        harness.cmd_pretrain(cfg, out)
    else:
        for seed in cfg.seeds:
            harness.build_domains(cfg, seed)


def _run_command(w: Workload, cfg, ckpt_dir, out: Path):
    if w.command == "pretrain":
        harness.cmd_pretrain(cfg, out)
    else:
        harness.cmd_adapt(cfg, ckpt_dir, out)


def _check_output(w: Workload, cfg, ckpt_dir, out: Path) -> dict:
    """Full correctness check of one command's output; its quality metrics."""
    if w.command == "pretrain":
        holdout_acc, holdout_f1 = checks.check_pretrain(out, cfg)
        return {"holdout_acc": holdout_acc, "final_macro_f1": holdout_f1}
    return {"final_macro_f1": checks.check_adapt(out, cfg, ckpt_dir)}


def _timed_and_checked(w, cfg, ckpt_dir, out, reference, gauge):
    """One command run: timed, then checked against the reference run's files
    (or fully, for the first run). Returns (Interval, quality metrics or None)."""
    interval = timed(gauge, _run_command, w, cfg, ckpt_dir, out)
    if reference is None:
        return interval, _check_output(w, cfg, ckpt_dir, out)
    checks.check_same_files(reference, out)
    shutil.rmtree(out)
    return interval, None


class SetUps:
    """Repeated set-ups of one run. The first one's checkpoints are the ones
    the commands read; every later set-up must write identical files."""

    def __init__(self, w: Workload, cfg, work: Path, ops: Operations, gauge: SpeedGauge):
        self.w, self.cfg, self.work, self.ops, self.gauge = w, cfg, work, ops, gauge
        self.intervals = []
        self.ckpt_dir = None
        self.holdout = None     # mean holdout accuracy of the checkpoints
        self.failed = False

    def _once(self, i):
        out = self.work / f"setup{i}"
        with patched(gauge_in_steps(self.gauge)):
            interval = timed(self.gauge, _set_up, self.w, self.cfg, out)
        if self.w.command == "adapt":
            if i == 0:
                self.ckpt_dir = out
                self.holdout = checks.check_pretrain(out, self.cfg)[0]
            else:
                checks.check_same_files(self.ckpt_dir, out)
                shutil.rmtree(out)
        return interval

    def repeat(self, seconds_min: float):
        """Sets up at least once, and until ``seconds_min`` have passed."""
        n = len(self.intervals)
        while not self.failed and (not n or sum(iv.seconds for iv in self.intervals) < seconds_min):
            interval = self.ops.attempt(f"set-up {n}", self._once, n)
            if interval is None:
                self.failed = True
            else:
                self.intervals.append(interval)
            n = len(self.intervals)


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure(w: Workload, cfg, work: Path, seconds: int) -> dict:
    """Untraced run: end-to-end metrics with sample counts."""
    ops = Operations()
    gauge = SpeedGauge()
    setups = SetUps(w, cfg, work, ops, gauge)
    setups.repeat(SETUP_MIN_SECONDS)
    clock = BatchClock(gauge)
    runs, quality, reference = {}, None, None   # runs: repetition -> Interval
    samples = samples_per_command(w, cfg)
    if not setups.failed:
        deadline = time.perf_counter() + seconds
        with patched(clock.patches() if w.command == "adapt" else gauge_in_steps(gauge)):
            rep = 0
            while rep < MIN_REPS or time.perf_counter() < deadline:
                out = work / f"rep{rep}"
                clock.rep = rep
                result = ops.attempt(f"{w.command} run {rep}", _timed_and_checked,
                                     w, cfg, setups.ckpt_dir, out, reference, gauge)
                if result is not None:
                    runs[rep] = result[0]
                    if reference is None:
                        reference, quality = out, result[1]
                rep += 1
    if quality is None:
        return {"ops": ops, "metrics": None}
    if setups.holdout is not None:
        quality["holdout_acc"] = setups.holdout
    # every set-up and repetition at reference speed
    scales = {rep: gauge.scale(iv.start, iv.end) for rep, iv in runs.items()}
    setup_scales = [gauge.scale(iv.start, iv.end) for iv in setups.intervals]
    walls = [iv.seconds * scales[rep] for rep, iv in runs.items()]
    if w.command == "adapt":
        # A batch's latency is the mean of its repetitions. The first batch
        # takes about 6 ms in some variants and 25-60 ms where banks are
        # seeded; a median would fall at the low edge of the slow ones and
        # swing by 12% between runs, so the first batch is a mean over every
        # repetition of every run.
        lat = [statistics.fmean(v) for v in clock.scaled_ms(scales)]
        first = [ms for v in clock.scaled_ms(scales, first_only=True) for ms in v]
    else:
        # A training step may run in a worker process, out of the clock's
        # reach, so a pretrain "batch" is the command's wall time per step.
        lat = [1e3 * s / pretrain_steps(cfg) for s in walls]
        first = lat[:1]
    setup_times = [iv.seconds * k for iv, k in zip(setups.intervals, setup_scales)]
    metrics = {
        "samples_per_s": (samples / statistics.median(walls), "1/s"),
        "batch_p50_ms": (statistics.median(lat), "ms"),
        "batch_p90_ms": (float(np.percentile(lat, 90)), "ms"),
        "first_batch_ms": (statistics.fmean(first), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
        "final_macro_f1": (quality["final_macro_f1"], "ratio"),
        "holdout_acc": (quality["holdout_acc"], "ratio"),
    }
    counts = {
        "commands": len(walls), "command_s": walls,
        "command_unscaled_s": [iv.seconds for iv in runs.values()],
        "setups": len(setup_times), "setup_s": setup_times,
        "setup_unscaled_s": [iv.seconds for iv in setups.intervals],
        "batches": len(lat), "first_batches": len(first),
        "samples_per_command": samples, "child_cpu_s": _child_cpu_s(),
        "kernel_runs": len(gauge.readings),
        "speed_scales": list(scales.values()), "setup_speed_scales": setup_scales,
    }
    return {"ops": ops, "metrics": metrics, "counts": counts}


def _layer_metrics(rec: SpanRecorder, untraced_rate: float, traced_rate: float) -> dict:
    metrics = {}
    for name in traced_names():
        calls, self_s, _ = rec.stats[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")

    def per_call(nodes, calls):
        return nodes / calls if calls else 0.0

    batch = rec.stats["ttaloop.adapt_batch"]
    metrics["gradcore.nodes_per_adapt_batch"] = (per_call(batch[2], batch[0]), "count")
    pretrain_nodes = rec.stats["model.pretrain_source"][2] - rec.stats["model.predict"][2]
    metrics["gradcore.nodes_per_pretrain_step"] = (
        per_call(pretrain_nodes, rec.stats["optim.AdamW.step"][0]), "count")
    calls = rec.stats["harness.build_domains"][0]
    distinct = len(set(rec.domain_seeds))
    metrics["harness.build_domains.distinct_seeds"] = (distinct, "count")
    metrics["harness.build_domains.useful_ratio"] = (per_call(distinct, calls), "ratio")
    for name, total in rec.bytes.items():
        metrics[f"{name}.bytes"] = (total, "bytes")
    metrics["bench.trace_overhead_samples_per_s"] = (untraced_rate - traced_rate, "1/s")
    return metrics


def trace(w: Workload, cfg, work: Path, run_id: str) -> dict:
    """Traced run: one untraced and one traced command on the same set-up;
    per-layer metrics from the traced one."""
    ops = Operations()
    gauge = SpeedGauge()
    setups = SetUps(w, cfg, work, ops, gauge)
    setups.repeat(0.0)
    ckpt_dir = setups.ckpt_dir
    samples = samples_per_command(w, cfg)
    plain = ops.attempt(f"{w.command} untraced", _timed_and_checked,
                        w, cfg, ckpt_dir, work / "untraced", None, gauge)
    rec = SpanRecorder(run_id)
    child_cpu_before = _child_cpu_s()

    def traced_run():
        with rec.instrument():
            interval = timed(gauge, _run_command, w, cfg, ckpt_dir, work / "traced")
        checks.check_same_files(work / "untraced", work / "traced")
        return interval.seconds

    traced_seconds = ops.attempt(f"{w.command} traced", traced_run)
    if plain is None or traced_seconds is None:
        return {"ops": ops, "metrics": None}
    rec.write(work / "spans.csv")
    untraced_rate, traced_rate = samples / plain[0].seconds, samples / traced_seconds
    return {
        "ops": ops,
        "metrics": _layer_metrics(rec, untraced_rate, traced_rate),
        "counts": {
            "spans": len(rec.spans), "graph_nodes": rec.nodes,
            "untraced_samples_per_s": untraced_rate,
            "traced_samples_per_s": traced_rate,
            "worker_cpu_s_not_traced": _child_cpu_s() - child_cpu_before,
        },
    }
