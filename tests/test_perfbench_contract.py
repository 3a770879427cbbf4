"""The benchmark's traced names resolve in the program, and the ones that a
run never calls are exactly the known dead rows.

``perfbench/spans.py`` wraps every function its ``TRACED`` table names; a
renamed or deleted function would only fail inside a traced benchmark run.
The module is loaded from its path and run from its source, so nothing is
written or changed under ``perfbench/``.
"""

import importlib
import types
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import tiny_experiment

import driftadapt
from driftadapt import harness
from driftadapt.objectives import MethodVariant
from driftadapt.selftest import run_selftest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


spans = _load_spans()

# the traced names that no pretrain, adapt or selftest calls: the table-only
# gradcore ops, which only the table and the test oracles keep, and four
# functions that the program no longer runs
DEAD = {
    "gradcore.add", "gradcore.mul", "gradcore.tsum", "gradcore.tmean", "gradcore.matmul",
    "gradcore.gelu", "gradcore.layernorm_affine", "gradcore.log_clamped", "gradcore.rowdot",
    "gradcore.rowscale", "gradcore.stack_cols", "gradcore.col", "gradcore.cosine_matrix",
    "gradcore.max_axis1", "centroids.assign", "centroids.lloyd_iterate",
    "harness.build_domains", "model.SourceModel.forward_full",
}


def test_program_is_imported_from_src():
    assert Path(driftadapt.__file__).resolve().parent == \
        SPANS.parents[1] / "src" / "driftadapt"


@pytest.mark.parametrize("name", spans.traced_names())
def test_traced_name_resolves_to_a_callable(name):
    layer, *classes, attr = name.split(".")
    owner = importlib.import_module(f"driftadapt.{layer}")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr, None)), name


def test_dead_traced_names_are_exactly_the_known_ones(tmp_path):
    # every variant runs in this process (workers 1), and ST's threshold
    # lets it take steps; a traced name that goes dead or gets calls again
    # changes the benchmark's list of rows to drop
    cfg = tiny_experiment()
    cfg.variants = [v.value for v in MethodVariant]
    cfg.adapt = replace(cfg.adapt, st_confidence=0.51)
    recorder = spans.SpanRecorder("contract")
    with recorder.instrument():
        harness.cmd_pretrain(cfg, tmp_path)
        doc = harness.cmd_adapt(cfg, tmp_path, tmp_path / "out")
        results = run_selftest()
    assert "failed_runs" not in doc and all(ok for _, ok, _ in results)
    assert any(row.get("n_confident") for run in doc["runs"] if run["variant"] == "st"
               for row in run["loss_trace"])
    calls = {name: recorder.stats[name][0] for name in spans.traced_names()}
    assert {name for name, n in calls.items() if n == 0} == DEAD
