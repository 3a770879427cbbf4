"""The benchmark's traced names resolve in the program.

``perfbench/spans.py`` wraps every function its ``TRACED`` table names; a
renamed or deleted function would only fail inside a traced benchmark run.
The table is read from the file's source, without importing or changing
anything under ``perfbench/``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import driftadapt

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_names():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["TRACED"]:
            table = ast.literal_eval(node.value)
            return [f"{layer}.{name}" for layer, names in table.items() for name in names]
    raise AssertionError(f"no TRACED table in {SPANS}")


def test_program_is_imported_from_src():
    assert Path(driftadapt.__file__).resolve().parent == \
        SPANS.parents[1] / "src" / "driftadapt"


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves_to_a_callable(name):
    layer, *classes, attr = name.split(".")
    owner = importlib.import_module(f"driftadapt.{layer}")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr, None)), name
