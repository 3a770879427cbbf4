"""Only ``gradcore`` sets a tensor's ``requires_grad`` flag.

Parameters are created frozen, and ``gradcore.tracking`` marks them for one
training step and gives each its flag back. A module of ``src/driftadapt``
other than ``gradcore.py`` that assigns ``.requires_grad`` or passes a
``requires_grad`` argument would bring back a scattered toggle, and with it
forwards outside a training step that build a graph.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "driftadapt"


def _flag_writes(source: str) -> list:
    """Line numbers at which ``source`` stores to ``.requires_grad`` or
    passes a ``requires_grad`` keyword."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "requires_grad"
                and isinstance(node.ctx, ast.Store)):
            lines.append(node.lineno)
        elif isinstance(node, ast.keyword) and node.arg == "requires_grad":
            lines.append(node.lineno)
    return sorted(lines)


def test_the_guard_sees_each_way_to_set_a_flag():
    source = ("p.requires_grad = True\n"
              "p.requires_grad, p.grad = True, None\n"
              "for p.requires_grad in (True,): pass\n"
              "Tensor(x, requires_grad=True)\n"
              "read = p.requires_grad\n")
    assert _flag_writes(source) == [1, 2, 3, 4]


def test_only_gradcore_sets_requires_grad():
    writes = {path.name: _flag_writes(path.read_text())
              for path in sorted(SRC.glob("*.py")) if path.name != "gradcore.py"}
    assert {name: lines for name, lines in writes.items() if lines} == {}
