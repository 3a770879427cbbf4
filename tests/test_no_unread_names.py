"""Every function, class and method of ``src/driftadapt`` has a reader.

A top-level function or class of a module, or a method of a top-level
class, must be named as a whole word on some line other than a ``def`` or
``class`` line of that name. The lines searched are those of the program,
the acceptance gate, the shared fixtures, the benchmark and the tools, so
the names in ``perfbench/spans.py``'s ``TRACED`` count as readers and a name
that only the unit tests read does not. Dunder methods are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "driftadapt"
READERS = (*SRC.glob("*.py"), ROOT / "tests" / "test_acceptance.py",
           ROOT / "tests" / "conftest.py", *ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py"))
DEFINITION = re.compile(r"\s*(?:async\s+)?(?:def|class)\s+(\w+)")


def _definitions():
    """(qualified name, name) of every top-level function and class and of
    every non-dunder method of a top-level class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not re.fullmatch(r"__\w+__", item.name):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def _reads() -> Counter:
    """Whole-word counts over the reader lines; a definition line does not
    read the name it defines."""
    counts = Counter()
    for path in READERS:
        for line in path.read_text().splitlines():
            words = re.findall(r"\w+", line)
            defined = DEFINITION.match(line)
            if defined:
                words.remove(defined.group(1))
            counts.update(words)
    return counts


def test_every_src_name_has_a_reader():
    reads = _reads()
    assert [qualified for qualified, name in _definitions() if not reads[name]] == []
