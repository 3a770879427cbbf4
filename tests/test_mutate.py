"""The mutation probe on a tiny module and its test, written under tmp_path."""

import ast
import importlib.util
import sys
import time
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
_SPEC = importlib.util.spec_from_file_location("mutate", _PATH)
mutate = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = mutate   # its dataclass looks its module up
_SPEC.loader.exec_module(mutate)

TINY = b'''"""A docstring the probe leaves alone: 1 < 2."""
LIMIT = 3


def count_up(n):
    i = 0
    while i < n:
        i += 1
    return i


def pick(x):
    return x.argmax()


def halve(x):
    return x / 2.0
'''
TINY_TEST = b"""from driftadapt.tiny import LIMIT, count_up, pick


class Row(list):
    def argmax(self):
        return self.index(max(self))


def test_tiny():
    assert count_up(LIMIT) == 3 and pick(Row([1, 5, 2])) == 1
"""
TINY_CONFTEST = b"from driftadapt.tiny import LIMIT  # noqa: F401\n"


def _site(found, op, line):
    (m,) = [m for m in found if m.op == op and m.line == line]
    return m


def _files(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _tiny_tree(root):
    for path, text in (("src/driftadapt/__init__.py", b""), ("src/driftadapt/tiny.py", TINY),
                       ("tests/test_tiny.py", TINY_TEST), ("tests/conftest.py", TINY_CONFTEST)):
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_bytes(text)
    return _files(root)


def test_every_operator_gives_source_that_parses_and_differs():
    found = mutate.mutants("tiny", TINY)
    assert {m.op for m in found} == {"compare", "arith", "const", "delete", "argmax"}
    assert all(m.line > 1 for m in found)   # nothing in the docstring
    for m in found:
        assert m.apply(TINY) != TINY
        ast.parse(m.apply(TINY))
    for op, line, text in (("compare", 7, b"while i >= n:"), ("arith", 8, b"i -= 1"),
                           ("arith", 17, b"return x * 2.0"), ("const", 17, b"return x / 4.0"),
                           ("argmax", 13, b"x.argmin()"), ("delete", 9, b"    pass\n")):
        assert text in _site(found, op, line).apply(TINY)


def test_screen_classifies_kills_and_survivors_and_leaves_the_tree(tmp_path):
    before = _tiny_tree(tmp_path)
    found = mutate.all_mutants(tmp_path)
    # deleting LIMIT = 3 leaves a conftest that no longer imports: pytest
    # exits 4, and the mutant is killed; halve's * for / passes every test
    killed, survivor = _site(found, "delete", 2), _site(found, "arith", 17)
    result = mutate.screen(tmp_path, [killed, survivor], jobs=2)
    assert result["modules"] == {"tiny": {"tried": 2, "killed_by_own": 1, "killed": 1,
                                          "score": 0.5}}
    assert [(s["id"], s["mutated"]) for s in result["survivors"]] == [
        (survivor.id, "return x * 2.0")]
    assert _files(tmp_path) == before


def test_a_looping_mutant_is_cut_at_its_timeout_and_counts_as_killed(tmp_path):
    before = _tiny_tree(tmp_path)
    looping = _site(mutate.all_mutants(tmp_path), "arith", 8)   # i -= 1 never reaches n
    start = time.perf_counter()
    with mutate.Copies(tmp_path, 1) as copies:
        code = copies.run(looping, ["tests"], timeout=0.5)
    assert code is None and mutate._killed(code)
    assert time.perf_counter() - start < 10.0
    assert _files(tmp_path) == before
