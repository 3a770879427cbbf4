"""Mutation probe of the test suite: what the tests catch, module by module.

A development tool, not a test gate, and the sibling of
``byte_manifest.py``. The manifest shows that a change to ``src/`` moves no
output; this tool shows what the tests catch, so that a change to ``tests/``
can be shown to catch no less. It needs only the standard library and
pytest.

A mutant is one small edit of one module of ``src/driftadapt``, found from
the module's ``ast`` and spliced into its text, so the rest of the file
keeps its bytes:

- ``compare``: a comparison negated (``<`` and ``>=``, ``>`` and ``<=``,
  ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``);
- ``arith``: ``+`` and ``-``, ``*`` and ``/`` swapped, also in an augmented
  assignment;
- ``const``: a numeric constant nudged, an int by one, a float doubled
  (0.0 becomes 1.0);
- ``delete``: a statement replaced by ``pass``; docstrings, imports,
  definitions and ``pass`` itself are left alone;
- ``argmax``: ``argmax`` and ``argmin`` swapped.

Every run works in temporary copies of the tree it is given, one per worker
thread, and writes nothing under that tree. Each pytest run is
``-p no:cacheprovider --hypothesis-seed=0`` with a plugin that turns off
Hypothesis's example database and shrinking, in a copy whose
``.hypothesis/`` is removed after every run, so no replayed example can
change a verdict, and a failing property stops at its first failing example.
A mutant's run that outlasts its timeout (five times the unmutated run,
plus ten seconds) is stopped with its whole process group and counts as
killed; so does any other nonzero exit, a ``conftest.py`` that no longer
imports among them, since the unmutated run passed with the same arguments.
No more pytest processes run at once than there are CPUs.

    python tools/mutate.py list
    python tools/mutate.py screen --sample 40 --json screen.json
    python tools/mutate.py screen --tree /path/to/parent --modules ttaloop
    python tools/mutate.py kills tests/test_gradcore.py --modules gradcore --json new.json
    python tools/mutate.py kills tests/test_gradcore.py --tree /path/to/parent --json old.json
    python tools/mutate.py compare old.json new.json

``--sample n`` draws at most ``n`` mutants of each module, always the same
ones for the same ``src/``.
``screen`` runs each mutant against its module's own test file
(``tests/test_<module>.py``, or ``tests/test_harness.py`` for a module
without one) with ``-x``, then the survivors against all of ``tests/`` with
``-x``, and reports each module's score (killed over tried) and each
survivor. ``kills`` runs whole test files, without ``-x``, against every
mutant of the given modules (by default those the files import from
``driftadapt``) and records, from ``--junitxml``, which tests fail on each.
``compare`` of two ``kills`` records lists the mutants the first kills and
the second does not, and exits 1 if there is one: a test file may change
only if its kill set does not shrink. A record names mutants by
``module:line:col:operator``, so two records compare only over the same
``src/``.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

PACKAGE = Path("src") / "driftadapt"
FALLBACK_TESTS = "tests/test_harness.py"
PYTEST = ("-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                ".perfbench_work", "runs", "*.egg-info")
# a pytest plugin that keeps Hypothesis from shrinking or storing a failing
# example: a shrink finds a smaller example of a failure already found, so it
# changes no verdict, only the time, and no stored example is replayed
PLUGIN = "mutate_no_shrink"
PLUGIN_SOURCE = """from hypothesis import Phase, settings
settings.register_profile("mutate", database=None,
                          phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)])
settings.load_profile("mutate")
"""
# a mutant's run may take this many times the unmutated run, plus SLACK_S
TIMEOUT_FACTOR, SLACK_S = 5.0, 10.0
SAMPLE_SEED = 0

NEGATED = {ast.Lt: ">=", ast.GtE: "<", ast.Gt: "<=", ast.LtE: ">", ast.Eq: "!=",
           ast.NotEq: "==", ast.Is: "is not", ast.IsNot: "is", ast.In: "not in",
           ast.NotIn: "in"}
COMPARE_TOKEN = re.compile(rb"<=|>=|==|!=|<|>|\bis\s+not\b|\bnot\s+in\b|\bis\b|\bin\b")
SWAPPED = {ast.Add: (b"+", b"-"), ast.Sub: (b"-", b"+"), ast.Mult: (b"*", b"/"),
           ast.Div: (b"/", b"*")}
ARG_SWAP = {"argmax": "argmin", "argmin": "argmax"}


@dataclass(frozen=True)
class Mutant:
    module: str
    line: int
    col: int
    op: str
    start: int      # byte span of the module's text that the edit replaces
    end: int
    text: str       # what replaces it

    @property
    def id(self) -> str:
        return f"{self.module}:{self.line}:{self.col}:{self.op}"

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.text.encode() + source[self.end:]


def _docstring(node) -> ast.AST | None:
    body = getattr(node, "body", None)
    if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
        return body[0]
    return None


def _children(node):
    """The child nodes worth mutating: not annotations, not f-strings (whose
    inner positions are unreliable) and not docstrings."""
    skip = _docstring(node)
    for name, value in ast.iter_fields(node):
        if name in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST) and child is not skip and not isinstance(
                    child, ast.JoinedStr):
                yield child


def mutants(module: str, source: bytes) -> list[Mutant]:
    """Every mutant of one module's text, in source order."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def at(line, col):
        return starts[line - 1] + col

    def span(node):
        return at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)

    found = []

    def add(op, start, end, text):
        # a site is named by where its edit starts
        line = bisect.bisect_right(starts, start)
        found.append(Mutant(module, line, start - starts[line - 1], op, start, end, text))

    def add_in_gap(a, b, op, pattern, replace):
        # an operator token sits between its operands' spans
        start, end = span(a)[1], span(b)[0]
        token = pattern.search(source[start:end])
        if token is not None and b"#" not in source[start:end]:
            add(op, start + token.start(), start + token.end(), replace(token.group()))

    def visit(node):
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops,
                                       node.comparators):
                add_in_gap(left, right, "compare", COMPARE_TOKEN, lambda _: NEGATED[type(op)])
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPPED:
            a, b = (node.left, node.right) if isinstance(node, ast.BinOp) else (
                node.target, node.value)
            old, new = SWAPPED[type(node.op)]
            add_in_gap(a, b, "arith", re.compile(re.escape(old)), lambda _: new.decode())
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            value = node.value
            add("const", *span(node),
                repr(value + 1 if isinstance(value, int) else value * 2 if value else 1.0))
        elif isinstance(node, ast.Attribute) and node.attr in ARG_SWAP:
            end = span(node)[1]
            add("argmax", end - len(node.attr), end, ARG_SWAP[node.attr])
        if isinstance(node, ast.stmt) and not isinstance(node, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
                ast.ImportFrom, ast.Pass, ast.Global, ast.Nonlocal)):
            add("delete", *span(node), "pass")
        for child in _children(node):
            visit(child)

    visit(ast.parse(source))
    found.sort(key=lambda m: (m.line, m.col, m.op, m.start))
    out, seen = [], set()
    for m in found:
        mutated = m.apply(source)
        if m.id in seen or mutated == source:
            continue
        try:
            ast.parse(mutated)
        except SyntaxError:
            continue
        seen.add(m.id)
        out.append(m)
    return out


def modules_of(tree: Path) -> list[str]:
    return sorted(p.stem for p in (tree / PACKAGE).glob("*.py") if p.stem != "__init__")


def all_mutants(tree: Path, modules=None) -> list[Mutant]:
    return [m for name in (modules or modules_of(tree))
            for m in mutants(name, (tree / PACKAGE / f"{name}.py").read_bytes())]


def sample(found: list[Mutant], n: int | None) -> list[Mutant]:
    """At most ``n`` mutants of each module, drawn with a ``random.Random``
    seeded by ``SAMPLE_SEED`` and the module's name, in source order; all of
    them when ``n`` is None."""
    if n is None:
        return found
    by_module = {}
    for m in found:
        by_module.setdefault(m.module, []).append(m)
    picked = set()
    for name, group in by_module.items():
        picked.update(random.Random(f"{SAMPLE_SEED}:{name}").sample(group, min(n, len(group))))
    return [m for m in found if m in picked]


def own_tests(tree: Path, module: str) -> str:
    path = f"tests/test_{module}.py"
    return path if (tree / path).exists() else FALLBACK_TESTS


def imported_modules(test_file: Path, tree: Path) -> list[str]:
    """The ``driftadapt`` modules a test file imports by name."""
    names = set()
    for node in ast.walk(ast.parse(test_file.read_bytes())):
        if isinstance(node, ast.ImportFrom) and node.module == "driftadapt":
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("driftadapt."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("driftadapt."))
    return sorted(names & set(modules_of(tree)))


def run_pytest(root: Path, args, timeout: float | None):
    """Runs pytest in the copy ``root`` of a ``Copies`` directory; returns its
    exit code, or None when the run outlasted ``timeout`` and its process
    group was killed."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root.parent)]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "pytest", *PYTEST, "-p", PLUGIN, *args],
                            cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = None
    shutil.rmtree(root / ".hypothesis", ignore_errors=True)
    return code


def _killed(code) -> bool:
    """A timeout (None) or any nonzero exit kills: the unmutated run passed
    with the same arguments."""
    return code != 0


class Copies:
    """One temporary copy of the tree per worker; a worker writes a mutant
    into its own copy and puts the module back after the run."""

    def __init__(self, tree: Path, jobs: int):
        self.jobs = max(1, min(jobs, os.cpu_count() or 1))
        self._dir = tempfile.TemporaryDirectory(prefix="mutate-")
        (Path(self._dir.name) / f"{PLUGIN}.py").write_text(PLUGIN_SOURCE)
        self._free = []
        for i in range(self.jobs):
            root = Path(self._dir.name) / f"copy{i}"
            shutil.copytree(tree, root, ignore=IGNORE)
            self._free.append(root)
        self._lock = threading.Lock()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._dir.cleanup()

    def baseline(self, args) -> float:
        """Seconds of one unmutated run; raises if it does not pass."""
        start = time.perf_counter()
        code = run_pytest(self._free[0], args, None)
        if code != 0:
            raise RuntimeError(f"the unmutated tree fails pytest {' '.join(args)} (exit {code})")
        return time.perf_counter() - start

    def run(self, mutant: Mutant, args, timeout):
        with self._lock:
            root = self._free.pop()
        path = root / PACKAGE / f"{mutant.module}.py"
        original = path.read_bytes()
        try:
            path.write_bytes(mutant.apply(original))
            code = run_pytest(root, args, timeout)
            print(f"{mutant.id} {'timeout' if code is None else f'exit {code}'}",
                  file=sys.stderr, flush=True)
            return code
        finally:
            path.write_bytes(original)
            with self._lock:
                self._free.append(root)

    def map(self, fn, items):
        with ThreadPoolExecutor(self.jobs) as pool:
            return list(pool.map(fn, items))


def screen(tree, found, jobs=os.cpu_count() or 1) -> dict:
    """Each mutant against its module's own tests with ``-x``, then the
    survivors against all of ``tests/`` with ``-x``."""
    tree = Path(tree)
    with Copies(tree, jobs) as copies:
        spent = copies.baseline(["tests"])
        limit = TIMEOUT_FACTOR * spent + SLACK_S
        own = copies.map(lambda m: _killed(copies.run(m, ["-x", own_tests(tree, m.module)],
                                                      limit)), found)
        rest = [m for m, k in zip(found, own) if not k]
        full = dict(zip(rest, copies.map(
            lambda m: _killed(copies.run(m, ["-x", "tests"], limit)), rest)))
    modules = {}
    for m, k in zip(found, own):
        row = modules.setdefault(m.module, {"tried": 0, "killed_by_own": 0, "killed": 0})
        row["tried"] += 1
        row["killed_by_own"] += k
        row["killed"] += k or full[m]
    for row in modules.values():
        row["score"] = round(row["killed"] / row["tried"], 4)
    source = {}
    survivors = []
    for m in rest:
        if not full[m]:
            text = source.setdefault(m.module, (tree / PACKAGE / f"{m.module}.py").read_bytes())
            survivors.append({"id": m.id, "op": m.op, "line": _line(text, m.line),
                              "mutated": _line(m.apply(text), m.line)})
    return {"modules": modules, "survivors": survivors}


def _line(source: bytes, line: int) -> str:
    return source.splitlines()[line - 1].decode().strip()


def failing_tests(junit: Path) -> list[str]:
    """``classname::name`` of each test case with a failure or an error."""
    failed = []
    for case in ET.parse(junit).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            failed.append(f"{case.get('classname')}::{case.get('name')}")
    return sorted(failed)


def kills(tree, test_files, found, jobs=os.cpu_count() or 1) -> dict:
    """Whole test files, without ``-x``, against each mutant: which tests
    fail on it, or "timeout", or the exit code of a run that failed no test
    (a ``conftest.py`` that no longer imports)."""
    tree = Path(tree)
    with Copies(tree, jobs) as copies:
        spent = copies.baseline(list(test_files))
        limit = TIMEOUT_FACTOR * spent + SLACK_S

        def one(m):
            with tempfile.TemporaryDirectory() as work:
                junit = Path(work) / "junit.xml"
                code = copies.run(m, [*test_files, f"--junitxml={junit}"], limit)
                if code is None:
                    return "timeout"
                failed = failing_tests(junit) if junit.exists() else []
                return failed if failed or not _killed(code) else [f"<pytest exit {code}>"]

        results = copies.map(one, found)
    return {"tests": list(test_files), "mutants": {m.id: r for m, r in zip(found, results)}}


def kill_set(record: dict) -> set:
    return {mid for mid, by in record["mutants"].items() if by}


def compare(old: dict, new: dict) -> list[str]:
    """One line per mutant that ``old`` kills and ``new`` does not, or that
    only one record tried."""
    lines = [f"not tried in the new record: {mid}"
             for mid in sorted(set(old["mutants"]) - set(new["mutants"]))]
    for mid in sorted(kill_set(old) - kill_set(new)):
        if mid in new["mutants"]:
            by = old["mutants"][mid]
            lines.append(f"lost: {mid} (killed before by "
                         f"{by if by == 'timeout' else ', '.join(by)})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("list", "screen", "kills"):
        p = sub.add_parser(name)
        p.add_argument("--tree", default=".", help="the repository to copy (default: .)")
        p.add_argument("--modules", nargs="*", help="modules of src/driftadapt (default: all)")
        p.add_argument("--sample", type=int, help="at most this many mutants per module")
        if name != "list":
            p.add_argument("--json", help="write the result to this file")
        if name == "kills":
            p.add_argument("tests", nargs="+", help="test files, relative to the tree")
    p = sub.add_parser("compare", help="mutants killed by the first record and not the second")
    p.add_argument("old")
    p.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "compare":
        old, new = (json.loads(Path(p).read_text()) for p in (args.old, args.new))
        lines = compare(old, new)
        for line in lines:
            print(line)
        print(f"{len(old['mutants'])} mutants; killed by {', '.join(old['tests'])}: "
              f"{len(kill_set(old))} before, {len(kill_set(new))} after, {len(lines)} lost")
        return 1 if lines else 0
    tree = Path(args.tree)
    modules = args.modules
    if args.command == "kills" and not modules:
        modules = sorted({n for t in args.tests for n in imported_modules(tree / t, tree)})
    found = sample(all_mutants(tree, modules), args.sample)
    if args.command == "list":
        counts = {}
        for m in found:
            counts[m.module] = counts.get(m.module, 0) + 1
        for name, n in sorted(counts.items()):
            print(f"{name}: {n}")
        print(f"total: {len(found)}")
        return 0
    start = time.perf_counter()
    if args.command == "screen":
        result = screen(tree, found)
        for name, row in sorted(result["modules"].items()):
            print(f"{name}: {row['killed']}/{row['tried']} killed "
                  f"({row['killed_by_own']} by {own_tests(tree, name)})")
        for s in result["survivors"]:
            print(f"survivor {s['id']}: {s['line']}  ->  {s['mutated']}")
    else:
        result = kills(tree, args.tests, found)
        print(f"{len(found)} mutants of {', '.join(modules)}; "
              f"{len(kill_set(result))} killed by {', '.join(args.tests)}")
    result.update(sample=args.sample, seconds=round(time.perf_counter() - start, 1))
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
