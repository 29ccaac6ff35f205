"""Source guards: the package keeps its checks under python -O and carries
no definition that nothing uses."""

import ast
import re
from collections import Counter
from pathlib import Path

import ficat

PACKAGE = Path(ficat.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def test_no_bare_asserts_in_package():
    # -O strips assert statements; checks must raise PreconditionError or
    # InvariantViolation instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found


def test_every_definition_is_used():
    # a def or class whose name occurs nowhere but at its own definitions
    # (in the package, the tests, the benchmark or the README) is dead code
    defs = Counter()
    where = {}
    for path in sorted((ROOT / "src" / "ficat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                defs[name] += 1
                where.setdefault(name, "%s:%d" % (path.name, node.lineno))
    texts = [p.read_text() for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    texts.append((ROOT / "README.md").read_text())
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    unused = sorted("%s (%s)" % (name, where[name]) for name, n in defs.items() if words[name] <= n)
    assert not unused, unused
