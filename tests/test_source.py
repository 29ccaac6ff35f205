"""Source guards: the package keeps its checks under python -O."""

import ast
from pathlib import Path

import ficat

PACKAGE = Path(ficat.__file__).parent


def test_no_bare_asserts_in_package():
    # -O strips assert statements; checks must raise PreconditionError or
    # InvariantViolation instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found
