"""Source guards: the package keeps its checks under python -O, carries
no definition that only the tests use, leaves the garbage collector alone,
indexes hom sets through Category.position only, reads sparse maps as
packed arrays, walks local factors through local_parts only, and names
every export in the README."""

import ast
import re
import tokenize
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


def test_no_module_imports_gc():
    # a speedup must come from allocating less, not from switching off,
    # freezing or retuning the cyclic garbage collector
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "__import__":
                names = [arg.value for arg in node.args[:1] if isinstance(arg, ast.Constant)]
            if any(name.split(".")[0] == "gc" for name in names):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, found


def scoped_nodes():
    """(file name, node, names of the enclosing classes and functions) for
    every AST node of the package."""

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        yield node, scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        for node, scope in visit(ast.parse(path.read_text(), filename=str(path)), ()):
            yield path.name, node, scope


def test_only_category_position_indexes_keys():
    # one key -> position dict per hom set, cached by the category: no other
    # dict comprehension may be keyed by a .key(...) call
    found = [
        "%s:%d" % (name, node.lineno)
        for name, node, scope in scoped_nodes()
        if isinstance(node, ast.DictComp)
        and isinstance(node.key, ast.Call)
        and getattr(node.key.func, "attr", None) == "key"
        and scope != ("Category", "position")
    ]
    assert not found, found


def test_package_reads_sparse_maps_as_packed_arrays():
    # SparseMap keeps compressed columns (starts, row_of, coef); its columns
    # property builds pair tuples for reading by hand, so the package itself
    # reads the arrays and never .columns
    found = [
        "%s:%d %s" % (name, node.lineno, ".".join(scope))
        for name, node, scope in scoped_nodes()
        if isinstance(node, ast.Attribute)
        and node.attr == "columns"
        and isinstance(node.ctx, ast.Load)
        and scope != ("SparseMap", "columns")
    ]
    assert not found, found


def test_only_rings_indexes_local_factors():
    # matrices pass through local_parts and lift_mats; outside rings.py no
    # loop counts its way along a decomposition's factors
    def factors_of(node):
        return isinstance(node, ast.Attribute) and node.attr == "factors"

    def called(node, name):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name and node.args

    found = [
        "%s:%d %s" % (name, node.lineno, ".".join(scope))
        for name, node, scope in scoped_nodes()
        if name != "rings.py"
        and (
            (called(node, "enumerate") and factors_of(node.args[0]))
            or (called(node, "range") and called(node.args[0], "len") and factors_of(node.args[0].args[0]))
        )
    ]
    assert not found, found


def test_every_definition_is_used():
    # a def or class whose name occurs nowhere but at its own definitions
    # (as a name in the code of the package, or as a word of the README) is
    # dead code; a helper that only the tests or the benchmark call belongs
    # with them.  The export table of __init__ holds names as strings, which
    # do not count: an export lives through a caller or the README
    defs = Counter()
    where = {}
    words = Counter(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in sorted((ROOT / "src" / "ficat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                defs[name] += 1
                where.setdefault(name, "%s:%d" % (path.name, node.lineno))
        # names in code count as NAME tokens, so a name inside a string or a
        # comment is no use; the README counts as plain words
        with path.open("rb") as fh:
            words.update(t.string for t in tokenize.tokenize(fh.readline) if t.type == tokenize.NAME)
    unused = sorted("%s (%s)" % (name, where[name]) for name, n in defs.items() if words[name] <= n)
    assert not unused, unused


def test_readme_names_every_export():
    # the README is where a reader finds the package's surface
    words = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    missing = sorted(set(ficat.__all__) - words)
    assert not missing, missing
