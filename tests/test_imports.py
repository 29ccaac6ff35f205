"""The import graph: `import ficat` compiles no submodule, an export is
imported from its module when first read, and each CLI command loads only
the modules its work reaches.  A module stays in sys.modules once imported,
so every graph is read in a fresh interpreter."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ficat

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the ficat.* modules loaded so far, without the package prefix
LOADED = "sorted(m[6:] for m in sys.modules if m.startswith('ficat.'))"


def fresh(code, *argv):
    """The JSON value that code prints last, run in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_module():
    assert fresh("import json, sys, ficat; print(json.dumps(%s))" % LOADED) == []


def test_star_import_binds_exactly_all():
    names, exported = fresh(
        "import json, ficat\n"
        "ns = {}\n"
        "exec('from ficat import *', ns)\n"
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}), sorted(ficat.__all__)]))"
    )
    assert names == exported


def test_each_export_is_its_module_attribute():
    for name in ficat.__all__:
        value = getattr(ficat, name)
        assert value.__module__.startswith("ficat.")
        assert value is getattr(importlib.import_module(value.__module__), name)
        assert vars(ficat)[name] is value  # bound once read


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ficat.no_such_name


_ORDERS = ["catcore", "errors", "matrices", "rings", "si", "vic", "wporder"]

COMMANDS = [
    (["ring-info", "--ring", "Z/6"], ["errors", "rings"]),
    (["factor", "--ring", "Z/4", "--matrix", "[[2,3]]"], ["errors", "matrices", "rings"]),
    (["hom-enum", "--cat", "VIC", "--ring", "Z/2", "--src", "1", "--dst", "2", "--count-only"],
     ["catcore", "errors", "matrices", "rings", "vic"]),
    (["hom-enum", "--cat", "OSI", "--ring", "Z/2", "--src", "1", "--dst", "2"],
     ["catcore", "errors", "matrices", "rings", "si"]),
    (["counts", "--cat", "SI", "--ring", "Z/2", "--src", "1", "--dst", "2"],
     ["catcore", "errors", "matrices", "rings", "si"]),
    (["compose", "--cat", "FI", "--f", '{"src":1,"dst":2,"payload":{"images":[1]}}',
      "--g", '{"src":2,"dst":3,"payload":{"images":[0,2]}}'], ["catcore", "errors"]),
    (["order-cmp", "--cat", "OVIC", "--ring", "Z/2",
      "--lhs", '{"f": [[1], [0]], "fp": [[1, 0]]}', "--rhs", '{"f": [[0], [1]], "fp": [[0, 1]]}'], _ORDERS),
    (["order-cmp", "--cat", "OSI", "--ring", "Z/2", "--relation", "preceq",
      "--lhs", '{"f": [[1,0],[0,1]]}', "--rhs", '{"f": [[0,0],[0,0],[1,0],[0,1]]}'], _ORDERS),
    (["order-phi", "--cat", "OVIC", "--ring", "Z/2",
      "--lhs", '{"f": [[0], [1]], "fp": [[0, 1]]}', "--rhs", '{"f": [[0], [0], [1]], "fp": [[0, 0, 1]]}'], _ORDERS),
    (["module-dims", "--cat", "VIC", "--ring", "Z/2", "--module", "P1", "--max-rank", "3", "--field", "F2"],
     ["catcore", "errors", "matrices", "modhom", "rings", "vic"]),
    (["homology", "--cat", "FI", "--module", "P0", "--variant", "triple", "--rank", "3"],
     ["catcore", "errors", "modhom"]),
]


@pytest.mark.parametrize("argv, modules", COMMANDS,
                         ids=[a[0] + ("-" + a[2] if a[1] == "--cat" else "") for a, _ in COMMANDS])
def test_each_command_loads_only_what_it_uses(argv, modules):
    code, loaded = fresh(
        "import contextlib, io, json, sys\n"
        "from ficat.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, %s]))" % LOADED,
        json.dumps(argv),
    )
    assert code == 0
    assert loaded == sorted(modules + ["cli"])
