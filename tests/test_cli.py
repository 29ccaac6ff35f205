"""The command-line front end: pinned example outputs, JSON round trips,
exit codes, and byte-identical determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ficat.catcore import FiCategory, check_axioms
from ficat.cli import main, mor_from_json, mor_to_json
from ficat.errors import PreconditionError
from ficat.rings import make_ring
from ficat.si import make_osi_category, make_si_category
from ficat.vic import make_ovic_category, make_vic_category


def run_cli(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


# ---------------------------------------------------------------------------
# pinned examples
# ---------------------------------------------------------------------------

def test_factor_example(capsys):
    rc, out = run_cli(capsys, "factor", "--ring", "Z/4", "--matrix", "[[2,3]]")
    assert rc == 0
    assert out == '{"f1": [[2, 1]], "f2": [[3]]}\n'


def test_hom_enum_count_example(capsys):
    rc, out = run_cli(capsys, "hom-enum", "--cat", "VIC", "--ring", "Z/2",
                      "--src", "1", "--dst", "2", "--count-only")
    assert rc == 0
    assert out == '{"count": 6}\n'


def test_homology_example(capsys):
    rc, out = run_cli(capsys, "homology", "--cat", "FI", "--module", "P0",
                      "--variant", "triple", "--rank", "3")
    assert rc == 0
    assert json.loads(out) == {"H0": 0, "H1": 0, "H2": 0}


# ---------------------------------------------------------------------------
# morphism serialization
# ---------------------------------------------------------------------------

def test_morphism_json_roundtrip_every_category():
    r2, r4, r6 = make_ring("Z/2"), make_ring("Z/4"), make_ring("Z/6")
    cases = [
        (FiCategory(), 1, 2),
        (make_vic_category(r2), 1, 2),
        (make_ovic_category(r2), 1, 2),
        (make_si_category(r2), 1, 2),
        (make_osi_category(r2), 1, 2),
        (make_vic_category(r6), 1, 1),
        (make_ovic_category(r6), 1, 1),
        (make_si_category(r4), 1, 1),
        (make_osi_category(r4), 1, 1),
    ]
    for cat, src, dst in cases:
        homs = cat.hom(src, dst)
        assert homs
        for mor in homs:
            env = mor_to_json(cat, mor)
            assert env["cat"] == cat.describe()
            assert env["src"] == src and env["dst"] == dst
            back = mor_from_json(cat, json.loads(json.dumps(env)), "--x")
            assert back == mor


def test_hom_enum_lines_parse_and_count(capsys):
    rc, out = run_cli(capsys, "hom-enum", "--cat", "OSI", "--ring", "Z/2",
                      "--src", "1", "--dst", "2")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 20
    cat = make_osi_category(make_ring("Z/2"))
    for line in lines:
        env = json.loads(line)
        assert mor_from_json(cat, env, "--x") is not None


def test_compose_cli(capsys):
    rc, out = run_cli(capsys, "compose", "--cat", "FI",
                      "--f", '{"src": 1, "dst": 2, "payload": {"images": [1]}}',
                      "--g", '{"src": 2, "dst": 3, "payload": {"images": [0, 2]}}')
    assert rc == 0
    env = json.loads(out)
    assert env["payload"]["images"] == [2]
    assert env["src"] == 1 and env["dst"] == 3


# ---------------------------------------------------------------------------
# orders through the CLI
# ---------------------------------------------------------------------------

def test_order_cmp_total_and_preceq(capsys):
    rc, out = run_cli(capsys, "order-cmp", "--cat", "OVIC", "--ring", "Z/2",
                      "--lhs", '{"f": [[1], [0]], "fp": [[1, 0]]}',
                      "--rhs", '{"f": [[0], [1]], "fp": [[0, 1]]}')
    assert rc == 0
    rec = json.loads(out)
    assert rec["relation"] == "total"
    assert rec["result"] == "Less"
    rc, out = run_cli(capsys, "order-cmp", "--cat", "OVIC", "--ring", "Z/2",
                      "--relation", "preceq",
                      "--lhs", '{"f": [[0], [1]], "fp": [[0, 1]]}',
                      "--rhs", '{"f": [[0], [0], [1]], "fp": [[0, 0, 1]]}')
    assert rc == 0
    assert json.loads(out)["result"] is True


def test_order_phi_realizes_and_rejects(capsys):
    rc, out = run_cli(capsys, "order-phi", "--cat", "OVIC", "--ring", "Z/2",
                      "--lhs", '{"f": [[0], [1]], "fp": [[0, 1]]}',
                      "--rhs", '{"f": [[0], [0], [1]], "fp": [[0, 0, 1]]}')
    assert rc == 0
    cat = make_ovic_category(make_ring("Z/2"))
    phi = mor_from_json(cat, json.loads(out), "--x")
    lhs = mor_from_json(cat, {"f": [[0], [1]], "fp": [[0, 1]]}, "--lhs")
    rhs = mor_from_json(cat, {"f": [[0], [0], [1]], "fp": [[0, 0, 1]]}, "--rhs")
    assert cat.compose(phi, lhs) == rhs
    # unrelated morphisms give a precondition error
    rc, out = run_cli(capsys, "order-phi", "--cat", "OVIC", "--ring", "Z/2",
                      "--lhs", '{"f": [[1]], "fp": [[1]]}',
                      "--rhs", '{"f": [[0], [1]], "fp": [[0, 1]]}')
    assert rc == 1
    assert json.loads(out)["error"] == "precondition"


def test_order_cmp_osi_defaults_to_standard_forms(capsys):
    rc, out = run_cli(capsys, "order-cmp", "--cat", "OSI", "--ring", "Z/2",
                      "--relation", "preceq",
                      "--lhs", '{"f": [[1, 0], [0, 1]]}',
                      "--rhs", '{"f": [[0, 0], [0, 0], [1, 0], [0, 1]]}')
    assert rc == 0
    assert json.loads(out)["result"] is True


def test_order_cmp_rejects_unordered_categories(capsys):
    rc, out = run_cli(capsys, "order-cmp", "--cat", "FI",
                      "--lhs", '{"src": 1, "dst": 1, "payload": {"images": [0]}}',
                      "--rhs", '{"src": 1, "dst": 1, "payload": {"images": [0]}}')
    assert rc == 1
    assert json.loads(out)["error"] == "precondition"


# ---------------------------------------------------------------------------
# the remaining subcommands
# ---------------------------------------------------------------------------

def test_ring_info(capsys):
    rc, out = run_cli(capsys, "ring-info", "--ring", "Z/6")
    assert rc == 0
    rec = json.loads(out)
    assert rec["spec"] == "Z/6"
    assert rec["size"] == 6
    assert rec["factors"] == ["Z/2", "Z/3"]
    assert rec["is_local"] is False
    assert rec["units"] == [1, 5]


def test_counts_identity_record(capsys):
    rc, out = run_cli(capsys, "counts", "--cat", "SI", "--ring", "Z/2",
                      "--src", "1", "--dst", "2")
    assert rc == 0
    rec = json.loads(out)
    assert rec["hom"] == 120
    assert rec["aut_dst"] == 720
    assert rec["aut_complement"] == 6
    assert rec["identity_holds"] is True


def test_module_dims(capsys):
    rc, out = run_cli(capsys, "module-dims", "--cat", "VIC", "--ring", "Z/2",
                      "--module", "P1", "--max-rank", "3", "--field", "F2")
    assert rc == 0
    rec = json.loads(out)
    assert rec["dims"] == {"0": 0, "1": 1, "2": 6, "3": 28}
    assert rec["field"] == "F2"


def test_axioms_cli(capsys):
    rc, out = run_cli(capsys, "axioms", "--cat", "OVIC", "--ring", "Z/2", "--max-rank", "2")
    assert rc == 0
    rec = json.loads(out)
    assert rec["ok"] is True
    assert rec["category"] == "OVIC(Z/2)"


def test_axioms_cli_rejects_a_negative_max_rank(capsys):
    # a negative rank would check nothing and report "ok"
    rc, out = run_cli(capsys, "axioms", "--cat", "FI", "--max-rank", "-1")
    assert rc == 1
    assert json.loads(out) == {
        "error": "precondition",
        "detail": "maximum rank must be a non-negative integer, got -1",
    }
    with pytest.raises(PreconditionError):
        check_axioms(FiCategory(), "2")


@pytest.mark.parametrize("argv", [
    ("counts", "--cat", "SI", "--ring", "Z/2", "--src", "-1", "--dst", "2"),
    ("counts", "--cat", "FI", "--src", "-1", "--dst", "2"),
    ("counts", "--cat", "VIC", "--ring", "Z/2", "--src", "-1", "--dst", "2"),
    ("hom-enum", "--cat", "VIC", "--ring", "Z/2", "--src", "1", "--dst", "-2", "--count-only"),
], ids=["counts-SI", "counts-FI", "counts-VIC", "hom-enum-count-only"])
def test_count_commands_reject_a_negative_rank(capsys, argv):
    # one precondition record and nothing on stderr, whatever the category
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    assert [json.loads(line)["error"] for line in captured.out.splitlines()] == ["precondition"]


# ---------------------------------------------------------------------------
# exit codes and error records
# ---------------------------------------------------------------------------

def test_exit_code_precondition(capsys):
    rc, out = run_cli(capsys, "factor", "--ring", "Z/4", "--matrix", "[[2,2]]")
    assert rc == 1
    assert json.loads(out)["error"] == "precondition"


def test_factor_identity_9x9(capsys):
    eye = [[int(i == j) for j in range(9)] for i in range(9)]
    rc, out = run_cli(capsys, "factor", "--ring", "Z/4", "--matrix", json.dumps(eye))
    assert rc == 0
    assert json.loads(out) == {"f1": eye, "f2": eye}


def test_homology_double_rank6_within_default_budget(capsys, monkeypatch):
    # the orbit tables of the shift quotient cost no more than the hom
    # enumeration behind them
    argv = ("homology", "--cat", "FI", "--module", "P0", "--variant", "double",
            "--rank", "6", "--degree", "5")
    monkeypatch.delenv("FICAT_BUDGET", raising=False)
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    assert json.loads(out) == {"H%d" % i: 0 for i in range(6)}
    monkeypatch.setenv("FICAT_BUDGET", "100")
    rc, out = run_cli(capsys, *argv)
    assert rc == 2
    assert json.loads(out)["error"] == "budget"


def test_exit_code_budget(capsys, monkeypatch):
    monkeypatch.setenv("FICAT_BUDGET", "2")
    # a ring no other test touches, so the hom cache is cold
    rc, out = run_cli(capsys, "hom-enum", "--cat", "VIC", "--ring", "Z/5",
                      "--src", "1", "--dst", "2")
    assert rc == 2
    assert json.loads(out)["error"] == "budget"


@pytest.mark.parametrize("argv, env", [
    (("hom-enum", "--cat", "OSI", "--ring", "Z/2", "--src", "2", "--dst", "3"), {"FICAT_BUDGET": "10"}),
    (("counts", "--cat", "OSI", "--ring", "Z/4", "--src", "1", "--dst", "3"), {}),
])
def test_osi_hom_sets_are_charged_before_enumerating(argv, env):
    # a fresh process, so no hom set is cached: 241,920 and 4,128,768 SI maps
    # are refused before one is built
    full = {k: v for k, v in os.environ.items() if k != "FICAT_BUDGET"}
    full.update(env)
    src = str(Path(__file__).resolve().parents[1] / "src")
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "ficat.cli", *argv], capture_output=True, env=full, timeout=60)
    assert time.monotonic() - start < 2
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "budget"


def test_bad_flags_are_precondition_errors(capsys):
    rc, out = run_cli(capsys, "checks", "--profile", "bogus")
    assert rc == 1
    assert json.loads(out)["error"] == "precondition"
    rc, out = run_cli(capsys, "no-such-command")
    assert rc == 1
    rc, out = run_cli(capsys, "hom-enum", "--cat", "FI", "--src", "1")
    assert rc == 1
    rc, out = run_cli(capsys, "hom-enum", "--cat", "VIC", "--src", "1", "--dst", "2")
    assert rc == 1
    rc, out = run_cli(capsys, "homology", "--cat", "FI", "--module", "Q7", "--rank", "1")
    assert rc == 1
    rc, out = run_cli(capsys, "factor", "--ring", "Z/4", "--matrix", "not json")
    assert rc == 1


def test_invalid_morphism_payloads(capsys):
    # fp is not a left inverse of f
    rc, out = run_cli(capsys, "order-cmp", "--cat", "OVIC", "--ring", "Z/2",
                      "--lhs", '{"f": [[1], [1]], "fp": [[0, 0]]}',
                      "--rhs", '{"f": [[0], [1]], "fp": [[0, 1]]}')
    assert rc == 1
    assert json.loads(out)["error"] == "precondition"
    # missing fp field
    rc, out = run_cli(capsys, "compose", "--cat", "VIC", "--ring", "Z/2",
                      "--f", '{"f": [[1], [0]], "fp": [[1, 0]]}',
                      "--g", '{"f": [[1]]}')
    assert rc == 1
    assert json.loads(out)["error"] == "precondition"
    # category missing its ring
    rc, out = run_cli(capsys, "compose", "--cat", "VIC",
                      "--f", '{"f": [[1]], "fp": [[1]]}',
                      "--g", '{"f": [[1]], "fp": [[1]]}')
    assert rc == 1
    # ragged matrix rows
    rc, out = run_cli(capsys, "compose", "--cat", "VIC", "--ring", "Z/2",
                      "--f", '{"f": [[1], [0, 1]], "fp": [[1, 0]]}',
                      "--g", '{"f": [[1], [0]], "fp": [[1, 0]]}')
    assert rc == 1
    assert json.loads(out)["error"] == "precondition"
    # a non-integer entry
    rc, out = run_cli(capsys, "compose", "--cat", "SI", "--ring", "Z/2",
                      "--f", '{"f": [[1, 0], [0.5, 1]]}',
                      "--g", '{"f": [[1, 0], [0, 1]]}')
    assert rc == 1
    assert json.loads(out)["error"] == "precondition"


_FI_G = '{"images": [0, 1], "dst": 3}'


@pytest.mark.parametrize("argv", [
    # matrix rows that are not lists
    ("factor", "--ring", "Z/4", "--matrix", '{"rows": 1, "cols": 1, "entries": [5]}'),
    # rows of the wrong lengths that happen to hold rows * cols entries
    ("factor", "--ring", "Z/4", "--matrix", '{"rows": 2, "cols": 2, "entries": [[1], [2, 3, 3]]}'),
    # JSON true is not the element 1
    ("factor", "--ring", "Z/4", "--matrix", "[[true, 1]]"),
    ("factor", "--ring", "Z/4", "--matrix", '{"rows": 1, "cols": 2, "entries": [[true, 1]]}'),
    # malformed FI morphisms
    ("compose", "--cat", "FI", "--f", '{"images": 5, "dst": 2}', "--g", _FI_G),
    ("compose", "--cat", "FI", "--f", '{"images": [0], "dst": "3"}', "--g", _FI_G),
    ("compose", "--cat", "FI", "--f", '{"images": [0.5], "dst": 2}', "--g", _FI_G),
    ("compose", "--cat", "FI", "--f", '{"images": [true], "dst": 2}', "--g", _FI_G),
    ("compose", "--cat", "FI", "--f", '{"payload": 7, "dst": 2}', "--g", _FI_G),
    ("compose", "--cat", "VIC", "--ring", "Z/2", "--f", '{"payload": 7}', "--g", '{"payload": 7}'),
])
def test_malformed_arguments_are_precondition_records(capsys, argv):
    rc, out = run_cli(capsys, *argv)
    assert rc == 1
    assert json.loads(out)["error"] == "precondition"


def test_a_matrix_or_form_over_another_ring_is_refused(capsys):
    # the ring in force is --ring (or the category's): [[2]] is a
    # surjection over Z/3 but not over Z/4, so reading the object over its
    # own ring would answer a question the command did not ask
    rc, out = run_cli(capsys, "factor", "--ring", "Z/4", "--matrix", '{"ring": "Z/3", "entries": [[2]]}')
    assert rc == 1
    assert json.loads(out) == {"error": "precondition",
                               "detail": "matrix is over Z/3, not over the ring in force Z/4"}
    rc, out = run_cli(capsys, "compose", "--cat", "SI", "--ring", "Z/2",
                      "--f", '{"f": [[1, 0], [0, 1]], "src_form": {"ring": "Z/4", "gram": [[0, 1], [3, 0]]}}',
                      "--g", '{"f": [[1, 0], [0, 1]]}')
    assert rc == 1
    assert json.loads(out)["detail"] == "form is over Z/4, not over the ring in force Z/2"


def test_a_matrix_or_form_over_the_ring_in_force_parses(capsys):
    rc, out = run_cli(capsys, "factor", "--ring", "Z/4", "--matrix", '{"ring": "Z/4", "entries": [[2, 3]]}')
    assert rc == 0
    assert out == '{"f1": [[2, 1]], "f2": [[3]]}\n'
    # the spec is compared once parsed, so spacing does not matter
    rc, out = run_cli(capsys, "factor", "--ring", "Z/2xZ/3", "--matrix", '{"ring": "Z/2 x Z/3", "entries": [[5]]}')
    assert rc == 0
    # over Z/4 itself, [[2]] is no surjection
    rc, out = run_cli(capsys, "factor", "--ring", "Z/4", "--matrix", '{"ring": "Z/4", "entries": [[2]]}')
    assert rc == 1
    rc, out = run_cli(capsys, "compose", "--cat", "SI", "--ring", "Z/2",
                      "--f", '{"f": [[1, 0], [0, 1]], "src_form": {"ring": "Z/2", "gram": [[0, 1], [1, 0]]}}',
                      "--g", '{"f": [[1, 0], [0, 1]]}')
    assert rc == 0
    assert json.loads(out)["payload"]["f"]["entries"] == [[1, 0], [0, 1]]


def test_parser_choices_are_the_modules_own():
    # cli writes the choices out so that building its parser imports
    # neither modhom nor checks
    from ficat import checks, cli, modhom

    assert cli.VARIANTS == modhom.VARIANTS
    assert cli.PROFILES == checks.PROFILES


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def test_pretty_output(capsys):
    rc, out = run_cli(capsys, "counts", "--pretty", "--cat", "FI", "--src", "2", "--dst", "3")
    assert rc == 0
    assert "hom" in out and "6" in out
    assert not out.lstrip().startswith("{")


def test_byte_identical_reruns(capsys):
    args = ("hom-enum", "--cat", "OVIC", "--ring", "Z/4", "--src", "1", "--dst", "2")
    rc1, out1 = run_cli(capsys, *args)
    rc2, out2 = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 24


def test_checks_quick_profile_summary(capsys):
    rc, out = run_cli(capsys, "checks", "--profile", "quick")
    assert rc == 0
    lines = [json.loads(x) for x in out.splitlines()]
    assert len(lines) == 11
    assert [rec["criterion"] for rec in lines[:-1]] == list(range(1, 11))
    assert all(rec["pass"] for rec in lines[:-1])
    summary = lines[-1]
    assert summary == {"criteria": 10, "failed": 0, "pass": True, "passed": 10, "profile": "quick"}
