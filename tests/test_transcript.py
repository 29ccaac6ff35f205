"""The command line against a golden transcript.

tests/data/cli_transcript.jsonl holds one record per command: its argv,
the environment variables it sets, its stdout and its exit code.  Every
record is replayed through cli.main in-process and its stdout compared
byte for byte; one cheap record also runs as a fresh process under two
hash seeds.  The transcript is written by fresh `python -m ficat.cli`
processes:

    PYTHONPATH=src python3 tests/test_transcript.py --write

Rewrite it only for an intended change of output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = ROOT / "tests" / "data" / "cli_transcript.jsonl"

_OVIC4_F = '{"f": [[0], [3]], "fp": [[1, 3]]}'
_OVIC4_G = '{"f": [[3], [3], [3]], "fp": [[1, 3, 3]]}'
_OVIC4_H = '{"f": [[0], [0], [1]], "fp": [[1, 3, 1]]}'
_OSI2_F = '{"f": [[0, 0], [0, 0], [1, 0], [0, 1]]}'
_OSI2_G = '{"f": [[0, 0], [0, 0], [1, 0], [0, 1], [0, 0], [1, 0]]}'
_OSI2_H = '{"f": [[0, 0], [0, 0], [1, 0], [0, 0], [1, 0], [0, 1]]}'

# (argv, environment overrides)
CASES = [
    # the README commands (all but `checks --profile full`)
    (["ring-info", "--ring", "Z/6"], {}),
    (["factor", "--ring", "Z/4", "--matrix", "[[2,3]]"], {}),
    (["hom-enum", "--cat", "VIC", "--ring", "Z/2", "--src", "1", "--dst", "2", "--count-only"], {}),
    (["hom-enum", "--cat", "OSI", "--ring", "Z/2", "--src", "1", "--dst", "2"], {}),
    (["compose", "--cat", "FI", "--f", '{"src":1,"dst":2,"payload":{"images":[1]}}',
      "--g", '{"src":2,"dst":3,"payload":{"images":[0,2]}}'], {}),
    (["order-cmp", "--cat", "OVIC", "--ring", "Z/2",
      "--lhs", '{"f": [[1], [0]], "fp": [[1, 0]]}', "--rhs", '{"f": [[0], [1]], "fp": [[0, 1]]}'], {}),
    (["order-cmp", "--cat", "OSI", "--ring", "Z/2", "--relation", "preceq",
      "--lhs", '{"f": [[1,0],[0,1]]}', "--rhs", '{"f": [[0,0],[0,0],[1,0],[0,1]]}'], {}),
    (["order-phi", "--cat", "OVIC", "--ring", "Z/2",
      "--lhs", '{"f": [[0], [1]], "fp": [[0, 1]]}', "--rhs", '{"f": [[0], [0], [1]], "fp": [[0, 0, 1]]}'], {}),
    (["counts", "--cat", "SI", "--ring", "Z/2", "--src", "1", "--dst", "2"], {}),
    (["axioms", "--cat", "VIC", "--ring", "Z/4", "--units", "1,3", "--max-rank", "2"], {}),
    (["module-dims", "--cat", "VIC", "--ring", "Z/2", "--module", "P1", "--max-rank", "3", "--field", "F2"], {}),
    (["homology", "--cat", "FI", "--module", "P0", "--variant", "triple", "--rank", "3"], {}),
    (["checks", "--profile", "quick"], {}),
    # the axiom suite on every category
    (["axioms", "--cat", "FI", "--max-rank", "4"], {}),
    (["axioms", "--cat", "FI", "--max-rank", "3", "--seed", "7"], {}),
    (["axioms", "--cat", "OVIC", "--ring", "Z/4", "--max-rank", "2"], {}),
    (["axioms", "--cat", "SI", "--ring", "Z/2", "--max-rank", "1"], {}),
    (["axioms", "--cat", "OSI", "--ring", "Z/2", "--max-rank", "2"], {}),
    # both orders, related and unrelated pairs
    (["order-cmp", "--cat", "OVIC", "--ring", "Z/4", "--relation", "preceq", "--lhs", _OVIC4_F, "--rhs", _OVIC4_G], {}),
    (["order-cmp", "--cat", "OVIC", "--ring", "Z/4", "--relation", "preceq", "--lhs", _OVIC4_F, "--rhs", _OVIC4_H], {}),
    (["order-cmp", "--cat", "OVIC", "--ring", "Z/4", "--lhs", _OVIC4_G, "--rhs", _OVIC4_F], {}),
    (["order-cmp", "--cat", "OVIC", "--ring", "Z/4", "--lhs", _OVIC4_H, "--rhs", _OVIC4_H], {}),
    (["order-phi", "--cat", "OVIC", "--ring", "Z/4", "--lhs", _OVIC4_F, "--rhs", _OVIC4_G], {}),
    (["order-phi", "--cat", "OVIC", "--ring", "Z/4", "--lhs", _OVIC4_F, "--rhs", _OVIC4_H], {}),
    (["order-cmp", "--cat", "OSI", "--ring", "Z/2", "--relation", "preceq", "--lhs", _OSI2_F, "--rhs", _OSI2_G], {}),
    (["order-cmp", "--cat", "OSI", "--ring", "Z/2", "--relation", "preceq", "--lhs", _OSI2_G, "--rhs", _OSI2_H], {}),
    (["order-cmp", "--cat", "OSI", "--ring", "Z/2", "--lhs", _OSI2_H, "--rhs", _OSI2_G], {}),
    (["order-cmp", "--cat", "OSI", "--ring", "Z/2", "--lhs", _OSI2_F, "--rhs", _OSI2_F], {}),
    (["order-phi", "--cat", "OSI", "--ring", "Z/2", "--lhs", _OSI2_F, "--rhs", _OSI2_G], {}),
    (["order-phi", "--cat", "OSI", "--ring", "Z/2", "--lhs", _OSI2_G, "--rhs", _OSI2_H], {}),
    # error records and --pretty
    (["order-cmp", "--cat", "FI", "--lhs", '{"images": [0], "dst": 1}', "--rhs", '{"images": [0], "dst": 2}'], {}),
    (["hom-enum", "--cat", "FI", "--src", "2", "--dst", "5"], {"FICAT_BUDGET": "10"}),
    (["ring-info", "--ring", "Z/6", "--pretty"], {}),
    (["counts", "--cat", "VIC", "--ring", "Z/4", "--src", "1", "--dst", "2", "--pretty"], {}),
    (["axioms", "--cat", "FI", "--max-rank", "2", "--pretty"], {}),
]

# the record that also runs as a fresh process under two hash seeds
SUBPROCESS_CASE = 3


def _load():
    with TRANSCRIPT.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _spawn(argv, env):
    full = dict(os.environ)
    full.update(env)
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ficat.cli"] + argv, capture_output=True, env=full, cwd=ROOT)
    return proc.returncode, proc.stdout.decode()


def write_transcript():
    TRANSCRIPT.parent.mkdir(parents=True, exist_ok=True)
    with TRANSCRIPT.open("w") as fh:
        for argv, env in CASES:
            code, out = _spawn(argv, env)
            fh.write(json.dumps({"argv": argv, "env": env, "stdout": out, "exit": code}, sort_keys=True) + "\n")


RECORDS = _load() if TRANSCRIPT.exists() else []


def test_transcript_lists_every_case():
    assert [(r["argv"], r["env"]) for r in RECORDS] == [(list(a), e) for a, e in CASES]


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"][:3]) for r in RECORDS])
def test_record_replays_in_process(record, capsys, monkeypatch):
    from ficat.cli import main

    monkeypatch.delenv("FICAT_BUDGET", raising=False)
    for name, value in record["env"].items():
        monkeypatch.setenv(name, value)
    code = main(list(record["argv"]))
    assert (capsys.readouterr().out, code) == (record["stdout"], record["exit"])


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_record_replays_as_a_fresh_process(hashseed):
    record = RECORDS[SUBPROCESS_CASE]
    code, out = _spawn(record["argv"], dict(record["env"], PYTHONHASHSEED=hashseed))
    assert (out, code) == (record["stdout"], record["exit"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write_transcript()
