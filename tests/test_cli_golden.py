"""Byte-identity of the CLI: stdout and exit codes against recorded goldens.

Every command runs in-process through ``troprays.cli.main`` from the
repository root, so relative data paths resolve as in the README.  The
goldens in ``data/cli_golden.json`` were recorded from a known-good build;
refresh them with ``PYTHONPATH=src python tests/test_cli_golden.py`` only for
an intended change of output.
"""

import contextlib
import io
import json
import os

import pytest

from troprays import cli

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(REPO, "tests", "data", "cli_golden.json")
DOT = "{tmp}/chart.dot"  # replaced by a temporary directory at run time

M1 = ("--model", "data/m1.json")
M1_FAM = M1 + ("--b", "data/family_m1.json")
WALL_FAM = ("--model", "data/wall.json", "--b", "data/family_wall.json")

README = [
    ("validate", *M1, "--samples", "200"),
    ("eval", *M1, "--vec", "0,3", "--vec2", "0,-inf"),
    ("interval-profile", *M1_FAM, "--from", "Y1", "--to", "Y2", "--witness", "0,-inf"),
    ("compare", *M1_FAM, "--from", "Y1", "--to", "Y2", "--f", "0", "--g", "1"),
    ("stratify", *M1_FAM, "--from", "Y1", "--to", "Y2"),
    ("chart", *M1_FAM, "--dot", DOT),
    ("junction", *WALL_FAM, "--w", "W", "--w2", "W2", "--u", "U"),
    ("butterfly", *WALL_FAM, "--w", "W", "--w2", "W2", "--u", "U"),
    ("isotropy-entry", "--model", "data/m3.json", "--b", "data/family_m3.json",
     "--from", "Y2", "--to", "Y3", "--eps=0,-inf,-inf", "--eta=-inf,-inf,0"),
    ("oracle", *M1, "--samples", "500", "--seed", "7"),
]
FAILURES = [
    ("butterfly", *M1_FAM, "--w", "W", "--w2", "W2", "--u", "Z"),
]
MODELS = [
    ("validate", "--model", "data/m3.json"),
    ("eval", "--model", "data/m3.json", "--vec", "0,0,-inf", "--vec2=-inf,0,0"),
    ("oracle", "--model", "data/m3.json", "--samples", "100", "--seed", "3"),
    ("validate", "--model", "data/wall.json"),
    ("eval", "--model", "data/wall.json", "--vec", "0,-1,-2", "--vec2=-inf,0,-3"),
    ("oracle", "--model", "data/wall.json", "--samples", "100", "--seed", "3"),
]
COMMANDS = [list(argv) + extra for argv in README + FAILURES + MODELS for extra in ([], ["--json"])]


def run(argv, tmp):
    """(exit code, stdout, DOT file text or None) of one in-process run."""
    argv = [a.replace("{tmp}", str(tmp)) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    dot = os.path.join(str(tmp), "chart.dot")
    text = None
    if os.path.exists(dot):
        with open(dot, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(dot)
    return code, out.getvalue(), text


def key(argv):
    return " ".join(argv)


def record(tmp):
    return {key(argv): dict(zip(("exit", "stdout", "dot"), run(argv, tmp)))
            for argv in COMMANDS}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_command(golden):
    assert sorted(golden) == sorted(key(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=key)
def test_cli_output_matches_golden(argv, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    code, stdout, dot = run(argv, tmp_path)
    want = golden[key(argv)]
    assert code == want["exit"]
    assert stdout == want["stdout"]
    assert dot == want["dot"]


if __name__ == "__main__":
    import tempfile

    os.chdir(REPO)
    with tempfile.TemporaryDirectory() as tmp:
        document = record(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
