"""Smoke runs of the scripts under scripts/, which import the library
the way a user does and are otherwise exercised by nothing."""

import importlib.util
import os
import subprocess
import sys

from troprays.instances import CORNER

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_chart_search_finds_corner_on_its_first_model(capsys):
    """The provenance of instances.CORNER: seed 0 of the basis search hits
    on its first model, which is CORNER's model."""
    assert load_script("search_chart_instance").main(0, 1, "basis") == 0
    out = capsys.readouterr().out
    assert f"  q_diag: {[str(v) for v in CORNER.q_diag]}" in out
    assert f"  b: {[[str(v) for v in row] for row in CORNER.b]}" in out


def test_gorge_search_runs(capsys):
    """Four trials of seed 0 run twelve junction processes; all of them stop."""
    assert load_script("search_gorge").main(0, 4) == 1
    out = capsys.readouterr().out
    assert "('junction', 1)" in out
    assert "no non-stopping process found" in out


def test_workload_digests_prints_one_stable_line_per_seed():
    """One stratify-sweep seed prints one line, the same line on a second run."""
    script = os.path.join(SCRIPTS, "workload_digests.py")
    runs = [subprocess.run([sys.executable, script, "stratify-sweep", "--seeds", "1"],
                           capture_output=True, text=True, timeout=300) for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    lines = runs[0].stdout.splitlines()
    assert len(lines) == 1
    name, seed, digest = lines[0].split()
    assert (name, seed, len(digest)) == ("stratify-sweep", "1", 16)
    assert runs[1].stdout == runs[0].stdout


def test_workload_digests_match_the_recorded_outputs():
    """The results of one round at seed 1 of three workloads, fingerprinted:
    a change that keeps these lines computed the same chart, junctions,
    butterflies, Galois closures, traces and f_w checks on those inputs."""
    script = os.path.join(SCRIPTS, "workload_digests.py")
    run = subprocess.run([sys.executable, script, "frontier", "stratify-sweep", "fw-oracle",
                          "--seeds", "1"], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        'frontier 1 79569077573fb954 {"butterfly_scenarios_tried": 24, '
        '"junction_scenarios_tried": 40}',
        "stratify-sweep 1 0bcbe7e7ab779f49",
        "fw-oracle 1 451c223067656ba0",
    ]


def test_cli_docs_digest_matches_the_recorded_output():
    """One cli-docs round at seed 1, fingerprinted: every README command, text
    and --json, in-process and in a fresh process, plus the malformed ones,
    printed the same exit codes, stdout and stderr as when it was recorded."""
    script = os.path.join(SCRIPTS, "workload_digests.py")
    run = subprocess.run([sys.executable, script, "cli-docs", "--seeds", "1"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["cli-docs 1 6bc64c4aaf379757"]


def test_src_lines_counts_raw_and_code_lines():
    """The total raw count is the modules' line count, and leaving out
    docstrings, comments and blank lines counts fewer code lines."""
    src = os.path.join(os.path.dirname(SCRIPTS), "src", "troprays")
    run = subprocess.run([sys.executable, os.path.join(SCRIPTS, "src_lines.py")],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    name, raw, code = run.stdout.splitlines()[-1].split()
    lines = 0
    for module in os.listdir(src):
        if module.endswith(".py"):
            with open(os.path.join(src, module), encoding="utf-8") as f:
                lines += sum(1 for _ in f)
    assert (name, int(raw)) == ("total", lines)
    assert 0 < int(code) < int(raw)


def test_mutants_name_an_old_text_that_occurs_once():
    """Every entry of scripts/mutants.py can still be applied: its name is
    unique, its old text occurs once in its file, and it lists tests."""
    mutants = load_script("mutants")
    names = [m["name"] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        with open(os.path.join(mutants.ROOT, m["file"]), encoding="utf-8") as f:
            assert f.read().count(m["old"]) == 1, m["name"]
        assert m["tests"] and m["old"] != m["new"], m["name"]


def test_mutants_kills_one_mutant():
    """One mutant, applied to a temporary copy and its test run under the
    CPU-time limit, is killed, and the script exits 0."""
    run = subprocess.run([sys.executable, os.path.join(SCRIPTS, "mutants.py"),
                          "--only", "gram-b-skips-dimension-check"],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines() == ["gram-b-skips-dimension-check: killed",
                                       "1 of 1 mutants killed"]


def test_mutants_reports_survivors_and_broken_entries():
    """A change that no listed test sees survives, an old text that is not in
    the file is stale, and a test id that does not exist is an error; none
    counts as killed."""
    mutants = load_script("mutants")
    harmless = {"name": "harmless", "file": "src/troprays/semifield.py",
                "old": "_KINF = 1\n", "new": "_KINF = 1  # unchanged\n",
                "tests": ["tests/test_quadspace.py::test_dimension_mismatch"]}
    assert mutants.check(harmless) == (
        False, "harmless: SURVIVED (tests/test_quadspace.py::test_dimension_mismatch passed)")
    stale = dict(harmless, name="stale", old="no such text\n")
    killed, line = mutants.check(stale)
    assert not killed and line.startswith("stale: STALE")
    missing = dict(harmless, name="missing", tests=["tests/test_quadspace.py::no_such_test"])
    assert mutants.check(missing) == (False, "missing: ERROR (pytest exit status 4)")
