"""Smoke runs of the search scripts under scripts/, which import the library
the way a user does and are otherwise exercised by nothing."""

import importlib.util
import os

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
