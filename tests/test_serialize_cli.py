import json
import os
import subprocess
import sys

import pytest

from troprays import serialize
from troprays.errors import SchemaError
from troprays.instances import M1, M3
from troprays.pmfunc import PmFunction
from troprays.quadspace import Vector
from troprays.rays import Ray
from troprays.semifield import ONE, t

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(REPO, "data")


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.run(
        [sys.executable, "-m", "troprays", *args],
        capture_output=True, env=env, cwd=REPO)


def data(name):
    return os.path.join(DATA, name)


def test_model_roundtrip():
    doc = serialize.model_to_json(M3)
    again = serialize.model_from_json(doc)
    assert again == M3
    assert serialize.model_hash(again) == serialize.model_hash(M3)


def test_model_schema_errors():
    with pytest.raises(SchemaError):
        serialize.model_from_json({"dim": 2, "q_diag": ["0", "0"]})
    with pytest.raises(SchemaError):
        serialize.model_from_json(
            {"dim": 2, "q_diag": ["0", "0"], "b": [["0", "2"], ["1", "0"]]})
    with pytest.raises(SchemaError):
        serialize.model_from_json(
            {"dim": 2, "q_diag": ["0", "0"], "b": [["1", "2"], ["2", "0"]]})
    with pytest.raises(SchemaError):
        serialize.model_from_json(
            {"dim": 2, "q_diag": ["0", "x"], "b": [["0", "2"], ["2", "0"]]})
    for doc in ({"dim": 2, "q_diag": 5, "b": [["0", "2"], ["2", "0"]]},
                {"dim": 2, "q_diag": ["0", "0"], "b": ["0", "2"]},
                {"dim": True, "q_diag": ["0"], "b": [["0"]]}):
        with pytest.raises(SchemaError):
            serialize.model_from_json(doc)


def test_ray_and_pm_roundtrip():
    r = Ray(Vector.parse(["3", "-1/2", "-inf"]))
    again = serialize.ray_from_json(serialize.ray_to_json(r))
    assert again == r and again.base == r.base
    f = PmFunction((serialize.value_from_text("-inf"), t(2),
                    serialize.value_from_text("+inf")), ((ONE, 0), (t(-2), 1)))
    again = serialize.pm_from_json(serialize.pm_to_json(f))
    assert again == f


def test_family_parsing_errors():
    with pytest.raises(SchemaError):
        serialize.family_from_json(
            {"functions": [{"terms": [{"coeff": "0", "anchor": "nope"}]}]}, M1)
    for doc in ({"rays": ["0", "0"]},
                {"functions": {"terms": []}},
                {"functions": [{"terms": ["Y1"]}]},
                {"rays": {"Y1": ["0", "-inf"]},
                 "functions": [{"terms": [{"anchor": ["Y1"]}]}]},
                {"samples": "Y1"}):
        with pytest.raises(SchemaError):
            serialize.family_from_json(doc, M1)


def test_cli_stratify_m1():
    res = run_cli("stratify", "--model", data("m1.json"), "--b",
                  data("family_m1.json"), "--from", "Y1", "--to", "Y2", "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert [p["signs"] for p in doc["trace"]["pieces"]] == ["<", "=", ">"]
    assert doc["trace"]["separators"][1]["ray"]["rep"] == ["0", "0"]


def test_cli_interval_profile():
    res = run_cli("interval-profile", "--model", data("m1.json"), "--b",
                  data("family_m1.json"), "--from", "Y1", "--to", "Y2",
                  "--witness", "0,-inf", "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["regions"]["A"] == ["-inf", "-2"]
    assert doc["regions"]["B"] == ["-2", "2"]
    assert doc["regions"]["C"] == ["2", "+inf"]
    assert doc["reduced_degrees"] == [0, 1, 0]


def test_cli_compare():
    res = run_cli("compare", "--model", data("m1.json"), "--b",
                  data("family_m1.json"), "--from", "Y1", "--to", "Y2",
                  "--f", "0", "--g", "1", "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert [p["sign"] for p in doc["pieces"]] == ["<", "=", ">"]


def test_cli_junction_and_butterfly():
    res = run_cli("junction", "--model", data("wall.json"), "--b",
                  data("family_wall.json"), "--w", "W", "--w2", "W2",
                  "--u", "U", "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["outcome"] == "junction"
    assert doc["stop_criterion_held"]
    res = run_cli("butterfly", "--model", data("wall.json"), "--b",
                  data("family_wall.json"), "--w", "W", "--w2", "W2",
                  "--u", "U", "--json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["verified"]


def test_cli_butterfly_impossible_is_exit_1():
    res = run_cli("butterfly", "--model", data("m1.json"), "--b",
                  data("family_m1.json"), "--w", "W", "--w2", "W2", "--u", "Z")
    assert res.returncode == 1


def test_cli_chart_dot(tmp_path):
    out = tmp_path / "chart.dot"
    res = run_cli("chart", "--model", data("m1.json"), "--b",
                  data("family_m1.json"), "--dot", str(out))
    assert res.returncode == 0
    text = out.read_text()
    assert text.startswith("digraph") and text.count("->") == 2


def test_cli_isotropy_entry():
    res = run_cli("isotropy-entry", "--model", data("m3.json"), "--b",
                  data("family_m3.json"), "--from", "Y2", "--to", "Y3",
                  "--eps=0,-inf,-inf", "--eta=-inf,-inf,0", "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["case"] == "C2b"
    assert doc["t0"] == "1"
    assert doc["stable"]


def test_cli_validate_and_eval_errors():
    res = run_cli("validate", "--model", data("m1.json"), "--samples", "50")
    assert res.returncode == 0
    res = run_cli("eval", "--model", data("bad_asymmetric.json"), "--vec", "0,0")
    assert res.returncode == 2
    res = run_cli("eval", "--model", data("m1.json"), "--vec", "0,0,0")
    assert res.returncode == 2


def test_cli_eval_values():
    res = run_cli("eval", "--model", data("m1.json"), "--vec", "0,3",
                  "--vec2", "0,-inf", "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["q"] == "6"
    assert doc["b"] == "5"


def test_cli_oracle_small():
    res = run_cli("oracle", "--model", data("m1.json"), "--samples", "60",
                  "--seed", "3", "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["ok"] is True


def test_cli_deterministic_bytes():
    args = ("stratify", "--model", data("m1.json"), "--b",
            data("family_m1.json"), "--from", "Y1", "--to", "Y2", "--json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def assert_input_error(res):
    """Exit 2 with a one-line message on stderr and no traceback."""
    stderr = res.stderr.decode()
    assert res.returncode == 2, stderr
    assert len(stderr.splitlines()) == 1, stderr
    assert stderr.startswith("input error: ")
    assert res.stdout == b""


def test_cli_scalar_q_diag_is_input_error(tmp_path):
    model = tmp_path / "scalar.json"
    model.write_text(json.dumps({"dim": 2, "q_diag": 5, "b": [["0", "2"], ["2", "0"]]}))
    assert_input_error(run_cli("validate", "--model", str(model)))


def test_cli_degenerate_interval_is_input_error():
    assert_input_error(run_cli("stratify", "--model", data("m1.json"), "--b",
                               data("family_m1.json"), "--from", "Y1", "--to", "Y1"))


def test_cli_zero_max_iter_is_input_error():
    assert_input_error(run_cli("junction", "--model", data("m1.json"), "--b",
                               data("family_m1.json"), "--w", "W", "--w2", "W2",
                               "--u", "Z", "--max-iter", "0"))


def test_cli_negative_samples_is_input_error():
    assert_input_error(run_cli("validate", "--model", data("m1.json"), "--samples", "-5"))

