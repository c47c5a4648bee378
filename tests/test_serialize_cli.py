import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from troprays import cli, serialize
from troprays.errors import SchemaError
from troprays.instances import M1, M3
from troprays.pmfunc import PmFunction
from troprays.quadspace import Vector
from troprays.rays import Ray
from troprays.semifield import ONE, t, value_of

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
                {"dim": True, "q_diag": ["0"], "b": [["0"]]},
                {"dim": 2, "q_diag": ["0"], "b": [["0", "2"], ["2", "0"]]},
                {"dim": 2, "q_diag": ["0", "0"], "b": [["0", "2"], ["2"]]}):
        with pytest.raises(SchemaError):
            serialize.model_from_json(doc)


def test_ray_and_pm_roundtrip():
    r = Ray(Vector.parse(["3", "-1/2", "-inf"]))
    again = serialize.ray_from_json(serialize.ray_to_json(r))
    assert again == r and again.base == r.base
    f = PmFunction((value_of("-inf"), t(2), value_of("+inf")), ((ONE, 0), (t(-2), 1)))
    again = serialize.pm_from_json(serialize.pm_to_json(f))
    assert again == f
    for c in ("-inf", "+inf"):
        f = PmFunction((value_of("-inf"), value_of("+inf")), ((value_of(c), 0),))
        again = serialize.pm_from_json(serialize.pm_to_json(f))
        assert again == f and serialize.pm_to_json(again)["segments"][0]["coeff"] == c


# JSON numbers that are not exact: a float, a float that overflows to -inf
# (once read as the zero "-inf") and a boolean
NOT_VALUES = ["0.5", "-1e400", "true"]

READERS = {"model": serialize.model_from_json,
           "family": lambda doc: serialize.family_from_json(doc, M1),
           "pm": serialize.pm_from_json}


def documents_with(junk):
    """(reader, JSON text) pairs, each document with one value written as junk."""
    return [
        ("model", f'{{"dim": 2, "q_diag": [{junk}, "0"], '
                  '"b": [["-inf", "-inf"], ["-inf", "0"]]}'),
        ("model", f'{{"dim": 2, "q_diag": ["0", "0"], "b": [["0", {junk}], [{junk}, "0"]]}}'),
        ("family", f'{{"rays": {{"Y1": ["0", {junk}]}}}}'),
        ("family", f'{{"rays": {{"Y1": ["0", "0"]}}, '
                   f'"functions": [{{"terms": [{{"coeff": {junk}, "anchor": "Y1"}}]}}]}}'),
        ("pm", f'{{"breakpoints": ["-inf", {junk}, "+inf"], "segments": '
               '[{"coeff": "0", "degree": 0}, {"coeff": "0", "degree": 0}]}'),
        ("pm", f'{{"breakpoints": ["-inf", "+inf"], '
               f'"segments": [{{"coeff": {junk}, "degree": 0}}]}}'),
    ]


@pytest.mark.parametrize("junk", NOT_VALUES)
def test_json_floats_and_booleans_are_not_values(junk):
    for reader, text in documents_with(junk):
        with pytest.raises(SchemaError):
            READERS[reader](json.loads(text))


@pytest.mark.parametrize("degree", ["1.5", "true", '"1"'])
def test_pm_degree_must_be_a_json_integer(degree):
    doc = json.loads('{"breakpoints": ["-inf", "+inf"], '
                     f'"segments": [{{"coeff": "0", "degree": {degree}}}]}}')
    with pytest.raises(SchemaError, match="is not an int"):
        serialize.pm_from_json(doc)


def test_json_integers_read_as_exponents():
    ints = serialize.model_from_json({"dim": 2, "q_diag": [0, 3], "b": [[-5, 1], [1, 3]]})
    texts = serialize.model_from_json(
        {"dim": 2, "q_diag": ["0", "3"], "b": [["-5", "1"], ["1", "3"]]})
    assert ints == texts


def test_family_parsing_errors():
    with pytest.raises(SchemaError):
        serialize.family_from_json(
            {"functions": [{"terms": [{"coeff": "0", "anchor": "nope"}]}]}, M1)
    for doc in ({"rays": ["0", "0"]},
                {"functions": {"terms": []}},
                {"functions": [{"terms": ["Y1"]}]},
                {"rays": {"Y1": ["0", "-inf"]},
                 "functions": [{"terms": [{"anchor": ["Y1"]}]}]},
                {"samples": "Y1"},
                {"rays": {"Y1": ["+inf", "0"]}},
                {"rays": {"O": ["-inf", "-inf"]}},
                {"samples": [["0", "0", "0"]]}):
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


def test_cli_eval_evaluates_each_value_once(capsys, gram_calls):
    code = cli.main(["eval", "--model", data("m1.json"), "--vec", "0,3",
                     "--vec2", "0,-inf"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "q(x) = 6", "b(x,y) = 5", "CS(x,y) = 4"]
    # q(x), b(x, y), and CS(x, y) from q(x), q(y), b(x, y)
    assert gram_calls == {"eval_q": 1 + 2, "eval_b": 1 + 1}


@pytest.mark.parametrize("command, grams", [("junction", {"eval_q": 7, "eval_b": 14}),
                                            ("butterfly", {"eval_q": 14, "eval_b": 37})])
def test_cli_frontier_reads_both_strata_through_one_binding(command, grams, capsys,
                                                            gram_calls):
    """T at --w and T' at --u are read through the FrontierPair's own binding,
    so the command reads what the library's junction and butterfly read
    (``test_bound_frontier_gram_counts``); a binding of its own read 11 q + 18 b
    (junction) and 18 q + 41 b (butterfly), one per read 13 q and 20 q."""
    assert cli.main([command, "--model", data("wall.json"), "--b", data("family_wall.json"),
                     "--w", "W", "--w2", "W2", "--u", "U"]) == 0
    capsys.readouterr()
    assert gram_calls == grams


@pytest.mark.parametrize("argv", [["--vec", ""], ["--vec", "0,3", "--vec2", ""],
                                  ["--vec", "\u0661,2"]],
                         ids=["empty-vec", "empty-vec2", "arabic-indic-digit"])
def test_cli_eval_empty_or_non_ascii_vector_is_input_error(argv, capsys):
    """A given empty --vec2 is an input error, as an empty --vec is, not an
    absent --vec2; a non-ASCII digit is bad text."""
    assert cli.main(["eval", "--model", data("m1.json"), *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith("input error: bad semifield value")


def test_cli_dispatches_to_the_current_handler(monkeypatch):
    """main() calls the cmd_* attribute current when it runs, as the
    benchmark tracer's per-command spans need: it wraps them after import."""
    calls = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: calls.append(args.vec) or 7)
    assert cli.main(["eval", "--model", data("m1.json"), "--vec", "0,3"]) == 7
    assert calls == ["0,3"]


def invoke(argv):
    """(exit code, stdout, stderr) of one in-process main() call; an argument
    error exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as ex:
            code = ex.code
    return code, out.getvalue(), err.getvalue()


def readme_commands(tmp_path):
    """The README commands on the data/ models, each in text and --json form."""
    m1 = ("--model", data("m1.json"), "--b", data("family_m1.json"))
    wall = ("--model", data("wall.json"), "--b", data("family_wall.json"))
    interval = ("--from", "Y1", "--to", "Y2")
    commands = [
        ("validate", "--model", data("m1.json"), "--samples", "200"),
        ("eval", "--model", data("m1.json"), "--vec", "0,3", "--vec2", "0,-inf"),
        ("interval-profile", *m1, *interval, "--witness", "0,-inf"),
        ("compare", *m1, *interval, "--f", "0", "--g", "1"),
        ("stratify", *m1, *interval),
        ("chart", *m1, "--dot", str(tmp_path / "chart.dot")),
        ("junction", *wall, "--w", "W", "--w2", "W2", "--u", "U"),
        ("butterfly", *wall, "--w", "W", "--w2", "W2", "--u", "U"),
        ("isotropy-entry", "--model", data("m3.json"), "--b", data("family_m3.json"),
         "--from", "Y2", "--to", "Y3", "--eps=0,-inf,-inf", "--eta=-inf,-inf,0"),
        ("oracle", "--model", data("m1.json"), "--samples", "500", "--seed", "7"),
    ]
    return [argv + extra for argv in commands for extra in ((), ("--json",))]


def test_cli_builds_its_parser_once():
    assert cli.build_parser() is cli.build_parser()


def test_cli_reused_parser_gives_each_command_its_first_result(tmp_path):
    """Every README command, text and --json, run twice in one process with
    all the others in between: the second run of each prints what its first
    did, with the same exit code."""
    commands = readme_commands(tmp_path)
    first = [invoke(argv) for argv in commands]
    second = [invoke(argv) for argv in commands]
    assert [code for code, _, _ in first] == [0] * len(commands)
    for argv, a, b in zip(commands, first, second):
        assert a == b, argv


def test_cli_reused_parser_restores_defaults(monkeypatch):
    """An option given in one call does not carry over to the next: validate
    after validate --samples 3 reads the default 200 samples."""
    seen = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.samples) or 0)
    for argv in (["--samples", "3"], []):
        assert cli.main(["validate", "--model", data("m1.json"), *argv]) == 0
    assert seen == [3, 200]


def test_cli_argument_error_leaves_the_next_call_unchanged():
    argv = ["junction", "--model", data("wall.json"), "--b", data("family_wall.json"),
            "--w", "W", "--w2", "W2", "--u", "U"]
    before = invoke(argv)
    code, out, err = invoke(argv + ["--max-iter", "0", "--dot", "x"])
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("input error: troprays junction: ")
    assert invoke(argv) == before


def test_cli_eval_cs_of_isotropic_vector_is_input_error():
    assert_input_error(run_cli("eval", "--model", data("m3.json"), "--vec=0,-inf,-inf",
                               "--vec2", "0,0,0"))


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


@pytest.mark.parametrize("contents", [
    json.dumps({"dim": 2, "q_diag": 5, "b": [["0", "2"], ["2", "0"]]}).encode(),
    b"\xff\xfe{",
    b"[" * 100_000,
    b'{"dim": 1, "q_diag": [' + b"9" * 5000 + b'], "b": [["0"]]}',
    b'{"dim": 2, "q_diag": ["0", "0"], "b": [["0", "2"]',
    None,
    b'{"dim": 1, "q_diag": ["1e4000"], "b": [["0"]]}',
], ids=["scalar-q-diag", "not-utf8", "nested-too-deeply", "5000-digit-int", "truncated",
                   "missing", "exponent-notation"])
def test_cli_bad_model_file_is_input_error(tmp_path, contents):
    model = tmp_path / "model.json"
    if contents is not None:
        model.write_bytes(contents)
    assert_input_error(run_cli("validate", "--model", str(model)))


def test_cli_overflowed_json_number_is_input_error(tmp_path):
    """-1e400 overflows to a float -inf, once read as the zero: q(x) = -inf."""
    model = tmp_path / "overflow.json"
    model.write_text('{"dim": 2, "q_diag": [-1e400, "0"], '
                     '"b": [["-inf", "-inf"], ["-inf", "0"]]}')
    assert_input_error(run_cli("eval", "--model", str(model), "--vec", "0,-inf"))


def test_cli_degenerate_interval_is_input_error():
    assert_input_error(run_cli("stratify", "--model", data("m1.json"), "--b",
                               data("family_m1.json"), "--from", "Y1", "--to", "Y1"))
    res = run_cli("isotropy-entry", "--model", data("m3.json"), "--b",
                  data("family_m3.json"), "--from", "Y2", "--to", "Y2",
                  "--eps=0,-inf,-inf", "--eta=-inf,-inf,0")
    assert_input_error(res)
    assert res.stderr.decode().startswith("input error: bad interval --from Y2 --to Y2: ")


def test_cli_zero_max_iter_is_input_error():
    assert_input_error(run_cli("junction", "--model", data("m1.json"), "--b",
                               data("family_m1.json"), "--w", "W", "--w2", "W2",
                               "--u", "Z", "--max-iter", "0"))


def test_cli_negative_samples_is_input_error():
    assert_input_error(run_cli("validate", "--model", data("m1.json"), "--samples", "-5"))



def family_file(tmp_path, **extra):
    """family_m1.json with some sections replaced, written to tmp_path."""
    with open(data("family_m1.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(extra)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_zero_vector_ray_argument_is_input_error():
    assert_input_error(run_cli("stratify", "--model", data("m1.json"), "--b",
                               data("family_m1.json"), "--from=-inf,-inf", "--to", "Y2"))


# each option's command on m1 (dimension 2) with the spec left to fill in; eval
# asks for CS(x, y), which a zero vector x leaves undefined
SPEC_COMMANDS = {
    "--vec": ("eval", "--model", data("m1.json"), "--vec2", "0,0"),
    "--from": ("stratify", "--model", data("m1.json"), "--b", data("family_m1.json"),
               "--to", "Y2"),
    "--w": ("junction", "--model", data("m1.json"), "--b", data("family_m1.json"),
            "--w2", "W2", "--u", "Z"),
}


@pytest.mark.parametrize("option", sorted(SPEC_COMMANDS))
@pytest.mark.parametrize("spec", ["0,abc", "0,+inf", "0,0,0", "-inf,-inf"])
def test_cli_malformed_spec_is_input_error(option, spec, capsys):
    """An unparsable value, a +inf coordinate, the wrong dimension and the
    zero vector exit 2 with one stderr line, raising nothing out of main."""
    assert cli.main([*SPEC_COMMANDS[option], f"{option}={spec}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith("input error: ")


def test_cli_zero_vector_family_ray_is_input_error(tmp_path):
    family = family_file(tmp_path, rays={"Y1": ["0", "-inf"], "Y2": ["-inf", "0"],
                                         "O": ["-inf", "-inf"]})
    assert_input_error(run_cli("stratify", "--model", data("m1.json"), "--b", family,
                               "--from", "Y1", "--to", "Y2"))


def test_cli_sample_of_wrong_dimension_is_input_error(tmp_path):
    family = family_file(tmp_path, samples=["W", ["0", "0", "0"]])
    assert_input_error(run_cli("chart", "--model", data("m1.json"), "--b", family))


def test_cli_infinite_coefficient_is_input_error(tmp_path):
    family = family_file(tmp_path, functions=[
        {"terms": [{"coeff": "+inf", "anchor": "Y1"}]},
        {"terms": [{"coeff": "0", "anchor": "Y2"}]}])
    assert_input_error(run_cli("stratify", "--model", data("m1.json"), "--b", family,
                               "--from", "Y1", "--to", "Y2"))


def test_cli_unwritable_dot_path_is_input_error(tmp_path):
    out = tmp_path / "missing" / "chart.dot"
    assert_input_error(run_cli("chart", "--model", data("m1.json"), "--b",
                               data("family_m1.json"), "--dot", str(out)))
    assert not out.exists()


def test_cli_anisotropic_eps_is_input_error():
    assert_input_error(run_cli("isotropy-entry", "--model", data("m3.json"), "--b",
                               data("family_m3.json"), "--from", "Y2", "--to", "Y3",
                               "--eps=-inf,0,-inf", "--eta=-inf,-inf,0"))


def test_cli_junction_toward_its_own_source_has_no_entrance():
    res = run_cli("junction", "--model", data("wall.json"), "--b",
                  data("family_wall.json"), "--w", "W", "--w2", "W2", "--u", "W")
    assert res.returncode == 1
    assert res.stderr.decode().splitlines() == ["NoEntrance: U is W itself"]


# well-formed arguments that a run finds bad: an eta along which q vanishes and a
# source outside T (library errors whose class sets input_error), and equal
# butterfly sources, refused before the search
BAD_ARGUMENTS = {
    "ill-posed eta": ("isotropy-entry", "--model", data("m3.json"), "--b", data("family_m3.json"),
                      "--from", "Y2", "--to", "Y3", "--eps=0,-inf,-inf", "--eta=0,-inf,-inf"),
    "source outside T": ("junction", "--model", data("wall.json"), "--b",
                         data("family_wall.json"), "--w", "U", "--w2", "W2", "--u", "W"),
    "equal sources": ("butterfly", "--model", data("wall.json"), "--b",
                      data("family_wall.json"), "--w", "W", "--w2", "W", "--u", "U"),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_cli_bad_argument_is_input_error(case, capsys):
    """A bad argument that only a run can tell exits 2 with one stderr line,
    like a malformed one."""
    assert cli.main(list(BAD_ARGUMENTS[case])) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith("input error: ")

