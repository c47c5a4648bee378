"""The CLI's exit-code contract under generated models, families and argv.

Every run through ``troprays.cli.main`` returns 0 (success), 1 (verification
failure) or 2 (input error), or the argument parser exits with 2; no other
exception may escape.  Documents are mostly well formed, so runs reach the
computations, with one field replaced by junk in some of them.  On the WALL
frontier the input errors of ``junction`` and ``butterfly`` are pinned
exactly: they are the source rays' sign vectors differing, or W = W2.  On
``data/m3.json`` those of ``isotropy-entry --eta`` are: an approach along
which q vanishes for every parameter.
"""

import contextlib
import io
import json
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from troprays import cli, serialize
from troprays.quadspace import vec
from troprays.rays import Ray
from troprays.sampling import Sampler
from troprays.semifield import TropValue
from troprays.strata import sign_vector_at

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")

VALUES = st.sampled_from(["0", "1", "-1", "2", "-3", "1/2", "-inf"])
COEFFS = st.sampled_from(["0", "1", "-2", "-inf"] * 5 + ["+inf"])
JUNK = st.sampled_from(["+inf", "x", "", "1/0", 5, None, True, [], {}, ["0"]])
NAMES = ["A", "B", "C"]


def corrupt(draw, doc):
    """Replace one leaf or section of doc, chosen at random, by junk."""
    paths = []

    def walk(node, path):
        paths.append(path)
        items = node.items() if isinstance(node, dict) else (
            enumerate(node) if isinstance(node, list) else ())
        for k, v in items:
            walk(v, path + (k,))

    walk(doc, ())
    path = draw(st.sampled_from(paths[1:]))
    node = doc
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = draw(JUNK)


@st.composite
def vectors(draw, n):
    return [draw(VALUES) for _ in range(n)]


@st.composite
def cases(draw):
    n = draw(st.integers(2, 3)) if draw(st.integers(0, 5)) else 1
    q = draw(vectors(n))
    b = [[None] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = draw(st.sampled_from([q[i], "-inf"]))  # b(e_i, e_i) <= q(e_i)
        for j in range(i + 1, n):
            b[i][j] = b[j][i] = draw(VALUES)
    model = {"dim": n, "q_diag": q, "b": b}

    rays = {name: draw(vectors(n if draw(st.integers(0, 9)) else n + 1))
            for name in NAMES[:draw(st.integers(1, 3))]}
    names = list(rays) or ["A"]
    terms = st.fixed_dictionaries({"coeff": COEFFS, "anchor": st.sampled_from(names)})
    functions = [{"terms": draw(st.lists(terms, max_size=2))}
                 for _ in range(draw(st.integers(2, 3)) if draw(st.integers(0, 5)) else 1)]
    samples = draw(st.lists(st.one_of(st.sampled_from(names), vectors(n)), max_size=4))
    family = {"rays": rays, "functions": functions, "samples": samples}

    if draw(st.integers(0, 5)) == 5:
        corrupt(draw, model)
    if draw(st.integers(0, 5)) == 5:
        corrupt(draw, family)

    def vector_spec():
        if draw(st.integers(0, 9)) == 9:
            return draw(st.sampled_from(["x,0", ",".join(["0"] * (n + 1))]))
        return ",".join(draw(vectors(n)))

    def ray_spec():
        return draw(st.sampled_from(names)) if draw(st.booleans()) else vector_spec()

    command = draw(st.sampled_from(
        ["junction", "butterfly", "chart", "stratify", "isotropy-entry", "compare",
         "interval-profile", "eval", "oracle", "validate"]))
    argv = [command, "--model=MODEL"]
    if command == "validate" or command == "oracle":
        argv.append(f"--samples={draw(st.integers(0, 3))}")
    elif command == "eval":
        argv += [f"--vec={vector_spec()}", f"--vec2={vector_spec()}"]
    else:
        argv.append("--b=FAMILY")
    if command in ("interval-profile", "compare", "stratify", "isotropy-entry"):
        argv += [f"--from={ray_spec()}", f"--to={ray_spec()}"]
    if command == "interval-profile":
        argv.append(f"--witness={vector_spec()}")
    elif command == "compare":
        argv += [f"--f={draw(st.integers(0, 3))}", f"--g={draw(st.integers(0, 3))}"]
    elif command in ("junction", "butterfly"):
        argv += [f"--w={ray_spec()}", f"--w2={ray_spec()}", f"--u={ray_spec()}"]
        if command == "junction":
            argv.append(f"--max-iter={draw(st.integers(1, 4))}")
    elif command == "isotropy-entry":
        argv += [f"--eps={vector_spec()}", f"--eta={vector_spec()}",
                 f"--samples={draw(st.integers(0, 3))}"]
    if draw(st.booleans()):
        argv.append("--json")
    return model, family, argv


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_cli_exit_code_contract(case, tmp_path_factory):
    model, family, argv = case
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = {"MODEL": tmp / "model.json", "FAMILY": tmp / "family.json"}
    paths["MODEL"].write_text(json.dumps(model))
    paths["FAMILY"].write_text(json.dumps(family))
    for key, path in paths.items():
        argv = [a.replace(key, str(path)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as ex:
            assert ex.code == 2, (argv, err.getvalue())
            return
    assert code in (0, 1, 2), (argv, code)


def wall_rays():
    """The model and family argv of WALL, and its anisotropic rays: the named
    ones of the family and six seeded vectors, each with its sign vector."""
    files = [os.path.join(DATA, name) for name in ("wall.json", "family_wall.json")]
    pair = serialize.model_from_json(serialize.load_json_file(files[0]))
    named, family, _ = serialize.family_from_json(serialize.load_json_file(files[1]), pair)
    sampler = Sampler(5)
    rays = [*named.values(), *(Ray(sampler.vector(3)) for _ in range(6))]
    rays = [(r, sign_vector_at(pair, family, r)) for r in rays
            if not pair.is_isotropic(r.base)]
    return ["--model", files[0], "--b", files[1]], named, rays


WALL_ARGV, WALL_NAMED, WALL_RAYS = wall_rays()


@st.composite
def wall_ray_specs(draw):
    """(ray, sign vector, --w/--w2/--u text): a named ray by its name, or any
    ray by the coordinates of a representative shifted by 0, 1 or -2."""
    ray_, signs = draw(st.sampled_from(WALL_RAYS))
    names = [n for n, r in WALL_NAMED.items() if r == ray_]
    if names and draw(st.booleans()):
        return ray_, signs, names[0]
    v = TropValue.finite(draw(st.sampled_from([0, 1, -2]))) * ray_.base
    return ray_, signs, ",".join(str(c) for c in v.coords)


@settings(max_examples=300)
@given(command=st.sampled_from(["junction", "butterfly"]),
       w=wall_ray_specs(), w2=wall_ray_specs(), u=wall_ray_specs())
def test_frontier_commands_reject_exactly_the_invalid_source_rays(command, w, w2, u):
    """junction exits 2 exactly when W2's sign vector differs from W's,
    butterfly exactly when that holds or W = W2; every other run exits 0
    or 1.  An input error is one "input error:" line on stderr."""
    argv = [command, *WALL_ARGV, f"--w={w[2]}", f"--w2={w2[2]}", f"--u={u[2]}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    invalid = w2[1] != w[1] or (command == "butterfly" and w2[0] == w[0])
    if invalid:
        assert code == 2, (argv, code, err.getvalue())
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: "), (argv, lines)
    else:
        assert code in (0, 1), (argv, code, err.getvalue())


M3_ARGV = ["isotropy-entry", "--model", os.path.join(DATA, "m3.json"),
           "--b", os.path.join(DATA, "family_m3.json"), "--from", "Y2", "--to", "Y3",
           "--eps=0,-inf,-inf"]
M3_PAIR = serialize.model_from_json(serialize.load_json_file(os.path.join(DATA, "m3.json")))
ETA_VALUES = st.sampled_from(["-inf", "-2", "0", "1", "3/2"])


@settings(max_examples=125)
@given(eta=st.lists(ETA_VALUES, min_size=3, max_size=3))
def test_isotropy_entry_rejects_exactly_the_illposed_eta(eta):
    """isotropy-entry exits 2 exactly when q(eps + t eta) vanishes for every
    t, that is b(eps, eta) = 0 and q(eta) = 0; every other run exits 0 or 1.
    An input error is one "input error:" line on stderr."""
    argv = [*M3_ARGV, f"--eta={','.join(eta)}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    v = vec(*eta)
    if M3_PAIR.eval_b(vec(0, "-inf", "-inf"), v).is_zero() and M3_PAIR.eval_q(v).is_zero():
        assert code == 2, (argv, code, err.getvalue())
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: "), (argv, lines)
    else:
        assert code in (0, 1), (argv, code, err.getvalue())
