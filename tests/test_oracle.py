"""The oracle's own Gram kernel and int reconstruction against frozen
references, its independence from the library's kernel, and its verdicts
when that kernel is broken.

The kernel's CS value along an interval must equal the Fraction CS-ratio of
pi(lam) (tests/cs_reference.py), and ``reconstruct_pm`` must give the
PmFunction, or raise the ValueError, of the frozen Fraction reconstruction
(tests/reconstruct_reference.py) on CS profiles and on drawn pm functions,
with every candidate set or only part of it.  With ``eval_q``, ``eval_b``,
``cs`` and ``validate_pair`` made to raise, the suite still passes on the
data models; with the library's q or b kernel broken, ``troprays oracle``
prints all six verdicts and exits 1.
"""

import io
import os
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import cs_reference
import reconstruct_reference as ref
from troprays import cli, oracle, quadspace
from troprays.errors import TropraysError, VerificationFailed
from troprays.quadspace import QuadraticPair, Vector
from troprays.rays import Ray, RayInterval
from troprays.sampling import Sampler
from troprays.semifield import INF, ZERO, t
from troprays.serialize import load_json_file, model_from_json

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")
CHECKS = ("companion_identity", "fw_oracle", "pm_identity", "regions",
          "reverse_identity", "semifield_laws")

exponents = st.one_of(st.integers(-4, 4),
                      st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))
finite = exponents.map(t)
values = st.one_of(st.just(ZERO), finite)


@st.composite
def models(draw):
    """Models of dimension 2-4, balanced or not on each diagonal entry, with
    zero entries anywhere."""
    n = draw(st.integers(2, 4))
    q = [draw(values) for _ in range(n)]
    b = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = q[i] if draw(st.booleans()) else min(q[i], draw(values))
        for j in range(i + 1, n):
            b[i][j] = b[j][i] = draw(values)
    return QuadraticPair(n, tuple(q), tuple(tuple(row) for row in b))


def vectors(n):
    return st.lists(values, min_size=n, max_size=n).map(Vector).filter(
        lambda v: not v.is_zero())


@st.composite
def profiles(draw):
    """(pair, interval, w) with distinct interval ends."""
    pair = draw(models())
    n = pair.dim
    y1 = Ray(draw(vectors(n)))
    y2 = Ray(draw(vectors(n).filter(lambda v: Ray(v) != y1)))
    return pair, RayInterval(y1, y2), draw(vectors(n))


parameters = st.one_of(st.just(ZERO), st.just(INF), finite)


def outcome(call):
    """(None, the result) or (error type, message)."""
    try:
        return None, call()
    except (TropraysError, ValueError) as ex:
        return type(ex), str(ex)


def reference_cs(pair, interval, w):
    return lambda lam: cs_reference.cs(pair, interval.pi(lam).base, w)


def reference_candidates(pair, interval, w):
    """The four candidate breakpoints from the public TropValue Gram values."""
    eps1, eps2 = interval.y1.base, interval.y2.base
    b1, b2 = pair.eval_b(eps1, w), pair.eval_b(eps2, w)
    a1, a2, a12 = pair.eval_q(eps1), pair.eval_q(eps2), pair.eval_b(eps1, eps2)
    out = [a1 / a12, a12 / a2, (a1 / a2).sqrt()]
    if not (b1.is_zero() and b2.is_zero()):
        out.append(b1 / b2)
    return out


@given(profiles(), st.lists(parameters, min_size=1, max_size=8))
def test_kernel_cs_is_the_fraction_cs_ratio(case, lams):
    pair, interval, w = case
    along = oracle._Along(oracle._Gram(pair), interval.y1.base, interval.y2.base, w)
    want = reference_cs(pair, interval, w)
    for lam in lams:
        assert outcome(lambda: along(lam)) == outcome(lambda: want(lam))


def test_kernel_cs_on_the_data_models():
    """Every data model, on drawn intervals, witnesses and parameters with
    denominators up to 6."""
    sampler = Sampler(91)
    for name in ("m1", "m3", "wall"):
        pair = model_from_json(load_json_file(os.path.join(DATA, f"{name}.json")))
        gram, n = oracle._Gram(pair), pair.dim
        for _ in range(10):
            y1, y2 = Ray(sampler.vector(n)), Ray(sampler.vector(n))
            if y1 == y2:
                continue
            interval, w = RayInterval(y1, y2), sampler.vector(n)
            along = oracle._Along(gram, y1.base, y2.base, w)
            want = reference_cs(pair, interval, w)
            for lam in sampler.many_parameters(30, include=(ZERO, INF)):
                assert outcome(lambda: along(lam)) == outcome(lambda: want(lam))


@given(profiles(), st.lists(st.booleans(), min_size=4, max_size=4))
def test_reconstruction_matches_the_frozen_reference_on_cs_profiles(case, keep):
    """The whole reconstruction, and the int fit alone on part of the
    candidate set, give the frozen Fraction reconstruction's PmFunction or
    its ValueError."""
    pair, interval, w = case
    fn = reference_cs(pair, interval, w)
    full = outcome(lambda: reference_candidates(pair, interval, w))
    assert outcome(lambda: oracle._candidates(
        oracle._Gram(pair), interval.y1.base, interval.y2.base, w)) == full
    if full[0] is not None:
        return
    want = outcome(lambda: ref.reconstruct_pm(fn, full[1]))
    assert outcome(lambda: oracle.reconstruct_cs_profile(pair, interval, w)) == want
    part = [c for c, k in zip(full[1], keep) if k]
    assert (outcome(lambda: oracle.reconstruct_pm(fn, part))
            == outcome(lambda: ref.reconstruct_pm(fn, part)))


@given(st.integers(0, 10 ** 6), st.lists(st.booleans(), min_size=5, max_size=5))
def test_reconstruction_matches_the_frozen_reference_on_pm_functions(seed, keep):
    """Drawn pm functions with some breakpoints left out of the candidate
    set: a window across a dropped kink fits only where the reference fits."""
    f = Sampler(seed).pm_function(max_cells=6, max_degree=4)
    part = [c for c, k in zip(f.breakpoints[1:-1], keep) if k]
    assert (outcome(lambda: oracle.reconstruct_pm(f.eval, part))
            == outcome(lambda: ref.reconstruct_pm(f.eval, part)))


def test_fit_rejects_a_fractional_degree():
    """A kink in the last quarter of a window leaves the interior on one
    monomial while the ends differ by a fractional slope: no fit."""
    def fn(lam):
        return t(0) + t("-7/2") * lam ** 4  # max(0, 4 lam - 7/2), kink at 7/8
    message = "window 0..1 is not monomial; candidate set incomplete"
    with pytest.raises(ValueError, match=message):
        ref.reconstruct_pm(fn, [])
    with pytest.raises(ValueError, match=message):
        oracle.reconstruct_pm(fn, [])


def test_suite_runs_on_a_kernel_of_its_own(monkeypatch):
    """No Gram value of the suite comes from QuadraticPair's views or from
    validate_pair."""
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the library's Gram evaluation")

    runs = [(model_from_json(load_json_file(os.path.join(DATA, f"{name}.json"))), seed, samples)
            for name, seed, samples in (("m1", 7, 500), ("m3", 3, 100), ("wall", 3, 100))]
    for name in ("eval_q", "eval_b", "cs"):
        monkeypatch.setattr(QuadraticPair, name, refuse)
    monkeypatch.setattr(quadspace, "validate_pair", refuse)
    monkeypatch.setattr(oracle, "validate_pair", refuse, raising=False)
    for pair, seed, samples in runs:
        assert oracle.run_suite(pair, seed, samples) == {name: [] for name in CHECKS}


def q_max_off_diagonal_plus_one(q_rows, s, xs):
    """quadspace._q_max with 1 added to every off-diagonal term."""
    best = None
    for i, xi in enumerate(xs):
        if xi is None:
            continue
        for j, c in q_rows[i]:
            xj = xs[j]
            if xj is not None:
                v = c * s + xi + xj + (j != i)
                if best is None or best < v:
                    best = v
    return best


def dot_takes_min(col, ys):
    """quadspace._dot with min in place of max."""
    return min([c + y for c, y in zip(col, ys) if c is not None and y is not None],
               default=None)


def oracle_verdicts(model) -> dict:
    """Run ``troprays oracle`` in-process: (exit code, {check: verdict})."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["oracle", "--model", os.path.join(DATA, f"{model}.json"),
                         "--samples", "200", "--seed", "7"])
    verdicts = out.getvalue().splitlines()[1:]
    assert [line.split(":")[0] for line in verdicts] == list(CHECKS)
    return code, dict(line.split(": ") for line in verdicts)


@pytest.mark.parametrize("name, fault", [("_q_max", q_max_off_diagonal_plus_one),
                                         ("_dot", dot_takes_min)])
@pytest.mark.parametrize("model", ["m1", "m3", "wall"])
def test_oracle_reports_a_broken_library_kernel(monkeypatch, name, fault, model):
    monkeypatch.setattr(quadspace, name, fault)
    code, verdicts = oracle_verdicts(model)
    assert code == 1
    assert verdicts["fw_oracle"].startswith("FAIL")


def test_oracle_reports_a_failing_library_self_check(monkeypatch):
    """build_fw raising its own VerificationFailed is a failure entry of each
    check that builds a profile, not the end of the command."""
    def refuse(*args):
        raise VerificationFailed("region formulas disagree with the function")

    monkeypatch.setattr(oracle, "build_fw", refuse)
    code, verdicts = oracle_verdicts("m1")
    assert code == 1
    assert verdicts["fw_oracle"].startswith("FAIL")
    assert verdicts["regions"].startswith("FAIL")
    assert verdicts["companion_identity"] == "pass"
    failures = oracle.check_regions(model_from_json(load_json_file(
        os.path.join(DATA, "m1.json"))), Sampler(7), 5)
    assert failures and all(entry.startswith("VerificationFailed for w=") for entry in failures)


def test_a_window_without_a_fit_is_a_regions_failure(monkeypatch):
    """check_regions records each window that reconstruct_pm cannot fit, naming
    the window, and goes on; a direct call still raises."""
    def kinked(lam):
        return t(0) + t("-7/2") * lam ** 4

    monkeypatch.setattr(oracle, "_candidates", lambda *args: [])
    monkeypatch.setattr(oracle, "_Along", lambda *args: kinked)
    pair = model_from_json(load_json_file(os.path.join(DATA, "m1.json")))
    failures = oracle.check_regions(pair, Sampler(7), 10)
    assert failures
    assert all("window 0..1 is not monomial" in entry for entry in failures)
    with pytest.raises(ValueError, match="window 0..1"):
        oracle.reconstruct_cs_profile(pair, RayInterval(Ray(Vector.unit(2, 0)),
                                                        Ray(Vector.unit(2, 1))),
                                      Vector.unit(2, 0))
