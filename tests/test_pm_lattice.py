"""The integer-lattice pm kernel against the frozen TropValue implementation.

Every pm operation runs on the kernel (troprays.pmfunc) and on the reference
(tests/pm_reference.py, the algebra on TropValues before the lattice); the
two must agree in values, text, sign pieces and raised error types.
"""

import os
import subprocess
import sys
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import pm_reference as ref
import row_runs_reference
from troprays.oracle import reconstruct_pm
from troprays.pmfunc import PmFunction, _hull, crossing_points, row_runs, sign_runs
from troprays.sampling import Sampler
from troprays.semifield import INF, ONE, ZERO, t

KINDS = ("pm", "pm", "pm", "pm", "monomial", "constant", "zero", "inf")


def draw_function(sampler, kind):
    if kind == "zero":
        return PmFunction.constant(ZERO)
    if kind == "inf":
        return PmFunction.constant(INF)
    if kind == "constant":
        return PmFunction.constant(sampler.value())
    if kind == "monomial":
        return PmFunction.monomial(sampler.value(), sampler.rng.randint(-4, 4))
    return sampler.pm_function(max_cells=5, max_degree=4)


def mirror(f):
    return ref.PmFunction(f.breakpoints, f.segments)


def outcome(call):
    """(error type, None) or (None, a comparable rendering of the result)."""
    try:
        result = call()
    except Exception as ex:  # the error type itself is compared
        return type(ex), None
    return None, render(result)


def render(result):
    if isinstance(result, (PmFunction, ref.PmFunction)):
        return ("pm", result.breakpoints, result.segments, str(result), repr(result))
    if type(result).__name__ == "SignPiece":  # a NamedTuple: before the tuples
        return ("piece", result.lo, result.lo_closed, result.hi, result.hi_closed,
                result.sign, str(result))
    if isinstance(result, (tuple, list)):
        return tuple(render(r) for r in result)
    return (result, str(result))


def check_same(name, kernel, reference):
    assert outcome(kernel) == outcome(reference), name


def check_operations(f, g, sampler):
    rf, rg = mirror(f), mirror(g)
    c = sampler.value()
    zeta, eta = sorted((sampler.value(), sampler.value()))
    ends = sampler.choice([(zeta, eta), (ZERO, eta), (zeta, INF), (ZERO, INF), (eta, zeta)])
    check_same("add", lambda: f.add(g), lambda: rf.add(rg))
    check_same("min_", lambda: f.min_(g), lambda: rf.min_(rg))
    check_same("mul", lambda: f.mul(g), lambda: rf.mul(rg))
    check_same("invert", f.invert, rf.invert)
    check_same("scale", lambda: f.scale(c), lambda: rf.scale(c))
    check_same("compose", lambda: f.compose(g), lambda: rf.compose(rg))
    check_same("restrict", lambda: f.restrict(*ends), lambda: rf.restrict(*ends))
    check_same("compare", lambda: f.compare(g), lambda: rf.compare(rg))
    check_same("crossing_points", lambda: crossing_points(f, g),
               lambda: ref.crossing_points(rf, rg))
    check_same("normalize", f.normalize, rf.normalize)
    check_same("equivalent", lambda: f.equivalent(g), lambda: rf.equivalent(rg))
    check_same("image", f.image, rf.image)
    check_same("has_glen", f.has_glen, rf.has_glen)
    check_same("reduced_degrees", f.reduced_degrees, rf.reduced_degrees)
    for lam in [ZERO, INF, sampler.value(), sampler.parameter(), *f.breakpoints]:
        check_same("eval", lambda: f.eval(lam), lambda: rf.eval(lam))


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(KINDS), st.sampled_from(KINDS))
def test_every_operation_matches_reference(seed, kind_f, kind_g):
    sampler = Sampler(seed)
    f, g = draw_function(sampler, kind_f), draw_function(sampler, kind_g)
    assert render(f) == render(mirror(f))
    check_operations(f, g, sampler)


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 6), st.integers(-4, 4)),
                max_size=6),
       st.booleans())
def test_from_monomials_matches_reference(seed, raw, with_zero):
    terms = [(t(f"{num}/{den}"), k) for num, den, k in raw]
    if with_zero:
        terms.append((ZERO, 3))
    check_same("from_monomials", lambda: PmFunction.from_monomials(terms),
               lambda: ref.PmFunction.from_monomials(terms))


row_entries = st.one_of(st.none(), st.integers(-30, 30), st.integers(-30, 30))


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(1, 4), st.integers(1, 6),
       st.lists(st.tuples(row_entries, row_entries), min_size=2, max_size=5),
       st.booleans(), st.booleans())
def test_row_runs_are_the_runs_of_the_ratios(seed, degree, den, rows, zero_end, inf_end):
    """row_runs at degree k labels the rows (A, B), max(A, B lam^k) over den,
    as sign_runs labels the hulled rows divided by a p with degree 0 at 0 and
    k at oo; the zero row stays the constant zero function."""
    sampler = Sampler(seed)
    degrees = {0, degree} | {k for k in range(1, degree) if sampler.rng.random() < 0.5}
    inverse = PmFunction.from_monomials([(sampler.value(), k) for k in degrees]).invert()
    ratios = []
    for a, b in rows:
        f = _hull([(a, den, 0), (b, den, degree)])
        ratios.append(f if f.is_constant_zero() else f.mul(inverse))
    assert (row_runs(rows, den, degree, zero_end, inf_end)
            == sign_runs(ratios, zero_end, inf_end))


kernel_rows = st.one_of(st.just((None, None)), st.tuples(row_entries, row_entries))


@settings(max_examples=400)
@given(st.lists(kernel_rows, max_size=6), st.integers(1, 3), st.integers(1, 6),
       st.booleans(), st.booleans())
def test_row_runs_match_the_frozen_cell_by_cell_kernel(rows, degree, den, zero_end, inf_end):
    """The per-pair cut gives the runs of the kernel that labelled every pair
    at every cell of the global cut (tests/row_runs_reference.py), also for
    no rows, one row, zero entries and the zero row; the texts agree too."""
    got = row_runs(rows, den, degree, zero_end, inf_end)
    want = row_runs_reference.row_runs(rows, den, degree, zero_end, inf_end)
    assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize("f, g, crossing", [
    (PmFunction.monomial(t(1), 2), PmFunction.monomial(ONE, -2), t("-1/4")),
    (PmFunction.monomial(t(1), 2), PmFunction.monomial(ONE, -1), t("-1/3")),
    (PmFunction.monomial(t("1/2"), 3), PmFunction.monomial(t(-1), -1), t("-3/8")),
])
def test_crossings_widen_the_lattice(f, g, crossing):
    """Degree gaps of 3 and 4 put the crossing on a finer lattice."""
    assert crossing_points(f, g) == [crossing]
    for result in (f.add(g), f.min_(g)):
        assert result.breakpoints == (ZERO, crossing, INF)
        assert result.d % crossing.exp.denominator == 0
    sampler = Sampler(3)
    check_operations(f, g, sampler)
    check_operations(g, f, sampler)
    pieces = f.compare(g)  # f is the steeper one: below g left of the crossing
    assert [p.sign for p in pieces] == ["<", "=", ">"]
    assert pieces[1].lo == pieces[1].hi == crossing


def test_canonical_form_across_routes():
    terms = [(t(1), 2), (ONE, -2), (t("1/2"), 0)]
    direct = PmFunction.from_monomials(terms)
    summed = (PmFunction.monomial(t(1), 2).add(PmFunction.monomial(ONE, -2))
              .add(PmFunction.constant(t("1/2"))))
    rebuilt = PmFunction(summed.breakpoints, summed.segments)
    scaled = direct.scale(t("5/6")).scale(t("-5/6"))
    for other in (summed, rebuilt, scaled):
        assert other == direct and hash(other) == hash(direct)
        assert (other.d, other.xs, other.cs, other.ks) == \
            (direct.d, direct.xs, direct.cs, direct.ks)
    refined = PmFunction((ZERO, t(4), INF), ((ONE, 1), (ONE, 1)))
    plain = PmFunction.monomial(ONE, 1)
    assert refined != plain
    assert refined.normalize() == plain and hash(refined.normalize()) == hash(plain)


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_canonical_form_is_route_independent(seed):
    sampler = Sampler(seed)
    f, g = sampler.pm_function(), sampler.pm_function()
    assert PmFunction(f.breakpoints, f.segments) == f
    for a, b in ((f.add(g), g.add(f)), (f.min_(g), g.min_(f)), (f.mul(g), g.mul(f)),
                 (f.invert().invert(), f)):
        assert a == b and hash(a) == hash(b)
        assert PmFunction(a.breakpoints, a.segments) == a
    # the stored denominator is the least one that holds every number
    for h in (f, f.add(g), f.mul(g), f.compose(g)):
        numbers = [b.exp for b in h.breakpoints[1:-1]] + [c.exp for c, _ in h.segments]
        assert h.d == lcm(*[x.denominator for x in numbers])


def test_builders_run_one_continuity_check(monkeypatch):
    checks = []
    store = PmFunction._set

    def counted(self, *args):
        checks.append(1)
        return store(self, *args)

    monkeypatch.setattr(PmFunction, "_set", counted)
    sampler = Sampler(12)
    f = sampler.pm_function(max_cells=5).normalize()
    g = sampler.pm_function(max_cells=5)
    calls = [lambda: f.add(g), lambda: f.min_(g), lambda: f.mul(g), f.invert,
             lambda: f.scale(t(3)), lambda: f.compose(g), lambda: f.restrict(t(-1), t(2)),
             lambda: PmFunction.from_monomials([(ONE, 0), (t(1), 1), (ONE, 2)])]
    for call in calls:
        checks.clear()
        result = call()
        assert len(checks) == 1
        checks.clear()
        assert result.normalize() is result
        assert not checks


def test_kernel_agrees_with_oracle_reconstruction():
    sampler = Sampler(77)
    for _ in range(80):
        f = sampler.pm_function(max_cells=5, max_degree=4)
        rebuilt = reconstruct_pm(f.eval, f.breakpoints[1:-1])
        assert rebuilt == f.normalize()
        assert rebuilt.equivalent(f)


CORRUPT_LATTICE = """
import sys
from troprays.errors import DiscontinuousInput
from troprays.pmfunc import PmFunction, _make
from troprays.semifield import INF, ONE, ZERO, t

if __debug__:
    sys.exit(3)
corrupt = [lambda: _make(2, (1,), (0, 3), (1, 0)),
           lambda: _make(1, (0, 2), (0, 0, 5), (0, 1, -1)),
           lambda: PmFunction((ZERO, t(0), INF), ((ONE, 0), (t(5), 1)))]
for build in corrupt:
    try:
        build()
    except DiscontinuousInput:
        continue
    sys.exit(1)
sys.exit(0)
"""


def test_corrupt_lattice_data_raises_under_optimize():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", CORRUPT_LATTICE],
                         capture_output=True, env=env)
    assert res.returncode == 0, res.stderr.decode()
