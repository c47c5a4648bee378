"""Traces read off the CS numerators against traces of the CS ratios.

``strata._trace`` cuts the numerator rows N_k = max(A_k, B_k lam^2) of
f_k = N_k / q with the int kernel ``pmfunc.row_runs``; the ratio trace
restricts the family with ``cs_restriction_pm`` (each row hulled and
multiplied by 1/q) and labels the ratios with the generic ``sign_runs``.
Both must give the same pieces and the same separator rays for every end
kept or dropped, and the same raised error types, except where the numerator
trace checks a kept end on its own: a kept isotropic end raises
IsotropicArgument there even when the other end is dropped.  Hypothesis
draws the cases of tests/test_cs_lattice.py (isotropic basis vectors, an
anchor orthogonal to both ends, fractional exponents, zero coefficients,
zero functions, repeated anchors), denser models and families whose traces
cross more often, and canonical families in dimensions 2-4.
``RayInterval.locate``, the kernel's other caller, is checked against the
frozen tests/rays_reference.py on drawn intervals and targets.
"""

import pytest
import rays_reference
from hypothesis import given, settings, strategies as st
from test_cs_lattice import (E1, E2, EDGE, FRACTIONAL, MIXED, cases, cs_of, finite, models,
                             outcome, rays)

from troprays import csfun
from troprays.csfun import BasicFunction, _Bound, cs_restriction_pm
from troprays.errors import IsotropicArgument
from troprays.pmfunc import PmFunction, sign_runs
from troprays.quadspace import QuadraticPair, Vector, vec
from troprays.rays import Ray, RayInterval
from troprays.sampling import Sampler
from troprays.semifield import INF, ZERO
from troprays.strata import _trace, example_family, stratify_interval

DROPS = ((False, False), (True, False), (False, True), (True, True))


def ratio_trace(pair, family, interval, drop_zero_end=False, drop_inf_end=False):
    """The trace as it was built on the ratios: (pieces, boundaries)."""
    if not (drop_zero_end or drop_inf_end) and any(
            pair._gram(y.base)[0] is None for y in (interval.y1, interval.y2)):
        raise IsotropicArgument("use the isotropy module for isotropic endpoints")
    pms = cs_restriction_pm(pair, interval.y1.base, interval.y2.base, family)
    pieces = [(signs, lo, lo_closed, hi, hi_closed) for lo, lo_closed, hi, hi_closed, signs
              in sign_runs(pms, not drop_zero_end, not drop_inf_end)]
    boundaries = [(ZERO, interval.y1), *[(p[1], interval.pi(p[1])) for p in pieces[1:]],
                  (INF, interval.y2)]
    return pieces, boundaries


def numerator_trace(pair, family, interval, drop_zero_end=False, drop_inf_end=False):
    trace = _trace(_Bound(pair, family), interval, drop_zero_end, drop_inf_end)
    pieces = [(str(p.signs), p.lo, p.lo_closed, p.hi, p.hi_closed) for p in trace.pieces]
    return pieces, list(trace.boundaries)


def compare(pair, family, interval) -> dict:
    """Both traces for every pair of dropped ends; the outcomes by drop pair."""
    isotropic = [pair._gram(y.base)[0] is None for y in (interval.y1, interval.y2)]
    got = {}
    for drops in DROPS:
        new = outcome(lambda: numerator_trace(pair, family, interval, *drops))
        kept_isotropic = any(iso and not drop for iso, drop in zip(isotropic, drops))
        if kept_isotropic and any(drops):
            # the ratio trace checks the ends only when none is dropped
            assert new[0] is IsotropicArgument, drops
        else:
            assert new == outcome(lambda: ratio_trace(pair, family, interval, *drops)), drops
        got[drops] = new
    return got


entries = st.one_of(finite, finite, finite, st.just(ZERO))


@st.composite
def dense_models(draw, max_dim=3):
    """Models of dimension 2 to max_dim with up to two isotropic basis
    vectors and mostly finite companion entries."""
    n = draw(st.integers(2, max_dim))
    isotropic = draw(st.sets(st.integers(0, n - 1), max_size=2))
    q = [ZERO if i in isotropic else draw(finite) for i in range(n)]
    b = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = q[i]
        for j in range(i + 1, n):
            b[i][j] = b[j][i] = draw(entries)
    return QuadraticPair(n, tuple(q), tuple(tuple(row) for row in b))


def dense_rays(n):
    drawn = st.lists(entries, min_size=n, max_size=n).map(Vector)
    return st.one_of(rays(n), drawn.filter(lambda v: not v.is_zero()).map(Ray))


@st.composite
def traced_cases(draw):
    """2-5 functions of 0-3 terms over 2-4 anchors, most coefficients,
    Gram entries and coordinates finite, so that traces cross."""
    pair = draw(st.one_of(models(), dense_models()))
    n = pair.dim
    pool = draw(st.lists(dense_rays(n), min_size=2, max_size=4))
    terms = st.lists(st.tuples(entries, st.sampled_from(pool)), max_size=3)
    family = draw(st.lists(terms.map(lambda ts: BasicFunction(tuple(ts))),
                           min_size=2, max_size=5))
    return pair, draw(dense_rays(n)), draw(dense_rays(n)), tuple(family)


@st.composite
def canonical_cases(draw):
    """Dimensions 2-4: the canonical family of the interval when both ends
    are anisotropic, else its first three functions (0, CS(Y1, -),
    CS(Y2, -)), which raise IsotropicArgument; or 2-5 functions over a pool
    of anchors with zero coefficients among the terms."""
    pair = draw(dense_models(max_dim=4))
    n = pair.dim
    y1 = draw(dense_rays(n))
    y2 = draw(dense_rays(n).filter(lambda y: y != y1))
    if draw(st.booleans()):
        if all(pair._gram(y.base)[0] is not None for y in (y1, y2)):
            family = example_family(pair, y1, y2)
        else:
            family = (BasicFunction.zero(), BasicFunction.cs(y1), BasicFunction.cs(y2))
    else:
        pool = draw(st.lists(dense_rays(n), min_size=1, max_size=4))
        coeffs = st.one_of(st.just(ZERO), finite, finite)
        terms = st.lists(st.tuples(coeffs, st.sampled_from(pool)), max_size=3)
        family = tuple(draw(st.lists(terms.map(lambda ts: BasicFunction(tuple(ts))),
                                     min_size=2, max_size=5)))
    return pair, y1, y2, family


@settings(max_examples=450)
@given(st.one_of(cases().map(lambda c: (*c[:3], c[4])), traced_cases(), canonical_cases()))
def test_numerator_trace_matches_ratio_trace(case):
    pair, y1, y2, family = case
    if y1 != y2:
        compare(pair, family, RayInterval(y1, y2))


@st.composite
def locate_cases(draw):
    """An interval in dimension 2-4 and a target: a point pi(lam), an end,
    a drawn ray, or a point with one coordinate zeroed or moved."""
    n = draw(st.integers(2, 4))
    y1 = draw(dense_rays(n))
    y2 = draw(dense_rays(n).filter(lambda y: y != y1))
    interval = RayInterval(y1, y2)
    kind = draw(st.sampled_from(["point", "point", "end", "ray", "moved"]))
    if kind == "ray":
        return interval, draw(dense_rays(n))
    if kind == "end":
        return interval, draw(st.sampled_from([y1, y2]))
    z = interval.pi(draw(st.one_of(finite, st.just(ZERO), st.just(INF))))
    if kind == "moved":
        coords = list(z.rep.coords)
        coords[draw(st.integers(0, n - 1))] = draw(entries)
        z = Ray(Vector(coords)) if any(c.is_finite() for c in coords) else z
    return interval, z


@settings(max_examples=300)
@given(locate_cases())
def test_locate_matches_frozen_reference(case):
    interval, z = case
    assert interval.locate(z) == rays_reference.locate(interval, z)


def isotropic_e1(pair: QuadraticPair) -> QuadraticPair:
    """The model with q(e1) = b(e1, e1) = 0 and every other entry kept."""
    b = [list(row) for row in pair.b]
    b[0][0] = ZERO
    return QuadraticPair(pair.dim, (ZERO, *pair.q_diag[1:]), tuple(map(tuple, b)))


def test_numerator_trace_matches_on_sampled_families():
    """Canonical five-function families and three-anchor families on sampled
    anisotropic models, then the anchor families on the same models with e1
    made isotropic, traced from e1: many pairwise crossings, every end kept
    or dropped."""
    sampler = Sampler(13, num_bound=3, den_bound=2)
    pieces = {"anisotropic": 0, "isotropic e1": 0}
    for dim in (2, 3) * 40:
        pair = sampler.anisotropic_pair(dim)
        y1, y2 = (Ray(sampler.vector(dim, p_zero=0.0)) for _ in range(2))
        anchors = [Ray(sampler.vector(dim, p_zero=0.3)) for _ in range(3)]
        if y1 != y2:
            for family in (example_family(pair, y1, y2),
                           tuple(BasicFunction.cs(a) for a in anchors)):
                error, (trace, _) = compare(pair, family, RayInterval(y1, y2))[(False, False)]
                assert error is None
                pieces["anisotropic"] += len(trace)
        iso = isotropic_e1(pair)
        e1 = Ray(Vector.unit(dim, 0))
        family = tuple(BasicFunction.cs(a) for a in anchors if iso._gram(a.base)[0] is not None)
        if y2 != e1 and len(family) > 1:
            error, (trace, _) = compare(iso, family, RayInterval(e1, y2))[(True, False)]
            assert error is None
            pieces["isotropic e1"] += len(trace)
    assert pieces["anisotropic"] > 300 and pieces["isotropic e1"] > 100, pieces


# -- named cases ------------------------------------------------------------------


def test_halfopen_drop_cases_on_an_isotropic_end():
    """The drops isotropy.stratify_halfopen uses: ]W, W'] with W isotropic,
    and ]W, W'[ with both ends isotropic."""
    family = (BasicFunction.zero(), cs_of(MIXED), cs_of(FRACTIONAL, E2))
    got = compare(EDGE, family, RayInterval(E1, MIXED))
    assert got[(True, False)][0] is None
    assert got[(False, False)][0] is IsotropicArgument
    pair = QuadraticPair.from_rows(["-inf", "-inf", "0"],
                                   [["-inf", "1", "0"], ["1", "-inf", "2"], ["0", "2", "0"]])
    e1, e2, e3 = (Ray(Vector.unit(3, i)) for i in range(3))
    mid = Ray(vec(0, -1, "-inf"))  # q(mid) = b(e1, e2) t^-1 = e
    family = (cs_of(e3), cs_of(mid), BasicFunction.zero())
    got = compare(pair, family, RayInterval(e1, e2))
    error, (pieces, _) = got[(True, True)]
    assert error is None and len(pieces) > 1
    assert not pieces[0][2] and not pieces[-1][4]  # open at both ends


def test_kept_isotropic_end_raises():
    family = (cs_of(MIXED), cs_of(E2))
    with pytest.raises(IsotropicArgument):
        stratify_interval(EDGE, family, RayInterval(E1, MIXED))
    with pytest.raises(IsotropicArgument):
        _trace(_Bound(EDGE, family), RayInterval(E1, MIXED), drop_inf_end=True)
    with pytest.raises(IsotropicArgument):
        _trace(_Bound(EDGE, family), RayInterval(MIXED, E1), drop_zero_end=True)
    # the ratio trace let the second and third through
    ratio_trace(EDGE, family, RayInterval(E1, MIXED), drop_inf_end=True)
    ratio_trace(EDGE, family, RayInterval(MIXED, E1), drop_zero_end=True)


def test_q_vanishing_along_the_interval():
    pair = QuadraticPair.from_rows(["-inf", "-inf", "0"],
                                   [["-inf", "-inf", "0"], ["-inf", "-inf", "1"], ["0", "1", "0"]])
    e1, e2, e3 = (Ray(Vector.unit(3, i)) for i in range(3))
    interval = RayInterval(e1, e2)
    with pytest.raises(IsotropicArgument, match="q vanishes"):
        _trace(_Bound(pair, (BasicFunction.zero(), cs_of(e3))), interval, True, True)
    # all-zero numerators: f_k = 0 / q for every k, one piece of equalities
    trace = _trace(_Bound(pair, (BasicFunction.zero(), cs_of(e3, coeff=ZERO))), interval,
                   True, True)
    assert [str(p.signs) for p in trace.pieces] == ["="]


def test_stratify_interval_builds_no_inverse_q_and_no_product(m1, m1_fam, m1_iv, monkeypatch):
    calls = []
    inverse_q, mul = csfun._inverse_q, PmFunction.mul
    monkeypatch.setattr(csfun, "_inverse_q", lambda *a: calls.append("1/q") or inverse_q(*a))
    monkeypatch.setattr(PmFunction, "mul", lambda *a: calls.append("mul") or mul(*a))
    pair = Sampler(5).anisotropic_pair(3)
    y1, y2 = Ray(Vector.unit(3, 0)), Ray(Vector.unit(3, 2))
    stratify_interval(m1, m1_fam, m1_iv)
    stratify_interval(pair, example_family(pair, y1, y2), RayInterval(y1, y2))
    assert calls == []
    cs_restriction_pm(m1, m1_iv.y1.base, m1_iv.y2.base, m1_fam)
    assert calls[0] == "1/q" and set(calls[1:]) == {"mul"}
