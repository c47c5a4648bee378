"""The derivate boundary read straight off the kernel's runs, against the
trace it summarises.

``strata._boundary`` decides whether the trace of an interval is one T piece
followed by one T' piece by comparing the run labels of ``strata._runs``
with T and T', and forms the one separator only then;
``boundary_reference.derivate_boundary`` reads the same answer off the full
trace of ``strata._trace``.  Both must agree on every interval: the same
case ("case1", "case2" or "not_neighbors"), the same parameter and the same
separator ray (rep and base), or the same error.
Entrances, sectors and the derivation chart read ``_boundary``, so they must
also run the sign-monotone self-check as every trace does.
"""

import pytest
from hypothesis import given, settings, strategies as st

from boundary_reference import derivate_boundary
from troprays import strata
from troprays.csfun import _Bound
from troprays.errors import IsotropicArgument, TropraysError, VerificationFailed
from troprays.frontier import FrontierPair
from troprays.instances import (CORNER, M3, WALL, corner_family, corner_sample, wall_family,
                                wall_scenario)
from troprays.quadspace import Vector, vec
from troprays.rays import Ray, RayInterval
from troprays.sampling import Sampler
from troprays.semifield import INF, ZERO, t
from troprays.strata import (BasicFunction, _boundary, _sign_vector, _trace, derivation_chart,
                             example_family, sign_vector_at, stratify_interval)

BASIS = (BasicFunction.cs(Ray(Vector.unit(3, 0))), BasicFunction.cs(Ray(Vector.unit(3, 1))))


def wall_rays():
    w, w_prime, u = wall_scenario()
    return [w, w_prime, u, Ray(vec(0, -2, "-inf")), Ray(vec(0, -5, -5)),
            Ray(vec(-4, -4, 0)), Ray(vec(-1, -3, 0)), Ray(vec(-2, -2, 0))]


def instance(kind, seed):
    """(model, family, rays): WALL or CORNER with their frozen rays and four
    seeded ones, or a seeded balanced dimension-3 model with the e1/e2 basis
    family and six seeded rays."""
    sampler = Sampler(seed)
    if kind == "wall":
        pair, family, rays = WALL, wall_family(), wall_rays()
    elif kind == "corner":
        pair, family, rays = CORNER, corner_family(), list(corner_sample())
    else:
        pair, family, rays = sampler.anisotropic_pair(3, balanced=True), BASIS, []
    rays += [Ray(sampler.vector(3, p_zero=0.3)) for _ in range(6 if kind == "sampled" else 4)]
    return pair, family, rays


def read(entry):
    """(case, lam, Z.rep, Z.base) of a boundary, given as the library's
    (case, lam, Z) or as the reference's (closed, (lam, Z)) or None."""
    if entry is None:
        return "not_neighbors", None, None, None
    if isinstance(entry[0], bool):
        closed, (lam, z) = entry
        entry = "case1" if closed else "case2", lam, z
    case, lam, z = entry
    return (case, lam, None, None) if z is None else (case, lam, z.rep, z.base)


def outcome(call):
    """("ok", the boundary read) or (error type, message)."""
    try:
        return "ok", read(call())
    except Exception as ex:  # the differential compares every outcome
        return type(ex), str(ex)


def compare(bound, interval, t_vec, t_prime):
    """The fast boundary equals the trace's; returns the reference trace's
    outcome, read."""
    fast = outcome(lambda: _boundary(bound, interval, t_vec, t_prime))
    slow = outcome(lambda: derivate_boundary(_trace(bound, interval), t_vec, t_prime))
    assert fast == slow, (interval, t_vec, t_prime)
    return slow


def candidates(bound, interval):
    """The sign vectors a boundary query can sensibly ask for: those of the
    ends and of the trace's pieces, in that order, when they exist."""
    out = []
    for y in (interval.y1, interval.y2):
        try:
            out.append(_sign_vector(bound, y))
        except TropraysError:
            pass
    try:
        out += [piece.signs for piece in _trace(bound, interval).pieces]
    except TropraysError:
        pass
    return out


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(["wall", "corner", "sampled"]))
    pair, family, rays = instance(kind, draw(st.integers(0, 10 ** 6)))
    i = draw(st.integers(0, len(rays) - 1))
    j = draw(st.integers(0, len(rays) - 1).filter(lambda j: rays[j] != rays[i]))
    bound = _Bound(pair, family)
    interval = RayInterval(rays[i], rays[j])
    signs = candidates(bound, interval)
    pick = st.sampled_from(signs)
    return bound, interval, draw(pick), draw(pick)


@settings(max_examples=250)
@given(cases())
def test_boundary_matches_the_trace(case):
    compare(*case)


def test_boundary_matches_the_trace_on_every_kind_of_trace():
    """Every ordered pair of the instances' rays, asked for the sign vectors
    of its ends and for its first two pieces: traces of one, two and three or
    more pieces, case1 and case2 closures, and an isotropic end."""
    sizes, closures = set(), set()
    for kind, seed in (("wall", 0), ("corner", 0), ("sampled", 3), ("sampled", 4)):
        pair, family, rays = instance(kind, seed)
        bound = _Bound(pair, family)
        for w in rays:
            for u in rays:
                if w == u:
                    continue
                interval = RayInterval(w, u)
                pieces = _trace(bound, interval).pieces
                sizes.add(min(len(pieces), 3))
                compare(bound, interval, _sign_vector(bound, w), _sign_vector(bound, u))
                if len(pieces) > 1:
                    entry = compare(bound, interval, pieces[0].signs, pieces[1].signs)
                    if len(pieces) == 2:
                        closures.add(entry[1][0])
    assert sizes == {1, 2, 3}
    assert closures == {"case1", "case2"}
    # a kept isotropic end raises the same error on both paths
    e1, e2, e3 = (Vector.unit(3, i) for i in range(3))
    bound = _Bound(M3, example_family(M3, Ray(e2), Ray(e3)))
    signs = _sign_vector(bound, Ray(e2))
    got = compare(bound, RayInterval(Ray(e1), Ray(e2)), signs, signs)
    assert got[0] is IsotropicArgument


def test_boundary_forms_one_ray_only_for_a_t_then_t_prime_trace(monkeypatch):
    formed = []
    pi = RayInterval.pi
    monkeypatch.setattr(RayInterval, "pi", lambda self, lam: formed.append(lam) or pi(self, lam))
    bound = _Bound(CORNER, corner_family())
    sample = corner_sample()
    for w in sample:
        for u in sample:
            if w == u:
                continue
            interval = RayInterval(w, u)
            t_vec, t_prime = _sign_vector(bound, w), _sign_vector(bound, u)
            del formed[:]
            case, _, _ = _boundary(bound, interval, t_vec, t_prime)
            assert len(formed) == (case != "not_neighbors")


NOT_MONOTONE = [(ZERO, True, t(0), False, "<"), (t(0), True, t(0), True, ">"),
                (t(0), False, INF, True, "<")]


def test_boundary_readers_run_the_sign_monotone_check(monkeypatch):
    """With a kernel whose runs are not sign-monotone, entrances, sectors and
    the chart raise VerificationFailed, as a trace does."""
    family = wall_family()
    w, w_prime, u = wall_scenario()
    t_vec, t_prime = sign_vector_at(WALL, family, w), sign_vector_at(WALL, family, u)
    monkeypatch.setattr(strata, "row_runs", lambda *args: NOT_MONOTONE)
    with pytest.raises(VerificationFailed, match="not monotone"):
        stratify_interval(WALL, family, RayInterval(w, u))
    with pytest.raises(VerificationFailed, match="not monotone"):
        FrontierPair(WALL, family, t_vec, t_prime).entrance_data(w, u)
    with pytest.raises(VerificationFailed, match="not monotone"):
        FrontierPair(WALL, family, t_vec, t_prime).sector_member(w, u)
    with pytest.raises(VerificationFailed, match="not monotone"):
        derivation_chart(WALL, family, [w, u])
