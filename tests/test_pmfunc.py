import pytest
from hypothesis import given, settings, strategies as st

from troprays.errors import BadSubinterval, DiscontinuousInput, UndefinedProduct
from troprays.pmfunc import PmFunction, crossing_points
from troprays.sampling import Sampler
from troprays.semifield import INF, ONE, ZERO, midpoint, t


def pm_of(*segs):
    """pm_of((bp, coeff, deg), ...): breakpoints between consecutive segments."""
    breakpoints = [ZERO] + [s[0] for s in segs[1:]] + [INF]
    return PmFunction(breakpoints, [(s[1], s[2]) for s in segs])


@st.composite
def pm_functions(draw):
    sampler = Sampler(draw(st.integers(min_value=0, max_value=10 ** 6)))
    return sampler.pm_function()


def dense_params(*fns, count=40):
    points = {ZERO, INF, ONE}
    for f in fns:
        points.update(f.breakpoints)
    extra = sorted(points)
    for a, b in zip(extra, extra[1:]):
        if a < b:
            points.add(midpoint(a, b))
    for k in range(-count, count):
        points.add(t(k))
    return sorted(points)


def test_constructor_validations():
    with pytest.raises(ValueError):
        PmFunction((ZERO, t(1)), ((ONE, 0),))  # domain must end at oo
    with pytest.raises(ValueError):
        PmFunction((ZERO, t(2), t(1), INF), ((ONE, 0), (ONE, 1), (ONE, 2)))
    with pytest.raises(DiscontinuousInput):
        PmFunction((ZERO, t(0), INF), ((ONE, 0), (t(5), 1)))
    with pytest.raises(ValueError):
        PmFunction((ZERO, t(0), INF), ((ZERO, 0), (ONE, 1)))  # sentinel not alone


# every constructor that takes a degree, fed the degree k
DEGREE_ENTRIES = {
    "init": lambda k: PmFunction((ZERO, INF), ((ONE, k),)),
    "monomial": lambda k: PmFunction.monomial(ONE, k),
    "from_monomials": lambda k: PmFunction.from_monomials([(ONE, k), (t(1), 0)]),
}


@pytest.mark.parametrize("entry", sorted(DEGREE_ENTRIES))
@pytest.mark.parametrize("degree", [1.5, 2.9, True, "1"])
def test_degrees_are_ints_never_truncated(entry, degree):
    """A float degree was truncated by int() (2.9 -> 2) and True read as 1."""
    with pytest.raises(TypeError, match="is not an int"):
        DEGREE_ENTRIES[entry](degree)


def test_normalize_merges_equal_degrees():
    f = PmFunction((ZERO, t(5), INF), ((ONE, 1), (ONE, 1)))
    assert f.normalize() == PmFunction.monomial(ONE, 1)
    g = PmFunction.monomial(t(2), -1)
    assert g.normalize() == g  # idempotent on reduced input


def test_normalize_merge_three_segments_dense_oracle():
    # degrees (0, 2, 2) merge to (0, 2); equality checked by dense sampling
    f = pm_of((None, ONE, 0), (t(0), ONE, 2), (t(3), ONE, 2))
    g = f.normalize()
    assert g.reduced_degrees() == (0, 2)
    for lam in dense_params(f):
        assert f.eval(lam) == g.eval(lam)


def test_eval_m1_profile_examples(m1, m1_iv):
    from troprays.csfun import build_fw
    from troprays.quadspace import Vector

    f = build_fw(m1, m1_iv, Vector.unit(2, 0)).f
    assert f.eval(t(-3)) == t(0)
    assert f.eval(t(-2)) == t(0)
    assert f.eval(t(1)) == t(3)
    assert f.eval(ZERO) == t(0)
    assert f.eval(INF) == t(4)


def test_add_crossing_example():
    f = PmFunction.monomial(ONE, 1)
    g = PmFunction.constant(t(2))
    s = f.add(g)
    assert s.breakpoints == (ZERO, t(2), INF)
    assert s.segments == ((t(2), 0), (ONE, 1))


def test_min_and_identity_worked():
    f = PmFunction.monomial(ONE, 1)
    g = PmFunction.constant(t(2))
    assert f.add(g).mul(f.min_(g)).equivalent(f.mul(g))
    assert f.mul(g).equivalent(PmFunction.monomial(t(2), 1))


def test_invert():
    assert PmFunction.constant(t(3)).invert() == PmFunction.constant(t(-3))
    f = PmFunction.monomial(t(1), 2)
    assert f.invert().eval(t(1)) == f.eval(t(1)).inverse()
    with pytest.raises(ValueError):
        PmFunction.constant(ZERO).invert()


def test_zero_and_inf_constants():
    zero = PmFunction.constant(ZERO)
    f = PmFunction.monomial(ONE, 1)
    assert zero.add(f).equivalent(f)
    assert zero.min_(f).equivalent(zero)
    assert zero.is_constant_zero()
    with pytest.raises(UndefinedProduct):
        zero.mul(f)  # f attains oo at the right endpoint
    c = PmFunction.constant(t(1))
    assert zero.mul(c).is_constant_zero()
    inf = PmFunction.constant(INF)
    assert inf.add(c).is_constant_inf()
    assert inf.min_(c).equivalent(c)


def test_image_examples(m1, m1_iv):
    from troprays.csfun import build_fw
    from troprays.quadspace import Vector

    f = build_fw(m1, m1_iv, Vector.unit(2, 0)).f
    assert f.image() == (t(0), t(4))
    assert PmFunction.constant(t(7)).image() == (t(7), t(7))
    assert PmFunction.monomial(ONE, 1).image() == (ZERO, INF)


def test_compose_identity_and_reciprocal():
    sampler = Sampler(21)
    ident = PmFunction.monomial(ONE, 1)
    recip = PmFunction.monomial(ONE, -1)
    for _ in range(40):
        f = sampler.pm_function()
        assert ident.compose(f).equivalent(f)
        assert recip.compose(f).equivalent(f.invert())


def test_compose_min_with_square():
    phi = PmFunction.monomial(ONE, 1).min_(PmFunction.constant(t(2)))
    f = PmFunction.monomial(ONE, 2)
    composed = phi.compose(f)
    assert composed.breakpoints == (ZERO, t(1), INF)
    assert composed.segments == ((ONE, 2), (t(2), 0))
    for lam in dense_params(composed, f):
        assert composed.eval(lam) == min(f.eval(lam), t(2))


def test_compose_matches_pointwise_on_random_pairs():
    sampler = Sampler(33)
    for _ in range(60):
        f = sampler.pm_function(max_degree=2)
        phi = sampler.pm_function(max_degree=2)
        composed = phi.compose(f)
        for lam in dense_params(f, composed, count=12):
            assert composed.eval(lam) == phi.eval(f.eval(lam))
        lo, hi = composed.image()
        phi_lo, phi_hi = phi.image()
        assert phi_lo <= lo and hi <= phi_hi


def test_restrict_full_and_constant():
    sampler = Sampler(5)
    f = sampler.pm_function()
    assert f.restrict(ZERO, INF).equivalent(f)
    c = PmFunction.constant(t(3))
    assert c.restrict(t(0), t(2)).equivalent(c)
    with pytest.raises(BadSubinterval):
        f.restrict(t(2), t(2))


def test_restrict_m1_worked_example(m1, m1_iv):
    from troprays.csfun import build_fw
    from troprays.quadspace import Vector

    f = build_fw(m1, m1_iv, Vector.unit(2, 0)).f
    g = f.restrict(t(0), t(2))
    assert g.eval(t(-5)) == t(2)
    assert g.eval(t(-1)) == t(3)  # t^4 * mu on the middle piece
    assert g.eval(t(1)) == t(4)
    assert g.segments == ((t(2), 0), (t(4), 1), (t(4), 0))


def test_restrict_agrees_with_reparametrized_values():
    sampler = Sampler(8)
    for _ in range(60):
        f = sampler.pm_function()
        zeta, eta = sorted((sampler.value(), sampler.value()))
        if not zeta < eta:
            continue
        g = f.restrict(zeta, eta)
        for mu in dense_params(g, count=10):
            arg = zeta if mu <= zeta / eta else (mu * eta if mu <= ONE else eta)
            assert g.eval(mu) == f.eval(arg)


def test_restrict_to_infinite_end():
    # eta = oo keeps the original second base point: g(mu) = f(max(zeta, mu))
    sampler = Sampler(9)
    for _ in range(30):
        f = sampler.pm_function()
        zeta = sampler.value()
        g = f.restrict(zeta, INF)
        for mu in dense_params(f, g, count=10):
            assert g.eval(mu) == f.eval(max(zeta, mu))


exponents = st.fractions(min_value=-6, max_value=6, max_denominator=4).map(t)


@settings(max_examples=200)
@given(pm_functions(), st.sampled_from(("pm", "zero", "inf")),
       st.one_of(st.just(ZERO), exponents), st.one_of(st.just(INF), exponents))
def test_restriction_is_composition_with_the_clamp(f, kind, zeta, eta):
    """f.restrict(zeta, eta) is f after the clamp mu -> max(zeta, min(mu eta, eta)),
    or mu -> max(zeta, mu) when eta = oo, built from public constructors."""
    if not zeta < eta:
        return
    f = {"pm": f, "zero": PmFunction.constant(ZERO), "inf": PmFunction.constant(INF)}[kind]
    if eta == INF:
        line = PmFunction.monomial(ONE, 1)
    else:
        line = PmFunction.monomial(eta, 1).min_(PmFunction.constant(eta))
    clamp = PmFunction.constant(zeta).add(line)
    assert f.restrict(zeta, eta).equivalent(f.compose(clamp))


def test_compare_crossing_worked():
    f = PmFunction.monomial(ONE, 2)
    g = PmFunction.constant(t(4))
    pieces = f.compare(g)
    assert [p.sign for p in pieces] == ["<", "=", ">"]
    lo, mid, hi = pieces
    assert (lo.lo, lo.hi, lo.lo_closed, lo.hi_closed) == (ZERO, t(2), True, False)
    assert (mid.lo, mid.hi) == (t(2), t(2))
    assert (hi.lo, hi.hi, hi.lo_closed, hi.hi_closed) == (t(2), INF, False, True)


def test_compare_equal_and_constant():
    f = PmFunction.monomial(t(1), 1)
    assert [p.sign for p in f.compare(f)] == ["="]
    a = PmFunction.constant(ONE)
    b = PmFunction.constant(t(1))
    assert [p.sign for p in a.compare(b)] == ["<"]


def test_compare_against_zero_and_inf_constants():
    zero = PmFunction.constant(ZERO)
    inf = PmFunction.constant(INF)
    assert [p.sign for p in zero.compare(inf)] == ["<"]
    f = PmFunction.monomial(ONE, 1)  # 0 at the left end, oo at the right
    pieces = f.compare(zero)
    assert [p.sign for p in pieces] == ["=", ">"]
    assert pieces[0].is_singleton() and pieces[0].lo == ZERO
    pieces = f.compare(inf)
    assert [p.sign for p in pieces] == ["<", "="]
    assert pieces[-1].is_singleton() and pieces[-1].hi == INF


def test_compare_trichotomy_covers_domain():
    sampler = Sampler(13)
    for _ in range(80):
        f, g = sampler.pm_function(), sampler.pm_function()
        pieces = f.compare(g)
        assert pieces[0].lo == ZERO and pieces[0].lo_closed
        assert pieces[-1].hi == INF and pieces[-1].hi_closed
        for a, b in zip(pieces, pieces[1:]):
            assert a.hi == b.lo and a.hi_closed != b.lo_closed
            assert a.sign != b.sign
        for piece in pieces:
            probe = piece.lo if piece.lo_closed else midpoint(piece.lo, piece.hi)
            from pm_reference import compare_sign

            assert compare_sign(f.eval(probe), g.eval(probe)) == piece.sign


def test_compare_refinement_invariance():
    f = PmFunction.monomial(ONE, 1)
    refined = PmFunction((ZERO, t(4), INF), ((ONE, 1), (ONE, 1)))
    g = PmFunction.constant(t(2))
    assert f.compare(g) == refined.compare(g)


def test_compare_halfopen_structure_at_equality_tail():
    # f < g then f = g: the "<" piece is half open at the crossing
    f = PmFunction.monomial(ONE, 1).min_(PmFunction.constant(t(2)))
    g = PmFunction.constant(t(2))
    pieces = f.compare(g)
    assert [p.sign for p in pieces] == ["<", "="]
    assert not pieces[0].hi_closed
    assert pieces[1].lo_closed
    assert f.eval(pieces[1].lo) == g.eval(pieces[1].lo)


def test_crossing_points_exactness():
    f = PmFunction.monomial(t(3), 2)
    g = PmFunction.monomial(t(5), -1)
    points = crossing_points(f, g)
    assert len(points) == 1
    lam = points[0]
    assert f.eval(lam) == g.eval(lam)
    assert lam ** 3 == t(5) / t(3)


def test_has_glen_examples():
    dip = pm_of((None, t(2), 0), (t(0), t(2), -1), (t(1), t(1), 0),
                (t(2), t(-1), 1), (t(3), t(2), 0))
    glen = dip.has_glen()
    assert glen is not None
    lo, hi = glen
    assert dip.eval(midpoint(lo, hi)) < min(dip.eval(ZERO), dip.eval(INF))
    assert PmFunction.monomial(ONE, 1).has_glen() is None
    assert PmFunction.constant(t(2)).has_glen() is None


@settings(max_examples=60, deadline=None)
@given(pm_functions(), pm_functions())
def test_pm_identity_property(f, g):
    assert f.add(g).mul(f.min_(g)).equivalent(f.mul(g))


@settings(max_examples=60, deadline=None)
@given(pm_functions(), pm_functions())
def test_envelope_is_pointwise_max_min(f, g):
    s, m = f.add(g), f.min_(g)
    for lam in dense_params(f, g, count=8):
        assert s.eval(lam) == max(f.eval(lam), g.eval(lam))
        assert m.eval(lam) == min(f.eval(lam), g.eval(lam))


@settings(max_examples=40, deadline=None)
@given(pm_functions())
def test_image_bounds_all_values(f):
    lo, hi = f.image()
    for lam in dense_params(f, count=8):
        assert lo <= f.eval(lam) <= hi
