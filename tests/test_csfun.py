import os
import subprocess
import sys

import pytest

from troprays import serialize
from troprays.csfun import (
    BasicFunction,
    build_fw,
    cs_restriction_pm,
    q_segment_profile,
    uniqueness_classify,
)
from troprays.errors import (InfiniteCoefficient, IsotropicArgument, IsotropicEndpoint,
                             PerpendicularWitness, SchemaError, TropraysError)
from troprays.oracle import reconstruct_cs_profile
from troprays.pmfunc import PmFunction
from troprays.quadspace import QuadraticPair, Vector, vec
from troprays.rays import Ray, RayInterval
from troprays.sampling import Sampler
from troprays.semifield import INF, ONE, ZERO, t


def test_q_profile_m1(m1, m1_iv):
    d = q_segment_profile(m1, m1_iv)
    assert d.breakpoints == (ZERO, t(-2), t(2), INF)
    assert [deg for _, deg in d.segments] == [0, 1, 2]
    assert [c for c, _ in d.segments] == [t(0), t(2), t(0)]


def test_q_profile_quasilinear():
    pair = QuadraticPair.from_rows(["2", "0"], [["2", "0"], ["0", "0"]])
    interval = RayInterval(Ray(Vector.unit(2, 0)), Ray(Vector.unit(2, 1)))
    d = q_segment_profile(pair, interval)
    assert [deg for _, deg in d.segments] == [0, 2]
    assert d.breakpoints[1] == t(1)  # sqrt(alpha1/alpha2) = sqrt(t^2)


def test_q_profile_boundary_case():
    pair = QuadraticPair.from_rows(["0", "0"], [["0", "0"], ["0", "0"]])
    interval = RayInterval(Ray(Vector.unit(2, 0)), Ray(Vector.unit(2, 1)))
    d = q_segment_profile(pair, interval)
    assert [deg for _, deg in d.segments] == [0, 2]
    assert d.breakpoints[1] == t(0)


def test_q_profile_isotropic_endpoint_rejected():
    pair = QuadraticPair.from_rows(["-inf", "0"], [["-inf", "0"], ["0", "0"]])
    interval = RayInterval(Ray(Vector.unit(2, 0)), Ray(Vector.unit(2, 1)))
    with pytest.raises(IsotropicEndpoint):
        q_segment_profile(pair, interval)


def test_build_fw_m1_e1(m1, m1_iv):
    profile = build_fw(m1, m1_iv, Vector.unit(2, 0))
    assert profile.f.segments == ((t(0), 0), (t(2), 1), (t(4), 0))
    assert profile.region_a == (ZERO, t(-2))
    assert profile.region_b == (t(-2), t(2))
    assert profile.region_c == (t(2), INF)
    assert (profile.u_w, profile.v_w) == (t(-2), t(2))
    assert not profile.quasilinear


def test_build_fw_m1_e2_mirror(m1, m1_iv):
    profile = build_fw(m1, m1_iv, Vector.unit(2, 1))
    assert profile.reduced_degrees() == (0, -1, 0)
    # symmetry via the reversed interval: f_w on (Y2, Y1) at 1/lam
    reverse = build_fw(m1, m1_iv.reversed(), Vector.unit(2, 1))
    for k in range(-4, 5):
        assert profile.f.eval(t(k)) == reverse.f.eval(t(-k))


def test_build_fw_perpendicular_nominator(m1):
    # w orthogonal to eps1 only: nominator is lambda^2-monomial on [0, oo]
    pair = QuadraticPair.from_rows(
        ["0", "0", "0"],
        [["0", "2", "-inf"], ["2", "0", "0"], ["-inf", "0", "0"]])
    interval = RayInterval(Ray(Vector.unit(3, 0)), Ray(Vector.unit(3, 1)))
    profile = build_fw(pair, interval, Vector.unit(3, 2))
    assert profile.region_a == (ZERO, ZERO)
    assert profile.f.eval(ZERO) == ZERO
    assert profile.u_w == ZERO


def test_build_fw_rejects_doubly_perpendicular():
    pair = QuadraticPair.from_rows(
        ["0", "0", "0"],
        [["0", "2", "-inf"], ["2", "0", "-inf"], ["-inf", "-inf", "0"]])
    interval = RayInterval(Ray(Vector.unit(3, 0)), Ray(Vector.unit(3, 1)))
    with pytest.raises(PerpendicularWitness):
        build_fw(pair, interval, Vector.unit(3, 2))
    # the raw restriction treats it as the constant zero function
    (f,) = cs_restriction_pm(pair, Vector.unit(3, 0), Vector.unit(3, 1),
                             (BasicFunction.cs(Ray(Vector.unit(3, 2))),))
    assert f.is_constant_zero()


def test_fw_matches_cs_ratio_everywhere(m1, m1_iv):
    sampler = Sampler(17)
    profile = build_fw(m1, m1_iv, Vector.unit(2, 0))
    for lam in sampler.many_parameters(200, include=profile.f.breakpoints):
        assert profile.f.eval(lam) == m1.cs(m1_iv.pi(lam).base, Vector.unit(2, 0))


def test_fw_oracle_random_models():
    sampler = Sampler(23, num_bound=4, den_bound=2)
    models = 0
    while models < 6:
        pair = sampler.anisotropic_pair(sampler.rng.randint(2, 4))
        n = pair.dim
        y1, y2 = Ray(sampler.vector(n, p_zero=0.0)), Ray(sampler.vector(n, p_zero=0.0))
        if y1 == y2:
            continue
        models += 1
        interval = RayInterval(y1, y2)
        for _ in range(3):
            w = sampler.vector(n)
            if (pair.eval_b(y1.base, w).is_zero()
                    and pair.eval_b(y2.base, w).is_zero()):
                continue
            profile = build_fw(pair, interval, w)
            for lam in sampler.many_parameters(60, include=profile.f.breakpoints):
                assert profile.f.eval(lam) == pair.cs(interval.pi(lam).base, w)


def test_region_reconstruction_brute_force(m1, m1_iv):
    rebuilt = reconstruct_cs_profile(m1, m1_iv, Vector.unit(2, 0))
    built = build_fw(m1, m1_iv, Vector.unit(2, 0))
    assert built.f.equivalent(rebuilt)


def test_reconstruction_catches_narrow_interior_pieces():
    """Regression: a two-kink bump of width 2/9 sits between any coarse probe
    ladder; the candidate-window oracle must recover all four pieces."""
    pair = QuadraticPair.from_rows(
        ["0", "-1/2", "-4/5"],
        [["0", "1", "5/9"], ["1", "-1/2", "2/3"], ["5/9", "2/3", "-4/5"]])
    interval = RayInterval(Ray(vec("1/3", "-2", "-1/9")),
                           Ray(vec("-1/2", "-2/9", "4/9")))
    w = vec("-inf", "-1/3", "-1/2")
    built = build_fw(pair, interval, w).f
    rebuilt = reconstruct_cs_profile(pair, interval, w)
    assert built.reduced_degrees() == (0, -1, 1, 0)
    assert built.equivalent(rebuilt)


def test_profile_degree_structure_random():
    sampler = Sampler(31, num_bound=4, den_bound=2)
    checked = 0
    while checked < 30:
        pair = sampler.anisotropic_pair(sampler.rng.randint(2, 4))
        n = pair.dim
        y1, y2 = Ray(sampler.vector(n, p_zero=0.0)), Ray(sampler.vector(n, p_zero=0.0))
        if y1 == y2:
            continue
        w = sampler.vector(n)
        if pair.eval_b(y1.base, w).is_zero() and pair.eval_b(y2.base, w).is_zero():
            continue
        checked += 1
        profile = build_fw(pair, RayInterval(y1, y2), w)
        degrees = profile.reduced_degrees()
        # A and C are degree 0 whenever nondegenerate; no interior flat piece
        if profile.region_a != (ZERO, ZERO) and len(degrees) > 1:
            assert degrees[0] == 0
        if profile.region_c != (INF, INF) and len(degrees) > 1:
            assert degrees[-1] == 0
        assert 0 not in degrees[1:-1]
        # CS values never exceed the breakpoint maxima (image formula)
        lo, hi = profile.f.image()
        for lam in sampler.many_parameters(20):
            assert lo <= profile.f.eval(lam) <= hi


def test_singleton_b_means_globally_constant():
    # quasilinear with r = sqrt(alpha1/alpha2): B_w degenerates
    pair = QuadraticPair.from_rows(["0", "0"], [["0", "-inf"], ["-inf", "0"]])
    interval = RayInterval(Ray(Vector.unit(2, 0)), Ray(Vector.unit(2, 1)))
    profile = build_fw(pair, interval, vec(0, 0))
    assert profile.quasilinear
    assert len(profile.f.segments) == 1
    assert profile.u_w == profile.v_w == t(0)
    assert profile.region_a == (ZERO, INF)


def test_uniqueness_worked_examples(m1, m1_iv):
    witnesses = [Vector.unit(2, 0)]
    assert uniqueness_classify(m1, m1_iv, t(0), witnesses) == "both"
    assert uniqueness_classify(m1, m1_iv, t(-2), witnesses) == "left"
    assert uniqueness_classify(m1, m1_iv, t(2), witnesses) == "right"
    assert uniqueness_classify(m1, m1_iv, t(-5), witnesses) == "unknown"


def test_uniqueness_matches_fibers(m1, m1_iv):
    # on M1 every parameter in ]u_w, v_w[ is a singleton fiber
    for k in (-1, 0, 1):
        lam = t(k)
        assert uniqueness_classify(m1, m1_iv, lam, [Vector.unit(2, 0)]) == "both"
        assert m1_iv.locate(m1_iv.pi(lam)) == lam


def test_build_fw_equals_cs_restriction_pm(m1, m1_iv):
    w_ray = Ray(vec(0, -1))
    assert build_fw(m1, m1_iv, w_ray.base).f.equivalent(
        cs_restriction_pm(m1, m1_iv.y1.base, m1_iv.y2.base, (BasicFunction.cs(w_ray),))[0])


def test_pm_restriction_matches_subinterval_geometry():
    """Restricting the pm function of CS(-, w) to [pi(zeta), pi(eta)] equals
    rebuilding it from the subinterval's own base points."""
    sampler = Sampler(61, num_bound=4, den_bound=2)
    checked = 0
    for _ in range(100):  # 57 draws keep the 40 cases
        if checked == 40:
            break
        pair = sampler.anisotropic_pair(sampler.rng.randint(2, 4))
        n = pair.dim
        y1, y2 = Ray(sampler.vector(n, p_zero=0.0)), Ray(sampler.vector(n, p_zero=0.0))
        if y1 == y2:
            continue
        interval = RayInterval(y1, y2)
        w = sampler.vector(n)
        if pair.eval_b(y1.base, w).is_zero() and pair.eval_b(y2.base, w).is_zero():
            continue
        zeta, eta = sorted((sampler.value(), sampler.value()))
        if not zeta < eta:
            continue
        z1 = interval.pi(zeta)
        z2 = interval.pi(eta)
        if z1 == z2:
            continue
        checked += 1
        restricted = build_fw(pair, interval, w).f.restrict(zeta, eta)
        (rebuilt,) = cs_restriction_pm(pair, z1.base, z2.base, (BasicFunction.cs(Ray(w)),))
        assert restricted.equivalent(rebuilt)
    assert checked == 40, f"{checked} of 40 cases kept in 100 draws"


def test_composition_with_cs_restriction(m1, m1_iv):
    """phi o F is pm on the interval and matches pointwise evaluation."""
    from troprays.pmfunc import PmFunction
    from troprays.semifield import ONE

    f = build_fw(m1, m1_iv, Vector.unit(2, 0)).f
    phi = PmFunction.monomial(ONE, 1).min_(PmFunction.constant(t(3)))
    composed = phi.compose(f)
    sampler = Sampler(62)
    for lam in sampler.many_parameters(60, include=composed.breakpoints):
        assert composed.eval(lam) == min(f.eval(lam), t(3))


# build_fw on M1's e1 witness with the CS-ratio pm replaced by a continuous
# function whose region B = [50, 60] contradicts the formulas u_w = -2, v_w = 2
CORRUPTED_BUILD_FW = """
import sys
from troprays import csfun
from troprays.errors import VerificationFailed
from troprays.instances import M1, m1_interval
from troprays.pmfunc import PmFunction
from troprays.quadspace import Vector
from troprays.semifield import INF, ONE, ZERO, t

if __debug__:
    sys.exit(3)
csfun._row_pm = lambda *args: PmFunction(
    (ZERO, t(50), t(60), INF), ((ONE, 0), (t(-50), 1), (t(10), 0)))
try:
    csfun.build_fw(M1, m1_interval(), Vector.unit(2, 0))
except VerificationFailed:
    sys.exit(0)
sys.exit(1)
"""


def test_build_fw_self_check_survives_optimize():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", CORRUPTED_BUILD_FW],
                         capture_output=True, env=env)
    assert res.returncode == 0, res.stderr.decode()



def per_term_restriction(pair, eps1, eps2, f):
    """f restricted term by term from pm primitives: each term is its own
    ratio N_j / (q q(w_j)), scaled by its coefficient and added."""
    acc = PmFunction.constant(ZERO)
    for coeff, anchor in f.terms:
        if coeff.is_zero():
            continue
        w = anchor.base
        qw = pair.eval_q(w)
        if qw.is_zero():
            raise IsotropicArgument("isotropic anchor")
        b1, b2 = pair.eval_b(eps1, w), pair.eval_b(eps2, w)
        numerator = PmFunction.from_monomials([(b1 * b1, 0), (b2 * b2, 2)])
        if numerator.is_constant_zero():
            continue
        q = PmFunction.from_monomials([(pair.eval_q(eps1), 0),
                                       (pair.eval_b(eps1, eps2), 1),
                                       (pair.eval_q(eps2), 2)])
        if q.is_constant_zero():
            raise IsotropicArgument("q vanishes along the interval")
        term = numerator.mul(q.scale(qw).invert()).scale(coeff)
        acc = term if acc.is_constant_zero() else acc.add(term)
    return acc


def random_restriction_case(sampler):
    """(pair, eps1, eps2, family) with isotropic e1 in one case of five, e_n
    orthogonal to e1 and e2 in one of three, base points in span(e1, e2)
    half the time, zero coefficients and anchors repeated from a small pool."""
    rng = sampler.rng
    n = rng.randint(2, 4)
    pair = sampler.anisotropic_pair(n)
    q_diag, b = list(pair.q_diag), [list(row) for row in pair.b]
    if rng.random() < 0.2:
        q_diag[0] = b[0][0] = ZERO
    if n > 2 and rng.random() < 1 / 3:
        for i in (0, 1):
            b[i][n - 1] = b[n - 1][i] = ZERO
    pair = QuadraticPair(n, tuple(q_diag), tuple(tuple(row) for row in b))
    span = n if rng.random() < 0.5 else 2

    def base_point():
        v = sampler.vector(span, p_zero=0.3)
        return Vector(v.coords + (ZERO,) * (n - span))

    eps1 = Vector.unit(n, 0) if rng.random() < 0.5 else base_point()
    eps2 = base_point()
    while Ray(eps2) == Ray(eps1):
        eps2 = base_point()
    pool = [Ray(Vector.unit(n, n - 1))]
    while len(pool) < 3:
        y = Ray(sampler.vector(n, p_zero=0.3))
        if not pair.eval_q(y.base).is_zero():
            pool.append(y)
    family = tuple(
        BasicFunction(tuple((ZERO if rng.random() < 0.2 else sampler.value(), rng.choice(pool))
                            for _ in range(rng.randint(0, 3))))
        for _ in range(rng.randint(1, 4)))
    return pair, eps1, eps2, family


def test_family_restriction_equals_per_term_reference():
    """One numerator envelope over one shared 1/q is == to the per-term sum,
    and agrees with BasicFunction.eval at breakpoints and sampled points."""
    sampler = Sampler(71, num_bound=4, den_bound=2)
    seen = dict.fromkeys(("multi_term", "zero_coeff", "orthogonal", "repeated",
                          "isotropic_end"), 0)
    for _ in range(300):
        pair, eps1, eps2, family = random_restriction_case(sampler)
        pms = cs_restriction_pm(pair, eps1, eps2, family)
        assert pms == tuple(per_term_restriction(pair, eps1, eps2, f) for f in family)
        for f, pm in zip(family, pms):
            params = sampler.many_parameters(6, include=pm.breakpoints[:-1])
            for lam in params:
                x = eps1 + lam * eps2
                if not pair.eval_q(x).is_zero():
                    assert pm.eval(lam) == f.eval(pair, Ray(x))
            anchors = f.anchors()
            seen["multi_term"] += len(anchors) > 1
            seen["zero_coeff"] += any(c.is_zero() for c, _ in f.terms)
            seen["repeated"] += len(set(anchors)) < len(anchors)
            seen["orthogonal"] += any(
                pair.eval_b(eps1, y.base).is_zero() and pair.eval_b(eps2, y.base).is_zero()
                for y in anchors)
        seen["isotropic_end"] += pair.eval_q(eps1).is_zero()
    assert min(seen.values()) >= 10, seen


def test_family_restriction_on_an_isotropic_interval():
    """q(e1 + lam e2) = 0 for every lam: a family with a live term raises, as
    the per-term reference does; a family without one restricts to zeros."""
    pair = QuadraticPair.from_rows(
        ["-inf", "-inf", "0"],
        [["-inf", "-inf", "0"], ["-inf", "-inf", "1"], ["0", "1", "0"]])
    e1, e2, e3 = (Vector.unit(3, i) for i in range(3))
    live = (BasicFunction.zero(), BasicFunction.cs(Ray(e3)))
    with pytest.raises(IsotropicArgument):
        cs_restriction_pm(pair, e1, e2, live)
    with pytest.raises(IsotropicArgument):
        per_term_restriction(pair, e1, e2, live[1])
    dead = (BasicFunction.zero(), BasicFunction.cs(Ray(e3), ZERO))
    assert all(pm.is_constant_zero() for pm in cs_restriction_pm(pair, e1, e2, dead))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_family_restriction_gram_count(m1, m1_iv, gram_calls, k):
    """k one-term functions on one interval: 3 Gram evaluations per term and
    3 for the interval."""
    anchors = [Ray(vec(0, -i)) for i in range(k)]
    family = tuple(BasicFunction.cs(y, t(i)) for i, y in enumerate(anchors))
    pms = cs_restriction_pm(m1, m1_iv.y1.base, m1_iv.y2.base, family)
    assert sum(gram_calls.values()) == 3 * k + 3
    assert not any(pm.is_constant_zero() for pm in pms)


@pytest.mark.parametrize("w, count", [(vec(0, "-inf"), 5), (vec(0, -1), 6)])
def test_build_fw_gram_count(m1, m1_iv, gram_calls, w, count):
    """f_w reads q(eps1), q(eps2), q(w), b(eps1, w), b(eps2, w) and
    b(eps1, eps2) off one frame; a witness equal to eps1 shares its q."""
    build_fw(m1, m1_iv, w)
    assert sum(gram_calls.values()) == count


def test_q_profile_gram_count(m1, m1_iv, gram_calls):
    q_segment_profile(m1, m1_iv)
    assert gram_calls == {"eval_q": 2, "eval_b": 1}


def test_zero_function_needs_an_anisotropic_ray_in_both_forms():
    """The empty sum and a sum of one term with coefficient 0 are the same
    zero function: both are 0 at an anisotropic ray and both raise
    IsotropicArgument at an isotropic one, as sign vectors do."""
    pair = QuadraticPair.from_rows(["-inf", "0"], [["-inf", "0"], ["0", "0"]])
    e1, e2 = Ray(Vector.unit(2, 0)), Ray(Vector.unit(2, 1))
    for zero in (BasicFunction.zero(), BasicFunction.cs(e2, ZERO)):
        assert zero.eval(pair, e2) == ZERO
        with pytest.raises(IsotropicArgument):
            zero.eval(pair, e1)


def test_basic_function_rejects_infinite_coefficient(m1, m1_iv):
    """An oo coefficient is rejected when the function is built, by the
    library constructors as by the family loader, whose message is kept."""
    assert issubclass(InfiniteCoefficient, TropraysError)
    with pytest.raises(InfiniteCoefficient):
        BasicFunction.cs(m1_iv.y1, INF)
    with pytest.raises(InfiniteCoefficient):
        BasicFunction(((ONE, m1_iv.y1), (INF, m1_iv.y2)))
    assert BasicFunction.cs(m1_iv.y1, ZERO).eval(m1, m1_iv.y2) == ZERO
    doc = {"rays": {"Y1": ["0", "-inf"]},
           "functions": [{"terms": [{"coeff": "0", "anchor": "Y1"}]},
                         {"terms": [{"coeff": "+inf", "anchor": "Y1"}]}]}
    with pytest.raises(SchemaError) as info:
        serialize.family_from_json(doc, m1)
    assert str(info.value) == "function 1 has an infinite coefficient"
