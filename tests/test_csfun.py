import os
import subprocess
import sys

import pytest

from troprays.csfun import (
    build_fw,
    cs_restriction_pm,
    q_segment_profile,
    restrict_cs,
    uniqueness_classify,
)
from troprays.errors import IsotropicEndpoint, PerpendicularWitness
from troprays.oracle import reconstruct_cs_profile
from troprays.quadspace import QuadraticPair, Vector, vec
from troprays.rays import Ray, RayInterval
from troprays.sampling import Sampler
from troprays.semifield import INF, ZERO, t


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
    assert cs_restriction_pm(pair, Vector.unit(3, 0), Vector.unit(3, 1),
                             Vector.unit(3, 2)).is_constant_zero()


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


def test_restrict_cs_equals_build_fw(m1, m1_iv):
    w_ray = Ray(vec(0, -1))
    assert restrict_cs(m1, m1_iv, w_ray).equivalent(
        build_fw(m1, m1_iv, w_ray.base).f)


def test_pm_restriction_matches_subinterval_geometry():
    """Restricting the pm function of CS(-, w) to [pi(zeta), pi(eta)] equals
    rebuilding it from the subinterval's own base points."""
    sampler = Sampler(61, num_bound=4, den_bound=2)
    checked = 0
    while checked < 40:
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
        rebuilt = cs_restriction_pm(pair, z1.base, z2.base, w)
        assert restricted.equivalent(rebuilt)


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


# build_fw on M1's e1 witness with cs_restriction_pm replaced by a continuous
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
csfun.cs_restriction_pm = lambda *args: PmFunction(
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

