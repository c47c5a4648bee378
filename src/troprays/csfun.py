"""CS-functions restricted to ray intervals, with the region and uniqueness analysis.

For base points eps1, eps2 and a witness w the restriction of CS(-, w) to the
interval is the ratio of two tropical polynomials in the parameter,

    f_w(lam) = (b(eps1,w)^2 + lam^2 b(eps2,w)^2)
               / ((alpha1 + alpha12 lam + alpha2 lam^2) * q(w)),

computed here by exact pm division of the two upper envelopes rather than by
case tables, so the classical case split (quasilinear or not) becomes a
checkable postcondition.  The denominator polynomial q(eps1 + lam eps2) is
exposed separately as :func:`q_segment_profile`.

Region analysis: f_w is constant on a maximal initial interval A_w and a
maximal final interval C_w and is nowhere constant in between (B_w), unless
B_w degenerates to a point, in which case f_w is constant everywhere.  The
endpoints of B_w admit closed formulas u_w = min(r, kappa) and
v_w = max(r, mu) with r = b(eps1,w)/b(eps2,w) and (kappa, mu) the breakpoints
of the denominator envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (IsotropicArgument, IsotropicEndpoint, PerpendicularWitness,
                     VerificationFailed)
from .pmfunc import PmFunction
from .quadspace import QuadraticPair, Vector
from .rays import RayInterval
from .semifield import INF, ZERO, TropValue


def q_segment_profile(pair: QuadraticPair, interval: RayInterval) -> PmFunction:
    """q(eps1 + lam eps2) as a pm function of the parameter.

    Non-quasilinear case (alpha1 alpha2 < alpha12^2): degrees (0, 1, 2) with
    breakpoints alpha1/alpha12 and alpha12/alpha2.  Quasilinear case: degrees
    (0, 2) with breakpoint sqrt(alpha1/alpha2).
    """
    eps1, eps2 = interval.y1.base, interval.y2.base
    a1 = pair.eval_q(eps1)
    a2 = pair.eval_q(eps2)
    if a1.is_zero() or a2.is_zero():
        raise IsotropicEndpoint("interval endpoint is isotropic")
    a12 = pair.eval_b(eps1, eps2)
    return PmFunction.from_monomials([(a1, 0), (a12, 1), (a2, 2)])


def cs_restriction_pm(pair: QuadraticPair, eps1: Vector, eps2: Vector,
                      w: Vector) -> PmFunction:
    """The pm function lam -> CS(ray(eps1 + lam eps2), w), general base points.

    Isotropic endpoints are permitted as long as q(eps1 + lam eps2) does not
    vanish identically; the result may then take the value oo at a domain
    endpoint.  A witness orthogonal to both base points yields the constant
    zero function.
    """
    qw = pair.eval_q(w)
    if qw.is_zero():
        raise IsotropicArgument("CS witness must be anisotropic")
    b1 = pair.eval_b(eps1, w)
    b2 = pair.eval_b(eps2, w)
    if b1.is_zero() and b2.is_zero():
        return PmFunction.constant(ZERO)
    return _cs_ratio_pm(b1, b2, pair.eval_q(eps1), pair.eval_b(eps1, eps2),
                        pair.eval_q(eps2), qw)


def _cs_ratio_pm(b1: TropValue, b2: TropValue, a1: TropValue, a12: TropValue,
                 a2: TropValue, qw: TropValue) -> PmFunction:
    """lam -> (b1^2 + lam^2 b2^2) / ((a1 + a12 lam + a2 lam^2) qw), normalized.

    Takes the Gram values b(eps1,w), b(eps2,w), q(eps1), b(eps1,eps2), q(eps2)
    and q(w) from the caller, which evaluates each of them once.
    """
    numerator = PmFunction.from_monomials([(b1 * b1, 0), (b2 * b2, 2)])
    if numerator.is_constant_zero():
        return numerator
    denominator = PmFunction.from_monomials([(a1, 0), (a12, 1), (a2, 2)])
    if denominator.is_constant_zero():
        raise IsotropicArgument("q vanishes along the whole interval")
    return numerator.mul(denominator.scale(qw).invert())


@dataclass(frozen=True)
class IntervalCsProfile:
    """f_w on an interval together with its constancy regions."""

    interval: RayInterval
    w: Vector
    f: PmFunction
    quasilinear: bool        # alpha1 alpha2 >= alpha12^2
    region_a: tuple          # maximal initial constancy interval (lo, hi)
    region_b: tuple          # [u_w, v_w]
    region_c: tuple          # maximal final constancy interval (lo, hi)
    u_w: TropValue
    v_w: TropValue

    def reduced_degrees(self) -> tuple:
        return self.f.reduced_degrees()


def build_fw(pair: QuadraticPair, interval: RayInterval, w: Vector) -> IntervalCsProfile:
    """CS(-, w) restricted to the interval, with regions A_w, B_w, C_w.

    The regions are read off the computed function (maximal constancy at both
    ends); the closed formulas for u_w, v_w are evaluated independently and
    must agree whenever B_w is nondegenerate, or VerificationFailed is raised.
    """
    eps1, eps2 = interval.y1.base, interval.y2.base
    b1 = pair.eval_b(eps1, w)
    b2 = pair.eval_b(eps2, w)
    if b1.is_zero() and b2.is_zero():
        raise PerpendicularWitness("witness is orthogonal to both base points")
    a1 = pair.eval_q(eps1)
    a2 = pair.eval_q(eps2)
    if a1.is_zero() or a2.is_zero():
        raise IsotropicEndpoint("interval endpoint is isotropic")
    a12 = pair.eval_b(eps1, eps2)
    qw = pair.eval_q(w)
    if qw.is_zero():
        raise IsotropicArgument("CS witness must be anisotropic")
    f = _cs_ratio_pm(b1, b2, a1, a12, a2, qw)

    quasilinear = a1 * a2 >= a12 * a12
    r = b1 / b2  # oo when b2 = 0, 0 when b1 = 0
    if quasilinear:
        kappa = mu = (a1 / a2).sqrt()
    else:
        kappa, mu = a1 / a12, a12 / a2
    u_w = min(r, kappa)
    v_w = max(r, mu)

    region_a = (ZERO, f.breakpoints[1]) if f.segments[0][1] == 0 else (ZERO, ZERO)
    region_c = (f.breakpoints[-2], INF) if f.segments[-1][1] == 0 else (INF, INF)
    if len(f.segments) == 1:
        # constant everywhere; B_w degenerates to the common formula point
        region_a = region_c = (ZERO, INF)
        region_b = (u_w, v_w)
    else:
        region_b = (region_a[1], region_c[0])
        if region_b != (u_w, v_w):
            raise VerificationFailed("region formulas disagree with the function")
        inner = f.reduced_degrees()[1:-1] if len(f.segments) > 2 else ()
        if 0 in inner:
            raise VerificationFailed("B_w contains an interior constant piece")
    return IntervalCsProfile(interval, w, f, quasilinear,
                             region_a, region_b, region_c, u_w, v_w)


def uniqueness_classify(pair: QuadraticPair, interval: RayInterval,
                        lam0: TropValue, witnesses) -> str:
    """Witness-based uniqueness of the parameter lam0: sufficiency only.

    Returns "right" when some witness certifies lam0 in ]u_w, v_w], "left"
    for [u_w, v_w[, "both" when both certificates exist, and "unknown"
    otherwise (no completeness claim is made).
    """
    left = right = False
    for w in witnesses:
        profile = build_fw(pair, interval, w)
        u, v = profile.u_w, profile.v_w
        if u < lam0 <= v:
            right = True
        if u <= lam0 < v:
            left = True
    if left and right:
        return "both"
    if right:
        return "right"
    if left:
        return "left"
    return "unknown"
