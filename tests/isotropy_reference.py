"""The per-value TropValue implementation of the isotropy entrance and the
q profile of an interval, frozen for differential tests.

This is isotropy.entrance_stratum and csfun.q_segment_profile as they stood
before they read their Gram values off one lattice frame: every Gram value a
TropValue from the public eval_q / eval_b, CS(eps2, eps3) and every bound
computed with TropValue arithmetic, each profile built from its monomials by
PmFunction.from_monomials.  tests/test_isotropy_lattice.py runs each on both
and requires equal results and equal errors, type and message.  Keep it
unchanged; it is the reference, not library code.
"""

from __future__ import annotations

from troprays.errors import IllposedApproach, IsotropicArgument, IsotropicEndpoint
from troprays.pmfunc import PmFunction
from troprays.rays import Ray
from troprays.semifield import INF, ONE, t
from troprays.strata import sign_vector_at


def q_segment_profile(pair, interval) -> PmFunction:
    """q(eps1 + lam eps2) as a pm function of the parameter."""
    eps1, eps2 = interval.y1.base, interval.y2.base
    a1, a2 = pair.eval_q(eps1), pair.eval_q(eps2)
    if a1.is_zero() or a2.is_zero():
        raise IsotropicEndpoint("interval endpoint is isotropic")
    return PmFunction.from_monomials([(a1, 0), (pair.eval_b(eps1, eps2), 1), (a2, 2)])


def _inverse_q(a1, a12, a2) -> PmFunction:
    q = PmFunction.from_monomials([(a1, 0), (a12, 1), (a2, 2)])
    if q.is_constant_zero():
        raise IsotropicArgument("q vanishes along the whole interval")
    return q.invert()


def _ratio_pm(b2, b3, q) -> PmFunction:
    """(b2^2 + b3^2 t^2) / q(t) for the Gram triple q."""
    inv_q = _inverse_q(*q)
    return PmFunction.from_monomials([(b2 * b2, 0), (b3 * b3, 2)]).mul(inv_q)


def _ratio_or_inf(num, den):
    return INF if den.is_zero() else num / den


def entrance_stratum(pair, family, y2, y3, eps, eta) -> tuple:
    """(case, swapped, t0, strict, t_checked, entrance, profile) of the first
    stratum met by ray(eps + t*eta) as t grows from 0."""
    if not pair.eval_q(eps).is_zero():
        raise ValueError("eps must be isotropic")
    if pair.eval_b(eps, eta).is_zero() and pair.eval_q(eta).is_zero():
        raise IllposedApproach("q(eps + t*eta) vanishes for every t")

    swapped = False
    e2, e3 = y2, y3
    a12 = pair.eval_b(eps, e2.base)
    a13 = pair.eval_b(eps, e3.base)
    if a12.is_zero() and not a13.is_zero():
        swapped = True
        e2, e3 = e3, e2
        a12, a13 = a13, a12

    eps2, eps3 = e2.base, e3.base
    a2, a3 = pair.eval_q(eps2), pair.eval_q(eps3)
    a23 = pair.eval_b(eps2, eps3)
    b_eta_2 = pair.eval_b(eta, eps2)
    b_eta_3 = pair.eval_b(eta, eps3)
    q = (a2, a23, a3)

    profile = None
    if not a12.is_zero() and not a13.is_zero():
        case = "A"
        strict = False
        t0 = min(_ratio_or_inf(a12, b_eta_2), _ratio_or_inf(a13, b_eta_3))
        profile = _ratio_pm(a12, a13, q)
    elif a12.is_zero():
        case = "B"
        strict = False
        t0 = INF
        if not (b_eta_2.is_zero() and b_eta_3.is_zero()):
            profile = _ratio_pm(b_eta_2, b_eta_3, q)
    elif b_eta_3.is_zero():
        case = "C1"
        strict = False
        t0 = INF
        profile = _inverse_q(*q)
    else:
        if a2.is_zero() or a3.is_zero():
            raise IsotropicArgument("CS-ratio needs anisotropic arguments")
        if (a23 * a23) / (a2 * a3) > ONE:
            case = "C2a"
            t0 = (a12 * a2) / (a23 * b_eta_3)
        else:
            case = "C2b"
            t0 = (a12 / b_eta_3) * (a3 / a2).sqrt()
        strict = True

    t_checked = t0 * t(-1) if t0.is_finite() else ONE
    entrance = sign_vector_at(pair, family, Ray(eps + t_checked * eta))
    return case, swapped, t0, strict, t_checked, entrance, profile
