"""Intervals with isotropic endpoints: entrance strata and half-open traces.

For an isotropic vector eps (q(eps) = 0) and a perturbation eta with
q(eps + eta) != 0, the ray of eps + t*eta enters a fixed stratum for small
t > 0.  Relabeling the reference interval as (Y2, Y3) with base points
eps2, eps3, the entrance stratum and an explicit bound t0 are classified by
the signs of alpha12 = b(eps, eps2) and alpha13 = b(eps, eps3):

  A   alpha12 > 0, alpha13 > 0: t0 = min(alpha12/b(eta,eps2),
      alpha13/b(eta,eps3)), valid up to and including t0 (read oo when a
      denominator vanishes).
  B   alpha12 = alpha13 = 0: the stratum is t-free; with eta orthogonal to
      both base points it is the stratum of ray(eta) itself.
  C1  alpha12 > 0, alpha13 = 0, b(eta,eps3) = 0: t-free stratum, t0 = oo.
  C2  alpha12 > 0, alpha13 = 0, b(eta,eps3) > 0: bound strict, equal to
      alpha12*alpha2/(alpha23*b(eta,eps3)) when CS(eps2,eps3) > e and to
      (alpha12/b(eta,eps3))*sqrt(alpha3/alpha2) otherwise.

The mixed case alpha12 = 0 < alpha13 is reduced by swapping eps2 and eps3.
The reported stratum is always re-verified by exact evaluation one unit
below t0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .csfun import _cs_ratio_pm, _inverse_q
from .errors import IllposedApproach, NoAnisotropicInterior, VerificationFailed
from .pmfunc import PmFunction
from .quadspace import QuadraticPair, Vector
from .rays import Ray, RayInterval
from .semifield import INF, ONE, TropValue, _value, midpoint, t
from .strata import SignVector, StrataTrace, _trace, sign_vector_at, stratify_interval


_ONE = (0, 1)  # the unit e = t^0 as a lattice value


def _ratio_or_inf(num: tuple, den: tuple) -> TropValue:
    """num / den of lattice Gram values, oo when den is the zero."""
    return INF if den[0] is None else _value(*num) / _value(*den)


@dataclass(frozen=True)
class IsotropicApproach:
    """Classified entrance of ray(eps + t*eta) for small t."""

    eps: Vector
    eta: Vector
    case: str                  # "A" | "B" | "C1" | "C2a" | "C2b"
    swapped: bool              # eps2 and eps3 were interchanged for the analysis
    t0: TropValue              # validity bound for the entrance stratum
    strict: bool               # whether the bound excludes t = t0
    entrance: SignVector
    t_checked: TropValue
    profile: PmFunction | None  # t-free profile ratio, when the case has one


def entrance_stratum(pair: QuadraticPair, family, y2: Ray, y3: Ray,
                     eps: Vector, eta: Vector) -> IsotropicApproach:
    """Classify the first stratum met by ray(eps + t*eta) as t grows from 0.

    `family` must be the canonical family of the interval (Y2, Y3) (see
    :func:`troprays.strata.example_family`): the case analysis identifies
    strata with profile classes, which is specific to that family.
    """
    gram = pair._gram
    if gram(eps)[0] is not None:
        raise ValueError("eps must be isotropic")
    if gram(eps, eta)[0] is None and gram(eta)[0] is None:
        raise IllposedApproach("q(eps + t*eta) vanishes for every t")

    swapped = False
    e2, e3 = y2, y3
    a12 = gram(eps, e2.base)
    a13 = gram(eps, e3.base)
    if a12[0] is None and a13[0] is not None:
        swapped = True
        e2, e3 = e3, e2
        a12, a13 = a13, a12

    eps2, eps3 = e2.base, e3.base
    a2, a3 = gram(eps2), gram(eps3)
    a23 = gram(eps2, eps3)
    b_eta_2 = gram(eta, eps2)
    b_eta_3 = gram(eta, eps3)

    profile = None
    if a12[0] is not None and a13[0] is not None:
        case = "A"
        strict = False
        t0 = min(_ratio_or_inf(a12, b_eta_2), _ratio_or_inf(a13, b_eta_3))
        profile = _cs_ratio_pm(_ONE, a12, a13, (a2, a23, a3))
    elif a12[0] is None:
        case = "B"
        strict = False
        t0 = INF
        if not (b_eta_2[0] is None and b_eta_3[0] is None):
            profile = _cs_ratio_pm(_ONE, b_eta_2, b_eta_3, (a2, a23, a3))
    elif b_eta_3[0] is None:
        case = "C1"
        strict = False
        t0 = INF
        profile = _inverse_q(a2, a23, a3)  # 1 / q(eps2 + t eps3)
    else:
        cs23 = pair.cs(eps2, eps3)
        a12, a2, a3, a23, b_eta_3 = (_value(*g) for g in (a12, a2, a3, a23, b_eta_3))
        if cs23 > ONE:
            case = "C2a"
            t0 = (a12 * a2) / (a23 * b_eta_3)
        else:
            case = "C2b"
            t0 = (a12 / b_eta_3) * (a3 / a2).sqrt()
        strict = True

    t_checked = t0 * t(-1) if t0.is_finite() else ONE
    witness = Ray(eps + t_checked * eta)
    entrance = sign_vector_at(pair, family, witness)
    return IsotropicApproach(eps, eta, case, swapped, t0, strict,
                             entrance, t_checked, profile)


@dataclass(frozen=True)
class StabilityReport:
    ok: bool
    expected: SignVector
    samples_checked: int
    first_violation: tuple | None   # (t, observed sign vector)
    observed: dict                  # t -> sign vector, for every checked sample


def stability_check(pair: QuadraticPair, family, approach: IsotropicApproach,
                    t_samples) -> StabilityReport:
    """Exact re-verification that sampled parameters stay in the entrance stratum.

    Samples at or above the bound t0 are skipped (at t0 itself only for a
    strict bound).  For the all-t cases (B, C1) every positive sample counts.
    The check stops at the first violation.
    """
    observed = {}
    for t_val in sorted(set(t_samples)):
        if t_val.is_zero() or t_val.is_infinite():
            continue
        if approach.t0.is_finite():
            if approach.strict and t_val >= approach.t0:
                continue
            if not approach.strict and t_val > approach.t0:
                continue
        sv = sign_vector_at(pair, family, Ray(approach.eps + t_val * approach.eta))
        observed[t_val] = sv
        if sv != approach.entrance:
            return StabilityReport(False, approach.entrance, len(observed),
                                   (t_val, sv), observed)
    return StabilityReport(True, approach.entrance, len(observed), None, observed)


def stratify_halfopen(pair: QuadraticPair, family, w: Ray, w_prime: Ray) -> StrataTrace:
    """Trace of ]W, W'] (W isotropic) or ]W, W'[ (both ends isotropic).

    An anisotropic ray W~ is picked strictly inside the entrance stratum, the
    closed interval from W~ onward is stratified, and the entrance piece is
    prepended open at the isotropic end.  Separator rays are re-computed with
    a second choice of W~ and must agree, making the advertised independence
    of the choice an executed check rather than an assumption.
    """
    eps = w.base
    if not pair.eval_q(eps).is_zero():
        raise ValueError("W must be isotropic")
    end = w_prime.base
    prime_isotropic = pair.eval_q(end).is_zero()
    if prime_isotropic and pair.eval_b(eps, end).is_zero():
        raise NoAnisotropicInterior("no anisotropic ray between the endpoints")

    interval = RayInterval(w, w_prime)
    trace = _trace(pair, family, interval, drop_zero_end=True,
                   drop_inf_end=prime_isotropic)
    first, last = trace.pieces[0], trace.pieces[-1]
    # two choices of W~: the midpoint of the entrance piece, then the midpoint
    # of its lower half; likewise for W~' in the last piece when W' is isotropic
    separators = []
    t1, s1 = first.hi, last.hi
    for _ in range(2):
        t1 = midpoint(first.lo, t1)
        end_ray = w_prime
        if prime_isotropic:
            s1 = midpoint(last.lo, s1)
            end_ray = interval.pi(s1)
        inner = stratify_interval(pair, family, RayInterval(interval.pi(t1), end_ray))
        separators.append(inner.separator_rays()[1:-1])
    if separators[0] != separators[1]:
        raise VerificationFailed("separating rays depend on the choice of the interior ray")
    if trace.separator_rays()[1:-1] != separators[0]:
        raise VerificationFailed("direct and interior-ray separators disagree")
    return trace
