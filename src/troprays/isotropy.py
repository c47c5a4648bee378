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

Every Gram value of the analysis is read off one lattice frame
(``quadspace._Frame``) of eps, eta, eps2 and eps3: q(eps), b(eps, eta) and,
only when that is zero, q(eta); then alpha12, alpha13, alpha2, alpha3,
alpha23, b(eta, eps2) and b(eta, eps3), nine or ten values.  The case split
and the bounds run in ints on it (CS(eps2, eps3) > e is
2 alpha23 > alpha2 + alpha3 on the exponents), and the t-free profiles are
rows hulled and multiplied by 1 / q(eps2 + t eps3) with the rules of f_w
(``csfun._row_pm``, ``csfun._inverse_q``).
"""

from __future__ import annotations

from typing import NamedTuple

from . import quadspace
from .csfun import _Bound, _inverse_q, _row_pm
from .errors import (IllposedApproach, IsotropicArgument, NoAnisotropicInterior,
                     VerificationFailed, ZeroVector)
from .pmfunc import PmFunction
from .quadspace import QuadraticPair, Vector, _Frame
from .rays import Ray, RayInterval
from .semifield import INF, ONE, TropValue, _value, midpoint, t
from .strata import SignVector, StrataTrace, _sign_vector, _trace, sign_vector_at


class IsotropicApproach(NamedTuple):
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
    strata with profile classes, which is specific to that family.  A zero
    eps raises ZeroVector, as :meth:`QuadraticPair.is_isotropic` does.
    """
    if eps.is_zero():
        raise ZeroVector("the zero vector is neither isotropic nor anisotropic")
    frame, dot = _Frame(pair, (eps, eta, y2.base, y3.base)), quadspace._dot
    xs, q_eps = frame.at(eps)[:2]
    if q_eps is not None:
        raise ValueError("eps must be isotropic")
    ts, eps_col = frame.on(eta), frame.column(xs)
    if dot(eps_col, ts) is None and frame.at(eta)[1] is None:
        raise IllposedApproach("q(eps + t*eta) vanishes for every t")

    (x2, a2), (x3, a3) = frame.at(y2.base)[:2], frame.at(y3.base)[:2]
    a12, a13 = dot(eps_col, x2), dot(eps_col, x3)
    swapped = a12 is None and a13 is not None
    if swapped:
        x2, x3, a2, a3, a12, a13 = x3, x2, a3, a2, a13, a12
    a23 = dot(frame.column(x2), x3)
    eta_col = frame.column(ts)
    b_eta_2, b_eta_3 = dot(eta_col, x2), dot(eta_col, x3)
    den, q = frame.den, (a2, a23, a3)

    profile = None
    strict = False
    if a12 is not None and a13 is not None:
        case = "A"
        bounds = [a - b for a, b in ((a12, b_eta_2), (a13, b_eta_3)) if b is not None]
        t0 = _value(min(bounds), den) if bounds else INF
        profile = _row_pm((2 * a12, 2 * a13), den, _inverse_q(q, den))
    elif a12 is None:
        case, t0 = "B", INF
        if not (b_eta_2 is None and b_eta_3 is None):
            row = tuple([None if b is None else 2 * b for b in (b_eta_2, b_eta_3)])
            profile = _row_pm(row, den, _inverse_q(q, den))
    elif b_eta_3 is None:
        case, t0 = "C1", INF
        profile = _inverse_q(q, den)  # 1 / q(eps2 + t eps3)
    else:
        if a2 is None or a3 is None:
            raise IsotropicArgument("CS-ratio needs anisotropic arguments")
        strict = True
        if a23 is not None and 2 * a23 > a2 + a3:  # CS(eps2, eps3) > e
            case, t0 = "C2a", _value(a12 + a2 - a23 - b_eta_3, den)
        else:
            case, t0 = "C2b", _value(2 * (a12 - b_eta_3) + a3 - a2, 2 * den)

    t_checked = t0 * t(-1) if t0.is_finite() else ONE
    witness = Ray(eps + t_checked * eta)
    entrance = sign_vector_at(pair, family, witness)
    return IsotropicApproach(eps, eta, case, swapped, t0, strict,
                             entrance, t_checked, profile)


class StabilityReport(NamedTuple):
    ok: bool
    expected: SignVector
    samples_checked: int
    first_violation: tuple | None   # (t, observed sign vector)
    observed: dict                  # t -> sign vector, for every in-bound sample


def stability_check(pair: QuadraticPair, family, approach: IsotropicApproach,
                    t_samples) -> StabilityReport:
    """Exact re-verification that sampled parameters stay in the entrance stratum.

    Samples at or above the bound t0 are skipped (at t0 itself only for a
    strict bound).  For the all-t cases (B, C1) every positive sample counts.
    Every in-bound sample is read, through one binding of the family
    (``csfun._Bound``), and ``observed`` holds them all.  The verdict is that
    of the smallest violating sample: ``samples_checked`` counts the in-bound
    samples up to and including it, or all of them when there is none.
    """
    observed, bound, t0 = {}, _Bound(pair, family), approach.t0
    for t_val in sorted(set(t_samples)):
        if not t_val.is_finite() or (t_val >= t0 if approach.strict else t_val > t0):
            continue
        observed[t_val] = _sign_vector(bound, Ray(approach.eps + t_val * approach.eta))
    for checked, (t_val, sv) in enumerate(observed.items(), 1):
        if sv != approach.entrance:
            return StabilityReport(False, approach.entrance, checked, (t_val, sv), observed)
    return StabilityReport(True, approach.entrance, len(observed), None, observed)


def stratify_halfopen(pair: QuadraticPair, family, w: Ray, w_prime: Ray) -> StrataTrace:
    """Trace of ]W, W'] (W isotropic) or ]W, W'[ (both ends isotropic).

    An anisotropic ray W~ is picked strictly inside the entrance stratum, the
    closed interval from W~ onward is stratified, and the entrance piece is
    prepended open at the isotropic end.  Separator rays are re-computed with
    a second choice of W~ and must agree, making the advertised independence
    of the choice an executed check rather than an assumption.  The three
    traces read one binding of the family (``csfun._Bound``).
    """
    eps = w.base
    if not pair.eval_q(eps).is_zero():
        raise ValueError("W must be isotropic")
    end = w_prime.base
    prime_isotropic = pair.eval_q(end).is_zero()
    if prime_isotropic and pair.eval_b(eps, end).is_zero():
        raise NoAnisotropicInterior("no anisotropic ray between the endpoints")

    interval, bound = RayInterval(w, w_prime), _Bound(pair, family)
    trace = _trace(bound, interval, drop_zero_end=True, drop_inf_end=prime_isotropic)
    first, last = trace.pieces[0], trace.pieces[-1]
    # two choices of W~: the midpoint of the entrance piece, then the midpoint
    # of its lower half; likewise for W~' in the last piece when W' is isotropic.
    # W~ stays below locate(W~'), where pi(lam) starts to equal W~' (or W'), so
    # that the two differ also when the trace is one piece
    separators = []
    t1, s1 = first.hi, last.hi
    for _ in range(2):
        end_ray = w_prime
        if prime_isotropic:
            s1 = midpoint(last.lo, s1)
            end_ray = interval.pi(s1)
        t1 = midpoint(first.lo, min(t1, interval.locate(end_ray)))
        inner = _trace(bound, RayInterval(interval.pi(t1), end_ray))
        separators.append(inner.separator_rays()[1:-1])
    if separators[0] != separators[1]:
        raise VerificationFailed("separating rays depend on the choice of the interior ray")
    if trace.separator_rays()[1:-1] != separators[0]:
        raise VerificationFailed("direct and interior-ray separators disagree")
    return trace
