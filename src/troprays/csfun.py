"""CS-functions and basic functions on ray intervals, with regions and uniqueness.

For base points eps1, eps2 and a witness w the restriction of CS(-, w) to the
interval is the ratio of two tropical polynomials in the parameter,

    f_w(lam) = (b(eps1,w)^2 + lam^2 b(eps2,w)^2)
               / ((alpha1 + alpha12 lam + alpha2 lam^2) * q(w)),

computed here by exact pm arithmetic on the upper envelopes rather than by
case tables, so the classical case split (quasilinear or not) becomes a
checkable postcondition.  The denominator polynomial q(eps1 + lam eps2) is
exposed separately as :func:`q_segment_profile`.

A basic function f = sum_j c_j CS(Y_j, -) restricts to f = N / q: all terms
share the denominator q(eps1 + lam eps2), so the numerator
N = sum_j (c_j / q(w_j)) (b(eps1,w_j)^2 + lam^2 b(eps2,w_j)^2) has at most
two monomials, the row N = max(A, B lam^2) with A the largest of the
degree-0 coefficients and B of the degree-2 ones (``_numerators``).
:func:`cs_restriction_pm` hulls each row and multiplies it by 1/q, built
once per interval, with 3 Gram evaluations per interval plus 3 per nonzero
term.  Traces (``strata._trace``) cut the rows alone with the int kernel
``pmfunc.row_runs``: q is finite and nonzero on ]0, oo[, at 0 when
q(eps1) != 0 and, read through lam^2, at oo when q(eps2) != 0, so dividing
by it changes no sign; at oo each row reads B.  ``build_fw`` and the
isotropy profiles build their one-witness ratio from the same row
(``_cs_ratio_pm``).

The integer lattice.  Gram values stay lattice pairs (num, den) from
``QuadraticPair._gram`` to the rows: each numerator monomial has the
exponent coeff - q(w) + 2 b(eps, w), formed in ints, and a family's rows
share the lcm of the denominators involved; the envelopes of a row and of q
are built by the int hull builder ``pmfunc._hull``.  Values at a ray (``_values_at``,
behind :meth:`BasicFunction.eval` and sign vectors) are maxima over ints
too, and the public views return them as TropValues, reduced int pairs.

Region analysis: f_w is constant on a maximal initial interval A_w and a
maximal final interval C_w and is nowhere constant in between (B_w), unless
B_w degenerates to a point, in which case f_w is constant everywhere.  The
endpoints of B_w admit closed formulas u_w = min(r, kappa) and
v_w = max(r, mu) with r = b(eps1,w)/b(eps2,w) and (kappa, mu) the breakpoints
of the denominator envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import (InfiniteCoefficient, IsotropicArgument, IsotropicEndpoint,
                     PerpendicularWitness, VerificationFailed)
from .pmfunc import _ZERO_FN, PmFunction, _hull
from .quadspace import QuadraticPair, Vector
from .rays import Ray, RayInterval
from .semifield import _KFINITE, INF, ONE, ZERO, TropValue, _value


def q_segment_profile(pair: QuadraticPair, interval: RayInterval) -> PmFunction:
    """q(eps1 + lam eps2) as a pm function of the parameter.

    Non-quasilinear case (alpha1 alpha2 < alpha12^2): degrees (0, 1, 2) with
    breakpoints alpha1/alpha12 and alpha12/alpha2.  Quasilinear case: degrees
    (0, 2) with breakpoint sqrt(alpha1/alpha2).
    """
    eps1, eps2 = interval.y1.base, interval.y2.base
    gram = pair._gram
    a1, a2 = gram(eps1), gram(eps2)
    if a1[0] is None or a2[0] is None:
        raise IsotropicEndpoint("interval endpoint is isotropic")
    return _hull([(*a1, 0), (*gram(eps1, eps2), 1), (*a2, 2)])


@dataclass(frozen=True)
class BasicFunction:
    """f = sum_j coeff_j * CS(anchor_j, -); the empty sum is the zero function.

    Coefficients lie in [0, oo[: an oo coefficient raises InfiniteCoefficient.
    """

    terms: tuple  # of (coeff: TropValue, anchor: Ray)

    def __post_init__(self):
        if any(coeff.is_infinite() for coeff, _ in self.terms):
            raise InfiniteCoefficient("basic function coefficients must lie in [0, oo[")

    @classmethod
    def cs(cls, anchor: Ray, coeff: TropValue = ONE) -> "BasicFunction":
        return cls(((coeff, anchor),))

    @classmethod
    def zero(cls) -> "BasicFunction":
        return cls(())

    def eval(self, pair: QuadraticPair, x: Ray) -> TropValue:
        """f(x)."""
        if not self.terms:
            return ZERO
        (num,), den = _values_at(pair, (self,), x)
        return _value(num, den)

    def anchors(self):
        return tuple(anchor for _, anchor in self.terms)


def _values_at(pair: QuadraticPair, family, x: Ray) -> tuple:
    """The family's values at x on one lattice: (nums, den) with f_i(x) =
    t^(nums[i]/den), nums[i] None for the zero.

    Evaluates q(x) once and q(anchor), b(anchor, x) per term with a nonzero
    coefficient; a term with coefficient 0 drops out before its anchor is
    looked at, as in traces.  Each term's exponent coeff - q(anchor) +
    2 b(anchor, x) is formed in ints and q(x) subtracted from every maximum.
    An isotropic x or an isotropic anchor of a live term raises
    IsotropicArgument.
    """
    gram = pair._gram
    xb = x.base
    qx, dx = gram(xb)
    if qx is None:
        raise IsotropicArgument("CS-functions live on the anisotropic ray space")
    rows = []
    for f in family:
        row = []
        for coeff, anchor in f.terms:
            if coeff.kind != _KFINITE:
                continue
            w = anchor.base
            qw = gram(w)
            if qw[0] is None:
                raise IsotropicArgument("CS-ratio needs anisotropic arguments")
            num, den = _monomial(_over(coeff, qw), gram(w, xb))
            if num is not None:
                row.append((num, den))
        rows.append(row)
    den = lcm(dx, *[d for row in rows for _, d in row])
    shift = qx * (den // dx)
    return [max([n * (den // d) for n, d in row]) - shift if row else None
            for row in rows], den


def cs_restriction_pm(pair: QuadraticPair, eps1: Vector, eps2: Vector, family) -> tuple:
    """The pm functions lam -> f(ray(eps1 + lam eps2)) of a family, each one
    numerator row hulled and multiplied by the shared 1/q.

    Terms with coefficient 0 or orthogonal to both base points drop out, so a
    function without other terms is the constant zero.  An endpoint may be
    isotropic unless q vanishes along the whole interval; a result may then
    take the value oo at a domain endpoint.
    """
    rows, den, q = _numerators(pair, eps1, eps2, family)
    inv_q = None if all(row == _ZERO_ROW for row in rows) else _inverse_q(*q)
    return tuple(_row_pm(row, den, inv_q) for row in rows)


def _numerators(pair: QuadraticPair, eps1: Vector, eps2: Vector, family) -> tuple:
    """(rows, den, (a1, a12, a2)): the numerator row of each function of the
    family over den (see :func:`_rows`), f = N / q on the interval, and the
    lattice Gram values of q(eps1 + lam eps2) = a1 + a12 lam + a2 lam^2.

    3 Gram evaluations for the interval and 3 per term with a nonzero
    coefficient; an isotropic witness raises IsotropicArgument.
    """
    gram = pair._gram
    a1, a12, a2 = gram(eps1), gram(eps1, eps2), gram(eps2)
    functions = []
    for f in family:
        terms = []
        for coeff, anchor in f.terms:
            if coeff.kind != _KFINITE:
                continue
            w = anchor.base
            qw = gram(w)
            if qw[0] is None:
                raise IsotropicArgument("CS witness must be anisotropic")
            terms.append((_over(coeff, qw), gram(eps1, w), gram(eps2, w)))
        functions.append(terms)
    return (*_rows(functions), (a1, a12, a2))


def _rows(functions) -> tuple:
    """(rows, den): for each function, given by its terms (scale, b1, b2),
    the numerator sum of scale (b1^2 + b2^2 lam^2) over its terms as the row
    (A, B) of ints over den, N = max(t^(A/den), t^(B/den) lam^2), the
    two-monomial row ``pmfunc.row_runs`` cuts at degree 2; A or B is None
    for the zero.  Scales and Gram values are lattice pairs."""
    monomials = [[(_monomial(s, b1), _monomial(s, b2)) for s, b1, b2 in terms]
                 for terms in functions]
    den = lcm(*[d for terms in monomials for m in terms for _, d in m])
    rows = []
    for terms in monomials:
        a = [n * (den // d) for (n, d), _ in terms if n is not None]
        b = [n * (den // d) for _, (n, d) in terms if n is not None]
        rows.append((max(a, default=None), max(b, default=None)))
    return rows, den


_ZERO_ROW = (None, None)


def _over(coeff: TropValue, q: tuple) -> tuple:
    """coeff / q as a lattice value, for a finite coeff and a nonzero lattice
    value q, on the lcm of their denominators."""
    qn, dq = q
    den = lcm(coeff.den, dq)
    return coeff.num * (den // coeff.den) - qn * (den // dq), den


def _monomial(scale: tuple, b: tuple) -> tuple:
    """The lattice value scale * b^2 as (num, den), from the lattice values
    scale and b; its num is None when b is the zero."""
    (sn, sd), (bn, bd) = scale, b
    if bn is None:
        return None, 1
    den = lcm(sd, bd)
    return sn * (den // sd) + 2 * bn * (den // bd), den


def _inverse_q(a1: tuple, a12: tuple, a2: tuple) -> PmFunction:
    """lam -> 1 / (a1 + a12 lam + a2 lam^2), the inverted q(eps1 + lam eps2),
    from the lattice Gram values."""
    q = _hull([(*a1, 0), (*a12, 1), (*a2, 2)])
    if q.is_constant_zero():
        raise IsotropicArgument("q vanishes along the whole interval")
    return q.invert()


def _row_pm(row: tuple, den: int, inv_q: PmFunction | None) -> PmFunction:
    """The numerator row (A, B) over den (from :func:`_rows`) hulled and
    multiplied by inv_q (from :func:`_inverse_q`); inv_q may be None for the
    zero row."""
    if row == _ZERO_ROW:
        return _ZERO_FN
    return _hull([(row[0], den, 0), (row[1], den, 2)]).mul(inv_q)


def _cs_ratio_pm(scale: tuple, b1: tuple, b2: tuple, q: tuple) -> PmFunction:
    """scale (b1^2 + b2^2 lam^2) / q(lam) as a pm function, for lattice values
    scale, b1, b2 and the Gram triple q = (a1, a12, a2) of q(lam)."""
    (row,), den = _rows([[(scale, b1, b2)]])
    return _row_pm(row, den, _inverse_q(*q))


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
    gram = pair._gram
    b1, b2 = gram(eps1, w), gram(eps2, w)
    if b1[0] is None and b2[0] is None:
        raise PerpendicularWitness("witness is orthogonal to both base points")
    a1, a2 = gram(eps1), gram(eps2)
    if a1[0] is None or a2[0] is None:
        raise IsotropicEndpoint("interval endpoint is isotropic")
    a12 = gram(eps1, eps2)
    qw, dw = gram(w)
    if qw is None:
        raise IsotropicArgument("CS witness must be anisotropic")
    f = _cs_ratio_pm((-qw, dw), b1, b2, (a1, a12, a2))

    b1, b2, a1, a2, a12 = (_value(*g) for g in (b1, b2, a1, a2, a12))
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
