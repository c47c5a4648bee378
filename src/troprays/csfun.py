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
degree-0 coefficients and B of the degree-2 ones.  With
N(v) = max_j c_j / q(w_j) b(v, w_j)^2 the row is (A, B) = (N(eps1), N(eps2)),
and the value at a ray is f(x) = N(x) / q(x): one numerator per vector
serves values, sign vectors and traces.  :func:`cs_restriction_pm` hulls
each row and multiplies it by 1/q, built once per interval.  Traces
(``strata._runs``) cut the rows alone with the int kernel
``pmfunc.row_runs``: q is finite and nonzero on ]0, oo[, at 0 when
q(eps1) != 0 and, read through lam^2, at oo when q(eps2) != 0, so dividing
by it changes no sign; at oo each row reads B.  ``build_fw`` (f_w, six
Gram values) and the isotropy profiles read their values off one frame too
and build their ratio by the same two rules: ``_row_pm`` hulls a row and
multiplies it by ``_inverse_q``, the inverted q of a Gram triple.

The binding.  Every read of a family goes through one :class:`_Bound`, built
once per (model, family).  It owns one lattice frame (``quadspace._Frame``)
of the model, the live anchors and the coefficients, on the lcm of their
denominators, built with the family's live terms, and that frame hands out
the frame of a call's vectors, one per denominator.  A frame keeps one entry
per vector; ``_Frame.fill`` puts N(v) and v's column on it, N formed in ints
by the one term rule with the exponent coeff - q(w) + 2 b(v, w), and the
first fill on a frame puts the anchors and the term constants coeff - q(w)
on the frame.  The envelopes of a row and of q are built by the int hull
builder ``pmfunc._hull``.  A one-off call (a restriction, a trace, a sign
vector, :meth:`BasicFunction.eval`) binds, reads once and drops the binding,
and its Gram counts are those of one call: per interval q once per distinct
vector (eps1, eps2 and each live anchor that is not one of them),
b(eps1, eps2), and b(eps1, w), b(eps2, w) once per distinct live anchor w
(at most 3 + 3 per anchor, 7 for the canonical M1 family, whose anchors are
the ends); per ray q(x), then q(w) and b(w, x) once per distinct
live anchor.  A binding that lives longer (``strata.derivation_chart``,
``frontier.FrontierPair``) reads q(w) once per frame and a vector's q, column
and N once per frame, so a trace of two rays read before costs only
b(eps1, eps2).  The public views return TropValues, reduced int pairs.

Region analysis: f_w is constant on a maximal initial interval A_w and a
maximal final interval C_w and is nowhere constant in between (B_w), unless
B_w degenerates to a point, in which case f_w is constant everywhere.  The
endpoints of B_w admit closed formulas u_w = min(r, kappa) and
v_w = max(r, mu) with r = b(eps1,w)/b(eps2,w) and (kappa, mu) the breakpoints
of the denominator envelope.
"""

from __future__ import annotations

from typing import NamedTuple

from . import quadspace
from .errors import (InfiniteCoefficient, IsotropicArgument, IsotropicEndpoint,
                     PerpendicularWitness, VerificationFailed)
from .pmfunc import _ZERO_FN, PmFunction, _hull
from .quadspace import QuadraticPair, Vector, _Frame, _Frozen
from .rays import Ray, RayInterval
from .semifield import _KFINITE, INF, ONE, ZERO, TropValue, _value


def q_segment_profile(pair: QuadraticPair, interval: RayInterval) -> PmFunction:
    """q(eps1 + lam eps2) as a pm function of the parameter.

    Non-quasilinear case (alpha1 alpha2 < alpha12^2): degrees (0, 1, 2) with
    breakpoints alpha1/alpha12 and alpha12/alpha2.  Quasilinear case: degrees
    (0, 2) with breakpoint sqrt(alpha1/alpha2).
    """
    _, den, (a1, a12, a2) = _Bound(pair, ()).numerators(interval.y1.base, interval.y2.base)
    if a1 is None or a2 is None:
        raise IsotropicEndpoint("interval endpoint is isotropic")
    return _hull([(a1, den, 0), (a12, den, 1), (a2, den, 2)])


class BasicFunction(_Frozen):
    """f = sum_j coeff_j * CS(anchor_j, -); the empty sum is the zero function.

    Coefficients lie in [0, oo[: an oo coefficient raises InfiniteCoefficient.
    Immutable, like a model (:class:`~troprays.quadspace._Frozen`).
    """

    __slots__ = _fields = ("terms",)  # of (coeff: TropValue, anchor: Ray)

    def __init__(self, terms: tuple):
        if any(coeff.is_infinite() for coeff, _ in terms):
            raise InfiniteCoefficient("basic function coefficients must lie in [0, oo[")
        self._set(terms)

    @classmethod
    def cs(cls, anchor: Ray, coeff: TropValue = ONE) -> "BasicFunction":
        return cls(((coeff, anchor),))

    @classmethod
    def zero(cls) -> "BasicFunction":
        return cls(())

    def eval(self, pair: QuadraticPair, x: Ray) -> TropValue:
        """f(x); x must be anisotropic, also for the zero function."""
        (num,), den = _Bound(pair, (self,)).values(x.base)
        return _value(num, den)

    def anchors(self):
        return tuple(anchor for _, anchor in self.terms)


class _Bound:
    """A family bound to a model: the one path by which values, sign vectors,
    numerator rows and restrictions read the family (see "The binding"
    above).  It owns one lattice frame, built with the family's live terms;
    the frames it hands out keep each vector's N(v) and column on the
    vector's entry, only from reads that succeeded: an isotropic or
    wrong-dimension live anchor raises on every read, with its caller's
    message.
    """

    __slots__ = ("_frame",)

    def __init__(self, pair: QuadraticPair, family):
        live = []
        for f in family:
            terms = []
            for coeff, anchor in f.terms:
                # a term with coefficient 0 drops out before its anchor is looked at
                if coeff.kind == _KFINITE:
                    terms.append((coeff, anchor.base))
            live.append(terms)
        self._frame = _Frame(pair, live=live)

    def values(self, x: Vector) -> tuple:
        """The family's values at x: (nums, den) with f_i(x) = t^(nums[i]/den),
        nums[i] None for the zero.

        q(x) once, then N(x); an isotropic x, also for a family without live
        terms, or an isotropic live anchor raises IsotropicArgument.
        """
        frame = self._frame.over(x.d)
        at = frame.at(x)
        if at[1] is None:
            raise IsotropicArgument("CS-functions live on the anisotropic ray space")
        qx, nums = at[1], frame.fill(at, "CS-ratio needs anisotropic arguments")
        return [None if n is None else n - qx for n in nums], frame.den

    def numerators(self, eps1: Vector, eps2: Vector) -> tuple:
        """(rows, den, (a1, a12, a2)): the numerator row (A, B) of each
        function of the family, ints over den with N = max(t^(A/den),
        t^(B/den) lam^2) and f = N / q on the interval, A or B None for the
        zero (``(None, None)``, ``_ZERO_ROW``, for the zero function), the
        two-monomial row ``pmfunc.row_runs`` cuts at degree 2; and the Gram
        values of q(eps1 + lam eps2) = a1 + a12 lam + a2 lam^2, ints over den
        too.

        q(eps1) and q(eps2), whose dimensions are checked first, then N(eps1),
        N(eps2) and b(eps1, eps2); rows are built for isotropic ends too,
        which traces with a dropped end read.  An isotropic live anchor raises
        IsotropicArgument.
        """
        frame = self._frame.over(eps1.d, eps2.d)
        at1, at2 = frame.at(eps1), frame.at(eps2)
        message = "CS witness must be anisotropic"
        n1, n2 = frame.fill(at1, message), frame.fill(at2, message)
        return list(zip(n1, n2)), frame.den, (at1[1], quadspace._dot(at1[2], at2[0]), at2[1])


def cs_restriction_pm(pair: QuadraticPair, eps1: Vector, eps2: Vector, family) -> tuple:
    """The pm functions lam -> f(ray(eps1 + lam eps2)) of a family, each one
    numerator row hulled and multiplied by the shared 1/q.

    Terms with coefficient 0 or orthogonal to both base points drop out, so a
    function without other terms is the constant zero.  An endpoint may be
    isotropic unless q vanishes along the whole interval; a result may then
    take the value oo at a domain endpoint.
    """
    rows, den, q = _Bound(pair, family).numerators(eps1, eps2)
    inv_q = None if all(row == _ZERO_ROW for row in rows) else _inverse_q(q, den)
    return tuple(_row_pm(row, den, inv_q) for row in rows)


_ZERO_ROW = (None, None)


def _inverse_q(q: tuple, den: int) -> PmFunction:
    """lam -> 1 / (a1 + a12 lam + a2 lam^2), the inverted q(eps1 + lam eps2),
    from its Gram values q = (a1, a12, a2), ints over den."""
    q = _hull([(a, den, k) for k, a in enumerate(q)])
    if q.is_constant_zero():
        raise IsotropicArgument("q vanishes along the whole interval")
    return q.invert()


def _row_pm(row: tuple, den: int, inv_q: PmFunction | None) -> PmFunction:
    """The numerator row (A, B) over den (from :meth:`_Bound.numerators`) hulled
    and multiplied by inv_q (from :func:`_inverse_q`); inv_q may be None for
    the zero row."""
    if row == _ZERO_ROW:
        return _ZERO_FN
    return _hull([(row[0], den, 0), (row[1], den, 2)]).mul(inv_q)


class IntervalCsProfile(NamedTuple):
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
    frame, dot = _Frame(pair, (eps1, eps2, w)), quadspace._dot
    (x1, a1), (ys, qw), (x2, a2) = frame.at(eps1)[:2], frame.at(w)[:2], frame.at(eps2)[:2]
    c1, cw = frame.column(x1), frame.column(ys)
    b1, b2 = dot(c1, ys), dot(cw, x2)
    if b1 is None and b2 is None:
        raise PerpendicularWitness("witness is orthogonal to both base points")
    if a1 is None or a2 is None:
        raise IsotropicEndpoint("interval endpoint is isotropic")
    if qw is None:
        raise IsotropicArgument("CS witness must be anisotropic")
    den, a12 = frame.den, dot(c1, x2)
    f = _row_pm(tuple([None if b is None else 2 * b - qw for b in (b1, b2)]), den,
                _inverse_q((a1, a12, a2), den))

    b1, b2, a1, a2, a12 = (_value(g, den) for g in (b1, b2, a1, a2, a12))
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
    region_b = (u_w, v_w)
    if len(f.segments) == 1:
        # constant everywhere; B_w degenerates to the common formula point
        region_a = region_c = (ZERO, INF)
    elif (region_a[1], region_c[0]) != region_b:
        raise VerificationFailed("region formulas disagree with the function")
    elif 0 in f.reduced_degrees()[1:-1]:
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
