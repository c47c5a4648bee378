"""The TropValue implementation of the CS layers, frozen for differential tests.

This is QuadraticPair.cs, BasicFunction.eval, sign_vector_at,
cs_restriction_pm and build_fw as they stood before Gram values stayed on the
integer lattice up to the pm functions and sign labels: every Gram value a
TropValue from the public eval_q / eval_b, every ratio and product computed
with Fractions, each monomial passed to PmFunction.from_monomials.
tests/test_cs_lattice.py runs each on both and requires equal values and
raised error types.  Keep it unchanged; it is the reference, not library
code.
"""

from __future__ import annotations

from troprays.errors import (IsotropicArgument, IsotropicEndpoint, PerpendicularWitness,
                             VerificationFailed)
from troprays.pmfunc import PmFunction
from troprays.semifield import INF, ZERO, TropValue


def trop_sum(values, start: TropValue = ZERO) -> TropValue:
    """Tropical sum (maximum) of an iterable of values."""
    acc = start
    for v in values:
        if acc < v:
            acc = v
    return acc


def compare_sign(a, b) -> str:
    """The sign of a relative to b: one of "<", "=", ">"."""
    if a < b:
        return "<"
    if b < a:
        return ">"
    return "="


def cs(pair, x, y, qy=None) -> TropValue:
    """CS(x, y) = b(x, y)^2 / (q(x) q(y)); requires both anisotropic."""
    qx = pair.eval_q(x)
    if qy is None:
        qy = pair.eval_q(y)
    if qx.is_zero() or qy.is_zero():
        raise IsotropicArgument("CS-ratio needs anisotropic arguments")
    bxy = pair.eval_b(x, y)
    return (bxy * bxy) / (qx * qy)


def basic_eval(pair, f, x, qx=None) -> TropValue:
    """f(x) for the basic function f."""
    return trop_sum(coeff * cs(pair, anchor.base, x.base, qx) for coeff, anchor in f.terms)


def sign_vector_at(pair, family, x) -> tuple:
    """The pairwise signs of the family values at x, as a tuple."""
    qx = pair.eval_q(x.base)
    if qx.is_zero():
        raise IsotropicArgument("sign vectors live on the anisotropic ray space")
    values = [basic_eval(pair, f, x, qx) for f in family]
    m = len(values)
    return tuple(compare_sign(values[k], values[l]) for k in range(m) for l in range(k + 1, m))


def cs_restriction_pm(pair, eps1, eps2, family, anisotropic_ends=False) -> tuple:
    """The pm functions lam -> f(ray(eps1 + lam eps2)) of a family."""
    a1, a12, a2 = pair.eval_q(eps1), pair.eval_b(eps1, eps2), pair.eval_q(eps2)
    if anisotropic_ends and (a1.is_zero() or a2.is_zero()):
        raise IsotropicArgument("use the isotropy module for isotropic endpoints")
    inv_q = None
    out = []
    for f in family:
        numerator = []
        for coeff, anchor in f.terms:
            if coeff.is_zero():
                continue
            w = anchor.base
            qw = pair.eval_q(w)
            if qw.is_zero():
                raise IsotropicArgument("CS witness must be anisotropic")
            b1, b2 = pair.eval_b(eps1, w), pair.eval_b(eps2, w)
            if inv_q is None and not (b1.is_zero() and b2.is_zero()):
                inv_q = _inverse_q(a1, a12, a2)
            c = coeff / qw
            numerator += [(c * b1 * b1, 0), (c * b2 * b2, 2)]
        out.append(_over_q(numerator, inv_q))
    return tuple(out)


def _inverse_q(a1, a12, a2) -> PmFunction:
    q = PmFunction.from_monomials([(a1, 0), (a12, 1), (a2, 2)])
    if q.is_constant_zero():
        raise IsotropicArgument("q vanishes along the whole interval")
    return q.invert()


def _over_q(numerator, inv_q) -> PmFunction:
    n = PmFunction.from_monomials(numerator)
    return n if n.is_constant_zero() else n.mul(inv_q)


def build_fw(pair, interval, w) -> tuple:
    """(f, quasilinear, region_a, region_b, region_c, u_w, v_w) of CS(-, w)
    restricted to the interval."""
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
    f = _over_q([(b1 * b1 / qw, 0), (b2 * b2 / qw, 2)], _inverse_q(a1, a12, a2))

    quasilinear = a1 * a2 >= a12 * a12
    r = b1 / b2
    if quasilinear:
        kappa = mu = (a1 / a2).sqrt()
    else:
        kappa, mu = a1 / a12, a12 / a2
    u_w = min(r, kappa)
    v_w = max(r, mu)

    region_a = (ZERO, f.breakpoints[1]) if f.segments[0][1] == 0 else (ZERO, ZERO)
    region_c = (f.breakpoints[-2], INF) if f.segments[-1][1] == 0 else (INF, INF)
    if len(f.segments) == 1:
        region_a = region_c = (ZERO, INF)
        region_b = (u_w, v_w)
    else:
        region_b = (region_a[1], region_c[0])
        if region_b != (u_w, v_w):
            raise VerificationFailed("region formulas disagree with the function")
        inner = f.reduced_degrees()[1:-1] if len(f.segments) > 2 else ()
        if 0 in inner:
            raise VerificationFailed("B_w contains an interior constant piece")
    return f, quasilinear, region_a, region_b, region_c, u_w, v_w
