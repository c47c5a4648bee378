"""The per-value Gram implementation of the CS rows and values, frozen for
differential tests.

This is csfun._values_at, csfun._numerators (with its helpers _rows, _over
and _monomial) and QuadraticPair.cs as they stood before one lattice frame
served each call: every Gram value its own QuadraticPair._gram call on the
lcm of the model's and its vectors' denominators, every monomial on its own
lcm, the rows put on one lattice at the end.  tests/test_frame.py runs each
on both and requires equal values and equal errors, type and message, the
first one raised included.  Keep it unchanged; it is the reference, not
library code.
"""

from __future__ import annotations

from math import lcm

from troprays.errors import IsotropicArgument
from troprays.semifield import _KFINITE, ZERO, _value


def cs(pair, x, y):
    """CS(x, y) = b(x, y)^2 / (q(x) q(y)); requires both anisotropic."""
    (qx, dx), (qy, dy) = pair._gram(x), pair._gram(y)
    if qx is None or qy is None:
        raise IsotropicArgument("CS-ratio needs anisotropic arguments")
    b, db = pair._gram(x, y)
    if b is None:
        return ZERO
    den = lcm(dx, dy, db)
    return _value(2 * b * (den // db) - qx * (den // dx) - qy * (den // dy), den)


def values_at(pair, family, x) -> tuple:
    """(nums, den): the family's values at x on one lattice."""
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


def numerators(pair, eps1, eps2, family) -> tuple:
    """(rows, den, (a1, a12, a2)): the numerator rows over den and the
    lattice Gram values of q(eps1 + lam eps2)."""
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
    monomials = [[(_monomial(s, b1), _monomial(s, b2)) for s, b1, b2 in terms]
                 for terms in functions]
    den = lcm(*[d for terms in monomials for m in terms for _, d in m])
    rows = []
    for terms in monomials:
        a = [n * (den // d) for (n, d), _ in terms if n is not None]
        b = [n * (den // d) for _, (n, d) in terms if n is not None]
        rows.append((max(a, default=None), max(b, default=None)))
    return rows, den


def _over(coeff, q) -> tuple:
    qn, dq = q
    den = lcm(coeff.den, dq)
    return coeff.num * (den // coeff.den) - qn * (den // dq), den


def _monomial(scale, b) -> tuple:
    (sn, sd), (bn, bd) = scale, b
    if bn is None:
        return None, 1
    den = lcm(sd, bd)
    return sn * (den // sd) + 2 * bn * (den // bd), den
