"""The pm reconstruction as it stood before it fitted windows on int
numerators, frozen for differential tests.

``reconstruct_pm`` and ``_fit_monomial`` are troprays.oracle's as they stood
then: the probes, the slope and the coefficient are Fractions.
tests/test_oracle.py requires the library to give an equal PmFunction, or
to raise the same ValueError.  Keep it unchanged; it is the reference, not
library code.
"""

from fractions import Fraction

from troprays.pmfunc import PmFunction
from troprays.semifield import INF, ZERO, TropValue


def _fit_monomial(exps, values):
    """The unique integer-degree monomial through the first and last sample,
    or None when none exists or some sample disagrees."""
    slope = (values[-1].exp - values[0].exp) / (exps[-1] - exps[0])
    if slope.denominator != 1:
        return None
    degree = slope.numerator
    coeff = TropValue.finite(values[0].exp - degree * exps[0])
    for e, v in zip(exps[1:-1], values[1:-1]):
        if coeff.exp + degree * e != v.exp:
            return None
    return coeff, degree


def reconstruct_pm(fn, candidates) -> PmFunction:
    """Fit a pm function to point values of `fn`, given a finite set of
    breakpoint candidates that provably contains every true breakpoint.

    Probes each window between consecutive candidates at its endpoints and
    three interior points; the window is monomial by assumption, so the fit
    is exact.  Windows beyond the extreme candidates take their own probes
    two units out.
    """
    cuts = sorted({c.exp for c in candidates if c.is_finite()})
    if cuts:
        walls = [cuts[0] - 2] + cuts + [cuts[-1] + 2]
    else:
        walls = [Fraction(0), Fraction(1)]
    breakpoints = [ZERO]
    segments = []
    for lo, hi in zip(walls, walls[1:]):
        exps = [lo + (hi - lo) * Fraction(i, 4) for i in range(5)]
        values = [fn(TropValue.finite(e)) for e in exps]
        if any(not v.is_finite() for v in values):
            raise ValueError("non-finite interior value; not a CS restriction")
        fit = _fit_monomial(exps, values)
        if fit is None:
            raise ValueError(f"window {lo}..{hi} is not monomial; "
                             "candidate set incomplete")
        if segments and segments[-1] != fit:
            breakpoints.append(TropValue.finite(lo))
            segments.append(fit)
        elif not segments:
            segments.append(fit)
    breakpoints.append(INF)
    return PmFunction(breakpoints, segments).normalize()
