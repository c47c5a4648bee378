"""The Fraction implementation of TropValue, frozen for differential tests.

This is troprays.semifield as it stood before exponents moved onto reduced
int pairs: a finite value holds its exponent as a fractions.Fraction, and
every operation runs the Fraction code.  tests/test_semifield_lattice.py runs
each operation on both and requires equal values, text and raised error
types.  Keep it unchanged; it is the reference, not library code.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from troprays.errors import UndefinedProduct

_KZERO = -1
_KFINITE = 0
_KINF = 1


class TropValue:
    """One element of [0, oo]: Zero, Finite(rational exponent), or Infinity."""

    __slots__ = ("kind", "exp")

    def __init__(self, kind: int, exp: Fraction | None = None):
        self.kind = kind
        self.exp = exp

    # -- constructors ------------------------------------------------------

    @classmethod
    def finite(cls, exp) -> "TropValue":
        """Finite value t^exp; `exp` may be an int, Fraction, or string."""
        return cls(_KFINITE, Fraction(exp))

    @classmethod
    def parse(cls, text: str) -> "TropValue":
        """Parse the text encoding: "p/q" or "p" (finite), "-inf", "+inf"."""
        text = text.strip()
        if text == "-inf":
            return ZERO
        if text in ("+inf", "inf"):
            return INF
        return cls(_KFINITE, Fraction(text))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.kind == _KZERO

    def is_finite(self) -> bool:
        return self.kind == _KFINITE

    def is_infinite(self) -> bool:
        return self.kind == _KINF

    # -- semifield operations ----------------------------------------------

    def __add__(self, other: "TropValue") -> "TropValue":
        """Tropical addition: the maximum of the two values (bipotent)."""
        if self.kind != other.kind:
            return self if self.kind > other.kind else other
        if self.kind == _KFINITE and self.exp < other.exp:
            return other
        return self

    def __mul__(self, other):
        if not isinstance(other, TropValue):
            return NotImplemented
        if self.kind == _KFINITE and other.kind == _KFINITE:
            return TropValue(_KFINITE, self.exp + other.exp)
        if self.kind == _KZERO:
            if other.kind == _KINF:
                raise UndefinedProduct("0 * oo is not defined")
            return ZERO
        if self.kind == _KINF:
            if other.kind == _KZERO:
                raise UndefinedProduct("oo * 0 is not defined")
            return INF
        # self finite, other a sentinel
        return other

    def inverse(self) -> "TropValue":
        """Multiplicative inverse; 0^-1 = oo and oo^-1 = 0."""
        if self.kind == _KFINITE:
            return TropValue(_KFINITE, -self.exp)
        return INF if self.kind == _KZERO else ZERO

    def __truediv__(self, other: "TropValue") -> "TropValue":
        return self * other.inverse()

    def __pow__(self, n: int) -> "TropValue":
        """Integer power.  By convention x^0 = e for every x, including 0, oo."""
        if n == 0:
            return ONE
        if self.kind == _KFINITE:
            return TropValue(_KFINITE, self.exp * n)
        if n > 0:
            return self
        return self.inverse()

    def root(self, n: int) -> "TropValue":
        """Exact n-th root (n >= 1); exponent division in the root closure."""
        if n < 1:
            raise ValueError("root index must be a positive integer")
        if self.kind == _KFINITE:
            return TropValue(_KFINITE, self.exp / n)
        return self

    def sqrt(self) -> "TropValue":
        return self.root(2)

    # -- total order ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropValue):
            return NotImplemented
        return self.kind == other.kind and self.exp == other.exp

    def __lt__(self, other: "TropValue") -> bool:
        if self.kind != other.kind:
            return self.kind < other.kind
        return self.kind == _KFINITE and self.exp < other.exp

    def __le__(self, other: "TropValue") -> bool:
        return self == other or self < other

    def __gt__(self, other: "TropValue") -> bool:
        return other < self

    def __ge__(self, other: "TropValue") -> bool:
        return other <= self

    def __hash__(self):
        return hash((self.kind, self.exp))

    # -- text ----------------------------------------------------------------

    def __str__(self) -> str:
        if self.kind == _KZERO:
            return "-inf"
        if self.kind == _KINF:
            return "+inf"
        return str(self.exp)

    def __repr__(self) -> str:
        if self.kind == _KFINITE:
            return f"t^{self.exp}"
        return "0" if self.kind == _KZERO else "oo"


ZERO = TropValue(_KZERO)
INF = TropValue(_KINF)
ONE = TropValue(_KFINITE, Fraction(0))  # the idempotent unit e = t^0


def _value(num, den: int) -> TropValue:
    """The TropValue of a lattice value num/den (None for the zero)."""
    return ZERO if num is None else TropValue(_KFINITE, Fraction(num, den))


def _lattice(values) -> tuple:
    """(d, nums): d is the lcm of the finite exponents' denominators and
    nums[k] = d * exponent of values[k], an int, or None for the zero."""
    exps = [v.exp for v in values]
    d = lcm(*[e.denominator for e in exps if e is not None])
    return d, tuple([None if e is None else e.numerator * (d // e.denominator)
                     for e in exps])


def t(exp) -> TropValue:
    """Shorthand for the finite value t^exp."""
    return TropValue.finite(exp)


def trop_sum(values, start: TropValue = ZERO) -> TropValue:
    """Tropical sum (maximum) of an iterable of values."""
    acc = start
    for v in values:
        if acc < v:
            acc = v
    return acc


def midpoint(a: TropValue, b: TropValue) -> TropValue:
    """Some value strictly between a and b (requires a < b).

    For finite endpoints this is the exact geometric mean sqrt(ab); density
    of the order makes such a value always exist.
    """
    if not a < b:
        raise ValueError("midpoint requires a < b")
    if a.is_zero():
        return ONE if b.is_infinite() else TropValue(_KFINITE, b.exp - 1)
    if b.is_infinite():
        return TropValue(_KFINITE, a.exp + 1)
    return TropValue(_KFINITE, (a.exp + b.exp) / 2)


def compare_sign(a: TropValue, b: TropValue) -> str:
    """The sign of a relative to b: one of "<", "=", ">"."""
    if a < b:
        return "<"
    if b < a:
        return ">"
    return "="
