"""Exact arithmetic in the extended bipotent semifield [0, oo].

Values live in log scale: a finite element t^p is stored as its rational
exponent p, a reduced pair of ints ``num/den`` with ``den > 0``, so that
multiplication is exponent addition, n-th roots are exponent division (the
semifield is root closed by construction), and the total order is the order
of the exponents.  Zero and Infinity are explicit variants (``num = None``),
never extreme rationals; the product 0*oo is undefined and raises
:class:`~troprays.errors.UndefinedProduct`.

Addition is the tropical maximum, written ``a + b``.  A product or quotient
of finite values is one step on the int pairs, reduced once at the end by
``_value``, which skips the gcd over denominator 1 and sets the three slots
of the result without ``__init__``.  A ``+``, ``*``, ``/``,
``<`` or ``<=`` whose other operand is not a TropValue raises TypeError, as
Python does for any unsupported operand.  All values are immutable and
hashable; equal values have equal pairs.  Text exponents ("p", "p/q", a
decimal) are read straight into a reduced int pair by ``_parse_finite``; no
Fraction is built on the parse path, and ``exp`` imports ``fractions`` only
when it is read.  The layers above compute on integer numerators over one
denominator (the integer lattice); they convert TropValues to it with
``_lattice`` and back with ``_value``.  Input scalars enter by one rule,
``value_of``, which admits no float.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING

from .errors import SchemaError, UndefinedProduct

if TYPE_CHECKING:
    from fractions import Fraction

_KZERO = -1
_KFINITE = 0
_KINF = 1


class TropValue:
    """One element of [0, oo]: Zero, Finite(exponent num/den), or Infinity."""

    __slots__ = ("kind", "num", "den")

    def __init__(self, kind: int, num: int | None = None, den: int = 1):
        self.kind, self.num, self.den = kind, num, den

    @property
    def exp(self) -> Fraction | None:
        """The exponent of a finite value as a Fraction; None for 0 and oo."""
        if self.num is None:
            return None
        from fractions import Fraction  # here, so parsing and arithmetic never load it
        return Fraction(self.num, self.den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def finite(cls, exp) -> "TropValue":
        """Finite value t^exp; `exp` may be an int, Fraction, or string (read
        by ``_parse_finite``).  A float raises TypeError: its binary expansion
        is not an exact input; so does a bool, which is a truth value and not
        an exponent, and anything without ``numerator``/``denominator``."""
        if isinstance(exp, str):
            return _parse_finite(exp)
        if isinstance(exp, (float, bool)) or not hasattr(exp, "denominator"):
            raise TypeError(f"exponent {exp!r} is a {type(exp).__name__}; "
                            "pass an int, Fraction or string")
        return _value(exp.numerator, exp.denominator)

    @classmethod
    def parse(cls, text: str) -> "TropValue":
        """Parse the text encoding: "p/q" or "p" (finite), "-inf", "+inf"."""
        text = text.strip()
        if text == "-inf":
            return ZERO
        if text in ("+inf", "inf"):
            return INF
        return _parse_finite(text)

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
        if not isinstance(other, TropValue):
            return NotImplemented
        if self.kind != other.kind:
            return self if self.kind > other.kind else other
        if self.kind == _KFINITE and self.num * other.den < other.num * self.den:
            return other
        return self

    def __mul__(self, other):
        if not isinstance(other, TropValue):
            return NotImplemented
        if self.kind == _KFINITE and other.kind == _KFINITE:
            b, d = self.den, other.den
            return _value(self.num * d + other.num * b, b * d)
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
            return TropValue(_KFINITE, -self.num, self.den)
        return INF if self.kind == _KZERO else ZERO

    def __truediv__(self, other: "TropValue") -> "TropValue":
        """Exponent subtraction; the sentinels divide as ``self * other.inverse()``."""
        if not isinstance(other, TropValue):
            return NotImplemented
        if self.kind == _KFINITE and other.kind == _KFINITE:
            b, d = self.den, other.den
            return _value(self.num * d - other.num * b, b * d)
        return self * other.inverse()

    def __pow__(self, n: int) -> "TropValue":
        """Integer power.  By convention x^0 = e for every x, including 0, oo."""
        if n == 0:
            return ONE
        if self.kind == _KFINITE:
            return _value(self.num * n, self.den)
        if n > 0:
            return self
        return self.inverse()

    def root(self, n: int) -> "TropValue":
        """Exact n-th root (n >= 1); exponent division in the root closure."""
        if n < 1:
            raise ValueError("root index must be a positive integer")
        if self.kind == _KFINITE:
            return _value(self.num, self.den * n)
        return self

    def sqrt(self) -> "TropValue":
        return self.root(2)

    # -- total order ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropValue):
            return NotImplemented
        return self.kind == other.kind and self.num == other.num and self.den == other.den

    def __lt__(self, other: "TropValue") -> bool:
        if not isinstance(other, TropValue):
            return NotImplemented
        if self.kind != other.kind:
            return self.kind < other.kind
        return self.kind == _KFINITE and self.num * other.den < other.num * self.den

    # a > b and a >= b are the reflected b < a and b <= a
    def __le__(self, other: "TropValue") -> bool:
        if not isinstance(other, TropValue):
            return NotImplemented
        return self == other or self < other

    def __hash__(self):
        return hash((self.kind, self.num, self.den))

    # -- text ----------------------------------------------------------------

    def __str__(self) -> str:
        if self.kind == _KZERO:
            return "-inf"
        if self.kind == _KINF:
            return "+inf"
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        if self.kind == _KFINITE:
            return f"t^{self}"
        return "0" if self.kind == _KZERO else "oo"


ZERO = TropValue(_KZERO)
INF = TropValue(_KINF)
ONE = TropValue(_KFINITE, 0)  # the idempotent unit e = t^0
_new = object.__new__  # bound once: one global read per result, not an attribute lookup


def _value(num, den: int) -> TropValue:
    """The TropValue of a lattice value num/den, den > 0 (None for the zero)."""
    if num is None:
        return ZERO
    if den != 1:
        g = gcd(num, den)
        if g != 1:
            num, den = num // g, den // g
    v = _new(TropValue)
    v.kind, v.num, v.den = _KFINITE, num, den
    return v


def _parse_finite(text: str) -> TropValue:
    """t^p for the exponent text "p", "p/q" or a decimal ("1.5", ".5", "5."),
    each with an optional sign and surrounding whitespace: what ``Fraction``
    reads, less exponent notation, "_" separators and non-ASCII digits.  Any
    other text raises ValueError, and q = 0 ZeroDivisionError."""
    body = text.strip()
    sign = -1 if body[:1] == "-" else 1
    if body[:1] in ("-", "+"):
        body = body[1:]
    p, slash, q = body.partition("/")
    if slash:
        if _digits(p) and _digits(q):
            den = int(q)
            if den == 0:
                raise ZeroDivisionError(f"exponent {text!r} divides by zero")
            return _value(sign * int(p), den)
    else:
        whole, _, frac = body.partition(".")
        if _digits(whole + frac):  # each part digits or empty, not both empty
            den = 10 ** len(frac)
            return _value(sign * (int(whole or "0") * den + int(frac or "0")), den)
    raise ValueError(f"invalid exponent text {text!r}")


def _digits(s: str) -> bool:
    """`s` is a non-empty run of ASCII digits."""
    return s.isascii() and s.isdigit()


def _lattice(values) -> tuple:
    """(d, nums): d is the lcm of the finite exponents' denominators and
    nums[k] = d * exponent of values[k], an int, or None for the zero."""
    d = lcm(*[v.den for v in values if v.num is not None])
    return d, tuple([None if v.num is None else v.num * (d // v.den) for v in values])


def t(exp) -> TropValue:
    """Shorthand for the finite value t^exp."""
    return TropValue.finite(exp)


def value_of(x) -> TropValue:
    """The one entry rule for scalars: a TropValue as it is, an int (not a
    bool) as t^x, a str in the text encoding of :meth:`TropValue.parse`.
    Anything else (a float, a bool, None), and bad text, raises SchemaError.
    Text is read straight into an int pair by ``_parse_finite``, with no
    ``Fraction``.  Exponent notation ("1e3"), "_" separators and non-ASCII
    characters ("١", a no-break space) are bad text, refused before any int
    is built from them: so "1e100000000" in a model file costs nothing."""
    if isinstance(x, TropValue):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return TropValue(_KFINITE, x)
    if not isinstance(x, str):
        raise SchemaError(f"semifield value {x!r} is not a str, an int or a TropValue")
    if not x.isascii():
        raise SchemaError(f"bad semifield value {x!r}: the text encoding is ASCII")
    try:
        return TropValue.parse(x)
    except (ValueError, ZeroDivisionError) as ex:
        raise SchemaError(f"bad semifield value {x!r}: {ex}") from ex


def midpoint(a: TropValue, b: TropValue) -> TropValue:
    """Some value strictly between a and b (requires a < b).

    For finite endpoints this is the exact geometric mean sqrt(ab); density
    of the order makes such a value always exist.
    """
    if not a < b:
        raise ValueError("midpoint requires a < b")
    if a.is_zero():
        return ONE if b.is_infinite() else TropValue(_KFINITE, b.num - b.den, b.den)
    if b.is_infinite():
        return TropValue(_KFINITE, a.num + a.den, a.den)
    return _value(a.num * b.den + b.num * a.den, 2 * a.den * b.den)
