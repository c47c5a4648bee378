"""The TropValue implementation of vectors and rays, frozen for differential tests.

This is troprays.quadspace.Vector, troprays.rays.Ray and RayInterval.pi as
they stood before vectors moved onto the integer lattice: every coordinate a
TropValue, sums, scalings and canonical representatives computed with
Fractions.  tests/test_vector_lattice.py runs each operation on both and
requires equal values, text and raised error types.  Keep it unchanged; it
is the reference, not library code.
"""

from __future__ import annotations

from troprays.errors import DimensionMismatch, ZeroVector
from troprays.semifield import ONE, ZERO, TropValue


def trop_sum(values, start: TropValue = ZERO) -> TropValue:
    """Tropical sum (maximum) of an iterable of values."""
    acc = start
    for v in values:
        if acc < v:
            acc = v
    return acc


class Vector:
    """Immutable coordinate vector over [0, oo[; no coordinate may be oo."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        for c in coords:
            if c.is_infinite():
                raise ValueError("vector coordinates must lie in [0, oo[")
        self.coords = coords

    @classmethod
    def parse(cls, items) -> "Vector":
        return cls(TropValue.parse(str(s)) for s in items)

    @classmethod
    def unit(cls, dim: int, i: int) -> "Vector":
        return cls(ONE if j == i else ZERO for j in range(dim))

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> TropValue:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other: "Vector") -> "Vector":
        if len(self) != len(other):
            raise DimensionMismatch("vector dimensions differ")
        return Vector(a + b for a, b in zip(self.coords, other.coords))

    def scale(self, lam: TropValue) -> "Vector":
        """lam * x; lam must lie in [0, oo[ so no coordinate becomes oo."""
        if lam.is_infinite():
            raise ValueError("scalars must lie in [0, oo[")
        return Vector(lam * c for c in self.coords)

    def __rmul__(self, lam: TropValue) -> "Vector":
        return self.scale(lam)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


class Ray:
    """A pointed ray: canonical representative plus the base vector."""

    __slots__ = ("rep", "base")

    def __init__(self, base: Vector):
        if base.is_zero():
            raise ZeroVector("cannot form the ray of the zero vector")
        top = trop_sum(base.coords)
        inv = top.inverse()
        self.base = base
        self.rep = Vector(inv * c for c in base.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ray):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __repr__(self) -> str:
        return f"ray{self.rep!r}"


def pi(y1: Ray, y2: Ray, lam: TropValue) -> Ray:
    """RayInterval(y1, y2).pi(lam) = ray(eps1 + lam*eps2); pi(0) = Y1, pi(oo) = Y2."""
    if lam.is_zero():
        return y1
    if lam.is_infinite():
        return y2
    return Ray(y1.base + lam * y2.base)
