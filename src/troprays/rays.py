"""Rays, canonical forms, and the parametrization of closed ray intervals.

A ray is the class of a nonzero vector under independent rescaling; its
canonical representative divides out the largest coordinate, so every rep
has maximal coordinate e.  On the vector's integer lattice (d, nums) this
subtracts the largest numerator from every numerator, so forming a ray, its
equality and its hash run in ints.  Rays are *pointed*: each carries the
base vector it was formed from, so parameter values along intervals are
reproducible.  Equality and hashing ignore the base point.

The interval [Y1, Y2] is parametrized by pi(lam) = ray(eps1 + lam * eps2)
for lam in [0, oo], with pi(0) = Y1 and pi(oo) = Y2.
"""

from __future__ import annotations

from .errors import NotOnInterval, ZeroVector
from .quadspace import Vector, _vector
from .semifield import INF, ZERO, TropValue, midpoint


class Ray:
    """A pointed ray: canonical representative plus the base vector."""

    __slots__ = ("rep", "base")

    def __init__(self, base: Vector):
        nums = base.nums
        top = max([x for x in nums if x is not None], default=None)
        if top is None:
            raise ZeroVector("cannot form the ray of the zero vector")
        self.base = base
        self.rep = _vector(base.d, tuple([None if x is None else x - top for x in nums]))

    def with_base(self, base: Vector) -> "Ray":
        """The same ray re-pointed at `base`; base must lie on the ray."""
        other = Ray(base)
        if other.rep != self.rep:
            raise ValueError("base vector does not lie on the ray")
        return other

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ray):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __repr__(self) -> str:
        return f"ray{self.rep!r}"


def ray(*items) -> Ray:
    """Build a ray from exponent data, e.g. ray(0, -2) or ray("0", "-inf")."""
    return Ray(Vector.parse(items))


class RayInterval:
    """The closed interval [Y1, Y2] between two different pointed rays."""

    __slots__ = ("y1", "y2")

    def __init__(self, y1: Ray, y2: Ray):
        if y1 == y2:
            raise ValueError("interval endpoints must be different rays")
        if len(y1.base) != len(y2.base):
            raise ValueError("endpoint dimensions differ")
        self.y1 = y1
        self.y2 = y2

    def reversed(self) -> "RayInterval":
        return RayInterval(self.y2, self.y1)

    def pi(self, lam: TropValue) -> Ray:
        """pi(lam) = ray(eps1 + lam*eps2); pi(0) = Y1, pi(oo) = Y2."""
        if lam.is_zero():
            return self.y1
        if lam.is_infinite():
            return self.y2
        return Ray(self.y1.base + lam * self.y2.base)

    def locate(self, z: Ray) -> TropValue | None:
        """The smallest lam with pi(lam) = z, or None when z is off the interval.

        The fiber of pi over z is a convex subset of [0, oo], so "smallest"
        is well defined.  Candidates are found piecewise: between consecutive
        coordinate switch points eps1_i / eps2_j the canonical representative
        of pi(lam) is coordinatewise monomial in lam, hence either constant
        or injective there.  Every candidate is verified by re-evaluating pi.
        """
        if z == self.y1:
            return ZERO
        eps1, eps2 = self.y1.base, self.y2.base
        cuts = set()
        for a in eps1.coords:
            if not a.is_finite():
                continue
            for b in eps2.coords:
                if b.is_finite():
                    cuts.add(a / b)
        bounds = [ZERO] + sorted(cuts) + [INF]
        target = z.rep
        n = len(eps1)
        for k in range(len(bounds) - 1):
            lo, hi = bounds[k], bounds[k + 1]
            if not lo < hi:
                continue
            mid = midpoint(lo, hi)
            # dominant term of each coordinate on this piece: (coeff, degree)
            shape = []
            best_val, best_idx = ZERO, -1
            for i in range(n):
                const = eps1.coords[i]
                lin = mid * eps2.coords[i]
                if const >= lin:
                    coeff, deg, val = const, 0, const
                else:
                    coeff, deg, val = eps2.coords[i], 1, lin
                shape.append((coeff, deg))
                if val > best_val:
                    best_val, best_idx = val, i
            if best_idx < 0:
                continue
            top_coeff, top_deg = shape[best_idx]
            candidate = None
            constant_piece = True
            for i in range(n):
                coeff, deg = shape[i]
                d = deg - top_deg
                if coeff.is_zero() or d == 0:
                    continue
                constant_piece = False
                ti = target.coords[i]
                if ti.is_zero():
                    continue
                # (coeff/top_coeff) * lam^d = target_i  with d in {-1, +1}
                sol = (ti * top_coeff / coeff) ** (1 if d > 0 else -1)
                candidate = sol
                break
            if constant_piece:
                candidate = lo
            if candidate is None or not (lo <= candidate <= hi):
                continue
            if self.pi(candidate) == z:
                return candidate
        if self.pi(INF) == z:
            return INF
        return None

    def leq(self, z: Ray, zp: Ray) -> bool:
        """The interval ordering: z <= z' iff [Y1, z] is inside [Y1, z']."""
        if z == zp:
            return True
        a = self.locate(z)
        b = self.locate(zp)
        if a is None or b is None:
            raise NotOnInterval("both rays must lie on the interval")
        return a <= b

    def reverse_identity_check(self, lam: TropValue) -> bool:
        """Self-test of ray(eps1 + lam eps2) = ray(eps2 + lam^-1 eps1)."""
        return self.pi(lam) == self.reversed().pi(lam.inverse())

    def __repr__(self) -> str:
        return f"[{self.y1!r}, {self.y2!r}]"
