"""Rays, canonical forms, and the parametrization of closed ray intervals.

A ray is the class of a nonzero vector under independent rescaling; its
canonical representative divides out the largest coordinate, so every rep
has maximal coordinate e.  On the vector's integer lattice (d, nums) this
subtracts the largest numerator from every numerator, so forming a ray, its
equality and its hash run in ints.  Rays are *pointed*: each carries the
base vector it was formed from, so parameter values along intervals are
reproducible.  Equality and hashing ignore the base point.

The interval [Y1, Y2] is parametrized by pi(lam) = ray(eps1 + lam * eps2)
for lam in [0, oo], with pi(0) = Y1 and pi(oo) = Y2, and its rays are
ordered by the parameter where they are first reached.  ``locate`` finds
that parameter with the kernel that cuts the CS strata along the same
parameter, ``pmfunc.row_runs``: for 0 < lam < oo, pi(lam) = Z exactly
where the zero coordinates of Z stay zero and the ratios
(eps1_i + lam eps2_i) / z_i over its finite coordinates all agree.  Each
ratio is a two-monomial row of degree 1, so the first run of pairwise "="
signs begins at the answer.
"""

from __future__ import annotations

from math import lcm

from .errors import NotOnInterval, ZeroVector
from .pmfunc import row_runs
from .quadspace import Vector, _vector
from .semifield import INF, ZERO, TropValue


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
        """pi(lam) = ray(eps1 + lam*eps2); pi(0) = Y1, pi(oo) = Y2.

        For a finite lam = p/q, max(eps1_i, lam eps2_i) is formed in one pass
        on L = lcm(d1, d2, q), lam adding p L/q to every numerator of eps2,
        and reduced twice: once for the base, once for the rep."""
        if lam.is_zero():
            return self.y1
        if lam.is_infinite():
            return self.y2
        e1, e2 = self.y1.base, self.y2.base
        p, q = lam.num, lam.den
        d = lcm(e1.d, e2.d, q)
        s1, s2, shift = d // e1.d, d // e2.d, p * (d // q)
        nums = []
        for x, y in zip(e1.nums, e2.nums):
            x = None if x is None else x * s1
            y = None if y is None else y * s2 + shift
            nums.append(y if x is None else x if y is None or y < x else y)
        return Ray(_vector(d, tuple(nums)))

    def locate(self, z: Ray) -> TropValue | None:
        """The smallest lam with pi(lam) = z, or None when z is off the interval.

        The fiber of pi over z is a closed convex subset of [0, oo], so
        "smallest" is well defined.  For finite lam > 0, pi(lam) = z exactly
        when every zero coordinate of z is zero in eps1 and eps2 and the
        ratios r_i(lam) = (eps1_i + lam eps2_i) / z_i over the finite
        coordinates of z all agree.  Each r_i is the row
        max(eps1_i / z_i, (eps2_i / z_i) lam) of degree 1 on the common
        lattice of eps1, eps2 and z, so the fiber is a union of the runs of
        ``row_runs`` labelled only "=": the answer is the lower end of the
        first such run, re-verified by pi, else oo when pi(oo) = z.  The
        kernel reads oo as the rows over lam; no answer depends on that
        label, since a run starting at oo is the pi(oo) case tried last.
        """
        if z == self.y1:
            return ZERO
        vectors = (self.y1.base, self.y2.base, z.rep)
        d = lcm(*[v.d for v in vectors])
        eps1, eps2, target = [[None if x is None else x * (d // v.d) for x in v.nums]
                              for v in vectors]
        rows = []
        for a, b, c in zip(eps1, eps2, target):
            if c is not None:
                rows.append((None if a is None else a - c, None if b is None else b - c))
            elif a is not None or b is not None:
                break  # a coordinate of pi(lam) that is nonzero for finite lam > 0
        else:
            for lo, _, _, _, signs in row_runs(rows, d, 1):
                if "<" not in signs and ">" not in signs and self.pi(lo) == z:
                    return lo
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
