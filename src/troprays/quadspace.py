"""Vectors over the semifield, quadratic pairs (q, b), and the CS-ratio.

A model is given by Gram data on a free module R^n: the diagonal values
alpha_i = q(e_i) and a symmetric companion matrix beta_ij = b(e_i, e_j).
The off-diagonal Gram coefficient of q and the companion entry are stored
as a single matrix entry, so the companion identity

    q(x + y) = q(x) + q(y) + b(x, y)

holds on basis pairs by construction; it holds for all vectors exactly when
every diagonal entry satisfies beta_ii <= alpha_i.  The JSON loader rejects
data violating that bound; :func:`validate_pair` reports violations on
in-memory models.  Models with beta_ii = alpha_i for all i are *balanced*.

The integer lattice.  A vector is stored only as (d, nums): nums[k] is d
times the exponent of coordinate k, an int, or None for the zero
coordinate, reduced so that gcd(d, nums) = 1.  Equal vectors thus have equal
(d, nums), whatever built them, and ``==`` and ``hash`` compare these ints;
the TropValue view ``coords`` and the hash are built on first use.  Models
keep their Gram data as numerators over one denominator too.  Every
operation runs in Python ints over L, the lcm of the denominators involved:
a sum takes the coordinatewise max of the numerators over L = lcm(d, d'), a
scaling by t^(p/q) adds p L/q to every numerator over L = lcm(d, q), and q
and b take their max-plus sums beta_ij + x_i + y_j over the lcm of the
model's and the vectors' denominators.  This is exact because max-plus
arithmetic commutes with scaling by a positive integer: L * max(a, b) =
max(L a, L b) and L * (a + b) = L a + L b, so the scaled maximum divided by
L is the rational maximum itself.  The one Gram primitive ``QuadraticPair._gram`` returns
such a lattice pair (num, den), and the CS layers (csfun, strata) work on
these ints; only the views ``eval_q``, ``eval_b``, ``cs`` and ``coords``
build TropValues, themselves reduced int pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

from .errors import DimensionMismatch, IsotropicArgument, SchemaError, ZeroVector
from .semifield import ZERO, TropValue, _lattice, _value


class Vector:
    """Immutable coordinate vector over [0, oo[; no coordinate may be oo.

    Stored on the integer lattice only: ``nums[k]`` is ``d`` times the
    exponent of coordinate k, an int, or None for the zero, and
    gcd(d, nums) = 1.  ``coords`` is a TropValue view and ``_hash`` the
    hash, both built on first use.
    """

    __slots__ = ("d", "nums", "_coords", "_hash")

    def __init__(self, coords):
        coords = tuple(coords)
        for c in coords:
            if c.is_infinite():
                raise ValueError("vector coordinates must lie in [0, oo[")
        # the lcm of reduced denominators leaves gcd(d, nums) = 1
        self.d, self.nums = _lattice(coords)
        self._coords = self._hash = None

    @property
    def coords(self) -> tuple:
        """The coordinates as TropValues."""
        if self._coords is None:
            d = self.d
            self._coords = tuple([_value(n, d) for n in self.nums])
        return self._coords

    @classmethod
    def parse(cls, items) -> "Vector":
        return cls(TropValue.parse(str(s)) for s in items)

    @classmethod
    def unit(cls, dim: int, i: int) -> "Vector":
        return _vector(1, tuple([0 if j == i else None for j in range(dim)]))

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, i: int) -> TropValue:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def __add__(self, other: "Vector") -> "Vector":
        """The coordinatewise maximum, taken on the numerators over lcm(d, d')."""
        xs, ys = self.nums, other.nums
        if len(xs) != len(ys):
            raise DimensionMismatch("vector dimensions differ")
        d = self.d
        if other.d != d:
            d = lcm(d, other.d)
            sx, sy = d // self.d, d // other.d
            xs = [None if x is None else x * sx for x in xs]
            ys = [None if y is None else y * sy for y in ys]
        return _vector(d, tuple([y if x is None else x if y is None or y < x else y
                                 for x, y in zip(xs, ys)]))

    def scale(self, lam: TropValue) -> "Vector":
        """lam * x; lam must lie in [0, oo[ so no coordinate becomes oo.

        A finite lam = p/q adds p to every numerator over lcm(d, q)."""
        if lam.is_infinite():
            raise ValueError("scalars must lie in [0, oo[")
        if lam.is_zero():
            return _vector(1, (None,) * len(self.nums))
        p, q = lam.num, lam.den
        d = lcm(self.d, q)
        s, shift = d // self.d, p * (d // q)
        return _vector(d, tuple([None if x is None else x * s + shift for x in self.nums]))

    def __rmul__(self, lam: TropValue) -> "Vector":
        return self.scale(lam)

    def is_zero(self) -> bool:
        return all(x is None for x in self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.d == other.d and self.nums == other.nums

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.d, self.nums))
        return self._hash

    def __repr__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _vector(d: int, nums: tuple) -> Vector:
    """The vector with numerators nums over d, reduced to gcd(d, nums) = 1."""
    g = gcd(d, *[x for x in nums if x is not None])
    if g > 1:
        d //= g
        nums = tuple([None if x is None else x // g for x in nums])
    v = object.__new__(Vector)
    v.d, v.nums, v._coords, v._hash = d, nums, None, None
    return v


def vec(*items) -> Vector:
    """Build a vector from exponents / "-inf" strings; test-friendly."""
    return Vector.parse(items)


def _entry(v) -> TropValue:
    """A Gram entry of :meth:`QuadraticPair.from_rows` as a TropValue."""
    if isinstance(v, TropValue):
        return v
    if isinstance(v, (str, int)):
        return TropValue.parse(str(v))
    raise SchemaError(f"Gram entry {v!r} is not a str, an int or a TropValue")


@dataclass(frozen=True)
class QuadraticPair:
    """Gram data for a quadratic form q with bilinear companion b."""

    dim: int
    q_diag: tuple
    b: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise SchemaError("dimension must be >= 1")
        if len(self.q_diag) != self.dim or len(self.b) != self.dim:
            raise SchemaError("Gram data sizes do not match the dimension")
        for row in self.b:
            if len(row) != self.dim:
                raise SchemaError("companion matrix is not square")
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.b[i][j] != self.b[j][i]:
                    raise SchemaError("companion matrix must be symmetric")
        for v in self.q_diag:
            if v.is_infinite():
                raise SchemaError("q values must lie in [0, oo[")
        for row in self.b:
            for v in row:
                if v.is_infinite():
                    raise SchemaError("b values must lie in [0, oo[")
        # integer-lattice Gram data: one denominator d for every entry,
        # q numerators and companion rows over d (None for the zero)
        n = self.dim
        d, nums = _lattice([*self.q_diag, *(v for row in self.b for v in row)])
        rows = tuple(nums[n * (i + 1):n * (i + 2)] for i in range(n))
        object.__setattr__(self, "_lat", (d, nums[:n], rows))

    @classmethod
    def from_rows(cls, q_diag, b_rows) -> "QuadraticPair":
        """Gram data from entries that are each a str, an int or a TropValue;
        any other entry (a float, say) raises SchemaError."""
        q_diag = tuple(_entry(v) for v in q_diag)
        b = tuple(tuple(_entry(v) for v in row) for row in b_rows)
        return cls(len(q_diag), q_diag, b)

    @property
    def balanced(self) -> bool:
        return all(self.b[i][i] == self.q_diag[i] for i in range(self.dim))

    def _gram(self, x: Vector, y: Vector | None = None) -> tuple:
        """The lattice Gram value (num, den): q(x) when y is None, else b(x, y).

        num is den times the exponent of the value, an int, or None for the
        zero; den is the lcm of the model's and the vectors' denominators.
        q(x) is the max over alpha_i x_i^2 and beta_ij x_i x_j (i < j), b(x, y)
        the max over beta_ij x_i y_j (all i, j).  Every Gram evaluation of the
        library runs here.
        """
        for v in (x,) if y is None else (x, y):
            if len(v.nums) != self.dim:
                raise DimensionMismatch(f"vector has length {len(v.nums)}, "
                                        f"model dimension is {self.dim}")
        d, qn, rows = self._lat
        dx, xn = x.d, x.nums
        best = None
        if y is None:
            den = lcm(d, dx)
            sg, sx = den // d, den // dx
            xs = [(i, v * sx) for i, v in enumerate(xn) if v is not None]
            for k, (i, xi) in enumerate(xs):
                qi = qn[i]
                if qi is not None:
                    v = qi * sg + xi + xi
                    if best is None or best < v:
                        best = v
                row = rows[i]
                for j, xj in xs[k + 1:]:
                    bij = row[j]
                    if bij is not None:
                        v = bij * sg + xi + xj
                        if best is None or best < v:
                            best = v
            return best, den
        dy, yn = y.d, y.nums
        den = lcm(d, dx, dy)
        sg, sx, sy = den // d, den // dx, den // dy
        ys = [(j, v * sy) for j, v in enumerate(yn) if v is not None]
        for xi, row in zip(xn, rows):
            if xi is None:
                continue
            xi *= sx
            for j, yj in ys:
                bij = row[j]
                if bij is not None:
                    v = bij * sg + xi + yj
                    if best is None or best < v:
                        best = v
        return best, den

    def eval_q(self, x: Vector) -> TropValue:
        """q(x) = max over alpha_i x_i^2 and beta_ij x_i x_j (i < j)."""
        return _value(*self._gram(x))

    def eval_b(self, x: Vector, y: Vector) -> TropValue:
        """b(x, y) = max over beta_ij x_i y_j (all i, j)."""
        return _value(*self._gram(x, y))

    def cs(self, x: Vector, y: Vector) -> TropValue:
        """CS(x, y) = b(x, y)^2 / (q(x) q(y)); requires both anisotropic."""
        (qx, dx), (qy, dy) = self._gram(x), self._gram(y)
        if qx is None or qy is None:
            raise IsotropicArgument("CS-ratio needs anisotropic arguments")
        b, db = self._gram(x, y)
        if b is None:
            return ZERO
        den = lcm(dx, dy, db)
        return _value(2 * b * (den // db) - qx * (den // dx) - qy * (den // dy), den)

    def is_isotropic(self, x: Vector) -> bool:
        """True iff x is nonzero and q(x) = 0."""
        if x.is_zero():
            raise ZeroVector("the zero vector is neither isotropic nor anisotropic")
        return self._gram(x)[0] is None


@dataclass
class ValidationReport:
    ok: bool
    balanced: bool
    pairs_checked: int
    failures: list = field(default_factory=list)


def validate_pair(pair: QuadraticPair, samples: int = 0, rng=None) -> ValidationReport:
    """Check q(x+y) = q(x) + q(y) + b(x, y) on basis pairs and random pairs.

    Basis pairs include the degenerate (e_i, e_i) case, which is what a
    diagonal companion entry exceeding q(e_i) would break.  The report
    carries the first counterexamples found; it never raises.
    """
    failures = []
    n = pair.dim
    checked = 0
    units = [Vector.unit(n, i) for i in range(n)]

    def check(x, y):
        nonlocal checked
        checked += 1
        lhs = pair.eval_q(x + y)
        rhs = pair.eval_q(x) + pair.eval_q(y) + pair.eval_b(x, y)
        if lhs != rhs:
            failures.append((x, y, lhs, rhs))

    for i in range(n):
        for j in range(i, n):
            check(units[i], units[j])
    if samples:
        from .sampling import Sampler

        sampler = rng if isinstance(rng, Sampler) else Sampler(0 if rng is None else rng)
        for _ in range(samples):
            check(sampler.vector(n), sampler.vector(n))
    return ValidationReport(ok=not failures, balanced=pair.balanced,
                            pairs_checked=checked, failures=failures)
