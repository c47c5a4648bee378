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

Gram evaluation runs on an integer lattice.  Vectors and models keep their
finite exponents as integer numerators over one common denominator (the
lcm of the exponents' denominators), and q and b take their max-plus sums
beta_ij + x_i + y_j in Python ints over L = the lcm of the denominators
involved.  This is exact because max-plus arithmetic commutes with scaling
by a positive integer: L * max(a, b) = max(L a, L b) and
L * (a + b) = L a + L b, so the scaled maximum divided by L is the rational
maximum itself.  Only the result becomes a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatch, IsotropicArgument, SchemaError, ZeroVector
from .semifield import _KFINITE, ZERO, ONE, TropValue


def _lattice(values) -> tuple:
    """(d, nums): d is the lcm of the finite exponents' denominators and
    nums[k] = d * exponent of values[k], an int, or None for the zero."""
    exps = [v.exp for v in values]
    d = lcm(*[e.denominator for e in exps if e is not None])
    return d, tuple([None if e is None else e.numerator * (d // e.denominator)
                     for e in exps])


class Vector:
    """Immutable coordinate vector over [0, oo[; no coordinate may be oo."""

    __slots__ = ("coords", "_lat")

    def __init__(self, coords):
        coords = tuple(coords)
        for c in coords:
            if c.is_infinite():
                raise ValueError("vector coordinates must lie in [0, oo[")
        self.coords = coords
        # the integer-lattice form of the coordinates, (d, nums) as built by
        # _lattice; computed on the first Gram evaluation, since most vectors
        # (ray representatives, interval points) never reach one
        self._lat = None

    def lattice(self) -> tuple:
        """The coordinates as (d, nums): integer numerators over d."""
        if self._lat is None:
            self._lat = _lattice(self.coords)
        return self._lat

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


def vec(*items) -> Vector:
    """Build a vector from exponents / "-inf" strings; test-friendly."""
    return Vector.parse(items)


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
        q_diag = tuple(TropValue.parse(str(v)) if isinstance(v, (str, int)) else v for v in q_diag)
        b = tuple(
            tuple(TropValue.parse(str(v)) if isinstance(v, (str, int)) else v for v in row)
            for row in b_rows
        )
        return cls(len(q_diag), q_diag, b)

    @property
    def balanced(self) -> bool:
        return all(self.b[i][i] == self.q_diag[i] for i in range(self.dim))

    def _check_dim(self, x: Vector):
        if len(x) != self.dim:
            raise DimensionMismatch("vector has length %d, model dimension is %d" % (len(x), self.dim))

    def eval_q(self, x: Vector) -> TropValue:
        """q(x) = max over alpha_i x_i^2 and beta_ij x_i x_j (i < j)."""
        self._check_dim(x)
        d, qn, rows = self._lat
        dx, xn = x.lattice()
        den = lcm(d, dx)
        sg, sx = den // d, den // dx
        xs = [(i, v * sx) for i, v in enumerate(xn) if v is not None]
        best = None
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
        return ZERO if best is None else TropValue(_KFINITE, Fraction(best, den))

    def eval_b(self, x: Vector, y: Vector) -> TropValue:
        """b(x, y) = max over beta_ij x_i y_j (all i, j)."""
        self._check_dim(x)
        self._check_dim(y)
        d, _, rows = self._lat
        dx, xn = x.lattice()
        dy, yn = y.lattice()
        den = lcm(d, dx, dy)
        sg, sx, sy = den // d, den // dx, den // dy
        ys = [(j, v * sy) for j, v in enumerate(yn) if v is not None]
        best = None
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
        return ZERO if best is None else TropValue(_KFINITE, Fraction(best, den))

    def cs(self, x: Vector, y: Vector) -> TropValue:
        """CS(x, y) = b(x, y)^2 / (q(x) q(y)); requires both anisotropic."""
        qx = self.eval_q(x)
        qy = self.eval_q(y)
        if qx.is_zero() or qy.is_zero():
            raise IsotropicArgument("CS-ratio needs anisotropic arguments")
        bxy = self.eval_b(x, y)
        return (bxy * bxy) / (qx * qy)

    def is_isotropic(self, x: Vector) -> bool:
        """True iff x is nonzero and q(x) = 0."""
        if x.is_zero():
            raise ZeroVector("the zero vector is neither isotropic nor anisotropic")
        return self.eval_q(x).is_zero()


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
