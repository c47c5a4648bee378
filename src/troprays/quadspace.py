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
A model is immutable: ``QuadraticPair`` checks its Gram data and computes
its lattice form once, in ``__init__``, and assigning a field raises
AttributeError, since a changed field would leave that form stale.

The integer lattice.  A vector is stored only as (d, nums): nums[k] is d
times the exponent of coordinate k, an int, or None for the zero
coordinate, reduced so that gcd(d, nums) = 1.  Equal vectors thus have equal
(d, nums), whatever built them, and ``==`` and ``hash`` compare these ints;
the TropValue view ``coords`` and the hash are built on first use.  Models
keep their Gram data as numerators over one denominator too.  Every
operation runs in Python ints over L, the lcm of the denominators involved,
in one pass with one reduction at the end (``_vector``, which skips the
gcd pass over L = 1 and ends it once the gcd is 1): a sum takes the
coordinatewise max of the numerators over L = lcm(d, d') in one loop,
scaling them only when d != d', a scaling by t^(p/q) adds p L/q to every
numerator over L = lcm(d, q), and q and b take their max-plus sums
beta_ij + x_i + y_j over the lcm of the model's and the vectors'
denominators.  This is exact because max-plus arithmetic commutes with
scaling by a positive integer: L * max(a, b) = max(L a, L b) and
L * (a + b) = L a + L b, so the scaled maximum divided by L is the rational
maximum itself.  ``+`` with an operand that is not a Vector, and ``scale``
(or ``lam * x``) with a scalar that is not a TropValue, raise TypeError.

The one Gram primitive is an int kernel: ``_q_max`` for q(x) (the max over
gamma_ij + x_i + x_j, i <= j, off the model's q rows: alpha_i at j = i,
beta_ij at j > i), ``_column`` for the column B (x) x (entry j the max over
beta_ij + x_i) and ``_dot`` for b(x, y), the max of that column plus y.  A
call that needs several Gram values builds one ``_Frame``: the model and
every vector of the call on one denominator, with one entry per distinct
vector that holds its numerators and q, so that each b after a column is an
O(n) maximum.  A family bound to the model (``csfun._Bound``) owns one frame
built with its live terms; that frame, and the finer frames it hands out per
lattice denominator (``over``), also keep a vector's column and the family
numerators N(v) on its entry, for as long as the binding lives.  The CS
layers (csfun, strata, isotropy) read their Gram values off frames only and
work on these ints; only the views ``eval_q``, ``eval_b``, ``cs`` and
``coords`` build TropValues, themselves reduced int pairs, the first two
through ``QuadraticPair._gram``, which compares the vector lengths inline
(``_check`` runs only on a mismatch), reads a vector's numerators as they
are when its d is the lattice's, and leaves one value to reduce.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from .errors import DimensionMismatch, IsotropicArgument, SchemaError, ZeroVector
from .semifield import ZERO, TropValue, _lattice, _new, _value, value_of


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
        return cls(value_of(s) for s in items)

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
        """The coordinatewise maximum, taken on the numerators over lcm(d, d')
        in one pass."""
        if not isinstance(other, Vector):
            return NotImplemented
        xs, ys = self.nums, other.nums
        if len(xs) != len(ys):
            raise DimensionMismatch("vector dimensions differ")
        d = self.d
        if d == other.d:
            return _vector(d, tuple([y if x is None else x if y is None or y < x else y
                                     for x, y in zip(xs, ys)]))
        d = lcm(d, other.d)
        sx, sy = d // self.d, d // other.d
        return _vector(d, tuple([(y if y is None else y * sy) if x is None
                                 else x * sx if y is None or y * sy < x * sx else y * sy
                                 for x, y in zip(xs, ys)]))

    def scale(self, lam: TropValue) -> "Vector":
        """lam * x; lam must lie in [0, oo[ so no coordinate becomes oo.

        A finite lam = p/q adds p L/q to every numerator over L = lcm(d, q)."""
        if not isinstance(lam, TropValue):
            raise TypeError(f"a vector scales by a TropValue, not {type(lam).__name__}")
        if lam.kind:  # 0 or oo
            if lam.kind > 0:
                raise ValueError("scalars must lie in [0, oo[")
            return _vector(1, (None,) * len(self.nums))
        q = lam.den
        d = lcm(self.d, q)
        s, shift = d // self.d, lam.num * (d // q)
        return _vector(d, tuple([None if x is None else x * s + shift for x in self.nums]))

    __rmul__ = scale

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
    if d > 1:
        g = d
        for x in nums:
            if x is not None:
                g = gcd(g, x)
                if g == 1:
                    break
        if g > 1:
            d //= g
            nums = tuple([None if x is None else x // g for x in nums])
    v = _new(Vector)
    v.d, v.nums, v._coords, v._hash = d, nums, None, None
    return v


def vec(*items) -> Vector:
    """Build a vector from ints and text such as "1/2" or "-inf" (``value_of``)."""
    return Vector.parse(items)


class _Frozen:
    """An immutable record that validates its arguments: ``__init__`` checks
    them and sets the slots once through ``_set``; ``==``, ``hash`` and
    ``repr`` read the fields named in ``_fields``, assignment and deletion
    raise AttributeError, and a copy or pickle rebuilds through ``__init__``."""

    __slots__ = ()
    _fields = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._key()

    def __repr__(self) -> str:
        return type(self).__qualname__ + "(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"


class QuadraticPair(_Frozen):
    """Gram data for a quadratic form q with bilinear companion b; immutable,
    so that its lattice form ``_lat`` never goes stale."""

    __slots__ = ("dim", "q_diag", "b", "_lat")
    _fields = ("dim", "q_diag", "b")

    def __init__(self, dim: int, q_diag: tuple, b: tuple):
        if dim < 1:
            raise SchemaError("dimension must be >= 1")
        if len(q_diag) != dim or len(b) != dim:
            raise SchemaError("Gram data sizes do not match the dimension")
        for row in b:
            if len(row) != dim:
                raise SchemaError("companion matrix is not square")
        for i in range(dim):
            for j in range(i + 1, dim):
                if b[i][j] != b[j][i]:
                    raise SchemaError("companion matrix must be symmetric")
        for v in q_diag:
            if v.is_infinite():
                raise SchemaError("q values must lie in [0, oo[")
        for row in b:
            for v in row:
                if v.is_infinite():
                    raise SchemaError("b values must lie in [0, oo[")
        # integer-lattice Gram data: one denominator d for every entry, each
        # row of the q coefficients (alpha_i at j = i, beta_ij at j > i) and
        # each companion row as its nonzero entries (j, numerator over d)
        n = dim
        d, nums = _lattice([*q_diag, *(v for row in b for v in row)])
        rows = tuple(tuple((j, v) for j, v in enumerate(nums[n * (i + 1):n * (i + 2)])
                           if v is not None) for i in range(n))
        q_rows = tuple(tuple(([] if nums[i] is None else [(i, nums[i])])
                             + [(j, v) for j, v in rows[i] if j > i]) for i in range(n))
        self._set(dim, q_diag, b, (d, q_rows, rows))

    @classmethod
    def from_rows(cls, q_diag, b_rows) -> "QuadraticPair":
        """Gram data from str, int or TropValue entries read by ``value_of``;
        any other entry (a float, say) and bad text raise SchemaError."""
        q_diag = tuple(value_of(v) for v in q_diag)
        b = tuple(tuple(value_of(v) for v in row) for row in b_rows)
        return cls(len(q_diag), q_diag, b)

    @property
    def balanced(self) -> bool:
        return all(self.b[i][i] == self.q_diag[i] for i in range(self.dim))

    def _check(self, *vectors) -> None:
        for v in vectors:
            if len(v.nums) != self.dim:
                raise DimensionMismatch(f"vector has length {len(v.nums)}, "
                                        f"model dimension is {self.dim}")

    def _gram(self, x: Vector, y: Vector | None = None) -> tuple:
        """The lattice Gram value (num, den): q(x) when y is None, else b(x, y).

        num is den times the exponent of the value, an int, or None for the
        zero; den is the lcm of the model's and the vectors' denominators.
        This is the one- and two-vector case of the kernel :class:`_Frame`
        runs on: ``_q_max`` for q, ``_column`` and ``_dot`` for b.
        """
        d, q_rows, rows = self._lat
        if y is None:
            if len(x.nums) != self.dim:
                self._check(x)
            den = lcm(d, x.d)
            return _q_max(q_rows, den // d, x.nums if den == x.d else _on(x, den)), den
        if len(x.nums) != self.dim or len(y.nums) != self.dim:
            self._check(x, y)
        den = lcm(d, x.d, y.d)
        return _dot(_column(rows, den // d, x.nums if den == x.d else _on(x, den)),
                    y.nums if den == y.d else _on(y, den)), den

    def eval_q(self, x: Vector) -> TropValue:
        """q(x) = max over alpha_i x_i^2 and beta_ij x_i x_j (i < j)."""
        return _value(*self._gram(x))

    def eval_b(self, x: Vector, y: Vector) -> TropValue:
        """b(x, y) = max over beta_ij x_i y_j (all i, j)."""
        return _value(*self._gram(x, y))

    def cs(self, x: Vector, y: Vector) -> TropValue:
        """CS(x, y) = b(x, y)^2 / (q(x) q(y)); requires both anisotropic."""
        frame = _Frame(self, (x, y))
        (xs, qx), (ys, qy) = frame.at(x)[:2], frame.at(y)[:2]
        if qx is None or qy is None:
            raise IsotropicArgument("CS-ratio needs anisotropic arguments")
        b = _dot(frame.column(xs), ys)
        if b is None:
            return ZERO
        return _value(2 * b - qx - qy, frame.den)

    def is_isotropic(self, x: Vector) -> bool:
        """True iff x is nonzero and q(x) = 0."""
        if x.is_zero():
            raise ZeroVector("the zero vector is neither isotropic nor anisotropic")
        return self._gram(x)[0] is None


def _on(v: Vector, den: int):
    """The numerators of v on the lattice den, a multiple of v.d."""
    s = den // v.d
    return v.nums if s == 1 else [None if x is None else x * s for x in v.nums]


def _q_max(q_rows, s: int, xs):
    """q on the lattice: the max over gamma_ij + x_i + x_j (i <= j) of the
    model's q rows (nonzero entries (j, gamma_ij): alpha_i at j = i, beta_ij
    at j > i) times s and the numerators xs."""
    best = None
    for i, xi in enumerate(xs):
        if xi is None:
            continue
        for j, c in q_rows[i]:
            xj = xs[j]
            if xj is not None:
                v = c * s + xi + xj
                if best is None or best < v:
                    best = v
    return best


def _column(rows, s: int, xs) -> list:
    """The column B (x) x on the lattice: entry j is the max over beta_ij + x_i
    of the model's rows (nonzero entries (j, beta_ij)) times s and the
    numerators xs, None for the zero."""
    col = [None] * len(rows)
    for xi, row in zip(xs, rows):
        if xi is None:
            continue
        for j, bij in row:
            v = bij * s + xi
            c = col[j]
            if c is None or c < v:
                col[j] = v
    return col


def _dot(col, ys):
    """b(x, y) on the lattice from the column of x: the max of col_j + y_j."""
    best = None
    for c, y in zip(col, ys):
        if c is not None and y is not None:
            v = c + y
            if best is None or best < v:
                best = v
    return best


class _Frame:
    """A lattice: the model and every vector of a call on one denominator
    ``den``, the lcm of all their denominators (and of ``den``, when given).

    ``at(v)`` is the one entry of v, made when the frame first reads v: the
    list [xs, q, col, N] of v's numerators and q(v) on the lattice, q None for
    the zero, then v's column and its family numerators, None until ``fill``
    forms them.  ``on(v)`` puts v on the lattice with no entry, for a vector
    whose q the call may not need; ``column(xs)`` forms B (x) x, after which
    each b(x, y) is the O(n) maximum ``_dot(col, ys)``.  A vector's dimension
    is checked when the frame first reads it, so errors come in the order the
    caller reads.

    A frame built with a family's live terms ``live``, per function the
    (coeff, anchor vector) of each term with coeff != 0, belongs to a binding
    (``csfun._Bound``, which keeps it as long as it lives): its lattice holds
    the anchors and the coefficients too, ``fill`` forms N(v) on it, and
    ``over(d1, d2)`` hands out the frame of a call's one or two vectors,
    itself when their denominators divide den, else one persistent finer
    frame per lattice denominator with the same terms.  So a vector's q,
    column and N are formed once per lattice however often it is read.
    """

    __slots__ = ("den", "_pair", "_q_rows", "_rows", "_s", "_seen", "_finer", "_live",
                 "_terms")

    def __init__(self, pair: QuadraticPair, vectors=(), den: int = 1, live=()):
        d, self._q_rows, self._rows = pair._lat
        den = lcm(d, den, *[v.d for v in vectors])
        for terms in live:
            for coeff, w in terms:
                den = lcm(den, coeff.den, w.d)
        self.den, self._pair, self._s, self._seen, self._finer = den, pair, den // d, {}, {}
        self._live, self._terms = live, None

    def over(self, d1: int, d2: int = 1) -> "_Frame":
        """The frame of this one's lattice and the denominators d1, d2 of a
        call's vectors, kept per lattice denominator."""
        if not (self.den % d1 or self.den % d2):
            return self
        den = lcm(self.den, d1, d2)
        frame = self._finer.get(den)
        if frame is None:
            frame = self._finer[den] = _Frame(self._pair, den=den, live=self._live)
        return frame

    def on(self, v: Vector):
        """v's numerators on the lattice, its dimension checked."""
        if len(v.nums) != len(self._q_rows):
            self._pair._check(v)
        return _on(v, self.den)

    def at(self, v: Vector) -> list:
        """The entry [xs, q, col, N] of v (see above)."""
        hit = self._seen.get(v)
        if hit is None:
            xs = self.on(v)
            hit = self._seen[v] = [xs, _q_max(self._q_rows, self._s, xs), None, None]
        return hit

    def column(self, xs) -> list:
        return _column(self._rows, self._s, xs)

    def fill(self, at: list, message: str) -> tuple:
        """N(v) for the entry ``at = at(v)``, formed on first use and kept on
        the entry with v's column: for each function the max over its live
        terms (coeff, w) of coeff / q(w) b(v, w)^2, the int
        coeff - q(w) + 2 b(v, w) on the lattice (None for the zero); b(v, w)
        once per distinct anchor.

        The first fill on a frame puts the terms on it: the numerators of each
        distinct anchor, in the order the terms read them, and each term as
        (coeff - q(w), anchor index).  An isotropic anchor raises
        IsotropicArgument(message) and a wrong-dimension one
        DimensionMismatch, before any later anchor is read, and then nothing
        is kept, so the family raises on every read with its caller's message.
        """
        if at[3] is not None:
            return at[3]
        if self._terms is None:
            den, index, entries, terms = self.den, {}, [], []
            for live in self._live:
                row = []
                for coeff, w in live:
                    i = index.get(w)
                    if i is None:
                        i = index[w] = len(entries)
                        entries.append(self.at(w))
                        if entries[i][1] is None:
                            raise IsotropicArgument(message)
                    row.append((coeff.num * (den // coeff.den) - entries[i][1], i))
                terms.append(row)
            self._terms = [entry[0] for entry in entries], terms
        anchors, rows = self._terms
        col = at[2] = _column(self._rows, self._s, at[0])
        bs = [_dot(col, ys) for ys in anchors]
        out = []
        for row in rows:
            best = None
            for c, i in row:
                b = bs[i]
                if b is not None:
                    b = 2 * b + c
                    if best is None or best < b:
                        best = b
            out.append(best)
        at[3] = out = tuple(out)
        return out


class ValidationReport(NamedTuple):
    ok: bool
    balanced: bool
    pairs_checked: int
    failures: list


def validate_pair(pair: QuadraticPair, samples: int = 0, rng=None) -> ValidationReport:
    """Check q(x+y) = q(x) + q(y) + b(x, y) on basis pairs and on `samples`
    random pairs drawn by ``Sampler(rng)``, rng a seed (0 when None).

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

        sampler = Sampler(0 if rng is None else rng)
        for _ in range(samples):
            check(sampler.vector(n), sampler.vector(n))
    return ValidationReport(ok=not failures, balanced=pair.balanced,
                            pairs_checked=checked, failures=failures)
