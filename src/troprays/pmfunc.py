"""Exact algebra of piecewise monomial functions on the parameter domain [0, oo].

A pm function is stored over the full domain with sentinel breakpoints:
b_0 = 0 < b_1 < ... < b_r = oo and one (coefficient, degree) pair per cell
[b_{s-1}, b_s], meaning f(lam) = coeff * lam^degree there.  Interior values
are finite and nonzero; the values at the domain endpoints follow the sign
of the adjacent degree and may be 0 or oo.  Continuity at interior
breakpoints is an enforced invariant: constructors reject discontinuous
data.  The constant 0 and constant oo functions are admitted as degenerate
single-segment values so that families containing the zero function can be
compared; they are excluded from the multiplicative operations that would
form 0 * oo.

In reduced (normalized) form adjacent degrees differ; the reduced degree
sequence is an invariant of the function.

The integer lattice.  In log scale the monomial t^c * lam^k is the line
c + k x in the exponent x of lam.  A function keeps its interior breakpoints
and its coefficients as integer numerators over one denominator d (``xs``
and ``cs``) and its degrees as ints (``ks``); every operation runs on these
Python ints; the TropValue views ``breakpoints`` and ``segments`` are built
on first use.

- Two functions are compared on the lattice of D = lcm of their
  denominators.  This is exact because max-plus comparison commutes with
  scaling by a positive integer: D * max(a, b) = max(D a, D b) and
  D (c + k x) = D c + k (D x), so scaling every numerator to D changes no
  order, no equality and no crossing.
- The lines c + i x and c' + j x (i != j) cross at x = (c' - c)/(i - j).
  Over D this point has denominator D |i - j|, so a result with crossings
  lives on the lattice D * L, L the lcm of the degree gaps of its crossings;
  its other numerators are multiplied by L.
- An open cell between lattice points a and b over D is probed at its
  midpoint, the integer a + b over the doubled lattice 2D, so every probe
  is an int.
- Every function is reduced: gcd(d, xs, cs) = 1, so d is the lcm of the
  reduced denominators of its breakpoints and coefficients.  Equal functions
  (equal breakpoints and segments) therefore have equal (d, xs, cs, ks),
  which ``==`` and ``hash`` compare.

Each constructed function runs one continuity check on its integers;
builder results merge equal neighbouring monomials and are thereby already
normal.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd, lcm
from typing import NamedTuple

from .errors import BadSubinterval, DiscontinuousInput, UndefinedProduct
from .semifield import _KFINITE, _KINF, _KZERO, INF, ZERO, TropValue, _lattice, _value


class PmFunction:
    """Piecewise monomial function on [0, oo] with exact rational data.

    ``kind`` is ``_KFINITE`` for an ordinary function and ``_KZERO`` /
    ``_KINF`` for the constant 0 / oo function (then d = 1, xs = (),
    cs = (0,), ks = (0,)).
    """

    __slots__ = ("kind", "d", "xs", "cs", "ks", "_bps", "_segs")

    def __init__(self, breakpoints, segments):
        breakpoints = tuple(breakpoints)
        segments = tuple((c, _degree(k)) for c, k in segments)
        if len(breakpoints) != len(segments) + 1 or not segments:
            raise ValueError("need one segment per breakpoint gap")
        if breakpoints[0] != ZERO or breakpoints[-1] != INF:
            raise ValueError("domain must be the full interval [0, oo]")
        for a, b in zip(breakpoints, breakpoints[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        if any(not c.is_finite() for c, _ in segments):
            if len(segments) != 1 or segments[0][1] != 0:
                raise ValueError("0/oo coefficients only in constant functions")
            self._set_constant(segments[0][0].kind)
            return
        d, nums = _lattice([*breakpoints[1:-1], *(c for c, _ in segments)])
        cut = len(breakpoints) - 2
        self._set(d, tuple(nums[:cut]), tuple(nums[cut:]),
                  tuple(k for _, k in segments))

    def _set(self, d, xs, cs, ks):
        """Store lattice data in lowest terms after the continuity check."""
        g = gcd(d, *xs, *cs)
        if g > 1:
            d //= g
            xs = tuple([x // g for x in xs])
            cs = tuple([c // g for c in cs])
        prev = None
        for s, x in enumerate(xs):
            if prev is not None and not prev < x:
                raise ValueError("breakpoints must be strictly increasing")
            left = cs[s] + ks[s] * x
            right = cs[s + 1] + ks[s + 1] * x
            if left != right:
                raise DiscontinuousInput(
                    f"segments disagree at breakpoint {_value(x, d)}: "
                    f"{_value(left, d)} != {_value(right, d)}")
            prev = x
        self.kind = _KFINITE
        self.d, self.xs, self.cs, self.ks = d, xs, cs, ks
        self._bps = self._segs = None

    def _set_constant(self, kind):
        self.kind = kind
        self.d, self.xs, self.cs, self.ks = 1, (), (0,), (0,)
        self._bps = self._segs = None

    # -- views -------------------------------------------------------------------

    @property
    def breakpoints(self) -> tuple:
        """(0, b_1, ..., b_{r-1}, oo) as TropValues."""
        if self._bps is None:
            d = self.d
            self._bps = (ZERO, *[_value(x, d) for x in self.xs], INF)
        return self._bps

    @property
    def segments(self) -> tuple:
        """One (coeff: TropValue, degree) pair per cell."""
        if self._segs is None:
            if self.kind != _KFINITE:
                self._segs = ((ZERO if self.kind == _KZERO else INF, 0),)
            else:
                d = self.d
                self._segs = tuple([(_value(c, d), k) for c, k in zip(self.cs, self.ks)])
        return self._segs

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value: TropValue) -> "PmFunction":
        if not value.is_finite():
            return _ZERO_FN if value.is_zero() else _INF_FN
        return _make(value.den, (), (value.num,), (0,))

    @classmethod
    def monomial(cls, coeff: TropValue, degree: int) -> "PmFunction":
        if not coeff.is_finite():
            raise ValueError("monomial coefficients must be finite and nonzero")
        return _make(coeff.den, (), (coeff.num,), (_degree(degree),))

    @classmethod
    def from_monomials(cls, terms) -> "PmFunction":
        """Upper envelope (tropical sum) of (coeff, degree) monomials; zero
        coeffs are dropped."""
        lattice = []
        for coeff, degree in terms:
            if coeff.is_infinite():
                raise ValueError("monomial coefficients must be finite and nonzero")
            lattice.append((coeff.num, coeff.den, _degree(degree)))
        return _hull(lattice)

    # -- basic queries ---------------------------------------------------------

    def is_constant_zero(self) -> bool:
        return self.kind == _KZERO

    def is_constant_inf(self) -> bool:
        return self.kind == _KINF

    def _ends(self) -> tuple:
        """The kinds of the values at 0 and at oo."""
        if self.kind != _KFINITE:
            return self.kind, self.kind
        k0, k1 = self.ks[0], self.ks[-1]
        return (_KZERO if k0 > 0 else _KINF if k0 < 0 else _KFINITE,
                _KINF if k1 > 0 else _KZERO if k1 < 0 else _KFINITE)

    def eval(self, lam: TropValue) -> TropValue:
        if self.kind != _KFINITE:
            return ZERO if self.kind == _KZERO else INF
        if lam.kind != _KFINITE:
            at_inf = lam.kind == _KINF
            k = self.ks[-1] if at_inf else self.ks[0]
            if k == 0:
                return _value(self.cs[-1] if at_inf else self.cs[0], self.d)
            return INF if (k > 0) == at_inf else ZERO
        p, q = lam.num, lam.den
        d = self.d
        pd = p * d
        # the cell of lam = p/q: the breakpoints x/d below it are those with x < pd/q
        s = bisect_left(self.xs, -(-pd // q))
        return _value(self.cs[s] * q + self.ks[s] * pd, d * q)

    def reduced_degrees(self) -> tuple:
        return self.normalize().ks

    # -- normal form -------------------------------------------------------------

    def normalize(self) -> "PmFunction":
        """Merge adjacent cells of equal degree (the reduced subdivision)."""
        ks = self.ks
        keep = [s for s in range(1, len(ks)) if ks[s] != ks[s - 1]]
        if len(keep) == len(ks) - 1:
            return self
        return _make(self.d, tuple([self.xs[s - 1] for s in keep]),
                     tuple([self.cs[s] for s in [0, *keep]]),
                     tuple([ks[s] for s in [0, *keep]]))

    def _key(self) -> tuple:
        return self.kind, self.d, self.xs, self.cs, self.ks

    def __eq__(self, other) -> bool:
        if not isinstance(other, PmFunction):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def equivalent(self, other: "PmFunction") -> bool:
        """Equality of normalized forms, i.e. equality as functions."""
        return self.normalize()._key() == other.normalize()._key()

    def __repr__(self) -> str:
        bps = self.breakpoints
        parts = [f"[{bps[k]},{bps[k + 1]}]:{c!r}*x^{d}"
                 for k, (c, d) in enumerate(self.segments)]
        return "pm{" + "; ".join(parts) + "}"

    # -- algebra -----------------------------------------------------------------

    def scale(self, c: TropValue) -> "PmFunction":
        if not c.is_finite():
            raise ValueError("scaling coefficients must be finite and nonzero")
        if self.kind != _KFINITE:
            return self
        p, q = c.num, c.den
        D = lcm(self.d, q)
        s, shift = D // self.d, p * (D // q)
        return _make(D, tuple([x * s for x in self.xs]),
                     tuple([v * s + shift for v in self.cs]), self.ks)

    def add(self, other: "PmFunction") -> "PmFunction":
        return _envelope(self, other, take_max=True)

    def min_(self, other: "PmFunction") -> "PmFunction":
        return _envelope(self, other, take_max=False)

    def mul(self, other: "PmFunction") -> "PmFunction":
        for f, g in ((self, other), (other, self)):
            if f.kind == _KZERO:
                if _KINF in g._ends():
                    raise UndefinedProduct("0 * oo arises in the product")
                return f
            if f.kind == _KINF:
                if _KZERO in g._ends():
                    raise UndefinedProduct("oo * 0 arises in the product")
                return f
        D, f, g = _common(self, other)
        runs = _Runs()
        for _, hi, cf, kf, cg, kg in _refine(f, g):
            runs.cell(_point(hi), (cf + cg, kf + kg))
        return _function(D, runs)

    def invert(self) -> "PmFunction":
        """Pointwise reciprocal; requires the function nonzero on ]0, oo[."""
        if self.kind != _KFINITE:
            raise ValueError("cannot invert a constant 0 / oo function")
        return _make(self.d, self.xs, tuple([-c for c in self.cs]),
                     tuple([-k for k in self.ks]))

    def image(self) -> tuple:
        """(min, max) of the function over [0, oo], attained at breakpoints."""
        values = [self.eval(ZERO), self.eval(INF)]
        inner = [c + k * x for x, c, k in zip(self.xs, self.cs, self.ks)]
        if inner:
            values += [_value(min(inner), self.d), _value(max(inner), self.d)]
        return min(values), max(values)

    # -- composition and restriction -----------------------------------------------

    def compose(self, inner: "PmFunction") -> "PmFunction":
        """The composite self(inner(lam)), again piecewise monomial."""
        if inner.kind != _KFINITE:
            return PmFunction.constant(self.eval(ZERO if inner.kind == _KZERO else INF))
        return _compose(self, inner.d, inner.xs, inner.cs, inner.ks)

    def restrict(self, zeta: TropValue, eta: TropValue) -> "PmFunction":
        """The function of the subinterval [pi(zeta), pi(eta)] in its own parameter:
        the composite with the clamp mu -> max(zeta, min(mu*eta, eta)).

        An infinite eta means the second base point is the original one,
        giving the clamp mu -> max(zeta, mu).
        """
        if not zeta < eta:
            raise BadSubinterval("restriction needs zeta < eta")
        D = lcm(*[v.den for v in (zeta, eta) if v.is_finite()])
        z, e = [v.num * (D // v.den) if v.is_finite() else None for v in (zeta, eta)]
        # the clamp in log scale: the constant z up to z - e, the line e + x
        # (x when eta = oo) up to 0, the constant e after
        line = 0 if e is None else e
        xs, cells = [], [(line, 1)]
        if z is not None:
            xs.append(z - line)
            cells.insert(0, (z, 0))
        if e is not None:
            xs.append(0)
            cells.append((e, 0))
        return _compose(self, D, xs, *zip(*cells))

    # -- comparison ------------------------------------------------------------------

    def compare(self, other: "PmFunction") -> tuple:
        """Partition [0, oo] into maximal runs of constant sign against `other`.

        Returns a tuple of :class:`SignPiece`.  Crossing parameters between
        monomial cells of different degree are computed exactly as
        (delta/gamma)^(1/(i-j)); which side of a crossing is closed is decided
        by exact evaluation, never by convention.
        """
        return tuple(SignPiece(*run) for run in sign_runs((self, other)))

    def has_glen(self) -> tuple | None:
        """The maximal open interval where f dips below both endpoint values.

        With c = min(f(0), f(oo)) this is the first maximal run of f < c,
        absent when f never goes below c.
        """
        c = min(self.eval(ZERO), self.eval(INF))
        for piece in self.compare(PmFunction.constant(c)):
            if piece.sign == "<":
                return (piece.lo, piece.hi)
        return None


def _degree(k) -> int:
    """The one entry rule for degrees: an int, not a bool; no truncation."""
    if isinstance(k, int) and not isinstance(k, bool):
        return k
    raise TypeError(f"degree {k!r} is not an int")


def _make(d, xs, cs, ks) -> PmFunction:
    """A function from lattice data, through its one continuity check."""
    f = object.__new__(PmFunction)
    f._set(d, xs, cs, ks)
    return f


def _compose(f: PmFunction, d, xs, cs, ks) -> PmFunction:
    """f(h(lam)) for the finite inner function h with lattice data (d, xs, cs, ks).

    On cells where h has degree i != 0 it maps the cell bijectively onto its
    value range (root closure), so breakpoints of f pull back exactly through
    lam = (u/coeff)^(1/i).
    """
    if f.kind != _KFINITE:
        return f
    D = lcm(f.d, d)
    ux, uc, uk = _on(f, D)
    s = D // d
    # pulled-back points (u - gamma)/i lie on D * L; probes on its double
    L = lcm(*[abs(i) for i in ks if i])
    ux2 = [u * 2 * L for u in ux]
    runs = _Runs()
    bounds = [None, *[x * s * L for x in xs], None]
    for j, (gamma, i) in enumerate(zip(cs, ks)):
        gamma *= s
        lo, hi = bounds[j], bounds[j + 1]
        if i == 0:
            seg = bisect_left(ux, gamma)
            runs.cell(_point(hi), ((uc[seg] + uk[seg] * gamma) * L, 0))
            continue
        # the values gamma + i x over the cell, as (lowest, highest) over D
        ends = [None if x is None else gamma + i * (x // L) for x in (lo, hi)]
        vlo, vhi = ends if i > 0 else ends[::-1]
        cuts = sorted((u - gamma) * (L // i) for u in ux
                      if (vlo is None or vlo < u) and (vhi is None or u < vhi))
        for a, b in zip([lo, *cuts], [*cuts, hi]):
            seg = bisect_left(ux2, gamma * 2 * L + i * _probe(a, b))
            k = uk[seg]
            runs.cell(_point(b), ((uc[seg] + k * gamma) * L, k * i))
    return _function(D * L, runs)


def _hull(monomials) -> PmFunction:
    """Upper envelope of the lattice monomials (num, den, degree): the
    coefficient is t^(num/den), and a num of None is the zero, dropped.

    One pass over the monomials sorted by degree, on the lcm of their
    denominators, keeps the lines c + k x of the upper hull; consecutive
    hull lines meet at the breakpoints.
    """
    monomials = [m for m in monomials if m[0] is not None]
    if not monomials:
        return _ZERO_FN
    D = lcm(*[den for _, den, _ in monomials])
    best = {}
    for num, den, k in monomials:
        c = num * (D // den)
        if k not in best or best[k] < c:
            best[k] = c
    hull = []
    for k in sorted(best):
        c = best[k]
        # the last hull line is dropped when the new, steeper line
        # overtakes the one before it no later than the last one does
        while len(hull) > 1:
            (c0, k0), (c1, k1) = hull[-2], hull[-1]
            if (c0 - c) * (k1 - k0) > (c0 - c1) * (k - k0):
                break
            hull.pop()
        hull.append((c, k))
    runs = _Runs()
    for (c, k), (c1, k1) in zip(hull, hull[1:]):
        runs.cell(_crossing(c, k, c1, k1), (c, k))
    runs.cell(None, hull[-1])
    return _function(D, runs)


def _constant(kind) -> PmFunction:
    f = object.__new__(PmFunction)
    f._set_constant(kind)
    return f


_ZERO_FN = _constant(_KZERO)
_INF_FN = _constant(_KINF)


class SignPiece(NamedTuple):
    """One maximal run of constant sign inside a comparison of two functions."""

    lo: TropValue
    lo_closed: bool
    hi: TropValue
    hi_closed: bool
    sign: str

    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "]"
        rb = "]" if self.hi_closed else "["
        return f"{lb}{self.lo}, {self.hi}{rb}: {self.sign}"


def crossing_points(f: PmFunction, g: PmFunction) -> list:
    """Exact crossing parameters of f against g inside refined cells."""
    if f.kind != _KFINITE or g.kind != _KFINITE:
        return []
    D, f, g = _common(f, g)
    out = []
    for lo, hi, cf, kf, cg, kg in _refine(f, g):
        if kf != kg:
            n, den = _crossing(cf, kf, cg, kg)
            if (lo is None or lo * den < n) and (hi is None or n < hi * den):
                out.append(_value(n, den * D))
    return out


def sign_runs(fns, zero_end: bool = True, inf_end: bool = True) -> list:
    """Maximal runs of constant pairwise signs of the functions along [0, oo].

    Returns (lo, lo_closed, hi, hi_closed, signs) runs with TropValue ends,
    where signs is a string with one of "<", "=", ">" per pair k < l of
    `fns`, ordered by k, then l.  Without `zero_end` (`inf_end`) the point 0
    (oo) belongs to no run and the first (last) run is open there.

    The runs are cut at the zeros of f_k - f_l: crossings inside the cells
    of the common refinement and the ends of cells where two functions
    agree, all on the family's common lattice widened by the lcm of the
    crossings' degree gaps.  Each cell is labelled at one probe on the
    doubled lattice.  The constant 0 and oo functions, and the values 0 and
    oo at the domain ends, are read as -M and M for an M above every finite
    value at any probe.
    """
    live = [f for f in fns if f.kind == _KFINITE]
    D = lcm(*[f.d for f in live])
    lattice = [_on(f, D) for f in live]
    zeros = set()
    for a, f in enumerate(lattice):
        for g in lattice[a + 1:]:
            for lo, hi, cf, kf, cg, kg in _refine(f, g):
                if kf == kg:
                    if cf == cg:
                        zeros.update((x, 1) for x in (lo, hi) if x is not None)
                    continue
                n, den = _crossing(cf, kf, cg, kg)
                if (lo is None or lo * den <= n) and (hi is None or n <= hi * den):
                    c = gcd(n, den)
                    zeros.add((n // c, den // c))
    L = lcm(*[den for _, den in zeros])
    points = sorted({n * (L // den) for n, den in zeros})
    s = 2 * L
    table = [([x * s for x in xs], [c * s for c in cs], ks) for xs, cs, ks in lattice]
    reach = 2 * max([abs(p) for p in points], default=0) + 2
    far = 1 + max([abs(c) for _, cs, _ in table for c in cs], default=0) \
        + max([abs(k) for _, _, ks in table for k in ks], default=0) * reach
    live_rows = iter(table)
    table = [next(live_rows) if f.kind == _KFINITE
             else ((), (far if f.kind == _KINF else -far,), (0,)) for f in fns]

    def at(v):
        values = []
        for xs, cs, ks in table:
            j = bisect_left(xs, v)
            values.append(cs[j] + ks[j] * v)
        return _signs(values)

    def at_end(j):
        # j = 0 at 0, j = -1 at oo; a nonzero degree sends the value to 0 or oo
        return _signs([cs[j] if not ks[j] else far if (ks[j] > 0) == (j < 0) else -far
                       for _, cs, ks in table])

    labels = [at_end(0)]
    lo = None
    for p in points:
        labels += at(_probe(lo, p)), at(2 * p)
        lo = p
    labels += at(_probe(lo, None)), at_end(-1)
    return _cut(points, D * L, labels, zero_end, inf_end)


def row_runs(rows, den: int, degree: int, zero_end: bool = True,
             inf_end: bool = True) -> list:
    """Maximal runs of constant pairwise signs of two-monomial rows along [0, oo].

    A row (A, B) of ints over `den` is N(lam) = max(t^(A/den),
    t^(B/den) lam^degree), degree > 0: in log scale the constant A and the
    line B + degree x; A or B is None for the zero, (None, None) is the zero
    function.  The runs have the form of :func:`sign_runs`.  At oo each row
    is read divided by lam^degree, as B, so the runs are those of the ratios
    N_k / p for any pm function p finite and nonzero on ]0, oo[ (and at 0
    with `zero_end`) with degree `degree` at oo.

    Candidate lemma: every isolated zero of N_i - N_j and every end of an
    interval where they agree is a point x = (A_i - B_j)/degree, i and j in
    either order, where N_i = A_i and N_j = B_j + degree x.  Proof: at x both
    take one value v, each through its constant or its line.  If one goes
    through its constant and the other through its line, x is that point.
    If both go through their constants (lines), they agree near x unless one
    of them leaves its constant (line) at x; by continuity its line
    (constant) takes v there too, so x is that point again.  Over den the
    candidate is the int A_i - B_j on the lattice degree * den.

    The cut is per pair, and a pair has at most one candidate of its own: the
    point A_i - B_j needs B_i <= B_j and A_j <= A_i, the point A_j - B_i the
    reverse, so both exist only for equal rows, and then they coincide.  The
    pair's signs follow from its four entries, the zero below every finite
    value.  At the candidate both rows take A_i: "=".  Left of it N_i = A_i
    and N_j < A_i unless A_j = A_i: ">" or "=".  Right of it N_j is the line
    B_j + degree x and N_i is below it unless B_i = B_j: "<" or "=" (mirrored
    for A_j - B_i).  A pair without a candidate keeps one sign on ]0, oo[,
    read at x = 0 as max(A_i, B_i) against max(A_j, B_j).  The ends read A
    at 0 and B at oo.  Each pair's signs are spread over the 2n + 3 cells of
    the cut at all n candidates as one column string, in the layout of
    :func:`_cut`, and a cell's label joins the pairs' columns there.
    """
    # the zero is read as low, below every entry
    low = min([v for row in rows for v in row if v is not None], default=0) - 1
    rows = [(low if a is None else a, low if b is None else b) for a, b in rows]
    cuts, points = [], set()
    for i, (a, b) in enumerate(rows):
        for c, e in rows[i + 1:]:
            zero = ">" if a > c else "<" if a < c else "="
            inf = ">" if b > e else "<" if b < e else "="
            # the constant of one row meets the line of the other, both maxima
            if low < a and low < e and b <= e and c <= a:
                points.add(a - e)
                cuts.append((a - e, zero, ">" if c < a else "=", "<" if b < e else "=", inf))
            elif low < c and low < b and e <= b and a <= c:
                points.add(c - b)
                cuts.append((c - b, zero, "<" if a < c else "=", ">" if e < b else "=", inf))
            else:
                x, y = a if a > b else b, c if c > e else e
                cuts.append((None, zero, ">" if x > y else "<" if x < y else "=", None, inf))
    points = sorted(points)
    size = 2 * len(points) + 3
    cell = {p: 2 * i + 2 for i, p in enumerate(points)}
    columns = [zero + left * (size - 2) + inf if p is None else
               zero + left * (cell[p] - 1) + "=" + right * (size - 2 - cell[p]) + inf
               for p, zero, left, right, inf in cuts]
    labels = list(map("".join, zip(*columns))) if columns else [""] * size
    return _cut(points, degree * den, labels, zero_end, inf_end)


def _cut(points, den, labels, zero_end, inf_end) -> list:
    """The runs of `labels` along [0, oo] cut at the sorted int `points` over
    `den`.  The labels are those of the 2n + 3 cells of the cut at the n
    points, from 0 to oo: the point 0, the open cell ]0, p_0[, the point
    p_0, ..., the open cell ]p_(n-1), oo[ and the point oo; the labels of the
    two ends are read only when the end is kept.  A run's ends are the only
    TropValues made."""
    n = len(points)
    first, stop = (0 if zero_end else 1), (2 * n + 3 if inf_end else 2 * n + 2)
    runs, lo, hi, at = [], ZERO, ZERO, 0
    for j in range(first + 1, stop):
        if labels[j] != labels[j - 1]:
            # cell j starts a run at the point j // 2 of 0, p_0, ..., oo
            if j // 2 != at:
                at = j // 2
                hi = INF if at > n else _value(points[at - 1], den)
            runs.append((lo, first % 2 == 0, hi, j % 2 == 1, labels[first]))
            lo, first = hi, j
    runs.append((lo, first % 2 == 0, INF, stop % 2 == 1, labels[first]))
    return runs


def _signs(values) -> str:
    """The pairwise signs "<", "=", ">" of values[k] against values[l], k < l,
    ordered by k, then l."""
    return "".join(["=><"[(a > b) - (a < b)]
                    for k, a in enumerate(values) for b in values[k + 1:]])


class _Runs(list):
    """Runs [hi, label] of open cells appended from 0 to oo; a cell with the
    label of the last run extends that run.

    Every pm result is made from these runs: the cells are labelled with
    monomials (c, k) and only their right ends are kept, so equal
    neighbours merge and the result comes out normal.
    """

    __slots__ = ()

    def cell(self, hi, label):
        if self and self[-1][1] == label:
            self[-1][0] = hi
        else:
            self.append([hi, label])


def _point(n, den=1):
    """The run end n/den over the run's lattice; None (oo) stays None."""
    return None if n is None else (n, den)


def _crossing(cf, kf, cg, kg) -> tuple:
    """(n, den) with den > 0: the lines cf + kf x and cg + kg x (kf != kg)
    meet at x = n/den."""
    n, den = cg - cf, kf - kg
    return (-n, -den) if den < 0 else (n, den)


def _function(D, runs) -> PmFunction:
    """The pm function of runs labelled (c, k) over D, each ending at a point
    (n, den); the lattice widens by the lcm of the dens."""
    ends = [hi for hi, _ in runs[:-1]]
    L = lcm(*[den for _, den in ends])
    return _make(D * L, tuple([n * (L // den) for n, den in ends]),
                 tuple([c * L for _, (c, _) in runs]),
                 tuple([k for _, (_, k) in runs]))


def _probe(a, b) -> int:
    """A point of ]a, b[ over the doubled lattice; a = None is 0, b = None oo."""
    if a is None:
        return 0 if b is None else 2 * b - 2
    return 2 * a + 2 if b is None else a + b


def _on(f: PmFunction, D: int) -> tuple:
    """(xs, cs, ks) of f with the numerators over D, a multiple of f.d."""
    s = D // f.d
    if s == 1:
        return f.xs, f.cs, f.ks
    return [x * s for x in f.xs], [c * s for c in f.cs], f.ks


def _common(f: PmFunction, g: PmFunction) -> tuple:
    D = lcm(f.d, g.d)
    return D, _on(f, D), _on(g, D)


def _refine(f, g):
    """The cells of the common refinement of two (xs, cs, ks) on one lattice,
    as (lo, hi, cf, kf, cg, kg); lo is None at 0 and hi None at oo."""
    (fx, fc, fk), (gx, gc, gk) = f, g
    i = j = 0
    nf, ng = len(fx), len(gx)
    lo = None
    while True:
        a = fx[i] if i < nf else None
        b = gx[j] if j < ng else None
        hi = b if a is None or (b is not None and b < a) else a
        yield lo, hi, fc[i], fk[i], gc[j], gk[j]
        if hi is None:
            return
        if a == hi:
            i += 1
        if b == hi:
            j += 1
        lo = hi


def _envelope(f: PmFunction, g: PmFunction, take_max: bool) -> PmFunction:
    for a, b in ((f, g), (g, f)):
        if a.kind == _KZERO:
            return b if take_max else a
        if a.kind == _KINF:
            return a if take_max else b
    D, f, g = _common(f, g)
    runs = _Runs()
    for lo, hi, cf, kf, cg, kg in _refine(f, g):
        end = _point(hi)
        if kf == kg:
            runs.cell(end, (max(cf, cg) if take_max else min(cf, cg), kf))
            continue
        # left of the crossing x = n/den the flatter line is above
        n, den = _crossing(cf, kf, cg, kg)
        flat, steep = ((cg, kg), (cf, kf)) if kf > kg else ((cf, kf), (cg, kg))
        left, right = (flat, steep) if take_max else (steep, flat)
        if hi is not None and n >= hi * den:
            runs.cell(end, left)
        elif lo is not None and n <= lo * den:
            runs.cell(end, right)
        else:
            runs.cell((n, den), left)
            runs.cell(end, right)
    return _function(D, runs)
