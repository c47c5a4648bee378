"""The TropValue implementation of the pm algebra, frozen for differential tests.

This is troprays.pmfunc as it stood before the algebra moved onto the
integer lattice: every breakpoint and coefficient a TropValue, crossings
and probes computed with Fractions.  tests/test_pm_lattice.py runs each pm
operation on both and requires equal values, text and raised error types.
Keep it unchanged; it is the reference, not library code.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from troprays.errors import BadSubinterval, DiscontinuousInput, UndefinedProduct
from troprays.semifield import INF, ZERO, TropValue, compare_sign, midpoint

Segment = tuple  # (coeff: TropValue, degree: int)


def _mono_eval(coeff: TropValue, degree: int, lam: TropValue) -> TropValue:
    return coeff * lam ** degree


class PmFunction:
    """Piecewise monomial function on [0, oo] with exact rational data."""

    __slots__ = ("breakpoints", "segments")

    def __init__(self, breakpoints, segments):
        breakpoints = tuple(breakpoints)
        segments = tuple((c, int(d)) for c, d in segments)
        if len(breakpoints) != len(segments) + 1 or not segments:
            raise ValueError("need one segment per breakpoint gap")
        if breakpoints[0] != ZERO or breakpoints[-1] != INF:
            raise ValueError("domain must be the full interval [0, oo]")
        for a, b in zip(breakpoints, breakpoints[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        sentinel = any(not c.is_finite() for c, _ in segments)
        if sentinel:
            if len(segments) != 1 or segments[0][1] != 0:
                raise ValueError("0/oo coefficients only in constant functions")
        for s in range(1, len(segments)):
            beta = breakpoints[s]
            left = _mono_eval(*segments[s - 1], beta)
            right = _mono_eval(*segments[s], beta)
            if left != right:
                raise DiscontinuousInput(
                    f"segments disagree at breakpoint {beta}: {left} != {right}"
                )
        self.breakpoints = breakpoints
        self.segments = segments

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value: TropValue) -> "PmFunction":
        return cls((ZERO, INF), ((value, 0),))

    @classmethod
    def monomial(cls, coeff: TropValue, degree: int) -> "PmFunction":
        if not coeff.is_finite():
            raise ValueError("monomial coefficients must be finite and nonzero")
        return cls((ZERO, INF), ((coeff, degree),))

    @classmethod
    def from_monomials(cls, terms) -> "PmFunction":
        """Upper envelope (tropical sum) of monomials; zero coeffs are dropped."""
        acc = None
        for coeff, degree in terms:
            if coeff.is_zero():
                continue
            mono = cls.monomial(coeff, int(degree))
            acc = mono if acc is None else acc.add(mono)
        return acc if acc is not None else cls.constant(ZERO)

    # -- basic queries ---------------------------------------------------------

    def is_constant_zero(self) -> bool:
        return self.segments[0][0].is_zero()

    def is_constant_inf(self) -> bool:
        return self.segments[0][0].is_infinite()

    def segment_at(self, lam: TropValue) -> Segment:
        i = bisect_left(self.breakpoints, lam)
        return self.segments[max(i - 1, 0)]

    def eval(self, lam: TropValue) -> TropValue:
        coeff, degree = self.segment_at(lam)
        return _mono_eval(coeff, degree, lam)

    def __call__(self, lam: TropValue) -> TropValue:
        return self.eval(lam)

    def reduced_degrees(self) -> tuple:
        return tuple(d for _, d in self.normalize().segments)

    def attains_infinity(self) -> bool:
        """True when the function takes the value oo at a domain endpoint."""
        return self.eval(ZERO).is_infinite() or self.eval(INF).is_infinite()

    # -- normal form -------------------------------------------------------------

    def normalize(self) -> "PmFunction":
        """Merge adjacent cells of equal degree (the reduced subdivision)."""
        bps = [ZERO]
        segs = []
        for k, seg in enumerate(self.segments):
            if segs and segs[-1][1] == seg[1]:
                if segs[-1][0] != seg[0]:
                    raise DiscontinuousInput("equal-degree neighbors disagree")
                continue
            if segs:
                bps.append(self.breakpoints[k])
            segs.append(seg)
        bps.append(INF)
        return PmFunction(bps, segs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PmFunction):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.segments == other.segments

    def __hash__(self):
        return hash((self.breakpoints, self.segments))

    def equivalent(self, other: "PmFunction") -> bool:
        """Equality of normalized forms, i.e. equality as functions."""
        a, b = self.normalize(), other.normalize()
        return a.breakpoints == b.breakpoints and a.segments == b.segments

    def __repr__(self) -> str:
        parts = []
        for k, (c, d) in enumerate(self.segments):
            parts.append(f"[{self.breakpoints[k]},{self.breakpoints[k+1]}]:{c!r}*x^{d}")
        return "pm{" + "; ".join(parts) + "}"

    # -- algebra -----------------------------------------------------------------

    def scale(self, c: TropValue) -> "PmFunction":
        if not c.is_finite():
            raise ValueError("scaling coefficients must be finite and nonzero")
        if self.is_constant_zero() or self.is_constant_inf():
            return self
        return PmFunction(self.breakpoints,
                          tuple((c * g, d) for g, d in self.segments))

    def add(self, other: "PmFunction") -> "PmFunction":
        return _envelope(self, other, take_max=True)

    def min_(self, other: "PmFunction") -> "PmFunction":
        return _envelope(self, other, take_max=False)

    def mul(self, other: "PmFunction") -> "PmFunction":
        for f, g in ((self, other), (other, self)):
            if f.is_constant_zero():
                if g.attains_infinity() or g.is_constant_inf():
                    raise UndefinedProduct("0 * oo arises in the product")
                return f
            if f.is_constant_inf():
                if g.eval(ZERO).is_zero() or g.eval(INF).is_zero() or g.is_constant_zero():
                    raise UndefinedProduct("oo * 0 arises in the product")
                return f
        bps, fs, gs = _refine(self, other)
        segs = [(c1 * c2, d1 + d2) for (c1, d1), (c2, d2) in zip(fs, gs)]
        return PmFunction(bps, segs).normalize()

    def invert(self) -> "PmFunction":
        """Pointwise reciprocal; requires the function nonzero on ]0, oo[."""
        if self.is_constant_zero() or self.is_constant_inf():
            raise ValueError("cannot invert a constant 0 / oo function")
        return PmFunction(self.breakpoints,
                          tuple((c.inverse(), -d) for c, d in self.segments))

    def image(self) -> tuple:
        """(min, max) of the function over [0, oo], attained at breakpoints."""
        values = [self.eval(b) for b in self.breakpoints]
        return min(values), max(values)

    # -- composition and restriction -----------------------------------------------

    def compose(self, inner: "PmFunction") -> "PmFunction":
        """The composite self(inner(lam)), again piecewise monomial.

        On cells where the inner function has degree i != 0 it maps the cell
        bijectively onto its value range (root closure), so breakpoints of the
        outer function pull back exactly through lam = (u/coeff)^(1/i).
        """
        f = inner
        if f.is_constant_zero() or f.is_constant_inf():
            return PmFunction.constant(self.eval(f.segments[0][0]))
        cells = _PmBuilder()
        for k, (gamma, i) in enumerate(f.segments):
            a, b = f.breakpoints[k], f.breakpoints[k + 1]
            if i == 0:
                cells.emit(b, (self.eval(gamma), 0))
                continue
            va, vb = _mono_eval(gamma, i, a), _mono_eval(gamma, i, b)
            lo, hi = (va, vb) if va < vb else (vb, va)
            pulled = []
            for u in self.breakpoints:
                if lo < u < hi and u.is_finite():
                    lam = TropValue.finite((u.exp - gamma.exp) / i)
                    pulled.append(lam)
            pulled.sort()
            cell_bounds = [a] + pulled + [b]
            for t0, t1 in zip(cell_bounds, cell_bounds[1:]):
                if not t0 < t1:
                    continue
                value_probe = _mono_eval(gamma, i, midpoint(t0, t1))
                delta, kdeg = self.segment_at(value_probe)
                cells.emit(t1, (delta * gamma ** kdeg, kdeg * i))
        return cells.function()

    def restrict(self, zeta: TropValue, eta: TropValue) -> "PmFunction":
        """The function of the subinterval [pi(zeta), pi(eta)] in its own parameter.

        g(mu) = f(zeta) for mu <= zeta/eta, f(mu*eta) for zeta/eta <= mu <= e,
        f(eta) for mu >= e; an infinite eta means the second base point is the
        original one, giving g(mu) = f(max(zeta, mu)).
        """
        if not zeta < eta:
            raise BadSubinterval("restriction needs zeta < eta")
        if self.is_constant_zero() or self.is_constant_inf():
            return self
        if zeta.is_zero() and eta.is_infinite():
            return self.normalize()
        cells = _PmBuilder()
        if eta.is_infinite():
            cells.emit(zeta, (self.eval(zeta), 0))
            for k in range(len(self.segments)):
                hi = self.breakpoints[k + 1]
                if hi <= zeta:
                    continue
                cells.emit(hi, self.segments[k])
            return cells.function()

        cut = zeta / eta  # ZERO when zeta is, else finite < e
        if not cut.is_zero():
            cells.emit(cut, (self.eval(zeta), 0))
        for k, (gamma, i) in enumerate(self.segments):
            a, b = self.breakpoints[k], self.breakpoints[k + 1]
            lo, hi = max(a, zeta), min(b, eta)
            if not lo < hi:
                continue
            cells.emit(hi / eta, (gamma * eta ** i, i))
        cells.emit(INF, (self.eval(eta), 0))
        return cells.function()

    # -- comparison ------------------------------------------------------------------

    def compare(self, other: "PmFunction") -> tuple:
        """Partition [0, oo] into maximal runs of constant sign against `other`.

        Returns a tuple of :class:`SignPiece`.  Crossing parameters between
        monomial cells of different degree are computed exactly as
        (delta/gamma)^(1/(i-j)); which side of a crossing is closed is decided
        by exact evaluation, never by convention.
        """
        points = set(self.breakpoints) | set(other.breakpoints)
        points.update(crossing_points(self, other))
        runs = _runs(_cells(sorted(points)),
                     lambda lam: compare_sign(self.eval(lam), other.eval(lam)))
        return tuple(SignPiece(*run) for run in runs)

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


@dataclass(frozen=True)
class SignPiece:
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


def _cells(points) -> list:
    """The point cells [p, p] and open cells ]p, p'[ cut out by sorted points,
    in order, as (lo, hi, is_point) triples."""
    out = []
    for p, q in zip(points, points[1:]):
        out += ((p, p, True), (p, q, False))
    out.append((points[-1], points[-1], True))
    return out


def _runs(cells, label) -> list:
    """Merge consecutive cells with equal label(probe), probe a parameter in
    the cell, into [lo, lo_closed, hi, hi_closed, label] runs."""
    runs = []
    for lo, hi, is_point in cells:
        value = label(lo if is_point else midpoint(lo, hi))
        if runs and runs[-1][4] == value:
            runs[-1][2:4] = hi, is_point
        else:
            runs.append([lo, is_point, hi, is_point, value])
    return runs


def crossing_points(f: PmFunction, g: PmFunction) -> list:
    """Exact crossing parameters of f against g inside refined cells."""
    if any(p.is_constant_zero() or p.is_constant_inf() for p in (f, g)):
        return []
    bps, fs, gs = _refine(f, g)
    out = []
    for k in range(len(fs)):
        (gamma, i), (delta, j) = fs[k], gs[k]
        if i == j:
            continue
        lam = TropValue.finite((delta.exp - gamma.exp) / (i - j))
        if bps[k] < lam < bps[k + 1]:
            out.append(lam)
    return out


def _spread(f: PmFunction, bps) -> list:
    out = []
    idx = 0
    for k in range(len(bps) - 1):
        while f.breakpoints[idx + 1] <= bps[k]:
            idx += 1
        out.append(f.segments[idx])
    return out


def _refine(f: PmFunction, g: PmFunction):
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    return bps, _spread(f, bps), _spread(g, bps)


class _PmBuilder:
    """The cells of a pm function, appended from 0 to oo.

    A cell carrying the same monomial as its left neighbour extends that
    neighbour; :meth:`function` closes the last cell at oo.
    """

    __slots__ = ("bps", "segs")

    def __init__(self):
        self.bps = [ZERO]
        self.segs = []

    def emit(self, hi: TropValue, seg: Segment):
        if self.segs and self.segs[-1] == seg:
            self.bps[-1] = hi
        else:
            self.bps.append(hi)
            self.segs.append(seg)

    def function(self) -> PmFunction:
        self.bps[-1] = INF
        return PmFunction(self.bps, self.segs).normalize()


def _envelope(f: PmFunction, g: PmFunction, take_max: bool) -> PmFunction:
    for a, b in ((f, g), (g, f)):
        if a.is_constant_zero():
            return b if take_max else a
        if a.is_constant_inf():
            return a if take_max else b
    bps, fs, gs = _refine(f, g)
    cells = _PmBuilder()
    for k in range(len(fs)):
        a, b = bps[k], bps[k + 1]
        (gamma, i), (delta, j) = fs[k], gs[k]
        if i == j:
            winner = max(gamma, delta) if take_max else min(gamma, delta)
            cells.emit(b, (winner, i))
            continue
        lam = TropValue.finite((delta.exp - gamma.exp) / (i - j))
        if a < lam < b:
            # for lam' < lam the sign of f - g matches the sign of bigger degree side
            f_below_left = i > j
            left, right = ((delta, j), (gamma, i)) if f_below_left else ((gamma, i), (delta, j))
            if not take_max:
                left, right = right, left
            cells.emit(lam, left)
            cells.emit(b, right)
        else:
            probe = midpoint(a, b)
            fv, gv = _mono_eval(gamma, i, probe), _mono_eval(delta, j, probe)
            pick_f = (fv >= gv) if take_max else (fv <= gv)
            cells.emit(b, (gamma, i) if pick_f else (delta, j))
    return cells.function()
