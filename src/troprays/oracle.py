"""Independent sampling oracles: pm reconstruction from point values and
the cross-check suite behind the `oracle` CLI command.

The reconstruction never runs the pm algebra: it only evaluates the CS-ratio
at exact rational parameters.  Soundness comes from a structural fact about
tropical ratios: a kink of N/D is a kink of N or of D, so every breakpoint
of a CS restriction lies in the four-element candidate set

    { b(eps1,w)/b(eps2,w),  q(eps1)/b(eps1,eps2),
      b(eps1,eps2)/q(eps2), sqrt(q(eps1)/q(eps2)) }

(discarding non-finite entries).  Between consecutive candidates the
function is guaranteed monomial, so fitting one integer-degree monomial
through the endpoints and checking it on interior probes is exact; a fit
failure means corrupted inputs and raises instead of guessing.  The fit runs
on int numerators: with the candidates over one denominator D, the probes of
a window [lo, hi] are (4 lo + i (hi - lo)) / 4D, and the slope and the
coefficient are exact integer divisions on one common denominator.

The oracle evaluates q and b with a Gram kernel of its own, so that a fault
in the library's kernel (``quadspace``), which ``build_fw`` and the traces
run on, shows as a disagreement instead of hiding on both sides.
``_Gram`` reads the model's Gram exponents once from ``q_diag`` and ``b`` as
(i, j, numerator) terms over one denominator; a ``_Lattice`` puts those
terms and a call's vectors on the lcm L of all their denominators, where q
is the max over gamma_ij + x_i + x_j, the column B (x) w has entry i the max
over beta_ij + w_j, and b(x, w) is the max over x_i plus that column, all in
plain ints.  This is exact because max-plus arithmetic commutes with
scaling by a positive integer: L max(a, b) = max(L a, L b) and
L (a + b) = L a + L b.  Along an interval, ``_Along`` keeps one lattice per
parameter denominator q, holding eps1, eps2, the column of w and q(w), and
evaluates CS(pi(t^(p/q)), w) as x_i = max(eps1_i, p L/q + eps2_i), then one
max for q(x) and one for b(x, w).  It forms no ``Ray``: the CS-ratio does
not change when its argument is rescaled, so the unnormalised sum serves.
"""

from __future__ import annotations

from itertools import chain
from math import lcm

from .csfun import build_fw
from .errors import DimensionMismatch, IsotropicArgument, TropraysError
from .pmfunc import PmFunction
from .quadspace import QuadraticPair, Vector
from .rays import Ray, RayInterval
from .sampling import Sampler
from .semifield import INF, ZERO, TropValue, _value


class _Gram:
    """A model's Gram exponents as int terms (i, j, numerator) over one
    denominator ``den``: ``q_terms`` holds alpha_i at j = i and beta_ij at
    j > i, ``b_terms`` every beta_ij; zero entries are left out."""

    __slots__ = ("dim", "den", "q_terms", "b_terms", "_scaled")

    def __init__(self, pair: QuadraticPair):
        n = pair.dim
        q_cells = [(i, j, pair.q_diag[i] if i == j else pair.b[i][j])
                   for i in range(n) for j in range(i, n)]
        b_cells = [(i, j, pair.b[i][j]) for i in range(n) for j in range(n)]
        self.dim, self._scaled = n, {}
        self.den = den = lcm(*[v.den for _, _, v in q_cells + b_cells if v.is_finite()])
        self.q_terms, self.b_terms = [[(i, j, v.num * (den // v.den)) for i, j, v in cells
                                       if v.is_finite()] for cells in (q_cells, b_cells)]

    def on(self, den: int) -> tuple:
        """(q terms, b terms) with numerators over den, a multiple of self.den."""
        hit = self._scaled.get(den)
        if hit is None:
            s = den // self.den
            hit = self._scaled[den] = ([(i, j, c * s) for i, j, c in self.q_terms],
                                       [(i, j, c * s) for i, j, c in self.b_terms])
        return hit


def _top(values):
    """The max-plus sum of lattice values: their max, None for the zero."""
    best = None
    for v in values:
        if v is not None and (best is None or best < v):
            best = v
    return best


class _Lattice:
    """The model and the vectors of one call on one denominator ``den``, the
    lcm of all their denominators and of ``dens``; ``nums`` holds each
    vector's numerators on it, None for a zero coordinate."""

    __slots__ = ("den", "nums", "_q_terms", "_b_terms")

    def __init__(self, gram: _Gram, vectors, *dens: int):
        for v in vectors:
            if len(v.nums) != gram.dim:
                raise DimensionMismatch(f"vector has length {len(v.nums)}, "
                                        f"model dimension is {gram.dim}")
        self.den = den = lcm(gram.den, *dens, *[v.d for v in vectors])
        self.nums = [[None if x is None else x * (den // v.d) for x in v.nums]
                     for v in vectors]
        self._q_terms, self._b_terms = gram.on(den)

    def q(self, xs):
        """q(x): the max over gamma_ij + x_i + x_j."""
        best = None
        for i, j, c in self._q_terms:
            xi, xj = xs[i], xs[j]
            if xi is not None and xj is not None:
                v = c + xi + xj
                if best is None or best < v:
                    best = v
        return best

    def column(self, ws) -> list:
        """B (x) w: entry i is the max over beta_ij + w_j."""
        col = [None] * len(ws)
        for i, j, c in self._b_terms:
            wj = ws[j]
            if wj is not None:
                v = c + wj
                ci = col[i]
                if ci is None or ci < v:
                    col[i] = v
        return col

    @staticmethod
    def b(xs, col):
        """b(x, w) from the column of w: the max over x_i + col_i."""
        best = None
        for x, c in zip(xs, col):
            if x is not None and c is not None:
                v = x + c
                if best is None or best < v:
                    best = v
        return best


class _Along:
    """lam -> CS(pi(lam), w) on the interval [ray(eps1), ray(eps2)], in ints:
    one lattice per denominator q of lam holds eps1, eps2, the column of w,
    q(w) and the step L/q, so that t^(p/q) shifts eps2 by p L/q."""

    __slots__ = ("_model", "_vectors", "_by_den")

    def __init__(self, gram: _Gram, eps1: Vector, eps2: Vector, w: Vector):
        self._model, self._vectors, self._by_den = gram, (eps1, eps2, w), {}

    def __call__(self, lam: TropValue) -> TropValue:
        hit = self._by_den.get(lam.den)
        if hit is None:
            lat = _Lattice(self._model, self._vectors, lam.den)
            e1, e2, ws = lat.nums
            hit = self._by_den[lam.den] = (lat, e1, e2, lat.column(ws), lat.q(ws),
                                           lat.den // lam.den)
        lat, e1, e2, col, qw, step = hit
        if lam.num is None:
            x = e2 if lam.is_infinite() else e1
        else:
            shift, x = lam.num * step, []
            for a, b in zip(e1, e2):
                if b is not None:
                    b += shift
                    if a is None or a < b:
                        a = b
                x.append(a)
        qx = lat.q(x)
        if qx is None or qw is None:
            raise IsotropicArgument("CS-ratio needs anisotropic arguments")
        bxw = lat.b(x, col)
        return ZERO if bxw is None else _value(2 * bxw - qx - qw, lat.den)


def _fit_monomial(start: int, span: int, den: int, values):
    """The unique integer-degree monomial through the first and last of the
    values at the probes (start + i span) / den, i = 0..4, or None when none
    exists or some value disagrees; on the lcm of den and the values'
    denominators, the slope and the coefficient are exact int divisions."""
    top = lcm(den, *[v.den for v in values])
    s = top // den
    ys = [v.num * (top // v.den) for v in values]
    degree, rest = divmod(ys[-1] - ys[0], 4 * span * s)
    if rest:
        return None
    coeff = ys[0] - degree * start * s
    for i in (1, 2, 3):
        if coeff + degree * (start + i * span) * s != ys[i]:
            return None
    return _value(coeff, top), degree


def reconstruct_pm(fn, candidates) -> PmFunction:
    """Fit a pm function to point values of `fn`, given a finite set of
    breakpoint candidates that provably contains every true breakpoint.

    Probes each window between consecutive candidates at its endpoints and
    three interior points; the window is monomial by assumption, so the fit
    is exact.  Windows beyond the extreme candidates take their own probes
    two units out.
    """
    finite = [c for c in candidates if c.is_finite()]
    den = lcm(*[c.den for c in finite])
    cuts = sorted({c.num * (den // c.den) for c in finite})
    walls = [cuts[0] - 2 * den, *cuts, cuts[-1] + 2 * den] if cuts else [0, den]
    breakpoints = [ZERO]
    segments = []
    for lo, hi in zip(walls, walls[1:]):
        values = [fn(_value(4 * lo + i * (hi - lo), 4 * den)) for i in range(5)]
        if any(not v.is_finite() for v in values):
            raise ValueError("non-finite interior value; not a CS restriction")
        fit = _fit_monomial(4 * lo, hi - lo, 4 * den, values)
        if fit is None:
            raise ValueError(f"window {_value(lo, den)}..{_value(hi, den)} is not monomial; "
                             "candidate set incomplete")
        if segments and segments[-1] != fit:
            breakpoints.append(_value(lo, den))
            segments.append(fit)
        elif not segments:
            segments.append(fit)
    breakpoints.append(INF)
    return PmFunction(breakpoints, segments).normalize()


def _candidates(gram: _Gram, eps1: Vector, eps2: Vector, w: Vector) -> list:
    """Every breakpoint of lam -> CS(ray(eps1 + lam eps2), w) lies here."""
    lat = _Lattice(gram, (eps1, eps2, w))
    e1, e2, ws = lat.nums
    col = lat.column(ws)
    b1, b2 = _value(lat.b(e1, col), lat.den), _value(lat.b(e2, col), lat.den)
    a1, a2 = _value(lat.q(e1), lat.den), _value(lat.q(e2), lat.den)
    a12 = _value(lat.b(e1, lat.column(e2)), lat.den)
    out = [a1 / a12, a12 / a2, (a1 / a2).sqrt()]
    if not (b1.is_zero() and b2.is_zero()):
        out.append(b1 / b2)
    return out


def _reconstruct(gram: _Gram, interval: RayInterval, w: Vector) -> PmFunction:
    eps1, eps2 = interval.y1.base, interval.y2.base
    return reconstruct_pm(_Along(gram, eps1, eps2, w), _candidates(gram, eps1, eps2, w))


def reconstruct_cs_profile(pair: QuadraticPair, interval: RayInterval,
                           w: Vector) -> PmFunction:
    """The CS restriction rebuilt purely from cs-ratio point values."""
    return _reconstruct(_Gram(pair), interval, w)


def detect_regions(f: PmFunction):
    """Maximal initial and final constancy intervals of a reconstructed pm."""
    f = f.normalize()
    if len(f.segments) == 1:
        return (ZERO, INF), (ZERO, INF)
    region_a = (ZERO, f.breakpoints[1]) if f.segments[0][1] == 0 else (ZERO, ZERO)
    region_c = (f.breakpoints[-2], INF) if f.segments[-1][1] == 0 else (INF, INF)
    return region_a, region_c


# -- the cross-check suite -------------------------------------------------------


def check_semifield_laws(sampler: Sampler, count: int) -> list:
    failures = []
    for _ in range(count):
        a, b, c = sampler.extended_value(), sampler.extended_value(), sampler.extended_value()
        if a + b not in (a, b):
            failures.append(f"bipotency: {a} + {b}")
        if (a + b) + c != a + (b + c):
            failures.append(f"add associativity: {a}, {b}, {c}")
        if a + b != b + a:
            failures.append(f"add commutativity: {a}, {b}")
        x, y = sampler.value(), sampler.value()
        n = sampler.randint(1, 12)
        if x.root(n) ** n != x:
            failures.append(f"root inverse: {x}, n={n}")
        if (x * y).inverse() != x.inverse() * y.inverse():
            failures.append(f"inverse morphism: {x}, {y}")
        if x < y:
            mid = (x * y).sqrt()
            if not (x < mid < y):
                failures.append(f"density: {x}, {y}")
    return failures


def check_companion(pair: QuadraticPair, sampler: Sampler, count: int) -> list:
    """q(x + y) = q(x) + q(y) + b(x, y) on every basis pair (e_i, e_j), i <= j,
    then on `count` drawn pairs."""
    gram, n = _Gram(pair), pair.dim
    units = [Vector.unit(n, i) for i in range(n)]
    basis = [(units[i], units[j]) for i in range(n) for j in range(i, n)]
    failures = []
    for x, y in chain(basis, ((sampler.vector(n), sampler.vector(n)) for _ in range(count))):
        lat = _Lattice(gram, (x, y))
        xs, ys = lat.nums
        lhs = lat.q([_top(c) for c in zip(xs, ys)])
        rhs = _top([lat.q(xs), lat.q(ys), lat.b(xs, lat.column(ys))])
        if lhs != rhs:
            failures.append(f"companion identity: {x!r}, {y!r}: "
                            f"{_value(lhs, lat.den)} != {_value(rhs, lat.den)}")
    return failures


def check_reverse_identity(pair: QuadraticPair, sampler: Sampler, count: int) -> list:
    failures = []
    n = pair.dim
    for _ in range(count):
        y1 = Ray(sampler.vector(n))
        y2 = Ray(sampler.vector(n))
        if y1 == y2:
            continue
        interval = RayInterval(y1, y2)
        lam = sampler.parameter()
        if not interval.reverse_identity_check(lam):
            failures.append(f"reverse identity at {lam} on {interval!r}")
    return failures


def _draw_admissible(gram: _Gram, sampler: Sampler, interval=None) -> tuple:
    """(interval, w) of one f_w check, drawn in this order: the interval
    unless given (distinct, anisotropic ends), then w (anisotropic, not
    orthogonal to both ends).  A failed draw reads None; no w follows a
    failed interval."""
    n = gram.dim
    if interval is None:
        y1 = Ray(sampler.vector(n, p_zero=0.0))
        y2 = Ray(sampler.vector(n, p_zero=0.0))
        if y1 == y2:
            return None, None
        lat = _Lattice(gram, (y1.base, y2.base))
        if lat.q(lat.nums[0]) is None or lat.q(lat.nums[1]) is None:
            return None, None
        interval = RayInterval(y1, y2)
    w = sampler.vector(n)
    lat = _Lattice(gram, (interval.y1.base, interval.y2.base, w))
    e1, e2, ws = lat.nums
    col = lat.column(ws)
    if lat.q(ws) is None or (lat.b(e1, col) is None and lat.b(e2, col) is None):
        return interval, None
    return interval, w


def check_fw_oracle(pair: QuadraticPair, sampler: Sampler, witnesses: int,
                    count: int) -> list:
    gram = _Gram(pair)
    failures = []
    interval = None
    for _ in range(witnesses):
        interval, w = _draw_admissible(gram, sampler, interval)
        if interval is None:
            break
        if w is None:
            continue
        try:
            profile = build_fw(pair, interval, w)
        except TropraysError as ex:
            failures.append(f"{type(ex).__name__} for w={w!r}: {ex}")
            continue
        cs = _Along(gram, interval.y1.base, interval.y2.base, w)
        # sample points of [0, oo] including all breakpoints of the profile
        for lam in sampler.many_parameters(count, include=profile.f.breakpoints):
            got = profile.f.eval(lam)
            want = cs(lam)
            if got != want:
                failures.append(f"f_w mismatch at {lam}: {got} != {want}")
    return failures


def check_pm_identity(sampler: Sampler, count: int) -> list:
    failures = []
    for _ in range(count):
        f = sampler.pm_function()
        g = sampler.pm_function()
        lhs = f.add(g).mul(f.min_(g))
        if not lhs.equivalent(f.mul(g)):
            failures.append(f"(f+g)(f^g) != fg for {f!r}, {g!r}")
    return failures


def check_regions(pair: QuadraticPair, sampler: Sampler, count: int) -> list:
    gram = _Gram(pair)
    failures = []
    for _ in range(count):
        interval, w = _draw_admissible(gram, sampler)
        if w is None:
            continue
        try:
            profile = build_fw(pair, interval, w)
            rebuilt = _reconstruct(gram, interval, w)
        except (TropraysError, ValueError) as ex:
            failures.append(f"{type(ex).__name__} for w={w!r}: {ex}")
            continue
        if not profile.f.equivalent(rebuilt):
            failures.append(f"profile differs from reconstruction for w={w!r}")
            continue
        region_a, region_c = detect_regions(rebuilt)
        if (region_a, region_c) != (profile.region_a, profile.region_c):
            failures.append(f"regions differ from reconstruction for w={w!r}")
    return failures


def run_suite(pair: QuadraticPair, seed: int, samples: int) -> dict:
    """The full cross-check suite; keys are check names, values failure lists."""
    sampler = Sampler(seed)
    return {
        "semifield_laws": check_semifield_laws(sampler, samples),
        "companion_identity": check_companion(pair, sampler, min(samples, 500)),
        "reverse_identity": check_reverse_identity(pair, sampler, min(samples, 300)),
        "fw_oracle": check_fw_oracle(pair, sampler, 5, min(samples, 200)),
        "pm_identity": check_pm_identity(sampler, min(samples, 100)),
        "regions": check_regions(pair, sampler, min(samples, 25)),
    }
