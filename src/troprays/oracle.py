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
failure means corrupted inputs and raises instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction

from .csfun import build_fw
from .pmfunc import PmFunction
from .quadspace import QuadraticPair, Vector, validate_pair
from .rays import Ray, RayInterval
from .sampling import Sampler
from .semifield import INF, ZERO, TropValue


def _fit_monomial(exps, values):
    """The unique integer-degree monomial through the first and last sample,
    or None when none exists or some sample disagrees."""
    slope = (values[-1].exp - values[0].exp) / (exps[-1] - exps[0])
    if slope.denominator != 1:
        return None
    degree = slope.numerator
    coeff = TropValue.finite(values[0].exp - degree * exps[0])
    for e, v in zip(exps[1:-1], values[1:-1]):
        if coeff.exp + degree * e != v.exp:
            return None
    return coeff, degree


def reconstruct_pm(fn, candidates) -> PmFunction:
    """Fit a pm function to point values of `fn`, given a finite set of
    breakpoint candidates that provably contains every true breakpoint.

    Probes each window between consecutive candidates at its endpoints and
    three interior points; the window is monomial by assumption, so the fit
    is exact.  Windows beyond the extreme candidates take their own probes
    two units out.
    """
    cuts = sorted({c.exp for c in candidates if c.is_finite()})
    if cuts:
        walls = [cuts[0] - 2] + cuts + [cuts[-1] + 2]
    else:
        walls = [Fraction(0), Fraction(1)]
    breakpoints = [ZERO]
    segments = []
    for lo, hi in zip(walls, walls[1:]):
        exps = [lo + (hi - lo) * Fraction(i, 4) for i in range(5)]
        values = [fn(TropValue.finite(e)) for e in exps]
        if any(not v.is_finite() for v in values):
            raise ValueError("non-finite interior value; not a CS restriction")
        fit = _fit_monomial(exps, values)
        if fit is None:
            raise ValueError(f"window {lo}..{hi} is not monomial; "
                             "candidate set incomplete")
        if segments and segments[-1] != fit:
            breakpoints.append(TropValue.finite(lo))
            segments.append(fit)
        elif not segments:
            segments.append(fit)
    breakpoints.append(INF)
    return PmFunction(breakpoints, segments).normalize()


def cs_breakpoint_candidates(pair: QuadraticPair, eps1: Vector, eps2: Vector,
                             w: Vector) -> list:
    """Every breakpoint of lam -> CS(ray(eps1 + lam eps2), w) lies here."""
    b1 = pair.eval_b(eps1, w)
    b2 = pair.eval_b(eps2, w)
    a1, a2 = pair.eval_q(eps1), pair.eval_q(eps2)
    a12 = pair.eval_b(eps1, eps2)
    out = [a1 / a12, a12 / a2, (a1 / a2).sqrt()]
    if not (b1.is_zero() and b2.is_zero()):
        out.append(b1 / b2)
    return out


def reconstruct_cs_profile(pair: QuadraticPair, interval: RayInterval,
                           w: Vector) -> PmFunction:
    """The CS restriction rebuilt purely from cs-ratio point values."""
    eps1, eps2 = interval.y1.base, interval.y2.base

    def fn(lam):
        return pair.cs(interval.pi(lam).base, w)

    return reconstruct_pm(fn, cs_breakpoint_candidates(pair, eps1, eps2, w))


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
        n = sampler.rng.randint(1, 12)
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
    report = validate_pair(pair, samples=count, rng=sampler)
    return [f"companion identity: {x!r}, {y!r}: {lhs} != {rhs}"
            for x, y, lhs, rhs in report.failures]


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


def _draw_admissible(pair: QuadraticPair, sampler: Sampler, interval=None) -> tuple:
    """(interval, w) of one f_w check, drawn in this order: the interval
    unless given (distinct, anisotropic ends), then w (anisotropic, not
    orthogonal to both ends).  A failed draw reads None; no w follows a
    failed interval."""
    n = pair.dim
    if interval is None:
        y1 = Ray(sampler.vector(n, p_zero=0.0))
        y2 = Ray(sampler.vector(n, p_zero=0.0))
        if y1 == y2 or pair.eval_q(y1.base).is_zero() or pair.eval_q(y2.base).is_zero():
            return None, None
        interval = RayInterval(y1, y2)
    w = sampler.vector(n)
    if pair.eval_q(w).is_zero() or (pair.eval_b(interval.y1.base, w).is_zero()
                                    and pair.eval_b(interval.y2.base, w).is_zero()):
        return interval, None
    return interval, w


def check_fw_oracle(pair: QuadraticPair, sampler: Sampler, witnesses: int,
                    count: int) -> list:
    failures = []
    interval = None
    for _ in range(witnesses):
        interval, w = _draw_admissible(pair, sampler, interval)
        if interval is None:
            break
        if w is None:
            continue
        profile = build_fw(pair, interval, w)
        # sample points of [0, oo] including all breakpoints of the profile
        for lam in sampler.many_parameters(count, include=profile.f.breakpoints):
            got = profile.f.eval(lam)
            want = pair.cs(interval.pi(lam).base, w)
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
    failures = []
    for _ in range(count):
        interval, w = _draw_admissible(pair, sampler)
        if w is None:
            continue
        profile = build_fw(pair, interval, w)
        rebuilt = reconstruct_cs_profile(pair, interval, w)
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
