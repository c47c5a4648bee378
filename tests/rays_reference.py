"""The switch-point implementation of RayInterval.locate, frozen for differential tests.

This is troprays.rays.RayInterval.locate as it stood before it moved onto the
pm sign-run engine: a case analysis on TropValues between the coordinate
switch points eps1_i / eps2_j, with a midpoint probe, the dominant term of
each coordinate and one solved candidate per piece.  tests/test_rays.py runs
both on seeded intervals and targets and requires equal answers.  Keep it
unchanged; it is the reference, not library code.
"""

from __future__ import annotations

from troprays.semifield import INF, ZERO, TropValue, midpoint


def locate(interval, z) -> TropValue | None:
    """The smallest lam with interval.pi(lam) = z, or None when z is off it."""
    if z == interval.y1:
        return ZERO
    eps1, eps2 = interval.y1.base, interval.y2.base
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
        if interval.pi(candidate) == z:
            return candidate
    if interval.pi(INF) == z:
        return INF
    return None
