"""The Fraction-drawing Sampler, frozen for differential tests.

This is troprays.sampling as it stood before the sampler drew straight onto
the integer lattice: each exponent is built as a fractions.Fraction from two
``randint`` draws and handed to ``TropValue.finite``.  tests/test_sampling.py
draws from both over many seeds and requires equal values, vectors, models,
parameters and pm functions, and equal ``rng.getstate()`` after every draw.
Keep it unchanged; it is the reference, not library code.
"""

from __future__ import annotations

import random
from fractions import Fraction

from troprays.pmfunc import PmFunction
from troprays.quadspace import QuadraticPair, Vector
from troprays.semifield import INF, ZERO, TropValue


class Sampler:
    """Reproducible source of random semifield data."""

    def __init__(self, seed: int = 0, num_bound: int = 8, den_bound: int = 3):
        self.rng = random.Random(seed)
        self.num_bound = num_bound
        self.den_bound = den_bound

    def exponent(self) -> Fraction:
        return Fraction(self.rng.randint(-self.num_bound, self.num_bound),
                        self.rng.randint(1, self.den_bound))

    def value(self) -> TropValue:
        return TropValue.finite(self.exponent())

    def extended_value(self, p_zero: float = 0.1, p_inf: float = 0.1) -> TropValue:
        u = self.rng.random()
        if u < p_zero:
            return ZERO
        if u < p_zero + p_inf:
            return INF
        return self.value()

    def vector(self, dim: int, p_zero: float = 0.15, nonzero: bool = True) -> Vector:
        while True:
            coords = [ZERO if self.rng.random() < p_zero else self.value()
                      for _ in range(dim)]
            v = Vector(coords)
            if not nonzero or not v.is_zero():
                return v

    def anisotropic_pair(self, dim: int, balanced: bool | None = None) -> QuadraticPair:
        """Random model with finite diagonal (hence q anisotropic)."""
        q_diag = [self.value() for _ in range(dim)]
        b = [[ZERO] * dim for _ in range(dim)]
        for i in range(dim):
            make_balanced = balanced if balanced is not None else self.rng.random() < 0.5
            if make_balanced:
                b[i][i] = q_diag[i]
            else:
                below = self.value()
                b[i][i] = min(below, q_diag[i])
            for j in range(i + 1, dim):
                entry = ZERO if self.rng.random() < 0.1 else self.value()
                b[i][j] = entry
                b[j][i] = entry
        return QuadraticPair(dim, tuple(q_diag), tuple(tuple(r) for r in b))

    def parameter(self, p_zero: float = 0.05, p_inf: float = 0.05) -> TropValue:
        """A point of [0, oo] biased toward finite values."""
        return self.extended_value(p_zero, p_inf)

    def many_parameters(self, count: int, include=()) -> list:
        """`count` distinct points of [0, oo], containing `include`.

        The numerator range scales with the request so that enough distinct
        rationals exist.
        """
        points = set(include)
        bound = max(self.num_bound, 2 * count)
        while len(points) < count:
            exp = Fraction(self.rng.randint(-bound, bound),
                           self.rng.randint(1, self.den_bound * 2))
            points.add(TropValue.finite(exp))
        return sorted(points)

    def pm_function(self, max_cells: int = 4, max_degree: int = 3) -> PmFunction:
        """Random continuous pm function built cell by cell."""
        cells = self.rng.randint(1, max_cells)
        cuts = sorted({self.exponent() for _ in range(cells - 1)})
        breakpoints = [ZERO] + [TropValue.finite(c) for c in cuts] + [INF]
        coeff = self.value()
        degree = self.rng.randint(-max_degree, max_degree)
        segments = [(coeff, degree)]
        for beta in breakpoints[1:-1]:
            new_degree = self.rng.randint(-max_degree, max_degree)
            # continuity pins the next coefficient: c2 = c1 * beta^(d1 - d2)
            coeff = coeff * beta ** (degree - new_degree)
            degree = new_degree
            segments.append((coeff, degree))
        return PmFunction(breakpoints, segments)

    def choice(self, seq):
        return self.rng.choice(seq)
