"""Seeded random generation of exact values, vectors, models, and pm functions.

Everything is driven by one `random.Random` instance so that runs are fully
reproducible from a seed.  Exponents are rationals with configurable
numerator and denominator bounds, drawn as two ints straight onto the lattice.
"""

from __future__ import annotations

import random
from math import lcm

from .pmfunc import PmFunction
from .quadspace import QuadraticPair, Vector, _vector
from .semifield import INF, ZERO, TropValue, _value


class Sampler:
    """Reproducible source of random semifield data."""

    def __init__(self, seed: int = 0, num_bound: int = 8, den_bound: int = 3):
        self.rng = random.Random(seed)
        self.num_bound = num_bound
        self.den_bound = den_bound

    def randint(self, a: int, b: int) -> int:
        """A uniform int of [a, b], the same draw as ``self.rng.randint(a, b)``:
        CPython's rejection sampling on ``getrandbits`` (3.10-3.13), without
        the argument checks and calls of ``randrange``."""
        n = b - a + 1
        if n < 1:
            raise ValueError(f"empty range [{a}, {b}]")
        getrandbits, k = self.rng.getrandbits, n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return a + r

    def value(self) -> TropValue:
        return _value(self.randint(-self.num_bound, self.num_bound),
                      self.randint(1, self.den_bound))

    def extended_value(self, p_zero: float = 0.1, p_inf: float = 0.1) -> TropValue:
        u = self.rng.random()
        if u < p_zero:
            return ZERO
        if u < p_zero + p_inf:
            return INF
        return self.value()

    def vector(self, dim: int, p_zero: float = 0.15, nonzero: bool = True) -> Vector:
        rng, randint, n, d = self.rng, self.randint, self.num_bound, self.den_bound
        while True:  # each coordinate the zero or the two ints of value(), over their lcm
            draws = [None if rng.random() < p_zero else (randint(-n, n), randint(1, d))
                     for _ in range(dim)]
            den = lcm(*[q for _, q in filter(None, draws)])
            v = _vector(den, tuple([None if x is None else x[0] * (den // x[1]) for x in draws]))
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
            points.add(_value(self.randint(-bound, bound),
                              self.randint(1, self.den_bound * 2)))
        return sorted(points)

    def pm_function(self, max_cells: int = 4, max_degree: int = 3) -> PmFunction:
        """Random continuous pm function built cell by cell."""
        cells = self.randint(1, max_cells)
        cuts = sorted({self.value() for _ in range(cells - 1)})
        breakpoints = [ZERO, *cuts, INF]
        coeff = self.value()
        degree = self.randint(-max_degree, max_degree)
        segments = [(coeff, degree)]
        for beta in breakpoints[1:-1]:
            new_degree = self.randint(-max_degree, max_degree)
            # continuity pins the next coefficient: c2 = c1 * beta^(d1 - d2)
            coeff = coeff * beta ** (degree - new_degree)
            degree = new_degree
            segments.append((coeff, degree))
        return PmFunction(breakpoints, segments)

    def choice(self, seq):
        return self.rng.choice(seq)
