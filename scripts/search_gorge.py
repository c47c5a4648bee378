#!/usr/bin/env python3
"""Search for junction processes that do not stop within a generous budget.

Sweeps random balanced models and anchor families, runs the process on all
sampled source pairs, and tallies the step counts.  Run from the repository
root with PYTHONPATH=src.

Outcome of the recorded runs (seeds 0..9, ~6000 scenarios over two- and
five-function families, budget 50): every process stopped, all within one
effective step.  This matches the discreteness argument: over rational
exponents with a common denominator all entrance scalars live on a fixed
lattice, so a bounded strictly increasing chain is impossible, and an
unbounded one contradicts the convexity of the source stratum.
"""

import itertools
import sys

from troprays.csfun import _Bound
from troprays.errors import TropraysError
from troprays.frontier import FrontierPair
from troprays.quadspace import Vector
from troprays.rays import Ray
from troprays.sampling import Sampler
from troprays.strata import BasicFunction, _strata_of, example_family


def main(seed: int, trials: int) -> int:
    sampler = Sampler(seed, num_bound=7, den_bound=1)
    histogram = {}
    for trial in range(trials):
        dim = 3
        pair = sampler.anisotropic_pair(dim, balanced=True)
        y1, y2 = Ray(Vector.unit(dim, 0)), Ray(Vector.unit(dim, 1))
        if trial % 2:
            family = (BasicFunction.cs(y1), BasicFunction.cs(y2))
        else:
            try:
                family = example_family(pair, y1, y2)
            except TropraysError:
                continue
        # q has a finite diagonal, so every ray and anchor is anisotropic
        groups = _strata_of(_Bound(pair, family),
                            [Ray(sampler.vector(dim, p_zero=0.3)) for _ in range(14)])
        for t_vec, t_prime in itertools.permutations(groups, 2):
            sources = groups[t_vec]
            targets = groups[t_prime]
            if len(sources) < 2:
                continue
            frontier = FrontierPair(pair, family, t_vec, t_prime)
            for (w, wp), u in itertools.product(
                    itertools.combinations(sources[:3], 2), targets[:2]):
                try:
                    rep = frontier.junction_process(w, wp, u, max_iter=50)
                except TropraysError:
                    continue
                key = (rep.outcome, rep.steps if rep.outcome == "junction" else "-")
                histogram[key] = histogram.get(key, 0) + 1
                if rep.outcome == "gorge":
                    print("NON-STOPPING SCENARIO:")
                    print("  q:", [str(v) for v in pair.q_diag])
                    print("  b:", [[str(v) for v in row] for row in pair.b])
                    print("  W:", w, " W':", wp, " U:", u)
                    return 0
    print("histogram:", {str(k): v for k, v in sorted(histogram.items(),
                                                      key=str)})
    print("no non-stopping process found")
    return 1


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 150
    sys.exit(main(seed, trials))
