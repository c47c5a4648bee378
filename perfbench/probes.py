"""Layer probes: fixed work that a traced run adds after its workload round.

:func:`probe_pass` runs the README command list once in-process, so every
layer, ``cli`` and ``oracle`` included, has spans in every traced run.  The
two micro-probes time single operations directly, untraced, in the scaled
CPU time of :mod:`clock`.
"""

from __future__ import annotations

import statistics

REPEATS = 5


def probe_pass():
    from workloads import README, invoke

    for argv in README:
        invoke(argv)


def semifield_op_ns(seed, count=4000) -> float:
    """Median ns per operation of a seeded add / mul / compare / root mix."""
    from troprays.sampling import Sampler

    sampler = Sampler(seed)
    values = [(sampler.extended_value(), sampler.extended_value(), sampler.value(),
               sampler.value(), sampler.rng.randint(1, 12)) for _ in range(count)]

    def mix():
        for a, b, x, y, n in values:
            a + b
            x * y
            a < b
            x.root(n)

    return _median_ns(mix, 4 * count)


def eval_b_us(seed, count=500) -> float:
    """Median microseconds of one eval_b on a seeded dimension-4 model."""
    from troprays.sampling import Sampler

    sampler = Sampler(seed)
    pair = sampler.anisotropic_pair(4)
    vectors = [(sampler.vector(4), sampler.vector(4)) for _ in range(count)]

    def run():
        for x, y in vectors:
            pair.eval_b(x, y)

    return _median_ns(run, count) / 1000


def _median_ns(fn, ops) -> float:
    """Median scaled CPU nanoseconds per operation over REPEATS runs of fn."""
    from clock import Stopwatch

    watch = Stopwatch()
    for _ in range(REPEATS):
        watch.start()
        fn()
        watch.stop("probe")
    return statistics.median(watch.parts()["probe"]) * 1e9 / ops
