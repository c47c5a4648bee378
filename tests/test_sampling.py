"""The lattice sampler against the frozen Fraction sampler.

troprays.sampling draws each exponent as two ints and builds the value on the
lattice; tests/sampling_reference.py builds a Fraction from the same two ints.
Seeded scenarios, oracle documents and the benchmark inputs depend on every
draw, so over many seeds each draw must be equal, and so must the random
state after it.
"""

import random

import pytest

import sampling_reference as ref
from troprays.sampling import Sampler

# (method, arguments): every drawing method, defaults and non-defaults
DRAWS = [
    ("value", ()), ("extended_value", ()), ("extended_value", (0.3, 0.3)),
    ("parameter", ()), ("vector", (3,)), ("vector", (2, 0.6, False)),
    ("anisotropic_pair", (3,)), ("anisotropic_pair", (2, True)),
    ("anisotropic_pair", (1, False)), ("many_parameters", (12,)),
    ("pm_function", ()), ("pm_function", (7, 1)), ("choice", ("abcde",)),
]


@pytest.mark.parametrize("bounds", [(8, 3), (3, 2), (40, 1), (5, 12)])
def test_draws_and_states_equal_the_fraction_sampler(bounds):
    for seed in range(50):
        new, old = Sampler(seed, *bounds), ref.Sampler(seed, *bounds)
        for _ in range(4):
            for name, args in DRAWS:
                got, want = getattr(new, name)(*args), getattr(old, name)(*args)
                assert got == want, (bounds, seed, name)
                assert repr(got) == repr(want), (bounds, seed, name)
                assert new.rng.getstate() == old.rng.getstate(), (bounds, seed, name)


def test_many_parameters_with_included_points():
    for seed in range(50):
        new, old = Sampler(seed), ref.Sampler(seed)
        include = [new.value() for _ in range(3)]
        assert include == [old.value() for _ in range(3)]
        assert new.many_parameters(9, include) == old.many_parameters(9, include)
        assert new.rng.getstate() == old.rng.getstate()


# widths 1, 2, powers of two and their neighbours, and ints past one 32-bit word
RANGES = [(0, 0), (7, 7), (0, 1), (0, 3), (0, 4), (-8, 8), (1, 3), (1, 12), (1, 16),
          (-3, 4), (5, 1029), (1, 2 ** 31), (-10 ** 20, 10 ** 20)]


def test_randint_draws_what_random_randint_draws():
    """Sampler.randint is CPython's randint on getrandbits: over many seeds and
    ranges, with random() calls in between, the same ints and the same state."""
    for seed in range(60):
        sampler, rng = Sampler(seed), random.Random(seed)
        for _ in range(3):
            for a, b in RANGES:
                assert sampler.randint(a, b) == rng.randint(a, b), (seed, a, b)
                assert sampler.rng.random() == rng.random(), (seed, a, b)
        assert sampler.rng.getstate() == rng.getstate(), seed
    with pytest.raises(ValueError):
        Sampler(0).randint(1, 0)
