"""The lattice sampler against the frozen Fraction sampler.

troprays.sampling draws each exponent as two ints and builds the value on the
lattice; tests/sampling_reference.py builds a Fraction from the same two ints.
Seeded scenarios, oracle documents and the benchmark inputs depend on every
draw, so over many seeds each draw must be equal, and so must the random
state after it.
"""

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
