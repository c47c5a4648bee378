import pytest
from hypothesis import settings

from troprays.instances import M1, m1_family, m1_interval

# Property tests draw the same examples on every run and carry no per-example
# deadline: their timing on a shared machine says nothing about correctness.
settings.register_profile("troprays", derandomize=True, deadline=None)
settings.load_profile("troprays")


@pytest.fixture(scope="session")
def m1():
    return M1


@pytest.fixture(scope="session")
def m1_iv():
    return m1_interval()


@pytest.fixture(scope="session")
def m1_fam():
    return m1_family()
