import pytest
from hypothesis import settings

from troprays.instances import M1, m1_family, m1_interval
from troprays.quadspace import QuadraticPair

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


@pytest.fixture
def gram_calls(monkeypatch):
    """Gram evaluations made while the test runs, counted at the one lattice
    primitive QuadraticPair._gram: "eval_q" for q(x), "eval_b" for b(x, y)."""
    counts = {"eval_q": 0, "eval_b": 0}
    original = QuadraticPair._gram

    def counted(self, x, y=None):
        counts["eval_q" if y is None else "eval_b"] += 1
        return original(self, x, y)

    monkeypatch.setattr(QuadraticPair, "_gram", counted)
    return counts
