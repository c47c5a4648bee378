import pytest
from hypothesis import settings

from troprays.instances import M1, m1_family, m1_interval
import troprays.quadspace as quadspace

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
    """Gram evaluations made while the test runs, counted at the lattice
    kernel that every one of them runs through: "eval_q" for each q(x)
    (``quadspace._q_max``), "eval_b" for each b(x, y) (``quadspace._dot``)."""
    counts = {"eval_q": 0, "eval_b": 0}
    for kind, name in (("eval_q", "_q_max"), ("eval_b", "_dot")):
        def counted(*args, _kind=kind, _kernel=getattr(quadspace, name)):
            counts[_kind] += 1
            return _kernel(*args)

        monkeypatch.setattr(quadspace, name, counted)
    return counts
