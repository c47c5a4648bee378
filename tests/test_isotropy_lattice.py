"""The isotropy entrance and the q profile against the frozen TropValue
implementation.

isotropy.entrance_stratum and csfun.q_segment_profile read their Gram values
off one lattice frame; tests/isotropy_reference.py computes the same with one
public eval_q / eval_b per value and TropValue arithmetic.  Hypothesis draws
models of dimension 2-4 with an isotropic basis vector, vectors with zero
coordinates and denominators up to 6, eps mostly isotropic, and eta of the
wrong dimension now and then; case, swap, bound, entrance and profile must
be the same, and errors the same type and message.  The draws must reach
every case, a swap and the two input errors.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import isotropy_reference as ref
from troprays.csfun import BasicFunction, q_segment_profile
from troprays.errors import IsotropicArgument
from troprays.isotropy import entrance_stratum
from troprays.quadspace import QuadraticPair, Vector
from troprays.rays import Ray, RayInterval
from troprays.semifield import ZERO, t
from troprays.strata import example_family

exponents = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
finite = exponents.map(t)
values = st.one_of(finite, st.just(ZERO))
# off-diagonal entries, strong ones too: CS(eps2, eps3) > e needs b^2 > q q
couplings = st.one_of(finite, st.just(ZERO), exponents.map(lambda e: t(e + 6)))


def vectors(n):
    """Nonzero vectors of dimension n with zero coordinates, or unit vectors,
    the last one, mostly anisotropic, first."""
    units = st.integers(0, n - 1).map(lambda i: Vector.unit(n, n - 1 - i))
    drawn = st.lists(values, min_size=n, max_size=n).map(Vector)
    return st.one_of(units, drawn, drawn).filter(lambda v: not v.is_zero())


@st.composite
def cases(draw):
    """(pair, family, y2, y3, eps, eta): e_0 is isotropic, and so is each
    further drawn index; eps is a nonzero vector on the isotropic indices,
    or any vector."""
    n = draw(st.integers(2, 4))
    isotropic = {0} | draw(st.sets(st.integers(1, n - 1), max_size=1))
    ortho = draw(st.sets(st.integers(1, n - 1), max_size=1))  # b(e_0, e_j) = 0 there
    q = [ZERO if i in isotropic else draw(finite) for i in range(n)]
    b = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = ZERO if i in isotropic else draw(st.one_of(st.just(q[i]), values))
        for j in range(i + 1, n):
            b[i][j] = b[j][i] = ZERO if i == 0 and j in ortho else draw(couplings)
    pair = QuadraticPair(n, tuple(q), tuple(tuple(row) for row in b))
    on_isotropic = st.lists(values, min_size=n, max_size=n).map(
        lambda cs: Vector([c if i in isotropic else ZERO for i, c in enumerate(cs)]))
    unit = Vector.unit(n, 0)
    eps = draw(st.one_of(st.just(unit), st.just(unit), on_isotropic, vectors(n))
               .filter(lambda v: not v.is_zero()))
    y2, y3 = Ray(draw(vectors(n))), Ray(draw(vectors(n)))
    eta = draw(st.one_of(*[vectors(n)] * 4, st.just(eps),
                         st.sampled_from([n - 1, n + 1]).flatmap(vectors)))
    try:
        family = example_family(pair, y2, y3)
    except IsotropicArgument:  # no canonical family: the zero function alone
        family = (BasicFunction.zero(),)
    return pair, family, y2, y3, eps, eta


def outcome(call):
    """("ok", result) or (error type, message)."""
    try:
        return "ok", call()
    except Exception as ex:  # the error itself is compared
        return type(ex), str(ex)


def read(approach):
    return (approach.case, approach.swapped, approach.t0, approach.strict,
            approach.t_checked, approach.entrance, approach.profile)


def compare(pair, family, y2, y3, eps, eta):
    """The entrance outcome, after both comparisons passed."""
    got = outcome(lambda: read(entrance_stratum(pair, family, y2, y3, eps, eta)))
    assert got == outcome(lambda: ref.entrance_stratum(pair, family, y2, y3, eps, eta))
    profile = outcome(lambda: q_segment_profile(pair, RayInterval(y2, y3)))
    assert profile == outcome(lambda: ref.q_segment_profile(pair, RayInterval(y2, y3)))
    return got


def test_entrance_and_q_profile_match_the_reference():
    reached = set()

    @settings(max_examples=400)
    @given(cases())
    def run(case):
        kind, result = compare(*case)
        if kind == "ok":
            reached.add(result[0])
            if result[1]:
                reached.add("swapped")
        else:
            reached.add(kind.__name__)

    run()
    assert reached >= {"A", "B", "C1", "C2a", "C2b", "swapped", "IllposedApproach",
                       "ValueError"}, reached
