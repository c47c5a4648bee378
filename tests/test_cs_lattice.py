"""The lattice CS layers against the frozen TropValue implementation.

QuadraticPair.cs, BasicFunction.eval, sign_vector_at, cs_restriction_pm and
build_fw run on the kernel and on the reference (tests/cs_reference.py, the
same operations computed with Fractions from TropValue Gram values); the two
must agree in values and in raised error types.  Hypothesis draws models with
isotropic basis vectors and a basis vector orthogonal to the others, vectors
with zero coordinates and fractional exponents, and families with zero
coefficients and anchors repeated from a small pool; the named cases below
pin each of these situations with its expected outcome.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

import cs_reference as ref
from troprays.csfun import BasicFunction, build_fw, cs_restriction_pm
from troprays.errors import IsotropicArgument, IsotropicEndpoint, PerpendicularWitness
from troprays.quadspace import QuadraticPair, Vector, vec
from troprays.rays import Ray, RayInterval
from troprays.semifield import ONE, ZERO, t
from troprays.strata import sign_vector_at, stratify_interval

exponents = st.one_of(st.integers(-4, 4),
                      st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))
finite = exponents.map(t)
values = st.one_of(st.just(ZERO), finite)


@st.composite
def models(draw):
    """Balanced models of dimension 2 or 3; q(e_i) = 0 for the drawn isotropic
    indices, and e_3 orthogonal to e_1 and e_2 when `ortho` is drawn."""
    n = draw(st.integers(2, 3))
    isotropic = draw(st.sets(st.integers(0, n - 1), max_size=2))
    ortho = n == 3 and draw(st.booleans())
    q = [ZERO if i in isotropic else draw(finite) for i in range(n)]
    b = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = q[i]
        for j in range(i + 1, n):
            if not (ortho and j == 2):
                b[i][j] = b[j][i] = draw(values)
    return QuadraticPair(n, tuple(q), tuple(tuple(row) for row in b))


def rays(n):
    units = st.integers(0, n - 1).map(lambda i: Vector.unit(n, i))
    drawn = st.lists(values, min_size=n, max_size=n).map(Vector)
    return st.one_of(units, drawn).filter(lambda v: not v.is_zero()).map(Ray)


@st.composite
def families(draw, n):
    """2-4 functions of 0-3 terms over a pool of 1-3 anchors."""
    pool = draw(st.lists(rays(n), min_size=1, max_size=3))
    term = st.tuples(values, st.sampled_from(pool))
    functions = st.lists(term, max_size=3).map(lambda terms: BasicFunction(tuple(terms)))
    return tuple(draw(st.lists(functions, min_size=2, max_size=4)))


@st.composite
def cases(draw):
    pair = draw(models())
    n = pair.dim
    return pair, draw(rays(n)), draw(rays(n)), draw(rays(n)), draw(families(n))


def outcome(call):
    """(error type, None) or (None, the result)."""
    try:
        return None, call()
    except Exception as ex:  # the error type itself is compared
        return type(ex), None


def profile(p) -> tuple:
    return p.f, p.quasilinear, p.region_a, p.region_b, p.region_c, p.u_w, p.v_w


def live_terms(pair, f):
    """f without its terms of coefficient 0 on an isotropic anchor."""
    return BasicFunction(tuple((c, a) for c, a in f.terms
                               if not (c.is_zero() and pair._gram(a.base)[0] is None)))


def ref_value(pair, f, x):
    """The reference f(x) at an anisotropic x only: values at a ray, like sign
    vectors, live on the anisotropic ray space, also for the zero function,
    whose empty sum the reference evaluates without looking at x."""
    if pair.eval_q(x.base).is_zero():
        raise IsotropicArgument("CS-functions live on the anisotropic ray space")
    return ref.basic_eval(pair, f, x)


def compare(pair, y1, y2, x, family) -> dict:
    """Run every operation on kernel and reference, require equal outcomes,
    and return the kernel outcomes by name."""
    eps1, eps2 = y1.base, y2.base
    # The one excluded case: a term with coefficient 0 drops out of values at
    # a ray before its anchor is looked at, as it does in restrictions and
    # traces, while the reference raises IsotropicArgument on an isotropic
    # anchor whatever its coefficient.  Values are compared with the
    # reference on the family without those terms.  At an isotropic x both
    # raise IsotropicArgument, so there the family stays as it is.
    live = family
    if pair._gram(x.base)[0] is not None:
        live = tuple(live_terms(pair, f) for f in family)
    runs = {
        "cs": (lambda: pair.cs(eps1, x.base), lambda: ref.cs(pair, eps1, x.base)),
        "sign": (lambda: tuple(sign_vector_at(pair, family, x).signs),
                 lambda: ref.sign_vector_at(pair, live, x)),
    }
    for i, (f, g) in enumerate(zip(family, live)):
        runs[f"eval{i}"] = (lambda f=f: f.eval(pair, x),
                            lambda g=g: ref_value(pair, g, x))
    runs["restriction0"] = (lambda: cs_restriction_pm(pair, eps1, eps2, family),
                            lambda: ref.cs_restriction_pm(pair, eps1, eps2, family))
    if y1 != y2:
        interval = RayInterval(y1, y2)
        anchors = dict.fromkeys(a for f in family for a in f.anchors())
        for i, w in enumerate([x, *anchors]):
            runs[f"build_fw{i}"] = (lambda w=w: profile(build_fw(pair, interval, w.base)),
                                    lambda w=w: ref.build_fw(pair, interval, w.base))
    got = {}
    for name, (kernel, reference) in runs.items():
        got[name] = outcome(kernel)
        assert got[name] == outcome(reference), name
    return got


@given(cases())
def test_cs_layers_match_reference(case):
    compare(*case)


# -- named cases ------------------------------------------------------------------

# q(e1) = 0 and b(e1, e3) = b(e2, e3) = 0: e1 is isotropic, e3 orthogonal to e1, e2
EDGE = QuadraticPair.from_rows(
    ["-inf", "1/2", "-3"],
    [["-inf", "2/3", "-inf"], ["2/3", "1/2", "-inf"], ["-inf", "-inf", "-3"]])
E1, E2, E3 = (Ray(Vector.unit(3, i)) for i in range(3))
FRACTIONAL = Ray(vec("1/3", "-inf", "-5/2"))
MIXED = Ray(vec("-7/4", "2/5", "-inf"))


def cs_of(*anchors, coeff=ONE):
    return BasicFunction(tuple((coeff, a) for a in anchors))


def test_zero_coordinates_and_fractional_exponents():
    family = (BasicFunction.zero(), cs_of(FRACTIONAL), cs_of(MIXED, coeff=t(Fraction(-5, 6))))
    got = compare(EDGE, MIXED, FRACTIONAL, Ray(vec("-inf", "1/7", "-2/3")), family)
    assert all(error is None for error, _ in got.values()), got


def test_zero_coefficients():
    family = (cs_of(MIXED, coeff=ZERO), cs_of(MIXED), BasicFunction(((ZERO, E1), (ONE, MIXED))))
    got = compare(EDGE, MIXED, FRACTIONAL, Ray(vec(0, 0, "-inf")), family)
    assert got["eval0"] == (None, ZERO)
    # an isotropic anchor with coefficient 0 drops out of the restriction
    # and of the values at a ray alike
    assert got["restriction0"][0] is None
    assert got["sign"] == (None, tuple("<<="))
    assert got["eval2"] == got["eval1"]


def test_zero_coefficient_on_an_isotropic_anchor_drops_out_of_traces_and_signs():
    """q(e1) = 0: the family (0 CS(e1, -), CS(e2, -)) stratifies [e2, e3] into
    one '<' piece, and the sign vector at every ray of it, e2 included, is
    '<' too, where it used to raise IsotropicArgument."""
    pair = QuadraticPair.from_rows(["-inf", "0", "0"],
                                   [["-inf", "1", "0"], ["1", "0", "1"], ["0", "1", "0"]])
    family = (cs_of(E1, coeff=ZERO), cs_of(E2))
    trace = stratify_interval(pair, family, RayInterval(E2, E3))
    assert [str(p.signs) for p in trace.pieces] == ["<"]
    for z in (E2, E3, trace.interval.pi(t(1)), trace.interval.pi(t(-2))):
        assert str(sign_vector_at(pair, family, z)) == "<"
    assert family[0].eval(pair, E2) == ZERO


def test_repeated_anchors():
    family = (cs_of(MIXED, MIXED), cs_of(MIXED), cs_of(MIXED, coeff=t(-1)), cs_of(FRACTIONAL, MIXED))
    got = compare(EDGE, MIXED, FRACTIONAL, Ray(vec(1, -1, 0)), family)
    assert got["sign"] == (None, tuple("=><><<"))
    assert got["restriction0"][1][0] == got["restriction0"][1][1]


def test_anchor_orthogonal_to_both_ends():
    family = (cs_of(E3), cs_of(E3, MIXED), BasicFunction.zero())
    got = compare(EDGE, E2, MIXED, Ray(vec(0, 0, 0)), family)
    pms = got["restriction0"][1]
    assert pms[0].is_constant_zero() and pms[2].is_constant_zero()
    assert not pms[1].is_constant_zero()
    assert got["build_fw1"][0] is PerpendicularWitness  # w = E3


def test_isotropic_endpoint():
    family = (cs_of(MIXED), cs_of(E2))
    got = compare(EDGE, E1, MIXED, Ray(vec(0, 0, "-inf")), family)
    assert got["restriction0"][0] is None
    assert got["build_fw0"][0] is IsotropicEndpoint


def test_q_vanishing_along_the_interval():
    pair = QuadraticPair.from_rows(["-inf", "-inf", "0"],
                                   [["-inf", "-inf", "0"], ["-inf", "-inf", "1"], ["0", "1", "0"]])
    e1, e2, e3 = (Ray(Vector.unit(3, i)) for i in range(3))
    got = compare(pair, e1, e2, e3, (BasicFunction.zero(), cs_of(e3)))
    assert got["restriction0"][0] is IsotropicArgument


def test_isotropic_anchor():
    family = (BasicFunction.zero(), cs_of(E1))
    got = compare(EDGE, MIXED, FRACTIONAL, Ray(vec(0, 0, 0)), family)
    for name in ("sign", "eval1", "restriction0", "build_fw1"):
        assert got[name][0] is IsotropicArgument, name
    assert got["eval0"] == (None, ZERO)


def test_isotropic_x():
    family = (BasicFunction.zero(), cs_of(MIXED))
    got = compare(EDGE, MIXED, FRACTIONAL, E1, family)
    for name in ("cs", "sign", "eval0", "eval1", "build_fw0"):
        assert got[name][0] in (IsotropicArgument, IsotropicEndpoint), name
    assert got["restriction0"][0] is None
