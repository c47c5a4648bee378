"""The lattice frame against per-value Gram evaluation.

csfun._Bound.numerators (traces, restrictions), csfun._Bound.values (values at
a ray, sign vectors) and QuadraticPair.cs put the model and every vector of a call
on one lattice frame (quadspace._Frame); tests/frame_reference.py computes
the same with one QuadraticPair._gram call per value.  Hypothesis draws
models of dimension 1-4 with isotropic basis vectors, vectors with zero
coordinates and denominators up to 6, families with zero coefficients and
anchors repeated from a small pool that holds the interval's ends, and
vectors of the wrong dimension; rows, Gram triples and values must be the
same rationals, and errors the same type and message.

One binding (csfun._Bound) read many times must answer as fresh one-off
calls do: the same sign vectors, traces, values and rows, and the same first
error, whatever the rays read before, on one frame or on several.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import frame_reference as ref
from troprays.csfun import BasicFunction, _Bound
from troprays.quadspace import QuadraticPair, Vector
from troprays.rays import Ray, RayInterval
from troprays.semifield import ZERO, t
from troprays.strata import _sign_vector, _trace, sign_vector_at, stratify_interval

exponents = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
finite = exponents.map(t)
values = st.one_of(st.just(ZERO), finite)


@st.composite
def models(draw):
    """Models of dimension 1-4; q(e_i) and b(e_i, e_i) are 0 for the drawn
    isotropic indices, and any other entry may be 0 too."""
    n = draw(st.integers(1, 4))
    isotropic = draw(st.sets(st.integers(0, n - 1), max_size=n))
    q = [ZERO if i in isotropic else draw(finite) for i in range(n)]
    b = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        b[i][i] = ZERO if i in isotropic else draw(values)
        for j in range(i + 1, n):
            b[i][j] = b[j][i] = draw(values)
    return QuadraticPair(n, tuple(q), tuple(tuple(row) for row in b))


def rays(n):
    """Nonzero vectors of dimension n, mostly, or of a wrong dimension."""
    dims = st.one_of(st.just(n), st.just(n), st.just(n), st.sampled_from([n + 1, max(n - 1, 1)]))
    units = st.tuples(dims, st.integers(0, 3)).map(lambda di: Vector.unit(di[0], di[1] % di[0]))
    drawn = dims.flatmap(lambda m: st.lists(values, min_size=m, max_size=m)).map(Vector)
    return st.one_of(units, drawn).filter(lambda v: not v.is_zero()).map(Ray)


@st.composite
def cases(draw):
    pair = draw(models())
    n = pair.dim
    y1, y2, x = draw(rays(n)), draw(rays(n)), draw(rays(n))
    # the pool holds the ends, by the same object and by an equal copy
    pool = draw(st.lists(st.one_of(rays(n), st.sampled_from([y1, y2, x]),
                                   st.sampled_from([y1, y2]).map(lambda y: Ray(Vector(y.base)))),
                         min_size=1, max_size=4))
    term = st.tuples(values, st.sampled_from(pool))
    functions = st.lists(term, max_size=3).map(lambda terms: BasicFunction(tuple(terms)))
    return pair, y1, y2, x, tuple(draw(st.lists(functions, max_size=4)))


def outcome(call, read):
    """("ok", read(result)) or (error type, message)."""
    try:
        result = call()
    except Exception as ex:  # the error itself is compared
        return type(ex), str(ex)
    return "ok", read(result)


def rational(num, den):
    return None if num is None else Fraction(num, den)


def read_numerators(result):
    rows, den, q = result
    return ([(rational(a, den), rational(b, den)) for a, b in rows],
            [rational(*g) for g in q])


def on_pairs(result):
    """_numerators' Gram triple, ints over den, as the reference's pairs."""
    rows, den, q = result
    return rows, den, tuple((a, den) for a in q)


def read_values(result):
    nums, den = result
    return [rational(n, den) for n in nums]


def compare(pair, y1, y2, x, family):
    eps1, eps2 = y1.base, y2.base
    runs = {
        "numerators": (lambda: on_pairs(_Bound(pair, family).numerators(eps1, eps2)),
                       lambda: ref.numerators(pair, eps1, eps2, family), read_numerators),
        "values": (lambda: _Bound(pair, family).values(x.base),
                   lambda: ref.values_at(pair, family, x), read_values),
        "cs": (lambda: pair.cs(eps1, x.base), lambda: ref.cs(pair, eps1, x.base), str),
    }
    got = {}
    for name, (frame, reference, read) in runs.items():
        got[name] = outcome(frame, read)
        assert got[name] == outcome(reference, read), name
    return got


@settings(max_examples=300)
@given(cases())
def test_frame_matches_per_value_gram(case):
    compare(*case)


# -- named cases ------------------------------------------------------------------

PAIR = QuadraticPair.from_rows(["-inf", "1/2", "-3"],
                               [["-inf", "2/3", "-inf"], ["2/3", "1/2", "1/5"],
                                ["-inf", "1/5", "-3"]])
E1, E2 = Ray(Vector.unit(3, 0)), Ray(Vector.unit(3, 1))
Y = Ray(Vector([t("1/3"), ZERO, t("-5/2")]))


def cs_of(*anchors, coeff=t(0)):
    return BasicFunction(tuple((coeff, a) for a in anchors))


def test_anchor_equal_to_an_end_shares_its_gram_value():
    family = (cs_of(Y), cs_of(E2, Ray(Vector(Y.base)), coeff=t("-1/6")), BasicFunction.zero())
    got = compare(PAIR, Y, E2, Ray(Vector([t(1), t(-1), t(0)])), family)
    assert all(kind == "ok" for kind, _ in got.values()), got


def test_first_error_is_the_parents():
    """An isotropic live anchor before a wrong-dimension one raises
    IsotropicArgument; the other way round, DimensionMismatch."""
    short = Ray(Vector([t(0), t(0)]))
    iso_first = (cs_of(E1), cs_of(short))
    dim_first = (cs_of(short), cs_of(E1))
    got = compare(PAIR, Y, E2, Y, iso_first)
    assert got["numerators"][0].__name__ == "IsotropicArgument"
    got = compare(PAIR, Y, E2, Y, dim_first)
    assert got["numerators"][0].__name__ == "DimensionMismatch"
    # a zero coefficient drops the term before its anchor is read
    got = compare(PAIR, Y, E2, Y, (cs_of(short, E1, coeff=ZERO), cs_of(Y)))
    assert got["numerators"][0] == "ok" and got["values"][0] == "ok"


# -- one binding, read many times -----------------------------------------------


@st.composite
def bound_reads(draw):
    """A model, a family and a list of reads of it: sign vectors, values and
    traces over a list of rays that holds equal copies and copies scaled onto
    other denominators (the same rays with other pointed bases, so several
    frames are live), with indices drawn again and again."""
    pair = draw(models())
    n = pair.dim
    drawn = draw(st.lists(rays(n), min_size=1, max_size=3))
    copies = [Ray(Vector(y.base)) for y in drawn]
    scales = draw(st.lists(st.sampled_from([2, 7, 11]), min_size=len(drawn),
                           max_size=len(drawn)))
    scaled = [Ray(y.base.scale(t(Fraction(1, k)))) for y, k in zip(drawn, scales)]
    pool = drawn + copies + scaled
    anchors = pool + draw(st.lists(rays(n), max_size=2))
    term = st.tuples(values, st.sampled_from(anchors))
    functions = st.lists(term, max_size=3).map(lambda terms: BasicFunction(tuple(terms)))
    family = tuple(draw(st.lists(functions, max_size=4)))
    index = st.integers(0, len(pool) - 1)
    read = st.one_of(st.tuples(st.just("sign"), index), st.tuples(st.just("values"), index),
                     st.tuples(st.just("trace"), index, index))
    return pair, family, pool, draw(st.lists(read, min_size=1, max_size=12))


def read_trace(trace):
    return ([(str(p.signs), p.lo, p.lo_closed, p.hi, p.hi_closed) for p in trace.pieces],
            [(lam, ray.base) for lam, ray in trace.boundaries])


@settings(max_examples=300)
@given(bound_reads())
def test_one_binding_read_many_times_matches_one_off_calls(case):
    """Every read of one binding equals a fresh one-off call, errors (type,
    message, the first one raised) included; values and rows equal the
    per-value reference too, which fixes the order of the checks."""
    pair, family, pool, reads = case
    bound = _Bound(pair, family)
    for kind, *at in reads:
        x = pool[at[0]]
        if kind == "sign":
            got = outcome(lambda: _sign_vector(bound, x), str)
            assert got == outcome(lambda: sign_vector_at(pair, family, x), str)
        elif kind == "values":
            got = outcome(lambda: bound.values(x.base), lambda r: r)
            assert got == outcome(lambda: _Bound(pair, family).values(x.base), lambda r: r)
            assert (outcome(lambda: bound.values(x.base), read_values)
                    == outcome(lambda: ref.values_at(pair, family, x), read_values))
        else:
            try:
                interval = RayInterval(x, pool[at[1]])
            except ValueError:  # one ray twice, or two dimensions
                continue
            got = outcome(lambda: _trace(bound, interval), read_trace)
            assert got == outcome(lambda: stratify_interval(pair, family, interval), read_trace)
            eps1, eps2 = interval.y1.base, interval.y2.base
            assert (outcome(lambda: on_pairs(bound.numerators(eps1, eps2)), read_numerators)
                    == outcome(lambda: ref.numerators(pair, eps1, eps2, family),
                               read_numerators))
