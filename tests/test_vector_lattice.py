"""Lattice vectors and rays against the frozen TropValue implementation.

Every vector and ray operation runs on the kernel (troprays.quadspace.Vector,
troprays.rays) and on the reference (tests/vector_reference.py, vectors of
TropValues before the lattice); the two must agree in values, text, equality
and raised error types.  Equal vectors reached by different routes (parse,
sum, scaling, canonical representative) must be == with equal hashes.
"""

from fractions import Fraction

from hypothesis import example, given, strategies as st

import semifield_reference as sref
import vector_reference as ref
from troprays.errors import ZeroVector
from troprays.quadspace import QuadraticPair, Vector, vec
from troprays.rays import Ray, RayInterval
from troprays.semifield import INF, ZERO, TropValue, t

BIG = 10 ** 40

exponents = st.one_of(
    st.integers(-6, 6),
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, 10 ** 6)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
finite = exponents.map(t)
values = st.one_of(st.just(ZERO), finite)
scalars = st.one_of(st.just(ZERO), st.just(INF), finite)


def coords(dim=None, allow_inf=False):
    value = st.one_of(values, st.just(INF)) if allow_inf else values
    sizes = st.integers(0, 5) if dim is None else st.just(dim)
    return sizes.flatmap(lambda n: st.lists(value, min_size=n, max_size=n))


def outcome(call):
    """(error type, None) or (None, a comparable rendering of the result)."""
    try:
        result = call()
    except Exception as ex:  # the error type itself is compared
        return type(ex), None
    return None, render(result)


def render(result):
    if isinstance(result, (Vector, ref.Vector)):
        return ("vector", len(result), tuple(result.coords), tuple(result),
                tuple(str(c) for c in result.coords), repr(result), result.is_zero())
    if isinstance(result, (Ray, ref.Ray)):
        return ("ray", render(result.rep), render(result.base), repr(result))
    return result


def check_same(name, kernel, reference):
    """Equal outcomes, and a kernel result == with equal hash to the kernel
    vector rebuilt from the reference result's coordinates."""
    got, want = outcome(kernel), outcome(reference)
    assert got == want, name
    if got[0] is None:
        result, mirror = kernel(), reference()
        if isinstance(result, Ray):
            result, mirror = result.rep, mirror.rep
        rebuilt = Vector(mirror.coords)
        assert result == rebuilt and hash(result) == hash(rebuilt), name


@given(coords(allow_inf=True))
def test_construction_views_and_errors(cs):
    texts = [str(c) for c in cs]
    check_same("init", lambda: Vector(cs), lambda: ref.Vector(cs))
    check_same("parse", lambda: Vector.parse(texts), lambda: ref.Vector.parse(texts))
    check_same("vec", lambda: vec(*texts), lambda: ref.Vector.parse(texts))
    if INF not in cs:
        v = Vector(cs)
        assert v == Vector.parse(texts) and hash(v) == hash(Vector.parse(texts))
        assert [v[i] for i in range(len(v))] == cs


@given(st.integers(1, 5), st.data())
def test_unit(dim, data):
    i = data.draw(st.integers(0, dim - 1))
    check_same("unit", lambda: Vector.unit(dim, i), lambda: ref.Vector.unit(dim, i))


@given(coords(), coords(), st.booleans())
def test_add(xs, ys, same_dim):
    if same_dim:
        ys = (ys + xs)[:len(xs)] if len(ys) < len(xs) else ys[:len(xs)]
    a, b, ra, rb = Vector(xs), Vector(ys), ref.Vector(xs), ref.Vector(ys)
    check_same("add", lambda: a + b, lambda: ra + rb)
    check_same("add reversed", lambda: b + a, lambda: rb + ra)


@given(coords(), scalars)
def test_scale(xs, lam):
    a, ra = Vector(xs), ref.Vector(xs)
    check_same("scale", lambda: a.scale(lam), lambda: ra.scale(lam))
    check_same("rmul", lambda: lam * a, lambda: lam * ra)


@given(coords())
def test_ray_rep(xs):
    check_same("ray", lambda: Ray(Vector(xs)), lambda: ref.Ray(ref.Vector(xs)))


@given(st.integers(1, 4), st.data())
def test_pi(dim, data):
    xs = data.draw(coords(dim))
    ys = data.draw(coords(dim))
    lam = data.draw(scalars)
    try:
        interval = RayInterval(Ray(Vector(xs)), Ray(Vector(ys)))
    except (ZeroVector, ValueError):
        return  # zero vectors and equal rays make no interval
    y1, y2 = ref.Ray(ref.Vector(xs)), ref.Ray(ref.Vector(ys))
    check_same("pi", lambda: interval.pi(lam), lambda: ref.pi(y1, y2, lam))
    check_same("pi base", lambda: interval.pi(lam).base, lambda: ref.pi(y1, y2, lam).base)


@given(coords(), finite, finite)
def test_equal_vectors_by_different_routes(xs, lam, mu):
    """parse, sum, scaling and back, canonical representatives: equal vectors
    are == with equal hashes, and == agrees with the reference."""
    a = Vector(xs)
    lower = t(-abs(lam.exp) - 1)
    routes = [
        a,
        Vector.parse([str(c) for c in xs]),
        a + a,
        a + lower * a,                 # every coordinate of lower*a is below a's
        mu.inverse() * (mu * a),
        (lam * a).scale(mu).scale((lam * mu).inverse()),
    ]
    for v in routes:
        assert v == a and hash(v) == hash(a)
        assert repr(v) == repr(ref.Vector(xs))
    if not a.is_zero():
        assert Ray(lam * a) == Ray(a) and hash(Ray(lam * a)) == hash(Ray(a))
        assert Ray(lam * a).rep == Ray(a + lower * a).rep
        assert Ray(Ray(a).rep).rep == Ray(a).rep


@given(coords(3), coords(3), st.integers(0, 3), scalars)
def test_equality_and_hash_agree_with_reference(xs, ys, shared, lam):
    """ys shares its first coordinates with xs, and is sometimes a multiple."""
    ys = xs[:shared] + ys[shared:]
    if shared == 3 and not lam.is_infinite():
        ys = [lam * c for c in ys]
    a, b = Vector(xs), Vector(ys)
    assert (a == b) == (ref.Vector(xs) == ref.Vector(ys))
    assert (a != b) == (ref.Vector(xs) != ref.Vector(ys))
    if a == b:
        assert hash(a) == hash(b)
    if not (a.is_zero() or b.is_zero()):
        assert (Ray(a) == Ray(b)) == (ref.Ray(ref.Vector(xs)) == ref.Ray(ref.Vector(ys)))


# -- one-denominator draws ----------------------------------------------------
#
# The draws above give each coordinate a denominator of its own, so two vectors
# on one lattice denominator d > 1 are rare.  These force it: every finite
# coordinate of a vector is n/den, and one numerator is prime to den, so the
# vector's d is den itself.  The pairs share d = 1 or a d > 1, or have coprime
# denominators; zero coordinates are drawn, and sums, scalings and products
# whose numerators share a factor with d must come out reduced.

DENS = [1, 2, 3, 4, 6, 12]
COPRIME = [(1, 2), (2, 3), (3, 4), (4, 9), (5, 12)]


@st.composite
def on_den(draw, den, dim):
    """Coordinates of a vector with d = den: each zero or t^(n/den), and the
    numerator at one drawn index prime to den."""
    nums = draw(st.lists(st.one_of(st.none(), st.integers(-40, 40)),
                         min_size=dim, max_size=dim))
    nums[draw(st.integers(0, dim - 1))] = draw(st.integers(-40, 40)) * den + 1
    return [ZERO if n is None else t(Fraction(n, den)) for n in nums]


@st.composite
def lattice_pairs(draw):
    """Two coordinate lists of one dimension on one denominator (1 or > 1)
    or on coprime denominators, and that dimension."""
    dim = draw(st.integers(1, 4))
    if draw(st.booleans()):
        d1 = d2 = draw(st.sampled_from(DENS))
    else:
        d1, d2 = draw(st.sampled_from(COPRIME).flatmap(st.permutations))
    return draw(on_den(d1, dim)), draw(on_den(d2, dim)), dim


def lattice_scalars(den):
    """Zero, oo, or t^(n/q) with q = den, a divisor of den, or prime to it."""
    qs = sorted({1, den, 5, *[q for q in DENS if den % q == 0]})
    return st.one_of(st.just(ZERO), st.just(INF),
                     st.builds(lambda n, q: t(Fraction(n, q)),
                               st.integers(-40, 40), st.sampled_from(qs)))


def parse_route(result, mirror):
    """A kernel vector is == with equal hash to Vector.parse of the text of
    the reference result."""
    rebuilt = Vector.parse([str(c) for c in mirror.coords])
    assert result == rebuilt and hash(result) == hash(rebuilt)
    assert result.d == rebuilt.d and result.nums == rebuilt.nums


@given(lattice_pairs())
@example(([t(Fraction(1, 2)), t(2)], [t(1), t(Fraction(1, 2))], 2))      # (2, 4)/2
@example(([t(Fraction(1, 2)), ZERO], [t(Fraction(3, 2)), t(1)], 2))      # (3, 2)/2
@example(([t(Fraction(5, 6)), t(2)], [t(Fraction(1, 6)), t(Fraction(7, 3))], 2))
def test_add_on_one_denominator(case):
    xs, ys, _ = case
    a, b, ra, rb = Vector(xs), Vector(ys), ref.Vector(xs), ref.Vector(ys)
    check_same("add", lambda: a + b, lambda: ra + rb)
    check_same("add reversed", lambda: b + a, lambda: rb + ra)
    parse_route(a + b, ra + rb)
    assert a + b == b + a and hash(a + b) == hash(b + a)


@given(st.sampled_from(DENS).flatmap(
    lambda den: st.tuples(st.integers(1, 4).flatmap(lambda n: on_den(den, n)),
                          lattice_scalars(den))))
@example(([t(Fraction(1, 2)), t(Fraction(3, 2))], t(Fraction(1, 2))))   # (2, 4)/2
@example(([t(Fraction(1, 6)), ZERO, t(Fraction(5, 6))], t(Fraction(1, 2))))
def test_scale_on_one_denominator(case):
    xs, lam = case
    a, ra = Vector(xs), ref.Vector(xs)
    check_same("scale", lambda: a.scale(lam), lambda: ra.scale(lam))
    check_same("rmul", lambda: lam * a, lambda: lam * ra)
    if not lam.is_infinite():
        parse_route(a.scale(lam), ra.scale(lam))


def ref_value(v):
    return sref.TropValue.parse(str(v))


def ref_gram(pair, xs, ys=None):
    """q(x), or b(x, y) when ys is given, as a reference tropical sum of
    reference products over the Gram formula."""
    n, q, b = pair.dim, pair.q_diag, pair.b
    xs = [ref_value(c) for c in xs]
    if ys is None:
        return sref.trop_sum(ref_value(q[i] if i == j else b[i][j]) * xs[i] * xs[j]
                             for i in range(n) for j in range(i, n))
    ys = [ref_value(c) for c in ys]
    return sref.trop_sum(ref_value(b[i][j]) * xs[i] * ys[j]
                         for i in range(n) for j in range(n))


def same_value(got, want):
    """The kernel value has the reference's text and is == with equal hash
    to the kernel value parsed from that text."""
    assert str(got) == str(want)
    rebuilt = TropValue.parse(str(want))
    assert got == rebuilt and hash(got) == hash(rebuilt)


@given(lattice_pairs(), st.data())
def test_gram_views_on_one_denominator(case, data):
    """eval_q and eval_b on a model whose Gram data lies on the first
    vector's denominator, on 12 or on 1, against the reference formula; and
    * and / of the values they return."""
    xs, ys, n = case
    den = data.draw(st.sampled_from(sorted({1, Vector(xs).d, 12})))
    entries = iter(data.draw(st.lists(st.one_of(st.just(ZERO), st.builds(
        lambda k: t(Fraction(k, den)), st.integers(-40, 40))),
        min_size=n * (n + 1) // 2 + n, max_size=n * (n + 1) // 2 + n)))
    b = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            b[i][j] = b[j][i] = next(entries)
    pair = QuadraticPair(n, tuple(next(entries) for _ in range(n)), tuple(map(tuple, b)))
    a, c = Vector(xs), Vector(ys)
    qx, qy, bxy = pair.eval_q(a), pair.eval_q(c), pair.eval_b(a, c)
    rqx, rqy, rbxy = ref_gram(pair, xs), ref_gram(pair, ys), ref_gram(pair, xs, ys)
    same_value(qx, rqx)
    same_value(qy, rqy)
    same_value(bxy, rbxy)
    same_value(pair.eval_b(c, a), rbxy)
    same_value(bxy * bxy, rbxy * rbxy)
    same_value(qx * qy, rqx * rqy)
    if not (qx.is_zero() or qy.is_zero()):
        same_value((bxy * bxy) / (qx * qy), (rbxy * rbxy) / (rqx * rqy))
        same_value(pair.cs(a, c), (rbxy * rbxy) / (rqx * rqy))


@given(st.sampled_from(DENS + COPRIME).flatmap(
    lambda dens: st.tuples(*[st.one_of(st.just("zero"), st.just("inf"), st.builds(
        lambda n, q=q: Fraction(n, q), st.integers(-40, 40)))
        for q in (dens if isinstance(dens, tuple) else (dens, dens))])))
@example(("zero", "inf"))
@example((Fraction(1, 6), Fraction(1, 3)))                               # 1/2
@example((Fraction(3, 2), Fraction(1, 2)))                               # 1 and 2
def test_products_and_quotients_on_one_denominator(pair_of_specs):
    """* and / of two values on one denominator (1 or > 1) or on coprime
    denominators, zero and oo included, against the reference: equal text
    and error types, and == with equal hash to the parsed reference text."""
    x, y = pair_of_specs
    kernel = {"zero": ZERO, "inf": INF}
    a, b = kernel.get(x) or t(x), kernel.get(y) or t(y)
    reference = {"zero": sref.ZERO, "inf": sref.INF}
    ra, rb = reference.get(x) or sref.t(x), reference.get(y) or sref.t(y)
    for name, got, want in (("mul", lambda: a * b, lambda: ra * rb),
                            ("div", lambda: a / b, lambda: ra / rb),
                            ("div reversed", lambda: b / a, lambda: rb / ra)):
        assert outcome(lambda: str(got())) == outcome(lambda: str(want())), name
        if outcome(got)[0] is None:
            same_value(got(), want())
