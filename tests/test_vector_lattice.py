"""Lattice vectors and rays against the frozen TropValue implementation.

Every vector and ray operation runs on the kernel (troprays.quadspace.Vector,
troprays.rays) and on the reference (tests/vector_reference.py, vectors of
TropValues before the lattice); the two must agree in values, text, equality
and raised error types.  Equal vectors reached by different routes (parse,
sum, scaling, canonical representative) must be == with equal hashes.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

import vector_reference as ref
from troprays.errors import ZeroVector
from troprays.quadspace import Vector, vec
from troprays.rays import Ray, RayInterval
from troprays.semifield import INF, ZERO, t

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
