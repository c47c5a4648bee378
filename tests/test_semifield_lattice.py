"""Int-pair TropValues against the frozen Fraction implementation.

Every semifield operation runs on the kernel (troprays.semifield, exponents
as reduced int pairs) and on the reference (tests/semifield_reference.py,
exponents as Fractions); the two must agree in values, text, order and raised
error types.  Equal values built by different routes must be == with equal
hashes, and ``exp`` must be the reference Fraction.
"""

import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import semifield_reference as ref
from troprays import semifield as sf
from troprays.errors import UndefinedProduct

BIG = 10 ** 40

exponents = st.one_of(
    st.integers(-6, 6),
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, 10 ** 6)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
# a value is drawn as its spec: "zero", "inf" or a finite exponent
specs = st.one_of(st.just("zero"), st.just("inf"), exponents)
powers = st.integers(-5, 5)
roots = st.one_of(st.integers(-2, 6), st.integers(1, BIG))


def kernel(spec):
    return {"zero": sf.ZERO, "inf": sf.INF}.get(spec) or sf.t(spec)


def reference(spec):
    return {"zero": ref.ZERO, "inf": ref.INF}.get(spec) or ref.t(spec)


def render(result):
    if isinstance(result, (sf.TropValue, ref.TropValue)):
        return ("value", result.kind, result.exp, str(result), repr(result),
                result.is_zero(), result.is_finite(), result.is_infinite())
    if isinstance(result, tuple):
        return tuple(render(r) for r in result)
    return result


def outcome(call):
    """(error type, None) or (None, a comparable rendering of the result)."""
    try:
        result = call()
    except Exception as ex:  # the error type itself is compared
        return type(ex), None
    return None, render(result)


def check_same(name, got, want):
    """Equal outcomes; a kernel value is also == with equal hash to the
    kernel value rebuilt from the reference result's text."""
    a, b = outcome(got), outcome(want)
    assert a == b, name
    if a[0] is None:
        result = got()
        if isinstance(result, sf.TropValue):
            rebuilt = sf.TropValue.parse(str(want()))
            assert result == rebuilt and hash(result) == hash(rebuilt), name


@given(specs)
def test_unary_operations_text_and_exp(x):
    a, r = kernel(x), reference(x)
    check_same("value", lambda: a, lambda: r)
    check_same("inverse", a.inverse, r.inverse)
    check_same("sqrt", a.sqrt, r.sqrt)
    assert a.exp == r.exp and type(a.exp) is type(r.exp)
    assert str(a) == str(r) and repr(a) == repr(r)


@given(specs, powers, roots)
def test_powers_and_roots(x, n, k):
    a, r = kernel(x), reference(x)
    check_same("pow", lambda: a ** n, lambda: r ** n)
    check_same("root", lambda: a.root(k), lambda: r.root(k))
    check_same("pow root", lambda: (a ** n).root(k), lambda: (r ** n).root(k))


@given(specs, specs)
def test_binary_operations_and_order(x, y):
    a, b, ra, rb = kernel(x), kernel(y), reference(x), reference(y)
    check_same("add", lambda: a + b, lambda: ra + rb)
    check_same("mul", lambda: a * b, lambda: ra * rb)
    check_same("div", lambda: a / b, lambda: ra / rb)
    check_same("midpoint", lambda: sf.midpoint(a, b), lambda: ref.midpoint(ra, rb))
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne):
        assert op(a, b) == op(ra, rb), op.__name__
    if a == b:
        assert hash(a) == hash(b)


def test_undefined_products_and_bad_roots():
    for a, b in ((sf.ZERO, sf.INF), (sf.INF, sf.ZERO)):
        with pytest.raises(UndefinedProduct):
            a * b
        with pytest.raises(UndefinedProduct):
            a / a
    for v in (sf.ZERO, sf.INF, sf.t(3)):
        for n in (0, -1):
            with pytest.raises(ValueError):
                v.root(n)
    with pytest.raises(ValueError):
        sf.midpoint(sf.t(1), sf.t(1))


@given(st.lists(specs, max_size=6), specs)
def test_trop_sum(xs, start):
    check_same("trop_sum", lambda: functools.reduce(operator.add, [kernel(x) for x in xs], sf.ZERO),
               lambda: ref.trop_sum([reference(x) for x in xs]))
    check_same("trop_sum start",
               lambda: functools.reduce(operator.add, [kernel(x) for x in xs], kernel(start)),
               lambda: ref.trop_sum([reference(x) for x in xs], reference(start)))
    check_same("sorted", lambda: tuple(sorted(kernel(x) for x in xs)),
               lambda: tuple(sorted(reference(x) for x in xs)))


TEXTS = ["-inf", "+inf", "inf", " -inf ", "0", "-0", "5", "-3/4", "7/2", "2/4",
         " 6/-4 ", "1.5", "-0.25", "1e3", "x", "", "1/0", "--1", "3//4", ".5", "5.",
         "-.5", "+3", ".", "1.5/2", "3 / 4", "1E-2", "1_0", "2.5e1", "\u0661", "1\u00a0",
         "\u0663/\u0664"]
# texts over the characters of the text grammar and of what it leaves out
GRAMMAR = st.text("0123456789+-./ eE_\t", max_size=8)


def refused(text) -> bool:
    """Text outside the int-pair parser's grammar that Fraction may read:
    exponent notation, "_" separators, non-ASCII digits, inner whitespace."""
    return isinstance(text, str) and (
        any(c in "eE_" or (c.isdigit() and not c.isascii()) for c in text)
        or any(c.isspace() for c in text.strip()))


def check_text(name, got, want, text):
    """ValueError for a refused text, the reference's outcome for any other."""
    if refused(text):
        assert outcome(got)[0] is ValueError, name
    else:
        check_same(name, got, want)


@given(st.one_of(st.sampled_from(TEXTS), GRAMMAR, specs.map(lambda x: str(reference(x)))))
def test_parse(text):
    check_text("parse", lambda: sf.TropValue.parse(text), lambda: ref.TropValue.parse(text), text)


@given(st.one_of(exponents, exponents.map(str), GRAMMAR,
                 st.sampled_from(["2/4", "-6/8", "x", "1/0", "1e3", "-1.5"])))
def test_finite(exp):
    check_text("finite", lambda: sf.TropValue.finite(exp), lambda: ref.TropValue.finite(exp), exp)
    check_text("t", lambda: sf.t(exp), lambda: ref.t(exp), exp)


@given(st.one_of(st.none(), st.integers(-BIG, BIG)), st.integers(1, 10 ** 6))
def test_lattice_value(num, den):
    check_same("_value", lambda: sf._value(num, den), lambda: ref._value(num, den))


@given(st.lists(st.one_of(st.just("zero"), exponents), max_size=6))
def test_lattice(xs):
    assert sf._lattice([kernel(x) for x in xs]) == ref._lattice([reference(x) for x in xs])


@given(exponents, st.integers(1, 9))
def test_equal_values_by_different_routes(exp, k):
    """Equal values compare and hash equal, as set members and dict keys too."""
    exp = Fraction(exp)
    text = str(exp)
    routes = [
        sf.t(exp),
        sf.t(Fraction(exp.numerator * k, exp.denominator * k)),
        sf._value(exp.numerator * k, exp.denominator * k),
        sf.TropValue.parse(text),
        sf.TropValue.parse(f"{exp.numerator * k}/{exp.denominator * k}"),
        sf.t(exp * k).root(k),
        sf.t(exp).root(k) ** k,
        sf.t(exp / 2) * sf.t(exp / 2),
        sf.t(exp + 1) / sf.t(1),
        sf.t(2 * exp).sqrt(),
        sf.t(exp).inverse().inverse(),
        sf.t(exp - 1) + sf.t(exp),
        sf.midpoint(sf.t(exp - 1), sf.t(exp + 1)),
    ]
    a = routes[0]
    for v in routes:
        assert v == a and hash(v) == hash(a) and str(v) == text
        assert v.exp == exp
    assert len(set(routes)) == 1 and {a: 1}[routes[-1]] == 1


def test_named_equal_values():
    half = (sf.t(Fraction(2, 4)), sf._value(2, 4), sf.TropValue.parse("1/2"))
    for v in half:
        assert v == half[0] and hash(v) == hash(half[0])
        assert (v.num, v.den) == (1, 2) and v.exp == Fraction(1, 2)
    assert sf._value(0, 7) == sf.ONE and hash(sf._value(0, 7)) == hash(sf.ONE)
    assert sf.ZERO.exp is None and sf.INF.exp is None
    assert sf.ZERO != sf.INF and hash(sf.ZERO) != hash(sf.INF)
