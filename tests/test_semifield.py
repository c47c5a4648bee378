from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from troprays.errors import SchemaError, UndefinedProduct
from troprays.pmfunc import PmFunction
from troprays.semifield import INF, ONE, ZERO, TropValue, midpoint, t, value_of


OO_FN = PmFunction.constant(INF)  # has a `kind`, as a TropValue has


def finite_values():
    return st.fractions(max_denominator=12).map(TropValue.finite)


def extended_values():
    return st.one_of(st.just(ZERO), st.just(INF), finite_values())


def test_addition_is_max():
    assert t(1) + t(2) == t(2)
    assert ZERO + t(5) == t(5)
    assert t(3) + INF == INF


def test_multiplication_examples():
    assert t(Fraction(1, 2)) * t(3) == t(Fraction(7, 2))
    assert ZERO * t(5) == ZERO
    with pytest.raises(UndefinedProduct):
        ZERO * INF
    with pytest.raises(UndefinedProduct):
        INF * ZERO


def test_products_and_quotients_come_out_reduced():
    """`*` and `/` of finite values take one step on the int pairs and reduce
    once at the end, so equal values keep equal pairs and hashes."""
    half = t("1/2")
    assert (half * half).den == 1 and half * half == t(1)
    assert hash(half * half) == hash(t(1))
    assert t("3/2") / half == t(1) and (t("3/2") / half).den == 1
    assert t("1/6") * t("1/3") == t("1/2") and (t("1/6") * t("1/3")).den == 2
    assert t("1/3") / t("1/6") == t("1/6")
    assert t(5) / t(7) == t(-2) and (t(5) / t(7)).den == 1
    assert ZERO / INF == ZERO and INF / ZERO == INF and t(1) / INF == ZERO
    with pytest.raises(UndefinedProduct, match="0 \\* oo is not defined"):
        ZERO / ZERO


@pytest.mark.parametrize("call", [
    lambda: t(1) * 2, lambda: 2 * t(1), lambda: t(1) / 2, lambda: 2 / t(1),
    lambda: t(1) / Fraction(1, 2),
    lambda: t(1) + 2, lambda: 2 + t(1), lambda: t(1) < 2, lambda: t(1) <= 2,
    lambda: t(1) > 2, lambda: t(1) >= 2,
    lambda: t(1) + OO_FN, lambda: t(1) < OO_FN, lambda: t(1) <= OO_FN,
], ids=["mul", "rmul", "div", "rdiv", "div-fraction",
        "add-int", "radd-int", "lt-int", "le-int", "gt-int", "ge-int",
        "add-pm", "lt-pm", "le-pm"])
def test_mixed_operands_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_roots():
    assert t(2).root(3) == t(Fraction(2, 3))
    assert ZERO.root(5) == ZERO
    assert t(-4).root(2) == t(-2)
    assert INF.root(4) == INF
    with pytest.raises(ValueError):
        t(1).root(0)


def test_inverse():
    assert t(2).inverse() == t(-2)
    assert ZERO.inverse() == INF
    assert INF.inverse() == ZERO
    for v in (ZERO, INF, t(Fraction(3, 7))):
        assert v.inverse().inverse() == v


def test_parse_and_str_roundtrip():
    for text in ("-inf", "+inf", "0", "5", "-3/4", "7/2"):
        assert str(TropValue.parse(text)) == text


def test_power_convention_at_zero_exponent():
    assert ZERO ** 0 == ONE
    assert INF ** 0 == ONE
    assert t(5) ** 0 == ONE
    assert ZERO ** -1 == INF
    assert INF ** -2 == ZERO


def test_midpoint_cases():
    assert midpoint(ZERO, INF) == ONE
    assert ZERO < midpoint(ZERO, t(0)) < t(0)
    assert t(1) < midpoint(t(1), INF) < INF
    m = midpoint(t(1), t(2))
    assert t(1) < m < t(2)
    with pytest.raises(ValueError):
        midpoint(t(2), t(2))


@given(extended_values(), extended_values())
def test_bipotency(a, b):
    assert a + b in (a, b)


@given(extended_values(), extended_values(), extended_values())
def test_add_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(finite_values(), finite_values(), finite_values())
def test_mul_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * ONE == a
    assert (a * b) * b.inverse() == a


@given(finite_values(), st.integers(min_value=1, max_value=12))
def test_root_power_inverse(a, n):
    assert a.root(n) ** n == a


@given(finite_values(), finite_values())
def test_order_density(a, b):
    if a == b:
        return
    lo, hi = (a, b) if a < b else (b, a)
    mid = (lo * hi).sqrt()
    assert lo < mid < hi


@given(extended_values(), extended_values(), extended_values())
def test_add_mul_distributes(a, b, c):
    if c.is_zero() and (a.is_infinite() or b.is_infinite()):
        return
    if c.is_infinite() and (a.is_zero() or b.is_zero()):
        return
    assert (a + b) * c == a * c + b * c


def test_float_exponents_are_rejected():
    """A float's binary expansion never enters the exact stack; decimal
    strings are exact and stay valid."""
    for make in (t, TropValue.finite):
        with pytest.raises(TypeError, match="float"):
            make(0.1)
        with pytest.raises(TypeError, match="float"):
            make(2.0)
    assert t("0.5") == TropValue.parse("0.5") == t(Fraction(1, 2))
    assert str(t("0.1")) == "1/10"


def test_bool_exponents_are_rejected():
    """A bool is an int to Python but no exponent: t(True) is not t^1."""
    for make in (t, TropValue.finite):
        for flag in (True, False):
            with pytest.raises(TypeError, match="bool"):
                make(flag)
    assert t(1) == TropValue.parse("1") and t(0) == ONE


@pytest.mark.parametrize("text", ["1e3", "1E-2", "1_0", "2.5e1"])
def test_exponent_notation_and_separators_are_bad_text(text):
    """Only "p/q", decimals and the infinities are text-encoded values: the
    exponent notation and "_" separators that Fraction would read raise the
    SchemaError of "abc" through value_of, the entry rule of every file, CLI
    and constructor value."""
    with pytest.raises(SchemaError, match="bad semifield value"):
        value_of(text)
    with pytest.raises(SchemaError, match="bad semifield value"):
        value_of("abc")
    assert value_of("0.5") == t(Fraction(1, 2)) and value_of("inf") == INF


@pytest.mark.parametrize("text", ["1e3", "1E-2", "1_0", "2.5e1", "\u0661", "1e100000000"])
def test_t_and_parse_refuse_what_value_of_refuses(text):
    """``t`` and ``parse`` read text as ``value_of`` does, with no Fraction: a
    ValueError, and no 10^(10^8) int built for "1e100000000"."""
    for read in (t, TropValue.finite, TropValue.parse):
        with pytest.raises(ValueError):
            read(text)


@pytest.mark.parametrize("text", ["\u0661", "\uff11\uff12", "\u0663/\u0664", "1\u00a0",
                                  "\u00bd", "\U0001d7d9"])
def test_non_ascii_text_is_bad_text(text):
    """The text encoding is ASCII: the Arabic-Indic, fullwidth and other
    Unicode digits and spaces that Fraction would read raise SchemaError."""
    with pytest.raises(SchemaError, match="ASCII"):
        value_of(text)
    assert value_of(" 12 ") == t(12) and value_of("3/4") == t(Fraction(3, 4))
