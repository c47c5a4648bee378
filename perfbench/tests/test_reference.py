"""The reference evaluator against the README's worked profile on M1."""

from fractions import Fraction

import pytest

import reference as ref

M1 = ref.Model(["0", "0"], [["0", "2"], ["2", "0"]])
E1 = ref.vector(["0", "-inf"])
E2 = ref.vector(["-inf", "0"])


def profile(lam):
    return M1.cs(ref.pi(E1, E2, lam), E1)


def test_m1_profile_is_e_then_t2_lam_then_t4():
    for k in range(-40, 41):
        lam = Fraction(k, 4)
        if lam <= -2:
            want = 0                 # e
        elif lam <= 2:
            want = 2 + lam           # t^2 lam
        else:
            want = 4                 # t^4
        assert profile(lam) == want
    assert profile(None) == 0 and profile(ref.INF) == 4


def test_m1_profile_breaks_exactly_at_t_minus_2_and_t_2():
    def slope(lam):
        h = Fraction(1, 8)
        return (profile(lam + h) - profile(lam)) / h

    kinks = [Fraction(k, 8) for k in range(-40, 40)
             if slope(Fraction(k, 8) - Fraction(1, 8)) != slope(Fraction(k, 8))]
    assert kinks == [-2, 2]


def test_text_round_trip_and_order():
    for text in ("-inf", "+inf", "0", "-7/3", "5"):
        assert ref.show(ref.parse(text)) == text
    assert ref.less(None, Fraction(-100)) and ref.less(Fraction(100), ref.INF)
    assert ref.compare(None, None) == "="


def test_rays_and_vectors():
    assert ref.canonical((Fraction(3), None, Fraction(1))) == (0, None, -2)
    assert ref.pi(E1, E2, Fraction(0)) == (0, 0)
    with pytest.raises(ValueError):
        ref.vector(["+inf", "0"])
    with pytest.raises(ValueError):
        ref.Model(["-inf", "0"], [["-inf", "-inf"], ["-inf", "0"]]).cs(E1, E2)
