"""Gaussian rational scalar arithmetic."""

from fractions import Fraction

import pytest

import hodgecs.gaussian
from hodgecs.gaussian import MAX_LITERAL_DIGITS, GaussianRational, rational_from_str, rational_to_str


def test_rational_strings():
    assert rational_to_str(Fraction(3, 2)) == "3/2"
    assert rational_to_str(Fraction(-4, 2)) == "-2"
    assert rational_from_str("7/21") == Fraction(1, 3)
    assert rational_from_str("-5") == Fraction(-5)


@pytest.mark.parametrize("bad", ["1.5", "2e3", "", "1/0x", "a", "1 / 2x", "1/0"])
def test_rational_string_rejects_nonrational(bad):
    with pytest.raises(ValueError):
        rational_from_str(bad)


def test_rational_literal_digit_limit(monkeypatch):
    top = "9" * MAX_LITERAL_DIGITS
    assert MAX_LITERAL_DIGITS == 640
    assert rational_from_str(f"-{top}/{top[:-1]}8") == Fraction(-int(top), int(top) - 1)
    assert rational_from_str(f"+{top}") == int(top)
    converted = []
    monkeypatch.setattr(hodgecs.gaussian, "Fraction", lambda s: converted.append(s))
    for text, digits in ((f"{top}1", 641), (f"1/{top}1", 641), (f"-{'7' * 5001}/3", 5001)):
        with pytest.raises(ValueError) as err:
            rational_from_str(text)
        assert str(err.value) == (f"rational literal with {digits} digits exceeds the limit "
                                  f"of 640 digits per numerator or denominator")
    assert converted == []  # refused before any int conversion


def test_arithmetic():
    z = GaussianRational(Fraction(1, 2), 3)
    w = GaussianRational(2, -1)
    assert z + w == GaussianRational(Fraction(5, 2), 2)
    assert z - w == GaussianRational(Fraction(-3, 2), 4)
    assert z * w == GaussianRational(4, Fraction(11, 2))
    assert (z / w) * w == z
    assert -z == GaussianRational(Fraction(-1, 2), -3)
    assert 2 * z == GaussianRational(1, 6)
    assert Fraction(1, 2) + z == GaussianRational(1, 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_conjugation_involution_and_norm():
    z = GaussianRational(Fraction(-2, 3), Fraction(5, 7))
    assert z.conjugate().conjugate() == z
    norm = z * z.conjugate()
    assert norm.is_real and norm.re >= 0
    assert norm.re == z.abs2()


def test_equality_and_hash_with_plain_rationals():
    assert GaussianRational(3) == 3
    assert GaussianRational(3) == Fraction(3)
    assert hash(GaussianRational(Fraction(3, 4))) == hash(Fraction(3, 4))
    assert GaussianRational(3, 1) != 3


def test_str_forms():
    assert str(GaussianRational(3)) == "3"
    assert str(GaussianRational(0, Fraction(1, 2))) == "1/2i"
    assert str(GaussianRational(1, -2)) == "1-2i"


def test_json_round_trip():
    z = GaussianRational(Fraction(1, 3), Fraction(-2, 5))
    assert GaussianRational.from_json(z.to_json()) == z
    assert GaussianRational.from_json("4/6") == GaussianRational(Fraction(2, 3))


def test_immutable():
    z = GaussianRational(1)
    with pytest.raises(AttributeError):
        z.re = Fraction(2)
