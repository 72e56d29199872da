"""Exact scalar literals: rationals as "p/q" and integers, in ASCII digits only."""

from fractions import Fraction

import pytest

import hodgecs.gaussian
from hodgecs.gaussian import MAX_LITERAL_DIGITS, int_from_str, rational_from_str, rational_to_str


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


def test_json_round_trip():
    # A bundle stores each rational as its literal: writing then reading it gives
    # the value back, and reading a literal then writing it gives lowest terms.
    for q in (Fraction(0), Fraction(-7), Fraction(1, 3), Fraction(-2, 5), Fraction(10 ** 30, 7)):
        assert rational_from_str(rational_to_str(q)) == q
    assert rational_to_str(rational_from_str("4/6")) == "2/3"
    assert rational_to_str(rational_from_str("-0/5")) == "0"


def test_str_forms():
    assert rational_to_str(Fraction(3)) == "3"
    assert rational_to_str(Fraction(1, 2)) == "1/2"
    assert rational_to_str(Fraction(-6, 4)) == "-3/2"


# Digits of other scripts that str.isdigit, int and an unflagged \d accept:
# full-width, Arabic-Indic, Devanagari and mathematical bold digits.
NON_ASCII = ["\uff11\uff12", "\u0661/\u0662", "1/\u0662", "\u0967", "\U0001d7cf", "+\uff19"]


@pytest.mark.parametrize("text", NON_ASCII)
def test_literal_readers_take_ascii_digits_only(text):
    with pytest.raises(ValueError, match="not a rational literal"):
        rational_from_str(text)
    with pytest.raises(ValueError, match="invalid int value"):
        int_from_str(text)


def test_int_reader_keeps_the_ascii_forms_int_takes():
    assert int_from_str("12") == 12
    assert int_from_str(" -7 ") == -7
    assert int_from_str("1_000") == 1000
    with pytest.raises(ValueError, match="invalid int value"):
        int_from_str("\u00a012")
