"""Exact scalar literals: rationals as "p/q" or "p", integers as ``int`` reads them.

Rationals are `fractions.Fraction` values, which are always reduced and carry a
positive denominator. Only ASCII digits count as digits: ``str.isdigit`` and
the ``\\d`` of an unflagged pattern also take other scripts' digits, which
``int`` and ``Fraction`` would convert.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

_RATIONAL_RE = _re.compile(r"^[+-]?\d+(/\d+)?$", _re.ASCII)
# The interpreter's str_digits_check_threshold: a literal within it converts under any limit.
MAX_LITERAL_DIGITS = 640


def rational_to_str(q: Fraction) -> str:
    """Serialize a rational as "p/q", omitting the denominator when it is 1."""
    return str(Fraction(q))


def rational_from_str(text: str) -> Fraction:
    """Parse "p/q" or "p". Decimal or exponent notation, q = 0 and overlong p or q are rejected."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    if (digits := max(len(part.lstrip("+-")) for part in s.split("/"))) > MAX_LITERAL_DIGITS:
        raise ValueError(f"rational literal with {digits} digits exceeds the limit "
                         f"of {MAX_LITERAL_DIGITS} digits per numerator or denominator")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal {text!r}") from None


def int_from_str(text: str) -> int:
    """Parse an ASCII integer as ``int`` does; more than ``MAX_LITERAL_DIGITS``
    digits are refused before any conversion, so the interpreter's digit limit
    is never reached."""
    if not text.isascii():
        raise ValueError(f"invalid int value: {text!r}")
    if (digits := sum(map(str.isdigit, text))) > MAX_LITERAL_DIGITS:
        raise ValueError(f"integer literal with {digits} digits exceeds the limit "
                         f"of {MAX_LITERAL_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None
