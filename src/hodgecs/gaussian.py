"""Exact scalars: rationals and Gaussian rationals.

Plain rationals are `fractions.Fraction` values, which are always reduced and
carry a positive denominator. `GaussianRational` pairs two of them as real and
imaginary part so complex cohomology classes can be manipulated without ever
touching floating point.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

_RATIONAL_RE = _re.compile(r"^[+-]?\d+(/\d+)?$")
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
    """Parse an integer as ``int`` does; more than ``MAX_LITERAL_DIGITS`` digits are
    refused before any conversion, so the interpreter's digit limit is never reached."""
    if (digits := sum(map(str.isdigit, text))) > MAX_LITERAL_DIGITS:
        raise ValueError(f"integer literal with {digits} digits exceeds the limit "
                         f"of {MAX_LITERAL_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- conversions --------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    @classmethod
    def from_json(cls, obj) -> "GaussianRational":
        if isinstance(obj, str):
            return cls(rational_from_str(obj))
        if isinstance(obj, dict):
            return cls(rational_from_str(obj["re"]), rational_from_str(obj["im"]))
        raise ValueError(f"not a serialized Gaussian rational: {obj!r}")

    def to_json(self):
        return {"re": rational_to_str(self.re), "im": rational_to_str(self.im)}

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus z * conj(z), an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    # -- predicates and protocol hooks --------------------------------

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # Matches hash(Fraction) for real values so x == q implies equal hashes.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return rational_to_str(self.re)
        if self.re == 0:
            return f"{rational_to_str(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"{rational_to_str(self.re)}{sign}{rational_to_str(abs(self.im))}i"


def _coerce_or_none(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


GQ_ZERO = GaussianRational(0)
