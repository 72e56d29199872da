"""Exact dense linear algebra over the rationals, on ints.

Pivots are chosen leftmost-first and normalised to 1, so echelon forms,
kernel bases and particular solutions are canonical and reproducible
byte-for-byte. Inertia comes from congruence, never from eigenvalues.

A matrix is int rows ``num`` over one positive ``den``, in lowest terms.
Exact scalars enter through one reader, ``_rational_ints``, which ``ring``
shares: ``Matrix(entries)``, ``from_columns``, ``apply`` and ``solve`` take
ints and Fractions, and any other value raises ``TypeError`` (``_rationals``,
the rule that the ring constructor applies too). Fractions leave
through ``m[i, j]``, ``row`` and the vectors of ``apply``, ``solve`` and
``nullspace``. Elimination runs on the int rows by one fraction-free
Gauss-Jordan loop (Bareiss 1968), and inertia by integer congruence with 1x1
pivots (P^T A P diagonal). Empty matrices keep their shape.

Exact scalar literals are read and written here as well: "p/q" or "p" for
rationals (``rational_from_str``, ``rational_to_str``, ``_ratios``) and ASCII
integers as ``int`` reads them (``int_from_str``). Only ASCII digits count:
``str.isdigit`` and an unflagged ``\\d`` also take other scripts' digits,
which ``int`` and ``Fraction`` would convert.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

Vector = tuple[Fraction, ...]


class Matrix:
    """An immutable rows x cols matrix of rationals: int rows ``num`` over ``den`` > 0.

    The shape is stored: only ``Matrix(entries)`` reads it off the rows (none: 0x0).
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __new__(cls, entries: Sequence[Sequence]) -> "Matrix":
        rows = [list(row) for row in entries]
        ints, den = _rational_ints([x for row in rows for x in row])
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        cols = len(rows[0]) if rows else 0
        return cls._of([ints[i * cols:(i + 1) * cols] for i in range(len(rows))], den, cols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _of(cls, num: Sequence[Sequence[int]], den: int, cols: int) -> "Matrix":
        """The matrix num / den of ``cols`` columns in lowest terms; den is a nonzero int."""
        g = gcd(den, *(x for row in num for x in row)) * (1 if den > 0 else -1)
        m, set_ = object.__new__(cls), object.__setattr__
        set_(m, "rows", len(num))
        set_(m, "cols", cols)
        set_(m, "num", tuple(tuple(x // g for x in row) for row in num))
        set_(m, "den", den // g)
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of([[int(i == j) for j in range(n)] for i in range(n)], 1, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of([[0] * cols for _ in range(rows)], 1, cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: Optional[int] = None) -> "Matrix":
        columns = list(columns)
        n = max(map(len, columns), default=0) if rows is None else rows
        if any(len(c) != n for c in columns):
            raise ValueError("ragged columns")
        return cls(columns).transpose() if columns else cls.zeros(n, 0)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return Fraction(self.num[i][j], self.den)

    def row(self, i: int) -> Vector:
        return tuple(Fraction(x, self.den) for x in self.num[i])

    @property
    def _e(self) -> tuple[tuple["_Entry", ...], ...]:
        """The entries as (re, im) records, built on read. Its one reader is
        ``perfbench/spans.py::_max_bits``, which measures entry bit lengths
        through ``re`` and ``im``."""
        return tuple(tuple(map(_Entry, row)) for row in map(self.row, range(self.rows)))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.cols, self.den, self.num) == (other.cols, other.den, other.num)

    def __hash__(self):
        return hash((self.cols, self.den, self.num))

    def __repr__(self):
        body = "; ".join(" ".join(str(Fraction(x, self.den)) for x in row) for row in self.num)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    # -- basic algebra -------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix._of([[row[j] for row in self.num] for j in range(self.cols)],
                          self.den, self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Product: per entry one int dot product, over the product of the denominators."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        right = other.transpose().num
        return Matrix._of([[sum(map(mul, u, v)) for v in right] for u in self.num],
                          self.den * other.den, other.cols)

    def __neg__(self) -> "Matrix":
        return Matrix._of([[-x for x in row] for row in self.num], self.den, self.cols)

    def apply(self, vec: Sequence) -> Vector:
        v, s = _rational_ints(vec)
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(Fraction(sum(map(mul, row, v)), self.den * s) for row in self.num)

    def is_symmetric(self) -> bool:
        a = self.num
        return self.rows == self.cols and all(
            a[i][j] == a[j][i] for i in range(self.rows) for j in range(i)
        )

    # -- elimination ---------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns: the canonical echelon
        basis of the row space, pivots leftmost-first from the topmost free row."""
        a = [list(row) for row in self.num]
        pivots, d = _bareiss_jordan(a, self.cols)
        return Matrix._of(a, d, self.cols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Matrix":
        """Canonical kernel basis, one vector per row: the reduced echelon form of
        ker(self), read off one reduction of self with its columns reversed.

        Free column f gives the vector with 1 at f, 0 at the other free columns and
        minus the reduced entry at each pivot column, all of which lie right of f.
        """
        c = self.cols
        red, pivots = Matrix._of([row[::-1] for row in self.num], self.den, c).rref()
        pivot_set = {c - 1 - p for p in pivots}
        rows = []
        for f in (j for j in range(c) if j not in pivot_set):
            v = [0] * c
            v[f] = red.den
            for r, p in enumerate(pivots):
                v[c - 1 - p] = -red.num[r][c - 1 - f]
            rows.append(v)
        return Matrix._of(rows, red.den, c)

    def nullspace(self) -> list[Vector]:
        """The rows of :meth:`kernel` as Fraction vectors."""
        basis = self.kernel()
        return [basis.row(i) for i in range(basis.rows)]

    def solve(self, b: Sequence) -> Optional[Vector]:
        """Solve self @ x = b exactly, or return None if inconsistent.

        One reduction of [A | b]. Free variables are set to zero, so pivot
        variables carry the full right-hand side (the canonical "pivot-first"
        solution).
        """
        rhs, s = _rational_ints(b)
        n = self.cols
        if len(rhs) != self.rows:
            raise ValueError("right-hand side length does not match row count")
        red, pivots = Matrix._of([[s * x for x in row] + [self.den * y]
                                  for row, y in zip(self.num, rhs)], s * self.den, n + 1).rref()
        if pivots and pivots[-1] >= n:
            return None
        x = [Fraction(0)] * n
        for r, c in enumerate(pivots):
            x[c] = Fraction(red.num[r][n], red.den)
        return tuple(x)

    def inverse(self) -> Optional["Matrix"]:
        """The inverse, or None when not square or singular: one Bareiss-Jordan
        reduction takes [num | den * I] to [I | A^-1] times the last pivot."""
        n = self.rows
        if self.cols != n:
            return None
        a = [[*row, *(self.den * (k == i) for k in range(n))] for i, row in enumerate(self.num)]
        pivots, d = _bareiss_jordan(a, n)
        if len(pivots) < n:
            return None
        return Matrix._of([row[n:] for row in a], d, n)

    # -- inertia ---------------------------------------------------------

    def inertia(self) -> tuple[int, int, int]:
        """Sylvester inertia (n_plus, n_minus, n_zero) of a symmetric matrix: of
        its int rows, the form times its positive denominator."""
        if not self.is_symmetric():
            raise ValueError("inertia requires a square symmetric matrix")
        return _int_inertia([list(row) for row in self.num])


def _rational_ints(values: Iterable) -> tuple[list[int], int]:
    """Ints and Fractions as int numerators over the lcm of their denominators, and
    that lcm; any other value raises ``TypeError``."""
    values = _rationals(values)
    den = lcm(*(x.denominator for x in values))
    return _cleared(values, den), den


def _rationals(values: Iterable) -> list:
    """``values`` as a list, when each is an int or a Fraction; any other value
    raises ``TypeError``. The one scalar rule of the package."""
    values = list(values)
    for x in values:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"cannot interpret {x!r} as a rational")
    return values


_RATIONAL_RE = _re.compile(r"^[+-]?\d+(/\d+)?$", _re.ASCII)
# The interpreter's str_digits_check_threshold: a literal within it converts under any limit.
MAX_LITERAL_DIGITS = 640


def rational_to_str(q: int | Fraction) -> str:
    """Serialize a rational as "p/q", omitting the denominator when it is 1.

    An int or a Fraction, as ``_rationals`` reads them; any other value raises
    ``TypeError``, so a float is never written as its binary fraction.
    """
    if isinstance(q, Fraction):
        return str(q)
    _rationals((q,))
    return int.__repr__(q)


def _ratios(nums, den: int) -> list[str]:
    """Int numerators over ``den`` > 0 as exact rational strings, as ``rational_to_str``
    writes them: "p/q" in lowest terms, "p" when q is 1."""
    out = []
    for x in nums:
        g = gcd(x, den)
        out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return out


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


class _Entry(NamedTuple):
    """A matrix entry as ``Matrix._e`` gives it: the value and a zero imaginary part."""
    re: Fraction
    im: Fraction = Fraction(0)


def _cleared(values: Sequence[int | Fraction], scale: int) -> list[int]:
    """``values`` times ``scale``, a positive common multiple of their denominators."""
    return [x.numerator * (scale // x.denominator) for x in values]


def _bareiss_jordan(a: list[list[int]], cols: int) -> tuple[tuple[int, ...], int]:
    """Fraction-free Gauss-Jordan elimination of the int rows ``a``, in place.

    Each step sets every other row to (d * row - f * pivot row) // previous
    pivot, where d is the pivot and f the row's entry; the division is exact
    (Bareiss 1968). Returns the pivot columns and the last pivot D (1 if none).
    Afterwards the pivot rows come first, each holding D in its pivot column
    and 0 in the others, and the other rows are zero: divided by D, a is the
    reduced echelon form.
    """
    pivots: list[int] = []
    prev = 1
    n = len(a)
    for c in range(cols):
        r = len(pivots)
        if r == n:
            break
        k = next((i for i in range(r, n) if a[i][c]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        top = a[r]
        d = top[c]
        for i in range(n):
            if i != r:
                f = a[i][c]
                a[i] = [(d * x - f * y) // prev for x, y in zip(a[i], top)]
        pivots.append(c)
        prev = d
    return tuple(pivots), prev


def _int_inertia(a: list[list[int]]) -> tuple[int, int, int]:
    """Inertia of an integer symmetric form by exact congruence; consumes ``a``.

    Each step pivots on a nonzero diagonal entry d, counts its sign, drops the
    pivot's row and column where they stand and takes d's Schur complement from
    the pivot row alone, as the form stays symmetric. An all-zero diagonal with
    some a_ij != 0 (i < j) first gets 2 * a_ij at (i, i) by the congruence
    e_i -> e_i + e_j: row j is added to row i, then column j to column i. Each
    complement is scaled by |d| and divided by the gcd of its entries, positive
    factors that keep the inertia.
    """
    n_plus = n_minus = n_zero = 0
    while a:
        k = len(a)
        p = next((i for i in range(k) if a[i][i]), None)
        if p is None:
            off = next(((i, j) for i in range(k) for j in range(i + 1, k) if a[i][j]), None)
            if off is None:
                n_zero += k
                break
            p, j = off
            a[p] = [x + y for x, y in zip(a[p], a[j])]
            for row in a:
                row[p] += row[j]
        top = a.pop(p)
        d = top.pop(p)
        for row in a:
            del row[p]
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        s = 1 if d > 0 else -1
        a = [[s * (d * x - f * y) for x, y in zip(row, top)] for f, row in zip(top, a)]
        g = gcd(*(x for row in a for x in row))
        if g > 1:
            a = [[x // g for x in row] for row in a]
    return n_plus, n_minus, n_zero

