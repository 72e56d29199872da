"""Exact dense linear algebra: elimination over the rationals.

Everything here is deterministic: pivots are chosen leftmost-first and
normalised to 1, so echelon forms, kernel bases and particular solutions are
canonical and reproducible byte-for-byte. Inertia is computed by symmetric
congruence elimination, never by eigenvalues, so no square roots are needed
and the answer is exact.

Entries are Gaussian rationals at the interface, but elimination, inverses
and products run over the rationals, on Python ints: a non-real entry raises
``ValueError``, and the only complex input accepted is the right-hand side of
``solve``. Each row (for products, each column too) is scaled by the lcm of
its denominators, and one fraction-free Gauss-Jordan loop (Bareiss 1968)
divides every update exactly by the previous pivot. Inertia scales the
form by the lcm of its denominators and reduces it by integer congruence with
1x1 pivots only (P^T A P diagonal). Empty matrices keep their shape.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .gaussian import GQ_ONE, GQ_ZERO, GaussianRational

Vector = tuple[GaussianRational, ...]


def as_vector(entries: Sequence) -> Vector:
    return tuple(GaussianRational.coerce(e) for e in entries)


class Matrix:
    """An immutable rows x cols matrix of Gaussian rationals; elimination needs real ones.

    The shape is stored: only ``Matrix(entries)`` reads it off the rows (none: 0x0).
    """

    __slots__ = ("rows", "cols", "_e")

    def __new__(cls, entries: Sequence[Sequence]) -> "Matrix":
        rows = [as_vector(row) for row in entries]
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        return cls._of(rows, len(rows[0]) if rows else 0)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _of(cls, rows: list[list[GaussianRational]], cols: int) -> "Matrix":
        """A matrix of ``cols`` columns from rows that already hold Gaussian rationals."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_e", tuple(map(tuple, rows)))
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of([[GQ_ONE if i == j else GQ_ZERO for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._of([[GQ_ZERO] * cols for _ in range(rows)], cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: Optional[int] = None) -> "Matrix":
        cols = [as_vector(c) for c in columns]
        n = max(map(len, cols), default=0) if rows is None else rows
        if any(len(c) != n for c in cols):
            raise ValueError("ragged columns")
        return cls._of([[c[i] for c in cols] for i in range(n)], len(cols))

    def __getitem__(self, key) -> GaussianRational:
        i, j = key
        return self._e[i][j]

    def row(self, i: int) -> Vector:
        return self._e[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self._e)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.cols == other.cols and self._e == other._e

    def __hash__(self):
        return hash((self.cols, self._e))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._e)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    # -- basic algebra -------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix._of([[row[j] for row in self._e] for j in range(self.cols)], self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Product of real matrices: per entry one int dot product over one Fraction."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        left = [_int_row(row) for row in self._rational_rows()]
        right = [_int_row(col) for col in other.transpose()._rational_rows()]
        return Matrix._of([
            [GaussianRational(Fraction(sum(map(mul, u, v)), s * t)) for v, t in right]
            for u, s in left
        ], other.cols)

    def apply(self, vec: Sequence) -> Vector:
        v = as_vector(vec)
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(
            sum((self._e[i][j] * v[j] for j in range(self.cols)), GQ_ZERO)
            for i in range(self.rows)
        )

    def scaled(self, factor) -> "Matrix":
        f = GaussianRational.coerce(factor)
        return Matrix._of([[x * f for x in row] for row in self._e], self.cols)

    def is_real(self) -> bool:
        return all(x.is_real for row in self._e for x in row)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self._e[i][j] == self._e[j][i] for i in range(self.rows) for j in range(i)
        )

    # -- elimination ---------------------------------------------------

    def _rational_rows(self) -> list[list[Fraction]]:
        """The entries as rationals; a non-real entry raises ``ValueError``."""
        if not self.is_real():
            raise ValueError("exact elimination requires real entries")
        return [[x.re for x in row] for row in self._e]

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form over the rationals and its pivot columns.

        Pivots are taken leftmost-first from the topmost available row and
        normalised to 1, so the result is the canonical echelon basis of the
        row space. The matrix must be real.
        """
        a = [_int_row(row)[0] for row in self._rational_rows()]
        pivots, d = _bareiss_jordan(a, self.cols)
        out = [[GaussianRational(Fraction(x, d)) if x else GQ_ZERO for x in row] for row in a]
        return Matrix._of(out, self.cols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list[Vector]:
        """Canonical kernel basis.

        The basis spans ker(self) and is returned in reduced echelon form
        (each vector's leading coordinate is 1, leading coordinates strictly
        increase, and each leading coordinate is zero in the other vectors),
        so the output is independent of how the kernel was found.
        """
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        raw = []
        for f in free:
            v = [GQ_ZERO] * self.cols
            v[f] = GQ_ONE
            for r, c in enumerate(pivots):
                v[c] = -red._e[r][f]
            raw.append(v)
        canon, _ = Matrix._of(raw, self.cols).rref()
        return [canon.row(i) for i in range(len(free))]

    def solve(self, b: Sequence) -> Optional[Vector]:
        """Solve self @ x = b exactly, or return None if inconsistent.

        The matrix must be real and ``b`` may be complex: one reduction of
        [A | Re b | Im b] gives x = x_re + i*x_im. Free variables of the
        echelon parametrization are set to zero, so pivot variables carry the
        full right-hand side (the canonical "pivot-first" solution).
        """
        rhs = as_vector(b)
        if len(rhs) != self.rows:
            raise ValueError("right-hand side length does not match row count")
        red, pivots = Matrix._of([
            [*row, GaussianRational(v.re), GaussianRational(v.im)]
            for row, v in zip(self._e, rhs)
        ], self.cols + 2).rref()
        n = self.cols
        if pivots and pivots[-1] >= n:
            return None
        x = [GQ_ZERO] * n
        for r, c in enumerate(pivots):
            x[c] = GaussianRational(red._e[r][n].re, red._e[r][n + 1].re)
        return tuple(x)

    def inverse(self) -> Optional[tuple[list[list[int]], int]]:
        """The inverse of a real matrix as int rows over one positive denominator.

        None when the matrix is not square or singular. One Bareiss-Jordan
        reduction takes [S * A | S], S the row scales, to [I | A^-1] * pivot.
        """
        n = self.rows
        if self.cols != n:
            return None
        a = [ints + [s * (k == i) for k in range(n)]
             for i, (ints, s) in enumerate(map(_int_row, self._rational_rows()))]
        pivots, d = _bareiss_jordan(a, n)
        if len(pivots) < n:
            return None
        g = gcd(d, *(x for row in a for x in row[n:])) * (1 if d > 0 else -1)
        return [[x // g for x in row[n:]] for row in a], d // g

    # -- inertia ---------------------------------------------------------

    def inertia(self) -> tuple[int, int, int]:
        """Sylvester inertia (n_plus, n_minus, n_zero) of a quadratic form.

        The matrix must be real symmetric. It is scaled by the lcm of its
        denominators and reduced on ints by :func:`_int_inertia`.
        """
        form = self._rational_rows()
        if not self.is_symmetric():
            raise ValueError("inertia requires a square symmetric matrix")
        scale = lcm(*(x.denominator for row in form for x in row))
        return _int_inertia([_cleared(row, scale) for row in form])


def _cleared(values: list[Fraction], scale: int) -> list[int]:
    """``values`` times ``scale``, a positive common multiple of their denominators."""
    return [x.numerator * (scale // x.denominator) for x in values]


def _int_row(values: list[Fraction]) -> tuple[list[int], int]:
    """``values`` as ints over the lcm of their denominators, and that lcm."""
    scale = lcm(*(x.denominator for x in values))
    return _cleared(values, scale), scale


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


# Functional aliases matching the operation names used throughout the docs.

def nullspace(m: Matrix) -> list[Vector]:
    return m.nullspace()


def solve(m: Matrix, b: Sequence) -> Optional[Vector]:
    return m.solve(b)


def inertia(m: Matrix) -> tuple[int, int, int]:
    return m.inertia()


def rank(m: Matrix) -> int:
    return m.rank()


def real_fraction(x: GaussianRational) -> Fraction:
    """Extract the rational value of a provably real scalar."""
    if x.im != 0:
        raise ArithmeticError(f"expected a real value, got {x}")
    return x.re
