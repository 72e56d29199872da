"""Degenerate input on the general path: empty shapes and zero diagonals.

A matrix keeps its shape when it has no rows or no columns, so restricting a
form to an empty basis, taking the kernel of a map with no rows and
multiplying through a zero-width matrix need no special case. A form whose
diagonal is zero is reduced by the same 1x1 pivot rule as any other, after a
congruence e_i -> e_i + e_j. The direct sums of hyperbolic pairs below make
that congruence fire once per pair; on weighted paths the chosen pair shares
a neighbour with the rest of the form. Both are checked against the Sturm
oracle.
"""

import random
from fractions import Fraction

import pytest

from hodgecs import zoo
from hodgecs.lefschetz import gram_matrix_Q, hr_check, restrict_form
from hodgecs.linalg import Matrix
from hodgecs.ring import as_kahler


def shape(m: Matrix) -> tuple[int, int]:
    return m.rows, m.cols


# -- shapes -------------------------------------------------------------------------

def test_transpose_keeps_zero_width():
    assert shape(Matrix.zeros(3, 0).transpose()) == (0, 3)


def test_product_through_zero_width_is_empty_form():
    z = Matrix.zeros(3, 0)
    form = z.transpose() @ Matrix.identity(3) @ z
    assert shape(form) == (0, 0)
    assert form.inertia() == (0, 0, 0)


def test_nullspace_of_map_without_rows_is_everything():
    units = [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]
    assert Matrix.zeros(0, 3).nullspace() == units


def test_empty_matrices_of_different_width_differ():
    assert Matrix.zeros(0, 3) != Matrix.zeros(0, 5)
    assert len({Matrix.zeros(0, 3), Matrix.zeros(0, 5)}) == 2


def test_from_columns_without_columns_keeps_rows():
    assert shape(Matrix.from_columns([], rows=4)) == (4, 0)


# -- empty basis ----------------------------------------------------------------------

def test_restrict_form_to_empty_basis():
    ring = zoo.get("blp4").ring
    form = gram_matrix_Q(ring, 1, [ring.sample("omega")] * 2)
    restricted = restrict_form(form, [])
    assert shape(restricted) == (0, 0)
    assert restricted.inertia() == (0, 0, 0)


def test_hr_check_with_zero_dimensional_primitive_space():
    # On the blow-up of P^8, h^2 = h^1 = 2, so the degree-2 primitive space is 0.
    ring = zoo.blowup_pn(8).ring
    omega = as_kahler(ring, ring.sample("omega"))
    report = hr_check(ring, 2, omega, [omega] * 4)
    assert report.passed
    assert report.primitive.dim == 0
    assert repr(report.restricted_gram) == "Matrix[0x0: ]"
    assert report.restricted_inertia == (0, 0, 0)


# -- chained zero diagonals ----------------------------------------------------------

def zero_diagonal_form(n, edges, rng):
    """The form with a_ij = a_ji = t for each (i, j, t), rows and columns permuted."""
    a = [[Fraction(0)] * n for _ in range(n)]
    for i, j, t in edges:
        a[i][j] = a[j][i] = t
    order = list(range(n))
    rng.shuffle(order)
    return [[a[i][j] for j in order] for i in order]


def sturm(form):
    sympy = pytest.importorskip("sympy")
    from test_inertia_oracle import sturm_inertia

    return sturm_inertia(sympy.Matrix([
        [sympy.Rational(x.numerator, x.denominator) for x in row] for row in form
    ]))


def test_chained_zero_diagonals_match_sturm():
    # The eigenvalues are +-t. Odd trials give every pair the same |t|, so
    # +-|t| are repeated eigenvalues; even trials draw distinct |t|.
    sizes = sorted({Fraction(p, q) for p in range(1, 10) for q in range(1, 8)})
    rng = random.Random(20061)
    for trial in range(24):
        pairs = 1 + trial % 4
        drawn = [rng.choice(sizes)] * pairs if trial % 2 else rng.sample(sizes, pairs)
        ts = [rng.choice([-1, 1]) * t for t in drawn]
        form = zero_diagonal_form(
            2 * pairs, [(2 * k, 2 * k + 1, t) for k, t in enumerate(ts)], rng
        )
        oracle = sturm(form)
        assert oracle == (pairs, pairs, 0)
        assert Matrix(form).inertia() == oracle, form


def test_zero_diagonal_paths_match_sturm():
    # A weighted path is tridiagonal with nonzero off-diagonal entries, so its
    # eigenvalues are simple; its inertia is (n // 2, n // 2, n % 2).
    rng = random.Random(20062)
    for trial in range(24):
        n = 2 + trial % 7
        weights = [
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
            for _ in range(n - 1)
        ]
        form = zero_diagonal_form(n, [(i, i + 1, t) for i, t in enumerate(weights)], rng)
        oracle = sturm(form)
        assert oracle == (n // 2, n // 2, n % 2)
        assert Matrix(form).inertia() == oracle, form
