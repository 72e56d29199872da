"""Exact linear algebra kernels: canonical forms, solve, inertia."""

from fractions import Fraction

import pytest
import sympy

from hodgecs.linalg import Matrix
from hodgecs.sampling import Xoshiro256StarStar


def _random_matrix(rng, rows, cols, bound=5):
    return Matrix([
        [rng.int_between(-bound, bound) for _ in range(cols)] for _ in range(rows)
    ])


# -- nullspace ---------------------------------------------------------------

def test_nullspace_full_rank_is_empty():
    assert Matrix.identity(2).nullspace() == []


def test_nullspace_sum_row():
    ns = Matrix([[1, 1]]).nullspace()
    assert ns == [(1, -1)]
    assert all(type(x) is Fraction for x in ns[0])


def test_nullspace_blowup_pairing_row():
    # Oracle: the pairing row of alpha -> integral of alpha * w^3 on the
    # one-point blow-up of 4-space with w = 2H - E. Expanding (2H - E)^3 with
    # H*E = 0 leaves 8 H^3 - E^3, and against x H + y E the integrals
    # H^4 -> 1, E^4 -> -1 give the row [8x, y], i.e. [8, 1].
    h_coef = Fraction(2) ** 3 * 1
    e_coef = Fraction(-1) ** 3 * (-1)
    row = [h_coef, e_coef]
    assert row == [8, 1]
    ns = Matrix([row]).nullspace()
    assert ns == [(1, -8)]


def test_nullspace_is_canonical_echelon():
    rng = Xoshiro256StarStar(99)
    for trial in range(30):
        m = _random_matrix(rng, rng.int_between(1, 4), rng.int_between(1, 4))
        basis = m.nullspace()
        assert basis == m.nullspace()  # deterministic
        leads = []
        for v in basis:
            idx = next(i for i, x in enumerate(v) if x)
            assert v[idx] == 1
            leads.append(idx)
            for other in basis:
                if other is not v:
                    assert other[idx] == 0
        assert leads == sorted(leads)
        for v in basis:
            assert all(x == 0 for x in m.apply(v))


def test_rank_plus_nullity():
    rng = Xoshiro256StarStar(7)
    for trial in range(40):
        m = _random_matrix(rng, rng.int_between(1, 4), rng.int_between(1, 4))
        assert m.rank() + len(m.nullspace()) == m.cols


# -- solve --------------------------------------------------------------------

def test_solve_identity():
    m = Matrix.identity(3)
    x = m.solve([5, -2, Fraction(1, 3)])
    assert x == (5, -2, Fraction(1, 3))
    assert all(type(v) is Fraction for v in x)


def test_solve_pivot_first_convention():
    assert Matrix([[1, 1]]).solve([2]) == (2, 0)


def test_solve_inconsistent():
    m = Matrix([[1, 1], [1, 1]])
    assert m.solve([1, 2]) is None


def test_solve_roundtrip_random():
    rng = Xoshiro256StarStar(13)
    for trial in range(40):
        m = _random_matrix(rng, rng.int_between(1, 4), rng.int_between(1, 4))
        x = [rng.int_between(-4, 4) for _ in range(m.cols)]
        b = m.apply(x)
        x2 = m.solve(b)
        assert x2 is not None
        assert m.apply(x2) == b


# -- rank ----------------------------------------------------------------------

def test_rank_identity():
    assert Matrix.identity(4).rank() == 4


def test_rank_proportional_rows():
    assert Matrix([[1, 2], [2, 4]]).rank() == 1


def test_rank_two():
    # Oracle: determinant of [[3, 1], [1, 1]] is 3 - 1 = 2, nonzero.
    assert Matrix([[3, 1], [1, 1]]).rank() == 2


# -- inertia ---------------------------------------------------------------------

def test_inertia_diagonal():
    assert Matrix([[2, 0], [0, -3]]).inertia() == (1, 1, 0)


def test_inertia_zero_matrix():
    assert Matrix.zeros(3, 3).inertia() == (0, 0, 3)


def test_inertia_hyperbolic_pair():
    # Oracle: characteristic polynomial of [[0,1],[1,0]] is t^2 - 1, so the
    # eigenvalues are +1 and -1.
    assert Matrix([[0, 1], [1, 0]]).inertia() == (1, 1, 0)


def test_inertia_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        Matrix([[0, 1], [2, 0]]).inertia()


def test_inertia_rejects_complex_without_flag():
    # A complex entry is refused when the matrix is built, before any inertia.
    for i in (1j, sympy.I):
        with pytest.raises(TypeError, match="as a rational"):
            Matrix([[0, i], [i, 0]]).inertia()


def test_inertia_congruence_invariant():
    rng = Xoshiro256StarStar(21)
    done = 0
    while done < 25:
        n = rng.int_between(2, 4)
        raw = _random_matrix(rng, n, n, bound=3)
        sym = Matrix([
            [raw[i, j] + raw[j, i] for j in range(n)] for i in range(n)
        ])
        a = _random_matrix(rng, n, n, bound=3)
        if a.rank() < n:
            continue
        done += 1
        transformed = a.transpose() @ sym @ a
        assert transformed.inertia() == sym.inertia()


def test_inertia_sums_to_dimension():
    rng = Xoshiro256StarStar(34)
    for trial in range(25):
        n = rng.int_between(1, 5)
        raw = _random_matrix(rng, n, n, bound=2)
        sym = Matrix([[raw[i, j] + raw[j, i] for j in range(n)] for i in range(n)])
        np_, nm, nz = sym.inertia()
        assert np_ + nm + nz == n
