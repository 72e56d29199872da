"""Exact linear algebra kernels: canonical forms, solve, inertia."""

from fractions import Fraction

import pytest

from hodgecs.gaussian import GaussianRational
from hodgecs.linalg import Matrix, inertia, nullspace, rank, solve
from hodgecs.sampling import Xoshiro256StarStar

I = GaussianRational(0, 1)


def _random_matrix(rng, rows, cols, bound=5):
    return Matrix([
        [rng.int_between(-bound, bound) for _ in range(cols)] for _ in range(rows)
    ])


# -- nullspace ---------------------------------------------------------------

def test_nullspace_full_rank_is_empty():
    assert nullspace(Matrix.identity(2)) == []


def test_nullspace_sum_row():
    ns = nullspace(Matrix([[1, 1]]))
    assert ns == [(GaussianRational(1), GaussianRational(-1))]


def test_nullspace_blowup_pairing_row():
    # Oracle: the pairing row of alpha -> integral of alpha * w^3 on the
    # one-point blow-up of 4-space with w = 2H - E. Expanding (2H - E)^3 with
    # H*E = 0 leaves 8 H^3 - E^3, and against x H + y E the integrals
    # H^4 -> 1, E^4 -> -1 give the row [8x, y], i.e. [8, 1].
    h_coef = Fraction(2) ** 3 * 1
    e_coef = Fraction(-1) ** 3 * (-1)
    row = [h_coef, e_coef]
    assert row == [8, 1]
    ns = nullspace(Matrix([row]))
    assert ns == [(GaussianRational(1), GaussianRational(-8))]


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
        assert rank(m) + len(nullspace(m)) == m.cols


# -- solve --------------------------------------------------------------------

def test_solve_identity():
    m = Matrix.identity(3)
    assert solve(m, [5, -2, Fraction(1, 3)]) == (
        GaussianRational(5), GaussianRational(-2), GaussianRational(Fraction(1, 3)))


def test_solve_pivot_first_convention():
    assert solve(Matrix([[1, 1]]), [2]) == (GaussianRational(2), GaussianRational(0))


def test_solve_inconsistent():
    m = Matrix([[1, 1], [1, 1]])
    assert solve(m, [1, 2]) is None


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
    assert rank(Matrix.identity(4)) == 4


def test_rank_proportional_rows():
    assert rank(Matrix([[1, 2], [2, 4]])) == 1


def test_rank_two():
    # Oracle: determinant of [[3, 1], [1, 1]] is 3 - 1 = 2, nonzero.
    assert rank(Matrix([[3, 1], [1, 1]])) == 2


# -- inertia ---------------------------------------------------------------------

def test_inertia_diagonal():
    assert inertia(Matrix([[2, 0], [0, -3]])) == (1, 1, 0)


def test_inertia_zero_matrix():
    assert inertia(Matrix.zeros(3, 3)) == (0, 0, 3)


def test_inertia_hyperbolic_pair():
    # Oracle: characteristic polynomial of [[0,1],[1,0]] is t^2 - 1, so the
    # eigenvalues are +1 and -1.
    assert inertia(Matrix([[0, 1], [1, 0]])) == (1, 1, 0)


def test_inertia_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        inertia(Matrix([[0, 1], [2, 0]]))


def test_inertia_rejects_complex_without_flag():
    # A non-real entry is refused when the matrix is built, before any inertia.
    with pytest.raises(ValueError, match="real"):
        inertia(Matrix([[GaussianRational(0), I], [I, GaussianRational(0)]]))


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
