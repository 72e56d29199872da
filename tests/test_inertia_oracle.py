"""Inertia cross-checked against an independent exact eigenvalue-count oracle.

The oracle never touches the congruence code path: it counts characteristic
polynomial roots by sign with Sturm sequences (sympy), which is exact for the
rational matrices used here. Sturm sequences count distinct roots, so the
oracle counts the roots of each square-free factor and weights them by the
factor's multiplicity. Skipped when sympy is absent.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hodgecs.linalg import Matrix
from hodgecs.sampling import Xoshiro256StarStar

_LAM = sympy.Symbol("lam")


def sturm_inertia(sym_matrix):
    n = sym_matrix.rows
    poly = sympy.Poly(sym_matrix.charpoly(_LAM).as_expr(), _LAM)
    nz = 0
    while poly.eval(0) == 0:
        poly = sympy.Poly(sympy.cancel(poly.as_expr() / _LAM), _LAM)
        nz += 1
    np_ = nm = 0
    for factor, mult in poly.sqf_list()[1]:
        np_ += mult * factor.count_roots(0, sympy.oo)
        nm += mult * factor.count_roots(-sympy.oo, 0)
    assert np_ + nm + nz == n
    return (np_, nm, nz)


def test_real_symmetric_matches_root_counts():
    rng = Xoshiro256StarStar(123)
    for trial in range(30):
        n = rng.int_between(1, 5)
        raw = [
            [Fraction(rng.int_between(-4, 4), rng.int_between(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        sym = [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
        mine = Matrix(sym).inertia()
        oracle = sturm_inertia(sympy.Matrix([
            [sympy.Rational(x.numerator, x.denominator) for x in row] for row in sym
        ]))
        assert mine == oracle, sym
