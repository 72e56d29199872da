"""Matrix products and inverses on ints, against the loops they replaced.

``Matrix.__matmul__`` multiplies the int rows of both factors, so every
entry is one int dot product over the product of the two denominators;
``_old_matmul`` below is the previous triple loop over scalar entries, kept
as the oracle. ``Matrix.inverse`` is a matrix, int rows over one positive
denominator, which ``LefschetzDecomposer`` keeps per level in place of one
``solve`` per level per class; ``_old_decompose`` is that solve-based loop.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from hodgecs import zoo
from hodgecs.lefschetz import LefschetzDecomposer
from hodgecs.linalg import Matrix
from hodgecs.ring import mixed_setup, multiplication_matrix, wedge
from hodgecs.sampling import random_strict_setup, sample_random_class
from test_lefschetz import _p1_fourth_ample


def _old_matmul(a: Matrix, b: Matrix) -> list[list[Fraction]]:
    return [
        [sum((a[i, k] * b[k, j] for k in range(a.cols)), Fraction(0)) for j in range(b.cols)]
        for i in range(a.rows)
    ]


def _random(rng, rows, cols, density=0.7):
    return Matrix([
        [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < density else 0
         for _ in range(cols)]
        for _ in range(rows)
    ])


def _entries(m: Matrix) -> list[list[Fraction]]:
    return [list(m.row(i)) for i in range(m.rows)]


# -- products ----------------------------------------------------------------------

def test_matmul_matches_the_triple_loop():
    rng = random.Random(11)
    for _ in range(200):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a, b = _random(rng, n, k), _random(rng, k, m)
        product = a @ b
        assert (product.rows, product.cols) == (n, m)
        assert _entries(product) == _old_matmul(a, b)


@pytest.mark.parametrize("n,k,m", [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0), (2, 0, 0), (0, 4, 0)])
def test_matmul_zero_shapes(n, k, m):
    rng = random.Random(n * 100 + k * 10 + m)
    a, b = Matrix.zeros(n, k), _random(rng, k, m) if k else Matrix.zeros(0, m)
    product = a @ b
    assert (product.rows, product.cols) == (n, m)
    assert product == Matrix.zeros(n, m)
    assert _entries(product) == _old_matmul(a, b)


@pytest.mark.parametrize("side", ["left", "right"])
def test_matmul_rejects_a_non_real_entry(side):
    # The operand with a complex entry is refused when it is built.
    real = Matrix([[1, 2], [3, 4]])
    for i in (1j, sympy.I):
        with pytest.raises(TypeError, match="as a rational"):
            other = Matrix([[1, i], [0, 1]])
            _ = other @ real if side == "left" else real @ other


def test_matmul_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="dimension mismatch"):
        _ = Matrix.zeros(2, 3) @ Matrix.zeros(2, 3)


# -- inverses ----------------------------------------------------------------------

def test_inverse_times_matrix_is_identity():
    rng = random.Random(13)
    seen = 0
    while seen < 60:
        n = rng.randint(1, 6)
        a = _random(rng, n, n, density=0.8)
        inv = a.inverse()
        if a.rank() < n:
            assert inv is None
            continue
        seen += 1
        assert inv.den > 0
        assert gcd(inv.den, *(x for row in inv.num for x in row)) == 1
        assert a @ inv == Matrix.identity(n)
        assert inv @ a == Matrix.identity(n)


def test_inverse_of_singular_or_non_square_is_none():
    assert Matrix([[1, 2], [2, 4]]).inverse() is None
    assert Matrix([[1, 2, 3], [4, 5, 6]]).inverse() is None
    assert Matrix.zeros(2, 2).inverse() is None
    assert Matrix.zeros(0, 0).inverse() == Matrix.zeros(0, 0)


# -- the decomposer keeps its inverses ----------------------------------------------

def _old_decompose(setup, alpha):
    """Components and remainder by one ``solve`` of each level's Lefschetz matrix."""
    ring, p, rung = setup.ring, setup.p, setup.rung
    components, current = [], alpha
    for i in range(p, 0, -1):
        lower = multiplication_matrix(ring, i - 1, rung(2 * (p - i) + 2))
        rest = ring.class_vector(i - 1, lower.solve(wedge(current, rung(2 * (p - i) + 1)).coeffs))
        components.append(current - wedge(rest, setup.omega))
        current = rest
    return current.coeffs[0], tuple(reversed(components))


def test_decompose_matches_the_solve_loop():
    cases = []
    for ring in (zoo.get("flag3").ring, zoo.get("quadric4").ring, zoo.blowup_pn(8).ring):
        for p in range(1, ring.n // 2 + 1):
            cases.append(random_strict_setup(ring, p, 7, seed=61, index=p))
    a, b, c = _p1_fourth_ample()
    cases += [mixed_setup(1, a, [b, c]), mixed_setup(2, a, [])]
    for k, setup in enumerate(cases):
        decomposer = LefschetzDecomposer(setup)
        first = sample_random_class(setup.ring, setup.p, 9, seed=62, index=k)
        second = sample_random_class(setup.ring, setup.p, 9, seed=63, index=k)
        for alpha in (first, second):
            dec = decomposer.decompose(alpha)
            assert (dec.lam, dec.components) == _old_decompose(setup, alpha)
            assert dec.reconstruct() == alpha
