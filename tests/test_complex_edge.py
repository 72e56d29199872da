"""Complex classes at the package edge: classes are rational, and a complex
class is handled through its real and imaginary parts.

``proportional`` is compared with sympy's rank of the stacked pair. For a
complex class alpha = x + iy, g is computed by sympy with ``I`` from the form
matrix of Omega_p, w^p and the volume; it must equal g(x) + g(y), as the setup
is real. Skipped when sympy is absent.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hodgecs import zoo
from hodgecs.inequalities import compute_g_direct, proportional
from hodgecs.ring import form_matrix
from hodgecs.sampling import random_strict_setup, sample_random_class
from test_lefschetz import _p1_fourth
from test_linalg_kernel import _sym, _sym_matrix


def _oracle(a, b) -> bool:
    rows = [[_sym(x) for x in a.coeffs], [_sym(x) for x in b.coeffs]]
    return sympy.Matrix(rows).rank(simplify=True) <= 1


def _scalar(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _nonzero(rng):
    while True:
        z = _scalar(rng)
        if z:
            return z


def _pairs(ring, p, rng):
    """Zero, proportional, once-perturbed and random pairs in degree p."""
    h = ring.dim(p)

    def cls(coeffs):
        return ring.class_vector(p, coeffs)

    def draw():
        return [_scalar(rng) for _ in range(h)]

    zero = cls([0] * h)
    a = cls(draw())
    yield zero, zero
    yield zero, a
    yield a, zero
    for _ in range(4):
        a, t = cls(draw()), _nonzero(rng)
        yield a, a.scaled(t)
        yield a.scaled(t), a
        # t * b with one coordinate moved.
        for _ in range(2):
            b = cls(draw())
            moved = list(b.scaled(t).coeffs)
            j = rng.randrange(h)
            moved[j] = moved[j] + _nonzero(rng)
            yield cls(moved), b
        yield cls(draw()), cls(draw())


@pytest.mark.parametrize("ring", [zoo.get("blp4").ring, zoo.get("p1xp2").ring, _p1_fourth()],
                         ids=["blp4", "p1xp2", "p1fourth"])
def test_proportional_matches_sympy_rank(ring):
    rng = random.Random(6060 + ring.n)
    seen = {True: 0, False: 0}
    for p in range(ring.n + 1):
        for a, b in _pairs(ring, p, rng):
            expected = _oracle(a, b)
            assert proportional(a, b) == expected, (p, a, b)
            seen[expected] += 1
    assert seen[True] and seen[False]


_ZOO_CASES = [(name, p) for name in zoo.list_entries()
              for p in range(1, zoo.get(name).ring.n // 2 + 1)]


@pytest.mark.parametrize("name, p", _ZOO_CASES, ids=[f"{n}-p{p}" for n, p in _ZOO_CASES])
def test_complex_g_is_the_sum_of_g_over_the_parts(name, p):
    ring = zoo.get(name).ring
    for k in range(3):
        setup = random_strict_setup(ring, p, 9, seed=70, index=k)
        x = sample_random_class(ring, p, 9, seed=71, index=k)
        y = sample_random_class(ring, p, 9, seed=72, index=k)
        q = _sym_matrix(form_matrix(ring, p, setup.omega_p))
        w = sympy.Matrix([_sym(c) for c in setup.omega_power.coeffs])
        a = sympy.Matrix([_sym(u) + sympy.I * _sym(v) for u, v in zip(x.coeffs, y.coeffs)])
        volume = (w.T * q * w)[0, 0]
        assert volume == _sym(setup.volume)
        mixed = (a.T * q * w)[0, 0]
        g = sympy.expand((a.T * q * a.conjugate())[0, 0] * volume
                         - mixed * sympy.conjugate(mixed))
        assert sympy.im(g) == 0
        assert g == _sym(compute_g_direct(x, setup) + compute_g_direct(y, setup)), (name, p, k)
