"""Complex classes where they enter: proportionality and the Kahler gate.

Elimination is over the rationals only, so the library code that meets a
non-real class must handle it before any matrix is reduced. ``proportional``
is compared with sympy's rank of the stacked pair; skipped when sympy is
absent.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hodgecs import zoo
from hodgecs.errors import FlagError
from hodgecs.gaussian import GaussianRational
from hodgecs.inequalities import proportional
from hodgecs.ring import as_kahler, sanity_check_kahler
from test_lefschetz import _p1_fourth
from test_linalg_kernel import _sym


def _oracle(a, b) -> bool:
    rows = [[_sym(x) for x in a.coeffs], [_sym(x) for x in b.coeffs]]
    return sympy.Matrix(rows).rank(simplify=True) <= 1


def _scalar(rng, real_only=False, imag_only=False):
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    im = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return GaussianRational(0 if imag_only else re, 0 if real_only else im)


def _nonzero(rng, **kind):
    while True:
        z = _scalar(rng, **kind)
        if z:
            return z


def _pairs(ring, p, rng):
    """Zero, proportional, once-perturbed and random pairs in degree p."""
    h = ring.dim(p)

    def cls(coeffs):
        return ring.class_vector(p, coeffs)

    def draw(**kind):
        return [_scalar(rng, **kind) for _ in range(h)]

    zero = cls([0] * h)
    a = cls(draw())
    yield zero, zero
    yield zero, a
    yield a, zero
    for _ in range(4):
        a, t = cls(draw()), _nonzero(rng)
        yield a, a.scaled(t)
        yield a.scaled(t), a
        # t * b with one coordinate moved by a real, an imaginary or a
        # complex amount.
        for kind in ({"real_only": True}, {"imag_only": True}, {}):
            b = cls(draw())
            moved = list(b.scaled(t).coeffs)
            j = rng.randrange(h)
            moved[j] = moved[j] + _nonzero(rng, **kind)
            yield cls(moved), b
        # A real class against itself moved by an imaginary amount: the real
        # parts of every cross product agree, the imaginary parts do not.
        real = draw(real_only=True)
        moved = list(real)
        moved[rng.randrange(h)] += _nonzero(rng, imag_only=True)
        yield cls(real), cls(moved)
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


def test_kahler_gate_fails_a_non_real_class_without_raising():
    ring = zoo.get("blp4").ring
    w = ring.class_vector(1, [GaussianRational(2, 1), -1])
    report = sanity_check_kahler(ring, w)
    assert not report.passed
    checks = {c.name: c for c in report.checks}
    assert not checks["real"].passed
    assert str(checks["real"]).startswith("FAIL real")
    with pytest.raises(FlagError):
        as_kahler(ring, w)
