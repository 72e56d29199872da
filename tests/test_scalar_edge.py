"""Exact scalars at the package edge: one reader in, one int integral out.

``linalg._gaussian_ints`` reads the ints, Fractions and Gaussian rationals of
``class_vector``, ``scaled``, ``Matrix(entries)`` and ``solve``, and classes
refuse a non-real value; ``ring._integral`` takes every integral as int
numerators over one denominator. Here both are compared with the Fraction
formulas they replaced: g by ``*`` and ``-`` of integrals, the decomposition's
closed-form check on the returned lambda, and integrals formed from ``coeffs``
and the ring's integral vector. A profile hook checks that the int paths build
no Gaussian rational.
"""

from fractions import Fraction

import pytest

from hodgecs import zoo
from hodgecs.errors import DegreeError, RingMismatchError, SingularSplitError
from hodgecs.gaussian import GaussianRational
from hodgecs.inequalities import (
    check_cs,
    compute_g_decomposed,
    compute_g_direct,
    kt_chain,
    proportional,
)
from hodgecs.lefschetz import LefschetzDecomposer
from hodgecs.linalg import Matrix
from hodgecs.ring import (
    FLAG_NEF,
    integrate,
    mixed_setup,
    power,
    sanity_check_kahler,
    wedge,
)
from hodgecs.sampling import random_strict_setup, sample_random_class
from test_int_matrix import _constructions, _scaled
from test_ring_ints import _old_integrate as _oracle_integral

I = GaussianRational(0, 1)


def _rings():
    for name in zoo.list_entries():
        yield zoo.get(name).ring
    yield _scaled(zoo.get("flag3").ring)
    yield _scaled(zoo.get("quadric4").ring)


def _oracle_g(alpha, setup) -> Fraction:
    """g by the Fraction formula: pair * vol - mixed^2."""
    pair = _oracle_integral(wedge(wedge(alpha, alpha), setup.omega_p))
    vol = _oracle_integral(setup.tower[2 * setup.p])
    mixed = _oracle_integral(wedge(alpha, setup.tower[setup.p]))
    return pair * vol - mixed * mixed


def _boundary_setup(ring, p):
    nef = [s for s in ring.nef_samples() if s.flag == FLAG_NEF]
    nef = nef or [k.with_flag(FLAG_NEF) for k in ring.kahler_samples()]
    return mixed_setup(p, nef[0], [nef[i % len(nef)] for i in range(ring.n - 2 * p)])


def _alphas(ring, p, k):
    first = sample_random_class(ring, p, 7, seed=21, index=k)
    other = sample_random_class(ring, p, 7, seed=22, index=k)
    yield first
    yield first + other
    yield other.scaled(Fraction(-2, 5))
    yield ring.zero_class(p)


def test_g_and_lambda_match_the_gaussian_formulas():
    for ring in _rings():
        for p in range(1, ring.n // 2 + 1):
            setups = [random_strict_setup(ring, p, 9, seed=20, index=k) for k in range(2)]
            setups.append(_boundary_setup(ring, p))
            for k, setup in enumerate(setups):
                where = (ring.name, p, k, setup.mode)
                vol = _oracle_integral(setup.tower[2 * setup.p])
                assert setup.volume == integrate(setup.tower[2 * p]) == vol, where
                for alpha in (*_alphas(ring, p, k), setup.omega_power.scaled(Fraction(-3, 4))):
                    g = compute_g_direct(alpha, setup)
                    assert g == _oracle_g(alpha, setup), where
                    assert check_cs(alpha, setup).g_value == g, where
                    mixed = wedge(alpha, setup.tower[p])
                    assert integrate(mixed) == _oracle_integral(mixed), where
                    if setup.mode == "strict":
                        dec = LefschetzDecomposer(setup).decompose(alpha)
                        assert type(dec.lam) is Fraction
                        assert dec.lam * vol == _oracle_integral(mixed), where
                        assert compute_g_decomposed(alpha, setup).value == g, where


def test_lambda_check_compares_both_parts():
    # A decomposer whose level inverses are off by a factor of 2 gives lam / 2,
    # which the closed-form check (lam times the volume against the integral of
    # alpha * w^p * Omega_p) refuses, whatever the sign and size of lam.
    ring = zoo.get("blp4").ring
    setup = random_strict_setup(ring, 2, 9, seed=3, index=0)
    broken = LefschetzDecomposer(setup)
    broken._levels = [(i, c, inverse, 2 * d) for i, c, inverse, d in broken._levels]
    for alpha in (setup.omega_power, setup.omega_power.scaled(Fraction(-2, 3))):
        assert LefschetzDecomposer(setup).decompose(alpha).lam in (1, Fraction(-2, 3))
        with pytest.raises(SingularSplitError, match="closed-form"):
            broken.decompose(alpha)


# -- the entry reader ------------------------------------------------------------

VALUES = [0, 3, Fraction(-2, 3), Fraction(5, 7)]


def test_ints_fractions_and_gaussians_give_the_same_classes():
    ring = zoo.get("blp4").ring
    for values in ([VALUES[0], VALUES[1]], [VALUES[2], VALUES[3]], [VALUES[1], VALUES[2]]):
        as_gaussian = [GaussianRational(v) for v in values]
        a = ring.class_vector(1, values)
        assert a == ring.class_vector(1, as_gaussian)
        assert a.coeffs == tuple(as_gaussian)
        assert all(type(x) is Fraction for x in a.coeffs)
    mixed = [GaussianRational(Fraction(1, 2)), Fraction(1, 6)]
    c = ring.class_vector(1, mixed)
    assert c.coeffs == tuple(map(GaussianRational.coerce, mixed))
    assert (c.re, c.den) == ((3, 1), 6)
    for factor in (*VALUES, GaussianRational(Fraction(2, 3))):
        expected = tuple(x * factor for x in c.coeffs)
        assert c.scaled(factor).coeffs == expected
        assert (c * factor).coeffs == (factor * c).coeffs == expected
    for factor in (GaussianRational(Fraction(2, 3), 5), I):
        with pytest.raises(ValueError, match="non-real"):
            c.scaled(factor)


def test_ints_fractions_and_gaussians_give_the_same_matrices():
    rows = [[0, 3], [Fraction(-2, 3), Fraction(5, 7)]]
    m = Matrix(rows)
    assert m == Matrix([[GaussianRational(x) for x in row] for row in rows])
    assert m == Matrix.from_columns([[0, Fraction(-2, 3)], [GaussianRational(3), Fraction(5, 7)]])
    assert (m.num, m.den) == (((0, 63), (-14, 15)), 21)
    assert [[m[i, j] for j in range(2)] for i in range(2)] == rows
    b = [GaussianRational(1, Fraction(1, 2)), Fraction(2, 3)]
    x = m.solve(b)
    assert m.apply(x) == tuple(map(GaussianRational.coerce, b))


def test_floats_and_complex_entries_keep_their_errors():
    ring = zoo.get("p1xp1").ring
    with pytest.raises(TypeError, match="cannot interpret 0.5 as a Gaussian rational"):
        ring.class_vector(1, [1, 0.5])
    with pytest.raises(TypeError, match="cannot interpret 0.5 as a Gaussian rational"):
        ring.sample("omega").scaled(0.5)
    with pytest.raises(TypeError, match="unsupported operand"):
        ring.sample("omega") * 0.5
    with pytest.raises(TypeError, match="cannot interpret 0.5 as a rational matrix entry"):
        Matrix([[1, 0.5]])
    with pytest.raises(TypeError, match="cannot interpret 0.5 as a Gaussian rational"):
        Matrix([[1, 0], [0, 1]]).solve([1, 0.5])
    with pytest.raises(ValueError, match=r"matrix entries must be real, got 1\+1i"):
        Matrix([[1, GaussianRational(1, 1)]])
    # Entries are read in order: the first bad one decides the error.
    with pytest.raises(ValueError, match="must be real"):
        Matrix([[I, 0.5]])
    with pytest.raises(TypeError):
        Matrix([[0.5, I]])
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix([[1, 2], [3]])
    with pytest.raises(DegreeError, match="needs 2 coefficients, got 1"):
        ring.class_vector(1, [GaussianRational(3)])
    # A non-real value is refused before the shape is checked.
    with pytest.raises(ValueError, match="non-real value 1i"):
        ring.class_vector(1, [I])
    with pytest.raises(ValueError, match="non-real value 1i"):
        zoo.get("p2").ring.class_vector(2, [I])


# -- ring identity ------------------------------------------------------------------

def test_classes_of_different_rings_are_refused():
    a = zoo.get("p1xp1").ring.sample("omega")
    b = zoo.get("p1xp2").ring.sample("omega")
    with pytest.raises(RingMismatchError):
        proportional(a, b)
    assert a != b
    setup = mixed_setup(1, a, [])
    with pytest.raises(RingMismatchError, match="class belongs to a different ring"):
        setup.check_class(b)
    with pytest.raises(RingMismatchError, match="class belongs to a different ring"):
        compute_g_direct(b, setup)
    with pytest.raises(RingMismatchError, match="reference classes live in different rings"):
        mixed_setup(1, zoo.get("p3").ring.sample("h"), [zoo.get("p2").ring.sample("h")])
    # An equal ring built separately is the same ring.
    twin = _scaled(zoo.get("flag3").ring)
    assert proportional(twin.sample_classes()[0], _scaled(zoo.get("flag3").ring).sample_classes()[0])


# -- no Gaussian rational on the int paths ------------------------------------------

def test_int_paths_build_no_gaussian_rational():
    ring = zoo.get("blp4").ring
    w = ring.sample("omega")
    half, third = Fraction(1, 2), Fraction(-4, 3)
    steps = {
        "class_vector ints": lambda: ring.class_vector(2, [3, -1]),
        "class_vector fractions": lambda: ring.class_vector(1, [half, third]),
        "scaled int": lambda: w.scaled(-3),
        "scaled fraction": lambda: w.scaled(third),
    }
    for name, fn in steps.items():
        assert _constructions(fn)[1] == {}, name

    setup = random_strict_setup(ring, 2, 9, seed=4, index=0)
    alpha = sample_random_class(ring, 2, 9, seed=4, index=0) + ring.class_vector(2, [half, 0])
    boundary = _boundary_setup(ring, 2)
    setup.volume, setup.omega_power, boundary.volume, boundary.omega_power  # cached per setup
    calls = {
        "compute_g_direct": lambda: compute_g_direct(alpha, setup),
        "check_cs boundary": lambda: check_cs(alpha, boundary),
        "kt_chain": lambda: kt_chain(ring, ring.sample("hyperplane"), w),
        "sanity_check_kahler": lambda: sanity_check_kahler(ring, w),
    }
    for name, fn in calls.items():
        assert _constructions(fn)[1]["__init__"] == 0, name

    # g is one Fraction once the setup's volume is cached.
    seen = _constructions(lambda: compute_g_direct(alpha, setup))[1]
    assert seen["__new__"] + seen["_from_coprime_ints"] == 1

    # The decomposition builds no Gaussian rational: the lambda it returns is a Fraction.
    decomposer = LefschetzDecomposer(setup)
    dec, seen = _constructions(lambda: decomposer.decompose(alpha))
    assert seen["__init__"] == 0 and type(dec.lam) is Fraction
    assert dec.lam * setup.volume == integrate(wedge(alpha, power(setup.omega, 2)))
