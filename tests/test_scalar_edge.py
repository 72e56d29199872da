"""Exact scalars at the package edge: one reader in, one int integral out.

``linalg._rational_ints`` reads the ints and Fractions of ``class_vector``,
``scaled``, ``Matrix(entries)``, ``apply`` and ``solve``, and refuses any other
value (a float, a Python complex, a sympy number) with ``TypeError``, as the
ring constructor does for its structure constants, integral and samples;
``ring._integral`` takes every integral as int numerators over one
denominator. Here both are compared with the Fraction formulas they replaced:
g by ``*`` and ``-`` of integrals, the decomposition's closed-form check on the
returned lambda, and integrals formed from ``coeffs`` and the ring's integral
vector. A profile hook counts the Fractions the int paths build.
"""

from fractions import Fraction

import pytest
import sympy

from hodgecs import zoo
from hodgecs.errors import DegreeError, RingMismatchError, SingularSplitError
from hodgecs.inequalities import (
    check_cs,
    compute_g_decomposed,
    compute_g_direct,
    proportional,
)
from hodgecs.lefschetz import LefschetzDecomposer
from hodgecs.linalg import Matrix, rational_to_str
from hodgecs.ring import (
    FLAG_KAHLER,
    FLAG_NEF,
    IntersectionRing,
    RingSample,
    integrate,
    mixed_setup,
    power,
    wedge,
)
from hodgecs.sampling import random_strict_setup, sample_random_class
from test_int_matrix import _constructions, _scaled
from test_ring_ints import _old_integrate as _oracle_integral


def _rings():
    for name in zoo.list_entries():
        yield zoo.get(name).ring
    yield _scaled(zoo.get("flag3").ring)
    yield _scaled(zoo.get("quadric4").ring)


def _oracle_g(alpha, setup) -> Fraction:
    """g by the Fraction formula: pair * vol - mixed^2."""
    pair = _oracle_integral(wedge(wedge(alpha, alpha), setup.omega_p))
    vol = _oracle_integral(setup.rung(2 * setup.p))
    mixed = _oracle_integral(wedge(alpha, setup.rung(setup.p)))
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
                vol = _oracle_integral(setup.rung(2 * setup.p))
                assert setup.volume == integrate(setup.rung(2 * p)) == vol, where
                for alpha in (*_alphas(ring, p, k), setup.omega_power.scaled(Fraction(-3, 4))):
                    g = compute_g_direct(alpha, setup)
                    assert g == _oracle_g(alpha, setup), where
                    assert check_cs(alpha, setup).g_value == g, where
                    mixed = wedge(alpha, setup.rung(p))
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
    # Ints and Fractions are the only scalars; a complex number is refused.
    ring = zoo.get("blp4").ring
    for values in ([VALUES[0], VALUES[1]], [VALUES[2], VALUES[3]], [VALUES[1], VALUES[2]]):
        a = ring.class_vector(1, values)
        assert a == ring.class_vector(1, [Fraction(v) for v in values])
        assert a == ring.class_vector(1, iter(values))
        assert a.coeffs == tuple(values)
        assert all(type(x) is Fraction for x in a.coeffs)
    c = ring.class_vector(1, [Fraction(1, 2), Fraction(1, 6)])
    assert (c.re, c.den) == ((3, 1), 6)
    for factor in VALUES:
        expected = tuple(x * factor for x in c.coeffs)
        assert c.scaled(factor).coeffs == expected
        assert (c * factor).coeffs == (factor * c).coeffs == expected
    for factor in (complex(Fraction(2, 3), 5), 1j, sympy.I, sympy.Rational(2, 3)):
        with pytest.raises(TypeError, match="as a rational"):
            c.scaled(factor)
        with pytest.raises(TypeError):
            c * factor


def test_ints_fractions_and_gaussians_give_the_same_matrices():
    rows = [[0, 3], [Fraction(-2, 3), Fraction(5, 7)]]
    m = Matrix(rows)
    assert m == Matrix([[Fraction(x) for x in row] for row in rows])
    assert m == Matrix.from_columns([[0, Fraction(-2, 3)], [3, Fraction(5, 7)]])
    assert (m.num, m.den) == (((0, 63), (-14, 15)), 21)
    assert [[m[i, j] for j in range(2)] for i in range(2)] == rows
    assert all(type(m[i, j]) is Fraction for i in range(2) for j in range(2))
    b = [1, Fraction(2, 3)]
    x = m.solve(b)
    assert m.apply(x) == tuple(b)
    assert m.solve(iter(b)) == x and m.apply(iter(x)) == tuple(b)
    assert all(type(v) is Fraction for v in (*x, *m.apply(x)))


def test_floats_and_complex_entries_keep_their_errors():
    ring = zoo.get("p1xp1").ring
    with pytest.raises(TypeError, match="cannot interpret 0.5 as a rational"):
        ring.class_vector(1, [1, 0.5])
    with pytest.raises(TypeError, match="cannot interpret 0.5 as a rational"):
        ring.sample("omega").scaled(0.5)
    with pytest.raises(TypeError, match="unsupported operand"):
        ring.sample("omega") * 0.5
    with pytest.raises(TypeError, match="cannot interpret 0.5 as a rational"):
        Matrix([[1, 0.5]])
    with pytest.raises(TypeError, match="cannot interpret 0.5 as a rational"):
        Matrix([[1, 0], [0, 1]]).solve([1, 0.5])
    with pytest.raises(TypeError, match="cannot interpret 0.5 as a rational"):
        Matrix([[1, 0], [0, 1]]).apply([1, 0.5])
    with pytest.raises(TypeError, match=r"cannot interpret \(1\+1j\) as a rational"):
        Matrix([[1, 1 + 1j]])
    # Entries are read in order: the first bad one decides the error.
    with pytest.raises(TypeError, match="cannot interpret 1j "):
        Matrix([[1j, 0.5]])
    with pytest.raises(TypeError, match="cannot interpret 0.5 "):
        Matrix([[0.5, sympy.I]])
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix([[1, 2], [3]])
    with pytest.raises(DegreeError, match="needs 2 coefficients, got 1"):
        ring.class_vector(1, [Fraction(3)])
    # A complex value is refused before the shape is checked.
    with pytest.raises(TypeError, match="cannot interpret 1j as a rational"):
        ring.class_vector(1, [1j])
    with pytest.raises(TypeError, match="cannot interpret I as a rational"):
        zoo.get("p2").ring.class_vector(2, [sympy.I])
    # The ring constructor reads its scalars by the same rule, and its
    # dimension, graded dimensions and product indices as ints.
    r = zoo.get("p1xp1").ring
    args = {"name": r.name, "n": r.n, "hodge": r.hodge, "basis_labels": r.basis_labels,
            "products": r.products, "integral": r.integral, "samples": r.samples}
    for change, message in [
        ({"products": {**r.products, (1, 0, 1, 0): (0.1,)}}, "cannot interpret 0.1 as a rational"),
        ({"products": {**r.products, (1, 0, 1, 0): ("1/2",)}},
         "cannot interpret '1/2' as a rational"),
        ({"integral": [0.5]}, "cannot interpret 0.5 as a rational"),
        ({"samples": [RingSample("s", FLAG_KAHLER, (1, 0.5))]}, "cannot interpret 0.5 as a rational"),
        ({"n": 2.0}, "'float' object cannot be interpreted as an integer"),
        ({"n": "2"}, "'str' object cannot be interpreted as an integer"),
        ({"hodge": [1, 2.7, 1]}, "'float' object cannot be interpreted as an integer"),
        ({"products": {(1, 0, 1.0, 1): (Fraction(1),)}},
         "'float' object cannot be interpreted as an integer"),
        ({"products": {(1, "0", 1, 1): (Fraction(1),)}},
         "'str' object cannot be interpreted as an integer"),
    ]:
        with pytest.raises(TypeError) as err:
            IntersectionRing(**{**args, **change})
        assert str(err.value) == message


def test_rational_to_str_writes_ints_and_fractions_only():
    # ints and Fractions, a bool as its int; the denominator is left out when it is 1.
    for q, text in [(0, "0"), (-7, "-7"), (True, "1"), (False, "0"), (Fraction(3, 6), "1/2"),
                    (Fraction(-4, 2), "-2"), (Fraction(-2, 3), "-2/3"), (10**50, "1" + "0" * 50)]:
        assert rational_to_str(q) == text, q
    # A float is refused, not written as its binary fraction, as is any other value.
    for bad in (0.1, 1.0, 1 + 0j, "1/2", None, sympy.Rational(1, 2)):
        with pytest.raises(TypeError) as err:
            rational_to_str(bad)
        assert str(err.value) == f"cannot interpret {bad!r} as a rational"
    # A Fraction is written as it is, without building another.
    q = Fraction(-5, 12)
    assert _constructions(lambda: rational_to_str(q)) == ("-5/12", {})


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


# -- Fractions only where values leave ----------------------------------------------

def test_int_paths_build_no_gaussian_rational():
    # Reading scalars builds no Fraction; g builds one, the value it reports.
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
    }
    # g is one Fraction once the setup's volume is cached.
    for name, fn in calls.items():
        seen = _constructions(fn)[1]
        assert seen["__new__"] + seen["_from_coprime_ints"] == 1, name

    # The lambda the decomposition returns is a Fraction.
    dec = LefschetzDecomposer(setup).decompose(alpha)
    assert type(dec.lam) is Fraction
    assert dec.lam * setup.volume == integrate(wedge(alpha, power(setup.omega, 2)))
