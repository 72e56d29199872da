"""Ring operations, validation, and the Kahler sanity gate."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hodgecs import zoo
from hodgecs.errors import DegreeError, FlagError, RingMismatchError
from hodgecs.ring import (
    ClassVector,
    IntersectionRing,
    RingSample,
    as_kahler,
    integrate,
    mixed_setup,
    power,
    sanity_check_kahler,
    validate_ring,
    wedge,
)
from hodgecs.sampling import Xoshiro256StarStar, random_cone_class


def blowup_integral_oracle(n, linear_classes):
    """Integral of a product of n classes x*H + y*E on the blow-up of
    projective n-space, expanded directly: H*E = 0 kills every mixed monomial,
    so only (prod x) H^n + (prod y) E^n survive, with H^n -> 1 and
    E^n -> (-1)^(n-1)."""
    hs = math.prod(Fraction(x) for x, _ in linear_classes)
    es = math.prod(Fraction(y) for _, y in linear_classes)
    return hs + es * (-1) ** (n - 1)


def p1xp1_integral_oracle(c1, c2):
    """Integral of (x1 a + y1 b)(x2 a + y2 b): a^2 = b^2 = 0 and ab -> 1."""
    (x1, y1), (x2, y2) = c1, c2
    return Fraction(x1) * y2 + Fraction(x2) * y1


# -- wedge / power / integrate ---------------------------------------------------

def test_wedge_p2_square():
    ring = zoo.get("p2").ring
    h = ring.basis_class(1, 0)
    assert wedge(h, h) == ring.basis_class(2, 0)


def test_wedge_identity():
    ring = zoo.get("blp4").ring
    a = ring.class_vector(2, [3, Fraction(-1, 2)])
    assert wedge(ring.unit(), a) == a


def test_wedge_blowup_cube():
    ring = zoo.get("blp4").ring
    w = ring.class_vector(1, [2, -1])
    cube = wedge(wedge(w, w), w)
    # (2H - E)^3 = 8 H^3 - E^3 because H*E = 0.
    assert cube == ring.class_vector(3, [8, -1])


def test_wedge_commutes_and_bilinear():
    ring = zoo.get("blp4").ring
    rng = Xoshiro256StarStar(3)
    for _ in range(10):
        a = ring.class_vector(1, [rng.int_between(-4, 4), rng.int_between(-4, 4)])
        b = ring.class_vector(2, [rng.int_between(-4, 4), rng.int_between(-4, 4)])
        c = ring.class_vector(2, [rng.int_between(-4, 4), rng.int_between(-4, 4)])
        assert wedge(a, b) == wedge(b, a)
        assert wedge(a, b + c) == wedge(a, b) + wedge(a, c)


def test_power_basics():
    p4 = zoo.get("p4").ring
    h = p4.basis_class(1, 0)
    assert integrate(power(h, 4)) == 1
    assert power(h, 0) == p4.unit()


def test_power_blowup_fourth():
    ring = zoo.get("blp4").ring
    w = ring.class_vector(1, [2, -1])
    # 16 H^4 + E^4 integrates to 16 - 1 = 15.
    assert integrate(power(w, 4)) == blowup_integral_oracle(4, [(2, -1)] * 4) == 15


def test_degree_overflow_rejected():
    ring = zoo.get("p2").ring
    h2 = ring.basis_class(2, 0)
    with pytest.raises(DegreeError):
        wedge(h2, ring.basis_class(1, 0))
    with pytest.raises(DegreeError):
        power(ring.basis_class(1, 0), 3)


def test_integrate_examples():
    p2 = zoo.get("p2").ring
    assert integrate(power(p2.basis_class(1, 0), 2)) == 1

    bl = zoo.get("blp4").ring
    e = bl.class_vector(1, [0, 1])
    assert integrate(power(e, 4)) == -1 == blowup_integral_oracle(4, [(0, 1)] * 4)

    pp = zoo.get("p1xp1").ring
    ab = pp.class_vector(1, [1, 1])
    assert integrate(power(ab, 2)) == p1xp1_integral_oracle((1, 1), (1, 1)) == 2


def test_integrate_wrong_degree():
    ring = zoo.get("p2").ring
    with pytest.raises(DegreeError):
        integrate(ring.basis_class(1, 0))


def test_ring_mismatch_rejected():
    a = zoo.get("p2").ring.basis_class(1, 0)
    b = zoo.get("p3").ring.basis_class(1, 0)
    with pytest.raises(RingMismatchError):
        wedge(a, b)


def test_class_vector_and_scaled_refuse_a_non_real_value():
    ring = zoo.get("blp4").ring
    # Only ints and Fractions are scalars: a complex value is refused, even one
    # with a zero imaginary part.
    for value in (1j, complex(0.5, -3), complex(2, 0)):
        with pytest.raises(TypeError, match=re.escape(f"cannot interpret {value!r} as a rational")):
            ring.class_vector(1, [1, value])
        with pytest.raises(TypeError, match=re.escape(f"cannot interpret {value!r} as a rational")):
            ring.basis_class(2, 0).scaled(value)
        with pytest.raises(TypeError, match="unsupported operand"):
            value * ring.basis_class(2, 0)
    assert ring.basis_class(1, 0).scaled(Fraction(-2)) == -2 * ring.basis_class(1, 0)


def test_constructor_refuses_a_denominator_below_one():
    ring = zoo.get("blp4").ring
    for den in (0, -1, -6):
        with pytest.raises(ValueError, match=f"positive integer, got {den}"):
            ClassVector(ring, 1, [1, 0], den)
    assert ClassVector(ring, 1, [-2, 0], 2) == -ring.basis_class(1, 0)


def test_basis_class_refuses_an_index_outside_the_basis():
    ring = zoo.get("blp4").ring
    for i in (-1, -2, 2, 7):
        with pytest.raises(DegreeError, match=f"basis index {i} outside 0..1 in degree 1"):
            ring.basis_class(1, i)
    with pytest.raises(DegreeError, match="basis index 1 outside 0..0 in degree 0"):
        ring.basis_class(0, 1)
    assert [ring.basis_class(1, i).re for i in range(2)] == [(1, 0), (0, 1)]


# -- validation -------------------------------------------------------------------

def test_validate_projective_space():
    assert validate_ring(zoo.get("p3").ring).ok


def test_validate_product_ring():
    assert validate_ring(zoo.get("p1xp1").ring).ok


def test_validate_degenerate_integral():
    base = zoo.get("p2").ring
    broken = IntersectionRing(
        "p2-degenerate", base.n, base.hodge, base.basis_labels,
        base.products, [Fraction(0)], base.samples,
    )
    report = validate_ring(broken)
    assert not report.ok
    assert any(i.check == "poincare-duality" and "p=0" in i.location for i in report.issues)


def test_constructor_rejects_commutativity_conflict():
    with pytest.raises(ValueError, match="commutativity"):
        IntersectionRing(
            "bad", 2, [1, 2, 1], [["1"], ["x", "y"], ["pt"]],
            {(1, 0, 1, 1): [Fraction(1)], (1, 1, 1, 0): [Fraction(2)]},
            [Fraction(1)],
        )


def test_constructor_tolerates_consistent_redundant_entries():
    # A zero product past the top degree, a degree-0 entry acting as the
    # identity and a mirrored duplicate with an equal output are each skipped.
    plain = zoo.get("p1xp1").ring
    redundant = {(1, 0, 2, 0): (0,), (0, 0, 1, 1): (0, 1), (1, 1, 1, 0): (1,)}
    ring = IntersectionRing(plain.name, plain.n, plain.hodge, plain.basis_labels,
                            {**plain.products, **redundant}, plain.integral, plain.samples)
    assert ring == plain
    assert ring.products == plain.products
    assert validate_ring(ring).ok


def test_validate_broken_associativity():
    # (x*x)*y = u*y = pt while x*(x*y) = x*0 = 0.
    ring = IntersectionRing(
        "assoc-broken", 3, [1, 2, 2, 1],
        [["1"], ["x", "y"], ["u", "v"], ["pt"]],
        {
            (1, 0, 1, 0): [Fraction(1), Fraction(0)],   # x*x = u
            (1, 0, 2, 0): [Fraction(1)],                # x*u = pt
            (1, 1, 2, 0): [Fraction(1)],                # y*u = pt
        },
        [Fraction(1)],
    )
    report = validate_ring(ring)
    assert any(i.check == "associativity" for i in report.issues)


# -- sanity gate ---------------------------------------------------------------------

def test_sanity_p4_hyperplane():
    ring = zoo.get("p4").ring
    assert sanity_check_kahler(ring, ring.basis_class(1, 0)).passed


def test_sanity_blowup_kahler_class():
    ring = zoo.get("blp4").ring
    report = sanity_check_kahler(ring, ring.class_vector(1, [2, -1]))
    assert report.passed
    vol = next(c for c in report.checks if c.name == "volume")
    assert "15" in vol.detail


def test_sanity_rejects_exceptional_class():
    ring = zoo.get("blp4").ring
    report = sanity_check_kahler(ring, ring.class_vector(1, [0, 1]))
    assert not report.passed
    vol = next(c for c in report.checks if c.name == "volume")
    assert not vol.passed  # integral of E^4 = -1 < 0


def test_sanity_rejects_nef_pullback():
    # H is nef but H*E = 0 breaks injectivity of multiplication by H.
    ring = zoo.get("blp4").ring
    report = sanity_check_kahler(ring, ring.class_vector(1, [1, 0]))
    assert not report.passed
    assert any(c.name.startswith("lefschetz-injectivity") and not c.passed
               for c in report.checks)


def test_sanity_requires_degree_one():
    ring = zoo.get("p4").ring
    with pytest.raises(DegreeError):
        sanity_check_kahler(ring, ring.basis_class(2, 0))


def test_sanity_rejects_class_on_the_wrong_side_of_the_cone():
    # -(2H - E) has the volume, injectivity and signature of a Kahler class on
    # an even-dimensional ring; only its pairing with the samples is negative.
    ring = zoo.get("blp4").ring
    with pytest.raises(FlagError) as info:
        as_kahler(ring, ring.class_vector(1, [-2, 1]))
    assert "FAIL cone-side" in str(info.value)
    report = sanity_check_kahler(ring, ring.class_vector(1, [-2, 1]))
    assert [c.name for c in report.checks if not c.passed] == ["cone-side"]


def test_cone_side_skipped_without_kahler_samples():
    r = zoo.get("blp4").ring
    bare = IntersectionRing(r.name, r.n, r.hodge, r.basis_labels, r.products, r.integral, [])
    side = sanity_check_kahler(bare, bare.class_vector(1, [-2, 1])).checks[-1]
    assert side.name == "cone-side" and side.passed and "skipped" in side.detail


EVEN_ZOO = [name for name in zoo.list_entries() if zoo.get(name).ring.n % 2 == 0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(EVEN_ZOO), st.integers(0, 2**32), st.integers(0, 100))
def test_gate_accepts_cone_class_and_rejects_its_negative(name, seed, index):
    # On an even-dimensional ring w and -w share volume and signature, so only
    # the cone side tells them apart.
    ring = zoo.get(name).ring
    kappa = random_cone_class(ring, 10, seed, index)
    assert sanity_check_kahler(ring, kappa).passed
    assert not sanity_check_kahler(ring, -kappa).passed


# -- mixed setups -----------------------------------------------------------------------

def test_mixed_setup_strict_and_boundary():
    pp = zoo.get("p1xp1").ring
    strict = mixed_setup(1, pp.sample("omega"), [])
    assert strict.mode == "strict"
    boundary = mixed_setup(1, pp.sample("a"), [])
    assert boundary.mode == "boundary"


def test_mixed_setup_needs_flags_and_counts():
    pp = zoo.get("p1xp1").ring
    with pytest.raises(FlagError):
        mixed_setup(1, pp.class_vector(1, [1, 1]), [])
    bl = zoo.get("blp4").ring
    with pytest.raises(DegreeError):
        mixed_setup(1, bl.sample("omega"), [])  # needs n - 2p = 2 classes
    with pytest.raises(DegreeError):
        mixed_setup(3, bl.sample("omega"), [])  # p > n/2


def test_mixed_setup_caches_reference_product():
    bl = zoo.get("blp4").ring
    w = bl.sample("omega")
    setup = mixed_setup(1, w, [w, bl.sample("omega2")])
    assert setup.omega_p == wedge(w, bl.sample("omega2"))


def test_positivity_flags_reject_complex_classes():
    bl = zoo.get("blp4").ring
    coeffs = [2 + 1j, -1]
    # No complex class is built, flagged or not, so no flag ever meets one.
    for flag in ("none", "kahler", "nef"):
        with pytest.raises(TypeError, match=r"cannot interpret \(2\+1j\) as a rational"):
            bl.class_vector(1, coeffs, flag)
    assert bl.class_vector(1, [2, -1], "kahler").flag == "kahler"
    # The constructor enforces the flag rules, so no path builds a flagged
    # class of the wrong degree or a class of the wrong shape.
    for flag in ("kahler", "nef"):
        with pytest.raises(FlagError, match="real degree-1"):
            ClassVector(bl, 2, [1, 0], 1, flag)
        with pytest.raises(FlagError, match="real degree-1"):
            bl.class_vector(2, [1, 0]).with_flag(flag)
    with pytest.raises(FlagError, match="unknown positivity flag 'ample'"):
        ClassVector(bl, 1, [2, -1], 1, "ample")
    with pytest.raises(DegreeError, match="degree 1 needs 2 coefficients, got 1"):
        ClassVector(bl, 1, [1])
    with pytest.raises(DegreeError, match="degree 1 needs 2 coefficients, got 3"):
        ClassVector(bl, 1, [1, 0, 0])
    for degree in (-1, bl.n + 1):
        with pytest.raises(DegreeError, match=f"degree {degree} outside 0..{bl.n}"):
            ClassVector(bl, degree, [1])
    assert ClassVector(bl, 1, [4, -2], 2, "kahler") == bl.class_vector(1, [2, -1])
