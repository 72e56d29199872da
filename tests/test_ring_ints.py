"""The integer ring layer against the coefficient loops it replaced.

``wedge`` contracts int numerators over per-degree-pair structure tables with
one common denominator D, and ``integrate`` is an int dot product over the
integral's own denominator. The functions ``_old_wedge`` and
``_old_integrate`` below are the previous implementations, kept here as the
oracle: they multiply ``Fraction`` coefficients against the ring's
``products`` and ``integral`` directly. Every zoo constant is an integer, so
a rescaled basis (e -> e/2, f -> 3f/2, ...) supplies rings with D != 1 and a
non-unit integral.

The pair layer (``_product_ints``, ``_pair_ints``), which ``wedge`` and g
read, is checked against ``wedge`` and ``integrate`` in the same loop: each
(numerators, den) pair, unreduced, must be the Fraction they give.

The representation properties check that the int fields are canonical:
equal classes have equal fields and hashes, and arithmetic round trips.

The constructor reads each product entry once and clears each declared sample
once: D is checked against ``_old_den``, the lcm over every stored entry, and
each sample row against ``class_vector``, which cleared samples before.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from hodgecs import zoo
from hodgecs.bundle import parse_ring_bundle, serialize_ring_bundle
from hodgecs.linalg import _rational_ints
from hodgecs.ring import (
    FLAG_NEF,
    IntersectionRing,
    RingSample,
    _pair_ints,
    _product_ints,
    canonical_product_key,
    integrate,
    validate_ring,
    wedge,
)


# -- the previous implementation, as the oracle ----------------------------------

def _old_wedge(a, b) -> tuple:
    """Coefficients of a * b by the Fraction loop over ring.products."""
    ring = a.ring
    if a.degree == 0:
        return tuple(c * a.coeffs[0] for c in b.coeffs)
    if b.degree == 0:
        return tuple(c * b.coeffs[0] for c in a.coeffs)
    acc = [Fraction(0)] * ring.dim(a.degree + b.degree)
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        for j, cb in enumerate(b.coeffs):
            if not cb:
                continue
            out = ring.products.get(canonical_product_key(a.degree, i, b.degree, j))
            if out is None:
                continue
            cab = ca * cb
            for k, f in enumerate(out):
                if f:
                    acc[k] = acc[k] + cab * f
    return tuple(acc)


def _old_integrate(a) -> Fraction:
    return sum((c * w for c, w in zip(a.coeffs, a.ring.integral) if w), Fraction(0))


# -- rings -----------------------------------------------------------------------

def _power_product(k: int) -> IntersectionRing:
    entry = zoo.projective_space(1, "x0")
    for i in range(1, k):
        entry = zoo.product(entry, zoo.projective_space(1, f"x{i}"))
    return entry.ring


def _rescaled(ring: IntersectionRing) -> IntersectionRing:
    """The same ring in the basis e'_(d,i) = s(d,i) * e_(d,i), s(d,i) = (2i+1)/(d+1).

    e'_a * e'_b = sum_k s_a * s_b * c_k / s_k * e'_k, and the integral of the
    top class e'_(n,0) is s(n,0) times the old one.
    """
    def s(d, i):
        return Fraction(1) if d == 0 else Fraction(2 * i + 1, d + 1)

    products = {
        (da, ia, db, ib): tuple(s(da, ia) * s(db, ib) * c / s(da + db, k) for k, c in enumerate(out))
        for (da, ia, db, ib), out in ring.products.items()
    }
    integral = [s(ring.n, k) * w for k, w in enumerate(ring.integral)]
    return IntersectionRing(f"{ring.name}-rescaled", ring.n, ring.hodge, ring.basis_labels,
                            products, integral)


RINGS = {name: (lambda name=name: zoo.get(name).ring) for name in zoo.list_entries()}
RINGS.update({
    "p1^5": lambda: _power_product(5),
    "blp8": lambda: zoo.blowup_pn(8).ring,
    "blp3-rescaled": lambda: _rescaled(zoo.get("blp3").ring),
    "flag3-rescaled": lambda: _rescaled(zoo.get("flag3").ring),
})


def test_rescaled_rings_exercise_the_common_denominator():
    for name in ("blp3-rescaled", "flag3-rescaled"):
        ring = RINGS[name]()
        assert validate_ring(ring).ok
        assert any(c.denominator > 1 for out in ring.products.values() for c in out)
        assert ring.integral[0] not in (0, 1)


# -- wedge and integrate against the oracle --------------------------------------

def _scalar(rng, kind):
    if kind == "zero" or (kind == "sparse" and rng.random() < 0.2):
        return Fraction(0)
    if kind == "fractional":
        # An odd numerator over an even denominator: every class has den > 1.
        return Fraction(rng.choice([-3, -1, 1, 3, 5]), rng.choice([2, 4, 6]))
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _class(ring, degree, rng, kind):
    return ring.class_vector(degree, [_scalar(rng, kind) for _ in range(ring.dim(degree))])


def _check_canonical(c):
    assert c.den > 0
    assert gcd(c.den, *c.re) == 1
    assert all(type(x) is Fraction for x in c.coeffs)


KINDS = [("dense", "dense"), ("sparse", "sparse"), ("dense", "sparse"),
         ("sparse", "dense"), ("zero", "sparse"), ("dense", "zero"),
         ("fractional", "fractional")]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_wedge_and_integrate_match_the_gaussian_loop(name):
    ring = RINGS[name]()
    rng = random.Random(name)
    n = ring.n
    for da in range(n + 1):
        for db in range(n - da + 1):
            for kind_a, kind_b in KINDS:
                a = _class(ring, da, rng, kind_a)
                b = _class(ring, db, rng, kind_b)
                ab = wedge(a, b)
                assert ab.degree == da + db
                assert ab.coeffs == _old_wedge(a, b), (name, da, db, kind_a, kind_b)
                _check_canonical(ab)
                x, y = (a.re, a.den), (b.re, b.den)
                nums, den = _product_ints(ring, da, x, db, y)
                assert den == a.den * b.den * ring._den
                assert tuple(Fraction(v, den) for v in nums) == ab.coeffs
                if da + db == n:
                    assert integrate(ab) == _old_integrate(ab)
                    assert Fraction(*_pair_ints(ring, da, x, y)) == integrate(ab)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_products_of_basis_classes_match(name):
    # Every nonzero structure constant is read once, in both factor orders.
    ring = RINGS[name]()
    for (da, ia, db, ib) in ring.products:
        a, b = ring.basis_class(da, ia), ring.basis_class(db, ib)
        assert wedge(a, b).coeffs == _old_wedge(a, b) == wedge(b, a).coeffs


def test_integrate_top_classes_with_a_non_unit_integral():
    ring = RINGS["flag3-rescaled"]()
    rng = random.Random(3)
    for kind in ("dense", "sparse", "zero"):
        for _ in range(5):
            c = _class(ring, ring.n, rng, kind)
            assert integrate(c) == _old_integrate(c)


# -- representation --------------------------------------------------------------

PROPERTY_RINGS = ("p1xp2", "blp3", "flag3")
small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# A class or scalar is read from ints and Fractions.
scalars = st.one_of(small, st.integers(-4, 4))


@st.composite
def classes(draw, degree=None, ring_name=None):
    ring = zoo.get(ring_name or draw(st.sampled_from(PROPERTY_RINGS))).ring
    p = draw(st.integers(0, ring.n)) if degree is None else degree
    coeffs = draw(st.lists(scalars, min_size=ring.dim(p), max_size=ring.dim(p)))
    return ring.class_vector(p, coeffs)


@st.composite
def class_pairs(draw):
    """Two classes of one ring and degree; the second is often the first, rebuilt."""
    a = draw(classes())
    how = draw(st.sampled_from(("fresh", "rebuilt", "doubled-halved")))
    if how == "fresh":
        b = draw(classes(degree=a.degree, ring_name=a.ring.name))
    elif how == "rebuilt":
        b = a.ring.class_vector(a.degree, list(a.coeffs))
    else:
        b = (a + a).scaled(Fraction(1, 2))
    return a, b


@settings(max_examples=150, deadline=None)
@given(class_pairs())
def test_equality_is_equality_of_coefficients(pair):
    a, b = pair
    assert (a == b) == (a.coeffs == b.coeffs)
    if a == b:
        assert hash(a) == hash(b)
        assert (a.re, a.den) == (b.re, b.den)
    _check_canonical(a)
    assert a.is_zero == (not any(a.coeffs))


@settings(max_examples=100, deadline=None)
@given(class_pairs())
def test_sum_then_difference_round_trips(pair):
    a, b = pair
    total = a + b
    _check_canonical(total)
    assert total.coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
    assert total - b == a
    assert (a - a).is_zero and (a - a).den == 1
    assert -(-a) == a


@settings(max_examples=100, deadline=None)
@given(classes(), scalars.filter(bool))
def test_scaling_by_q_then_one_over_q_round_trips(a, q):
    scaled = a.scaled(q)
    _check_canonical(scaled)
    assert scaled.coeffs == tuple(c * q for c in a.coeffs)
    assert scaled.scaled(Fraction(1) / q) == a


def test_basis_and_zero_classes():
    ring = zoo.get("flag3").ring
    for p in range(ring.n + 1):
        zero = ring.zero_class(p)
        assert zero.is_zero and zero.den == 1
        assert zero == ring.class_vector(p, [0] * ring.dim(p))
        for i in range(ring.dim(p)):
            e = ring.basis_class(p, i)
            assert e.coeffs == tuple(Fraction(int(k == i)) for k in range(ring.dim(p)))
            assert e == ring.class_vector(p, [int(k == i) for k in range(ring.dim(p))])


# -- D and the sample rows, as the constructor builds them ------------------------

def _old_den(ring) -> int:
    """D by the previous formula: the lcm of the denominators of every stored entry."""
    return lcm(*{c.denominator for out in ring.products.values() for c in out})


def _as_given(ring, name, convert, extra=()):
    """``ring`` rebuilt from its products passed through ``convert``, plus ``extra``."""
    products = {key: convert(out) for key, out in ring.products.items()}
    products.update(extra)
    return IntersectionRing(name, ring.n, ring.hodge, ring.basis_labels, products,
                            ring.integral, ring.samples)


def _int_or_fraction(out):
    return tuple(int(c) if c.denominator == 1 else c for c in out)


def test_den_matches_the_lcm_over_every_stored_entry():
    rings = [zoo.get(name).ring for name in zoo.list_entries()]
    rings += [_power_product(k) for k in range(1, 7)]
    # Rescaled, a later entry of a product can hold a denominator its first ones lack.
    rings += [RINGS["blp3-rescaled"](), RINGS["flag3-rescaled"](), _rescaled(_power_product(4))]
    p1x3, blp3 = _power_product(3), RINGS["blp3-rescaled"]()
    rings += [
        # Every vector of ints, and mixed vectors of ints and Fractions.
        _as_given(p1x3, "p1^3-ints", lambda out: tuple(map(int, out))),
        _as_given(blp3, "blp3-mixed", _int_or_fraction),
        _as_given(_rescaled(p1x3), "p1^3-mixed", _int_or_fraction),
        # All-zero vectors (H * E = 0 given), and zero vectors past degree n.
        _as_given(blp3, "blp3-zeros", _int_or_fraction,
                  {(1, 0, 1, 1): (0, 0), (2, 1, 1, 0): (Fraction(0),), (2, 0, 2, 1): (0,)}),
        _as_given(p1x3, "p1^3-zeros", tuple, {(2, 0, 2, 0): (Fraction(0),), (1, 0, 3, 0): (0,)}),
    ]
    assert any(r._den > 1 for r in rings)
    for ring in rings:
        assert ring._den == _old_den(ring), ring.name
        assert validate_ring(ring).ok, ring.name


def _mixed_sample_ring() -> IntersectionRing:
    """(P^1)^4 with a sample whose coefficients mix 1/2, 1/3, 0 and ints."""
    r = _power_product(4)
    samples = [RingSample("mixed", FLAG_NEF, (Fraction(1, 2), Fraction(1, 3), 0, 5)),
               *r.samples]
    return IntersectionRing("p1^4/mixed", r.n, r.hodge, r.basis_labels, r.products,
                            r.integral, samples)


def test_sample_rows_are_the_cleared_classes():
    mixed = _mixed_sample_ring()
    assert mixed._sample_rows[0] == ((3, 2, 0, 30), 6, FLAG_NEF)
    rings = [zoo.get(name).ring for name in zoo.list_entries()] + [mixed]
    rings += [parse_ring_bundle(serialize_ring_bundle(r)) for r in rings]
    for ring in rings:
        assert len(ring._sample_rows) == len(ring.samples)
        for s, row in zip(ring.samples, ring._sample_rows):
            c = ring.class_vector(1, s.coeffs, s.flag)
            assert row == (c.re, c.den, c.flag), (ring.name, s.name)
            assert all(type(x) is int for x in row[0]) and type(row[1]) is int


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**4)),
                max_size=8))
def test_rational_ints_are_in_lowest_terms(values):
    # The sample rows rely on this: their numerators and den need no reduction.
    nums, den = _rational_ints(values)
    assert den >= 1 and gcd(den, *nums) == 1
    assert [Fraction(x, den) for x in nums] == values
