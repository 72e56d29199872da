"""The integer ring layer against the coefficient loops it replaced.

``wedge`` contracts int numerators over per-degree-pair structure tables with
one common denominator D, and ``integrate`` is an int dot product over the
integral's own denominator. The functions ``_old_wedge`` and
``_old_integrate`` below are the previous implementations, kept here as the
oracle: they multiply ``Fraction`` coefficients against the ring's
``products`` and ``integral`` directly. Every zoo constant is an integer, so
a rescaled basis (e -> e/2, f -> 3f/2, ...) supplies rings with D != 1 and a
non-unit integral.

The representation properties check that the int fields are canonical:
equal classes have equal fields and hashes, and arithmetic round trips.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hodgecs import zoo
from hodgecs.ring import (
    IntersectionRing,
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
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _class(ring, degree, rng, kind):
    return ring.class_vector(degree, [_scalar(rng, kind) for _ in range(ring.dim(degree))])


def _check_canonical(c):
    assert c.den > 0
    assert gcd(c.den, *c.re) == 1
    assert all(type(x) is Fraction for x in c.coeffs)


KINDS = [("dense", "dense"), ("sparse", "sparse"), ("dense", "sparse"),
         ("sparse", "dense"), ("zero", "sparse"), ("dense", "zero")]


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
                if da + db == n:
                    assert integrate(ab) == _old_integrate(ab)


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
