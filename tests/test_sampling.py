"""Pinned deterministic PRNG behaviour, and the int draws against the Fraction route."""

import gc
from fractions import Fraction

import pytest

from hodgecs import zoo
from hodgecs.bundle import parse_ring_bundle, serialize_ring_bundle
from hodgecs.errors import DegreeError
from hodgecs.ring import FLAG_KAHLER, FLAG_NEF, IntersectionRing, RingSample
from hodgecs.sampling import (
    STREAM_CLASS,
    STREAM_CONE,
    STREAM_SETUP,
    Xoshiro256StarStar,
    random_cone_class,
    random_strict_setup,
    sample_random_class,
)
from test_int_matrix import _constructions


def test_same_seed_index_identical():
    ring = zoo.get("p1xp1").ring
    a = sample_random_class(ring, 1, 10, seed=7, index=0)
    b = sample_random_class(ring, 1, 10, seed=7, index=0)
    assert a == b


def test_different_indices_differ():
    ring = zoo.get("blp4").ring
    draws = {sample_random_class(ring, 1, 10, seed=7, index=k).coeffs for k in range(20)}
    assert len(draws) > 15


def test_height_one_is_integral():
    ring = zoo.get("blp4").ring
    for k in range(50):
        cls = sample_random_class(ring, 1, 1, seed=3, index=k)
        for c in cls.coeffs:
            assert c.im == 0 and c.re in (-1, 0, 1)


def test_zero_vector_never_sampled():
    # Rejection sampling makes the zero-class frequency exactly 0, far below
    # the 1% budget even on one-dimensional graded pieces.
    ring = zoo.get("p4").ring
    zeros = sum(
        1 for k in range(10_000)
        if sample_random_class(ring, 1, 10, seed=11, index=k).is_zero
    )
    assert zeros == 0


def test_raw_stream_pinned_values():
    # First outputs of the pinned xoshiro256** construction; any change to
    # the seeding or the core would silently break cross-run reproducibility.
    rng = Xoshiro256StarStar(0)
    assert [rng.next_u64() for _ in range(3)] == [
        11091344671253066420,
        13793997310169335082,
        1900383378846508768,
    ]
    rng2 = Xoshiro256StarStar(42, 1, 2)
    first = rng2.next_u64()
    assert first == Xoshiro256StarStar(42, 1, 2).next_u64()
    assert first != Xoshiro256StarStar(42, 2, 1).next_u64()


def test_sampled_class_pinned():
    ring = zoo.get("p1xp1").ring
    cls = sample_random_class(ring, 1, 10, seed=7, index=0)
    assert [ (c.re, c.im) for c in cls.coeffs ] == PINNED_SAMPLE


def test_cone_class_is_kahler_flagged_and_interior():
    ring = zoo.get("blp4").ring
    for k in range(20):
        w = random_cone_class(ring, 10, seed=5, index=k)
        assert w.flag == "kahler"
        a, b = w.coeffs[0].re, w.coeffs[1].re
        assert a > -b > 0  # a H - |b| E with a > |b| > 0


def test_random_setup_shape():
    ring = zoo.get("blp4").ring
    setup = random_strict_setup(ring, 1, 10, seed=9, index=4)
    assert setup.mode == "strict"
    assert len(setup.omegas) == 2
    assert setup.omega_p.degree == 2


def test_height_validation():
    ring = zoo.get("p2").ring
    with pytest.raises(ValueError):
        sample_random_class(ring, 1, 0, seed=1, index=0)


def test_zero_dimensional_degree_raises_instead_of_spinning():
    # hodge[1] = 0: every draw would be the zero class, so rejection never ends.
    ring = IntersectionRing("h0", 2, [1, 0, 1], [["1"], [], ["pt"]], {}, [1])
    with pytest.raises(DegreeError, match="dimension 0"):
        sample_random_class(ring, 1, 10, seed=0, index=0)
    assert sample_random_class(ring, 2, 10, seed=0, index=0).degree == 2


# -- the int draws against the Fraction route they replaced -------------------

def _oracle_class(ring, degree, height, seed, index):
    """sample_random_class by Fractions: one Fraction per coefficient, then class_vector."""
    rng = Xoshiro256StarStar(seed, STREAM_CLASS, index)
    while True:
        coeffs = []
        for _ in range(ring.dim(degree)):
            num = rng.int_between(-height, height)
            coeffs.append(Fraction(num, rng.int_between(1, height)))
        if any(coeffs):
            return ring.class_vector(degree, coeffs)


def _oracle_cone_draws(ring, rng, height):
    """Cone draws by zero_class, scaled by a Fraction, + and with_flag, with the
    sample classes rebuilt from the ring's RingSamples."""
    generators = [ring.class_vector(1, s.coeffs, s.flag) for s in ring.samples
                  if s.flag == FLAG_KAHLER]

    def draw():
        out = ring.zero_class(1)
        for gen in generators:
            num = rng.int_between(1, height)
            out = out + gen.scaled(Fraction(num, rng.int_between(1, height)))
        return out.with_flag(FLAG_KAHLER)

    return draw


def _fields(c):
    return c.ring, c.degree, c.re, c.im, c.den, c.flag


def _fractional_samples():
    """p1xp1 with Kahler samples of unequal denominators, unlike the zoo's integral ones."""
    ring = zoo.get("p1xp1").ring
    samples = [RingSample("w1", FLAG_KAHLER, (Fraction(1, 2), Fraction(2, 3))),
               RingSample("a", FLAG_NEF, (Fraction(1, 5), Fraction(0))),
               RingSample("w2", FLAG_KAHLER, (Fraction(3, 4), Fraction(5, 6))),
               RingSample("w3", FLAG_KAHLER, (Fraction(7), Fraction(1, 9)))]
    return IntersectionRing("p1xp1/frac", ring.n, ring.hodge, ring.basis_labels,
                            ring.products, ring.integral, samples)


_DRAW_RINGS = [zoo.get(name).ring for name in zoo.list_entries()] + [_fractional_samples()]
_PAIRS = [(seed, index) for seed in (0, 1, 7, 2**64 + 3) for index in range(25)]


@pytest.mark.parametrize("height", [1, 10, 1000])
@pytest.mark.parametrize("ring", _DRAW_RINGS, ids=lambda r: r.name)
def test_int_draws_equal_the_fraction_route(ring, height):
    for seed, index in _PAIRS:
        for degree in range(ring.n + 1):
            drawn = sample_random_class(ring, degree, height, seed, index)
            assert _fields(drawn) == _fields(_oracle_class(ring, degree, height, seed, index))

        cone = random_cone_class(ring, height, seed, index)
        oracle = _oracle_cone_draws(ring, Xoshiro256StarStar(seed, STREAM_CONE, index), height)()
        assert _fields(cone) == _fields(oracle)

        for p in range(1, ring.n // 2 + 1):
            setup = random_strict_setup(ring, p, height, seed, index)
            draw = _oracle_cone_draws(ring, Xoshiro256StarStar(seed, STREAM_SETUP, index), height)
            expected = [draw() for _ in range(ring.n - 2 * p + 1)]
            assert [_fields(w) for w in (setup.omega, *setup.omegas)] == \
                [_fields(w) for w in expected]


def test_draws_build_no_fraction_once_the_samples_are_cached():
    for ring in _DRAW_RINGS:
        ring.kahler_samples()

        def draws():
            for k in range(5):
                for degree in range(ring.n + 1):
                    sample_random_class(ring, degree, 1000, seed=3, index=k)
                random_cone_class(ring, 1000, seed=3, index=k)
                if ring.n >= 2:
                    random_strict_setup(ring, 1, 1000, seed=3, index=k)

        assert _constructions(draws)[1] == {}, ring.name


def test_sample_coefficients_are_cleared_lazily_once_per_ring(monkeypatch):
    ring = parse_ring_bundle(serialize_ring_bundle(zoo.get("flag3").ring))
    assert ring._sample_rows is None
    cleared = []
    real = IntersectionRing.class_vector
    monkeypatch.setattr(IntersectionRing, "class_vector",
                        lambda self, *args: cleared.append(args) or real(self, *args))
    for _ in range(3):
        everything = ring.sample_classes()
        kahler = ring.kahler_samples()
        random_cone_class(ring, 10, seed=1, index=0)
    assert len(cleared) == len(ring.samples)
    monkeypatch.undo()
    assert [_fields(c) for c in everything] == \
        [_fields(ring.class_vector(1, s.coeffs, s.flag)) for s in ring.samples]
    assert [_fields(ring.sample(s.name)) for s in ring.samples] == [_fields(c) for c in everything]
    assert [c.flag for c in kahler] == [FLAG_KAHLER] * 3
    assert sorted((repr(c), c.flag) for c in ring.nef_samples()) == \
        sorted((repr(c), c.flag) for c in everything)


def test_ring_that_drew_is_freed_without_the_cycle_collector():
    # The ring caches sample ints, not classes, so no cached object points back
    # at it and dropping the last reference frees it at once.
    text = serialize_ring_bundle(zoo.get("blp4").ring)
    gc.collect()
    gc.disable()
    try:
        ring = parse_ring_bundle(text)
        ring.sample("omega")
        random_strict_setup(ring, 1, 10, seed=2, index=0)
        del ring
        assert gc.collect() == 0
    finally:
        gc.enable()


# Frozen draw for (seed=7, index=0) at height 10 on the quadric surface;
# computed once from the pinned generator and locked in.
PINNED_SAMPLE = [(Fraction(-2, 3), Fraction(0)), (Fraction(-1, 9), Fraction(0))]
