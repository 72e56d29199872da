"""Pinned deterministic PRNG behaviour, and the int draws against the Fraction route."""

import gc
import random
from fractions import Fraction

import pytest

import hodgecs.ring
from hodgecs import zoo
from hodgecs.bundle import parse_ring_bundle, serialize_ring_bundle
from hodgecs.cli import main
from hodgecs.errors import DegreeError
from hodgecs.inequalities import construct_counterexample, verify_theorem
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
            assert c in (-1, 0, 1)


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
    assert list(cls.coeffs) == PINNED_SAMPLE


def test_cone_class_is_kahler_flagged_and_interior():
    ring = zoo.get("blp4").ring
    for k in range(20):
        w = random_cone_class(ring, 10, seed=5, index=k)
        assert w.flag == "kahler"
        a, b = w.coeffs
        assert a > -b > 0  # a H - |b| E with a > |b| > 0


def test_random_setup_shape():
    ring = zoo.get("blp4").ring
    setup = random_strict_setup(ring, 1, 10, seed=9, index=4)
    assert setup.mode == "strict"
    assert len(setup.omegas) == 2
    assert setup.omega_p.degree == 2


def test_height_validation():
    # Each drawer refuses the height at its entry, before any draw.
    ring = zoo.get("p2").ring
    for height in (0, -1, -(2**70)):
        for draw in (lambda: sample_random_class(ring, 1, height, seed=1, index=0),
                     lambda: random_cone_class(ring, height, seed=1, index=0),
                     lambda: random_strict_setup(ring, 1, height, seed=1, index=0)):
            with pytest.raises(ValueError, match="^height must be at least 1$"):
                draw()


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
    return c.ring, c.degree, c.re, c.den, c.flag


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
# Seeds and indices of 2^64 and above, and negative ones, are masked to 64 bits.
_PAIRS = [(seed, index) for seed in (0, 1, 7, 2**64 + 3, -5)
          for index in (*range(25), 2**64, 2**64 + 9, -1, -(2**70) - 3)]


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


def _oracle_setup(ring, p, height, seed, index):
    draw = _oracle_cone_draws(ring, Xoshiro256StarStar(seed, STREAM_SETUP, index), height)
    return [draw() for _ in range(ring.n - 2 * p + 1)]


_VERIFY_CASES = [(ring, p) for ring in (zoo.get(name).ring for name in zoo.list_entries())
                 for p in range(1, ring.n // 2 + 1)]


@pytest.mark.parametrize("height", [1, 10, 1000])
@pytest.mark.parametrize("case", _VERIFY_CASES, ids=lambda c: f"{c[0].name}-p{c[1]}")
def test_verify_draws_equal_the_public_draws_and_the_fraction_route(case, height):
    # verify_theorem draws through one setup drawer and one class drawer per call;
    # its records and its counterexamples' setup are the public functions' draws,
    # which are the Fraction route's, at seeds masked to 64 bits.
    ring, p = case
    for seed in (0, 2**64 + 3, -5):
        report = verify_theorem(ring, p, 3, seed, height)
        for r in report.records:
            alpha = sample_random_class(ring, p, height, seed, r.index)
            setup = random_strict_setup(ring, p, height, seed, r.index)
            assert _fields(r.alpha) == _fields(alpha) == \
                _fields(_oracle_class(ring, p, height, seed, r.index))
            assert _fields(r.omega) == _fields(setup.omega) == \
                _fields(_oracle_setup(ring, p, height, seed, r.index)[0])
        first = random_strict_setup(ring, p, height, seed, 0)
        assert [_fields(w) for w in (first.omega, *first.omegas)] == \
            [_fields(w) for w in _oracle_setup(ring, p, height, seed, 0)]
        for kind, ce in report.counterexamples.items():
            expected = construct_counterexample(ring, p, first, kind)
            assert (ce.theta, ce.g_value) == (expected.theta, expected.g_value)


def test_verify_redraws_an_all_zero_first_class_draw():
    # At height 1 a numerator is 0 with probability 1/3, so on p1xp1 (h^1 = 2) about
    # one index in nine draws the zero class first and takes the redraw.
    ring, seed = zoo.get("p1xp1").ring, 4
    zero_first = []
    for k in range(40):
        rng = _ReferenceXoshiro(seed, STREAM_CLASS, k)
        # Numerator, then denominator, per coefficient.
        words = [rng.int_between(lo, hi) for _ in range(2) for lo, hi in ((-1, 1), (1, 1))]
        if not any(words[::2]):
            zero_first.append(k)
    assert len(zero_first) >= 2, zero_first
    report = verify_theorem(ring, 1, zero_first[-1] + 1, seed, 1)
    for k in zero_first:
        assert _fields(report.records[k].alpha) == _fields(_oracle_class(ring, 1, 1, seed, k))
        assert not report.records[k].alpha.is_zero


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


def _clearings(monkeypatch) -> list:
    """Record every coefficient list that ``hodgecs.ring`` clears to ints from now on:
    the constructor's samples and integral, and each ``class_vector``."""
    calls = []
    real = hodgecs.ring._rational_ints
    monkeypatch.setattr(hodgecs.ring, "_rational_ints", lambda values: calls.append(values) or real(values))
    return calls


def test_sample_coefficients_are_cleared_once_when_the_ring_is_built(monkeypatch):
    text = serialize_ring_bundle(zoo.get("flag3").ring)
    cleared = _clearings(monkeypatch)
    ring = parse_ring_bundle(text)
    # The constructor clears each sample once, in declaration order.
    assert [c for c in cleared if any(c is s.coeffs for s in ring.samples)] == \
        [s.coeffs for s in ring.samples]
    rows = ring._sample_rows
    cleared.clear()
    for _ in range(3):
        everything = ring.sample_classes()
        kahler = ring.kahler_samples()
        by_name = [ring.sample(s.name) for s in ring.samples]
        nef = ring.nef_samples()
        random_cone_class(ring, 10, seed=1, index=0)
    # No accessor and no draw clears a sample again.
    assert cleared == [] and ring._sample_rows is rows
    monkeypatch.undo()
    assert [_fields(c) for c in everything] == \
        [_fields(ring.class_vector(1, s.coeffs, s.flag)) for s in ring.samples]
    assert [_fields(c) for c in by_name] == [_fields(c) for c in everything]
    assert [c.flag for c in kahler] == [FLAG_KAHLER] * 3
    assert sorted((repr(c), c.flag) for c in nef) == sorted((repr(c), c.flag) for c in everything)


def test_sample_by_name_and_info_clear_no_sample_again(tmp_path, capsys, monkeypatch):
    text = serialize_ring_bundle(zoo.get("p1xp1").ring)
    ring = parse_ring_bundle(text)
    cleared = _clearings(monkeypatch)
    # On a built ring, sample(name) clears nothing and gives the cleared class.
    for s in ring.samples:
        assert _fields(ring.sample(s.name)) == _fields(ring.sample(s.name))
    assert cleared == []
    assert [_fields(ring.sample(s.name)) for s in ring.samples] == \
        [_fields(ring.class_vector(1, s.coeffs, s.flag)) for s in ring.samples]
    # info prints every sample: parsing its file clears each sample once, and printing none.
    path = tmp_path / "p1xp1.json"
    path.write_text(text, encoding="utf-8")
    cleared.clear()
    assert main(["info", str(path)]) == 0
    coeffs = [s.coeffs for s in ring.samples]
    assert [tuple(c) for c in cleared if tuple(c) in coeffs] == coeffs
    assert capsys.readouterr().out.count("sample '") == len(ring.samples)


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


# -- the generator against its reference formulation ----------------------------

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x):
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return x, z ^ (z >> 31)


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK


class _ReferenceXoshiro:
    """xoshiro256** written with splitmix64 and rotl as separate steps, and
    ``int_between`` through a reduction ``below``."""

    def __init__(self, seed, *salts):
        x = seed & _MASK
        for salt in salts:
            x ^= ((salt & _MASK) * _GOLDEN) & _MASK
            x, _ = _splitmix64(x)
        state = []
        for _ in range(4):
            x, out = _splitmix64(x)
            state.append(out)
        if not any(state):
            state[0] = _GOLDEN
        self._s = state

    def next_u64(self):
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK, 7) * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def below(self, n):
        if n <= 0:
            raise ValueError("range must be positive")
        return self.next_u64() % n

    def int_between(self, lo, hi):
        return lo + self.below(hi - lo + 1)


def _stream_cases():
    """200 (seed, salts) tuples: seed 0, seeds of 2^64 and above, negative seeds and
    salts, the three sampling streams, and the seeds whose expansion has a zero word."""
    rng = random.Random("xoshiro-reference")
    fixed = [(0, ()), (0, (0, 0)), (2**64, ()), (2**64 + 3, (1, 7)), (2**200 + 5, (2, 0)),
             (-1, ()), (7, (-1, -2)), (1, (STREAM_CLASS, -3)), (1, (STREAM_CONE, 2**70)),
             (1, (STREAM_SETUP, 49))]
    # Word k of the state is 0 when seed + k * golden = 0 mod 2^64 (no salts).
    fixed += [((-k * _GOLDEN) & _MASK, ()) for k in range(1, 5)]
    cases = list(fixed)
    while len(cases) < 200:
        seed = rng.choice([rng.getrandbits(64), rng.getrandbits(80), -rng.getrandbits(64),
                           rng.randrange(100)])
        salts = tuple(rng.choice([rng.randrange(-5, 50), -rng.getrandbits(66), rng.getrandbits(66)])
                      for _ in range(rng.randrange(4)))
        cases.append((seed, salts))
    return cases


_RANGES = [(0, 0), (1, 1), (-10, 10), (1, 1000), (-1000, 1000), (5, 2**64 - 1), (0, 2**64),
           (-(2**70), 2**70)]


def test_generator_matches_its_reference_formulation():
    for seed, salts in _stream_cases():
        fast, ref = Xoshiro256StarStar(seed, *salts), _ReferenceXoshiro(seed, *salts)
        assert fast._s == ref._s, (seed, salts)
        for lo, hi in _RANGES * 3:
            assert fast.next_u64() == ref.next_u64(), (seed, salts)
            assert fast.int_between(lo, hi) == ref.int_between(lo, hi), (seed, salts, lo, hi)


_BATCH_RANGES = [(0, 1), (5, 1), (-(2**70), 1), (-10, 21), (1, 1000), (-1000, 2001),
                 (5, 2**64 - 5), (0, 2**64), (0, 2**64 + 1), (-(2**70), 2**71 + 1)]


def test_int_batch_equals_successive_int_between_calls():
    # ints(bounds) draws lo + word mod n per (lo, n), as int_between(lo, lo + n - 1)
    # calls would, and leaves the state where those calls leave it.
    rng = random.Random("int-batches")
    for seed, salts in _stream_cases():
        fast, ref = Xoshiro256StarStar(seed, *salts), _ReferenceXoshiro(seed, *salts)
        for size in (0, 1, 2, 7, 30):
            bounds = [rng.choice(_BATCH_RANGES) for _ in range(size)]
            assert fast.ints(bounds) == [ref.int_between(lo, lo + n - 1) for lo, n in bounds], \
                (seed, salts, bounds)
            assert fast._s == ref._s
    # From the all-zero fallback state as well.
    fast, ref = Xoshiro256StarStar(0), _ReferenceXoshiro(0)
    fast._s, ref._s = [_GOLDEN, 0, 0, 0], [_GOLDEN, 0, 0, 0]
    bounds = _BATCH_RANGES * 5
    assert fast.ints(bounds) == [ref.int_between(lo, lo + n - 1) for lo, n in bounds]
    assert fast._s == ref._s


def test_int_batch_refuses_an_empty_range_and_keeps_its_state():
    rng = Xoshiro256StarStar(9, 2)
    state = list(rng._s)
    for n in (0, -1):
        with pytest.raises(ValueError, match="range must be positive"):
            rng.ints([(1, 10), (0, n)])
        assert rng._s == state


def test_generator_state_fallback_and_empty_range():
    # splitmix64's output is a bijection of its input and the four expansion
    # inputs differ, so at most one state word is zero: the all-zero fallback
    # state [golden, 0, 0, 0] is never reached by seeding. Both formulations
    # must still agree from it.
    for k in range(1, 5):
        state = Xoshiro256StarStar((-k * _GOLDEN) & _MASK)._s
        assert state.count(0) == 1 and state[k - 1] == 0
    fast, ref = Xoshiro256StarStar(0), _ReferenceXoshiro(0)
    fast._s, ref._s = [_GOLDEN, 0, 0, 0], [_GOLDEN, 0, 0, 0]
    assert [fast.next_u64() for _ in range(50)] == [ref.next_u64() for _ in range(50)]
    for lo, hi in ((1, 0), (0, -1), (5, -5)):
        with pytest.raises(ValueError, match="range must be positive"):
            Xoshiro256StarStar(3).int_between(lo, hi)
    assert not hasattr(Xoshiro256StarStar, "below")


# Frozen draw for (seed=7, index=0) at height 10 on the quadric surface;
# computed once from the pinned generator and locked in.
PINNED_SAMPLE = [Fraction(-2, 3), Fraction(-1, 9)]
