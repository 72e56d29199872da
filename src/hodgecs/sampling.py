"""Deterministic seeded sampling of classes and reference setups.

All randomness flows through one pinned generator so runs reproduce
byte-for-byte on every platform: xoshiro256** (Blackman-Vigna), with its
256-bit state expanded from the user seed and a stream/index pair by
splitmix64. The same (seed, index) always yields the same draw; distinct
stream tags keep independent sampling loops from sharing a stream.

Stream tags: 0 = random classes, 1 = cone classes, 2 = strict setups.

Draws stay on ints. Each coefficient is a numerator and a denominator drawn
by ``int_between`` (numerator first); a class is built once, as int
numerators over the lcm of its denominators, and ``ClassVector`` brings it to
lowest terms. A cone draw sums int multiples of the ring's Kahler sample
numerators, which the ring clears when it is built, over one denominator.
"""

from __future__ import annotations

from math import lcm

from .errors import DegreeError, MissingSamplesError
from .ring import (
    FLAG_KAHLER,
    ClassVector,
    IntersectionRing,
    MixedSetup,
    mixed_setup,
)

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 state expansion from (seed, *salts)."""

    def __init__(self, seed: int, *salts: int):
        x = seed & _MASK
        for salt in salts:
            # One splitmix64 step whose output is discarded: only the increment stays.
            x = ((x ^ (((salt & _MASK) * _GOLDEN) & _MASK)) + _GOLDEN) & _MASK
        state = []
        for _ in range(4):
            x = (x + _GOLDEN) & _MASK
            z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            state.append(z ^ (z >> 31))
        if not any(state):
            state[0] = _GOLDEN
        self._s = state

    def next_u64(self) -> int:
        s = self._s
        r = (s[1] * 5) & _MASK
        result = ((((r << 7) | (r >> 57)) & _MASK) * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = ((s[3] << 45) | (s[3] >> 19)) & _MASK
        return result

    def int_between(self, lo: int, hi: int) -> int:
        """Uniform-ish draw in [lo, hi] by reduction; bias is negligible for
        the tiny ranges used here and keeps the stream platform-independent."""
        n = hi - lo + 1
        if n <= 0:
            raise ValueError("range must be positive")
        return lo + self.next_u64() % n


STREAM_CLASS = 0
STREAM_CONE = 1
STREAM_SETUP = 2


def sample_random_class(
    ring: IntersectionRing, degree: int, height: int, seed: int, index: int
) -> ClassVector:
    """Draw a nonzero degree-``degree`` class with height-bounded coefficients.

    Coefficients are rationals with numerator in [-height, height] and
    denominator in [1, height]; all-zero draws are rejected and redrawn from
    the same stream, so the zero class never occurs. Identical (seed, index)
    give identical output on every platform. Raises ``DegreeError`` when the
    degree is out of range or its graded piece is zero, as it has no nonzero
    class to draw.
    """
    if height < 1:
        raise ValueError("height must be at least 1")
    dim = ring.dim(degree)
    if dim == 0:
        raise DegreeError(f"degree {degree} of ring {ring.name!r} has dimension 0: no nonzero class")
    rng = Xoshiro256StarStar(seed, STREAM_CLASS, index)
    while True:
        draws = [(rng.int_between(-height, height), rng.int_between(1, height)) for _ in range(dim)]
        if any(num for num, _ in draws):
            den = lcm(*(d for _, d in draws))
            return ClassVector(ring, degree, [num * (den // d) for num, d in draws], den)


def _cone_draws(ring: IntersectionRing, rng: Xoshiro256StarStar, height: int):
    """A function drawing strictly positive rational combinations of the
    declared Kahler samples from ``rng``, one call per class."""
    generators = ring._sample_ints(FLAG_KAHLER)
    if not generators:
        raise MissingSamplesError(f"ring {ring.name!r} declares no Kahler cone samples")
    zero = [0] * ring.dim(1)

    def draw() -> ClassVector:
        # n_j / d_j times gen_j = re_j / den_j, summed over L = lcm of the d_j * den_j.
        draws = [(rng.int_between(1, height), rng.int_between(1, height) * gen_den)
                 for _, gen_den, _ in generators]
        den = lcm(*(d for _, d in draws))
        out = zero
        for (num, d), (gen_re, _, _) in zip(draws, generators):
            f = num * (den // d)
            out = [x + f * y for x, y in zip(out, gen_re)]
        return ClassVector(ring, 1, out, den, FLAG_KAHLER)

    return draw


def random_cone_class(
    ring: IntersectionRing, height: int, seed: int, index: int
) -> ClassVector:
    """A strictly positive rational combination of the declared Kahler samples.

    The Kahler cone is user-declared through the ring's samples; interior
    points are closed under positive combinations, so the result is Kahler.
    """
    return _cone_draws(ring, Xoshiro256StarStar(seed, STREAM_CONE, index), height)()


def _setup_draws(
    ring: IntersectionRing, p: int, height: int, seed: int, index: int
) -> tuple[ClassVector, list[ClassVector]]:
    """The classes (w, [w_1..w_(n-2p)]) of a strict setup, drawn from the declared cone."""
    draw = _cone_draws(ring, Xoshiro256StarStar(seed, STREAM_SETUP, index), height)
    omega = draw()
    return omega, [draw() for _ in range(ring.n - 2 * p)]


def random_strict_setup(
    ring: IntersectionRing, p: int, height: int, seed: int, index: int
) -> MixedSetup:
    """A strict Kahler setup (w, w_1..w_(n-2p)) drawn from the declared cone."""
    return mixed_setup(p, *_setup_draws(ring, p, height, seed, index))
