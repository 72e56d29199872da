"""Deterministic seeded sampling of classes and reference setups.

All randomness flows through one pinned generator so runs reproduce
byte-for-byte on every platform: xoshiro256** (Blackman-Vigna), with its
256-bit state expanded from the user seed and a stream/index pair by
splitmix64. The same (seed, index) always yields the same draw; distinct
stream tags keep independent sampling loops from sharing a stream.

Stream tags: 0 = random classes, 1 = cone classes, 2 = strict setups.

Each stream has one drawer, ``draw(index)``, built once per call: it checks
its arguments, reads the ring's Kahler sample rows, fixes the (lo, n) bounds
of a sample's words and applies the (seed, stream) step once. Per index it
applies the index step and the state expansion, and draws the sample's words
in one ``ints`` batch. The streams are unchanged: those words are the ones
successive ``int_between`` calls on ``Xoshiro256StarStar(seed, stream, index)``
give.

Draws stay on ints. Each coefficient is a numerator and a denominator drawn
in that order; a class is built once, as int numerators over the lcm of its
denominators, and ``ClassVector`` brings it to lowest terms. A cone draw sums
int multiples of the ring's Kahler sample numerators, which the ring clears
when it is built, over one denominator.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Sequence

from .errors import DegreeError, MissingSamplesError
from .ring import (
    FLAG_KAHLER,
    ClassVector,
    IntersectionRing,
    MixedSetup,
    _check_setup_p,
    mixed_setup,
)

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _salted(x: int, salt: int) -> int:
    """One splitmix64 step on x mod 2^64 whose output is discarded: only the
    increment stays. ``Xoshiro256StarStar(_salted(seed, a), b)`` is
    ``Xoshiro256StarStar(seed, a, b)``."""
    return ((x ^ (((salt & _MASK) * _GOLDEN) & _MASK)) + _GOLDEN) & _MASK


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 state expansion from (seed, *salts)."""

    def __init__(self, seed: int, *salts: int):
        x = seed & _MASK
        for salt in salts:
            x = _salted(x, salt)
        state = []
        for _ in range(4):
            x = (x + _GOLDEN) & _MASK
            z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            state.append(z ^ (z >> 31))
        if not any(state):
            state[0] = _GOLDEN
        self._s = state

    def ints(self, bounds: Sequence[tuple[int, int]]) -> list[int]:
        """lo + (next word mod n) for each (lo, n) in ``bounds``, in order: the values
        of successive ``int_between(lo, lo + n - 1)`` calls. The state is read once
        and written back once; a range with n below 1 raises ValueError and leaves
        the state as it was before the batch."""
        s0, s1, s2, s3 = self._s
        out = []
        for lo, n in bounds:
            if n < 1:
                raise ValueError("range must be positive")
            r = (s1 * 5) & _MASK
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
            out.append(lo + (((((r << 7) | (r >> 57)) & _MASK) * 9) & _MASK) % n)
        self._s = [s0, s1, s2, s3]
        return out

    def next_u64(self) -> int:
        return self.ints(((0, 1 << 64),))[0]

    def int_between(self, lo: int, hi: int) -> int:
        """Uniform-ish draw in [lo, hi] by reduction; bias is negligible for
        the tiny ranges used here and keeps the stream platform-independent."""
        return self.ints(((lo, hi - lo + 1),))[0]


STREAM_CLASS = 0
STREAM_CONE = 1
STREAM_SETUP = 2


def _class_draws(
    ring: IntersectionRing, degree: int, height: int, seed: int
) -> Callable[[int], ClassVector]:
    """``draw(index)``, the degree-``degree`` class of :func:`sample_random_class`."""
    if height < 1:
        raise ValueError("height must be at least 1")
    dim = ring.dim(degree)
    if dim == 0:
        raise DegreeError(f"degree {degree} of ring {ring.name!r} has dimension 0: no nonzero class")
    # Per coefficient a numerator in [-height, height], then a denominator in [1, height].
    bounds = ((-height, 2 * height + 1), (1, height)) * dim
    prefix = _salted(seed, STREAM_CLASS)

    def draw(index: int) -> ClassVector:
        rng = Xoshiro256StarStar(prefix, index)
        while True:
            words = rng.ints(bounds)
            nums = words[::2]
            if any(nums):
                dens = words[1::2]
                den = lcm(*dens)
                return ClassVector(ring, degree, [num * (den // d) for num, d in zip(nums, dens)], den)

    return draw


def _cone_draws(
    ring: IntersectionRing, count: int, height: int, seed: int, stream: int
) -> Callable[[int], tuple[ClassVector, list[ClassVector]]]:
    """``draw(index)``: ``count`` strictly positive rational combinations of the
    declared Kahler samples, drawn in order from ``stream`` at ``index``, as the
    first and a list of the rest."""
    if height < 1:
        raise ValueError("height must be at least 1")
    generators = ring._sample_ints(FLAG_KAHLER)
    if not generators:
        raise MissingSamplesError(f"ring {ring.name!r} declares no Kahler cone samples")
    gen_res = [re for re, _, _ in generators]
    gen_dens = [den for _, den, _ in generators]
    # Per class and generator j: n_j in [1, height], then d_j in [1, height].
    step = 2 * len(generators)
    bounds = ((1, height),) * (step * count)
    zero = [0] * ring.dim(1)
    prefix = _salted(seed, stream)

    def draw(index: int) -> tuple[ClassVector, list[ClassVector]]:
        words = Xoshiro256StarStar(prefix, index).ints(bounds)
        classes = []
        for start in range(0, len(words), step):
            # n_j / d_j times gen_j = re_j / den_j, summed over L = lcm of the d_j * den_j.
            dens = [d * gen_den for d, gen_den in zip(words[start + 1:start + step:2], gen_dens)]
            den = lcm(*dens)
            out = zero
            for num, d, gen_re in zip(words[start:start + step:2], dens, gen_res):
                f = num * (den // d)
                out = [x + f * y for x, y in zip(out, gen_re)]
            classes.append(ClassVector(ring, 1, out, den, FLAG_KAHLER))
        return classes[0], classes[1:]

    return draw


def _setup_draws(
    ring: IntersectionRing, p: int, height: int, seed: int
) -> Callable[[int], tuple[ClassVector, list[ClassVector]]]:
    """``draw(index)``, the classes (w, [w_1..w_(n-2p)]) of the strict setup that
    :func:`random_strict_setup` draws from the declared cone."""
    _check_setup_p(ring, p)
    return _cone_draws(ring, ring.n - 2 * p + 1, height, seed, STREAM_SETUP)


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
    return _class_draws(ring, degree, height, seed)(index)


def random_cone_class(
    ring: IntersectionRing, height: int, seed: int, index: int
) -> ClassVector:
    """A strictly positive rational combination of the declared Kahler samples.

    The Kahler cone is user-declared through the ring's samples; interior
    points are closed under positive combinations, so the result is Kahler.
    """
    return _cone_draws(ring, 1, height, seed, STREAM_CONE)(index)[0]


def random_strict_setup(
    ring: IntersectionRing, p: int, height: int, seed: int, index: int
) -> MixedSetup:
    """A strict Kahler setup (w, w_1..w_(n-2p)) drawn from the declared cone."""
    return mixed_setup(p, *_setup_draws(ring, p, height, seed)(index))
