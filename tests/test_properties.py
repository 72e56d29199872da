"""Property-based checks of the algebraic invariants."""

import json
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from hypothesis import example, given, settings, strategies as st

from hodgecs import zoo
from hodgecs.bundle import _json_text
from hodgecs.cli import _coeffs_json
from hodgecs.errors import MissingSamplesError
from hodgecs.inequalities import (_proportional_ints, _verdict, compute_g_decomposed,
                                  compute_g_direct, proportional, verify_theorem)
from hodgecs.linalg import Matrix, rational_to_str
from hodgecs.ring import (FLAG_KAHLER, FLAGS, POSITIVE_FLAGS, ClassVector, IntersectionRing,
                          RingSample, mixed_setup, power, wedge)
from hodgecs.sampling import (STREAM_CONE, Xoshiro256StarStar, random_cone_class,
                              random_strict_setup)
from test_inequalities import _g_three_wedges

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)

small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda rows: st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-5, max_value=5),
                     min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        )
    )
).map(Matrix)


@settings(max_examples=50, deadline=None)
@given(small_matrices)
def test_rank_nullity(m):
    assert m.rank() + len(m.nullspace()) == m.cols


@settings(max_examples=50, deadline=None)
@given(small_matrices, st.data())
def test_solve_roundtrip(m, data):
    x = data.draw(st.lists(
        st.integers(min_value=-4, max_value=4), min_size=m.cols, max_size=m.cols))
    b = m.apply(x)
    x2 = m.solve(b)
    assert x2 is not None and m.apply(x2) == b


symmetric_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
).map(lambda rows: Matrix([
    [rows[i][j] + rows[j][i] for j in range(len(rows))] for i in range(len(rows))
]))


@settings(max_examples=40, deadline=None)
@given(symmetric_matrices, st.data())
def test_inertia_congruence_invariance(m, data):
    n = m.rows
    a = Matrix(data.draw(st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )))
    if a.rank() < n:
        return
    assert (a.transpose() @ m @ a).inertia() == m.inertia()


@settings(max_examples=40, deadline=None)
@given(symmetric_matrices)
def test_inertia_parts_sum(m):
    np_, nm, nz = m.inertia()
    assert np_ + nm + nz == m.rows


@settings(max_examples=40, deadline=None)
@given(st.tuples(small_fractions, small_fractions), small_fractions)
def test_g_scale_equivariance(coeffs, t):
    ring = zoo.get("p1xp1").ring
    setup = mixed_setup(1, ring.sample("omega"), [])
    alpha = ring.class_vector(1, list(coeffs))
    g = compute_g_direct(alpha, setup)
    assert compute_g_direct(alpha.scaled(t), setup) == t * t * g
    assert g <= 0  # opposite direction holds unconditionally in degree 1


# Entries (zero, negative, fractional, and ints) in classes of
# 1 to 3 coefficients: degree 1 of p4, of blp4 and of P^1 x P^1 x P^1.
_formatter_rings = {1: zoo.get("p4").ring, 2: zoo.get("blp4").ring,
                    3: zoo.product(zoo.get("p1xp1"), zoo.get("p1")).ring}
_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-60, max_value=60, max_denominator=24),
    st.integers(min_value=-9, max_value=9),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_entries, min_size=1, max_size=3))
@example([Fraction(0), Fraction(0)])
@example([Fraction(1, 2), Fraction(1, 4)])
@example([Fraction(-3, 6), Fraction(5)])
@example([3, Fraction(2, 4)])
@example([Fraction(-2, 3), Fraction(0), Fraction(-7, 9)])
def test_int_coefficient_formatter_matches_scalar(coeffs):
    cls = _formatter_rings[len(coeffs)].class_vector(1, coeffs)
    assert _coeffs_json(cls) == [rational_to_str(c) for c in cls.coeffs]


# -- the trusted constructions against the normalising constructor ------------

def _fields(c):
    return c.ring, c.degree, c.re, c.den, c.flag


def _in_lowest_terms(c):
    return type(c.re) is tuple and c.den > 0 and gcd(c.den, *c.re) == 1


def _normalised(ring, degree, coeffs, flag):
    """The normalising constructor on real rationals: numerators over their lcm."""
    den = lcm(*(c.denominator for c in coeffs))
    return ClassVector(ring, degree, [int(c * den) for c in coeffs], den, flag)


_trusted_rings = [zoo.get(name).ring for name in ("p2", "p1xp1", "blp3", "flag3")]
_numerators = st.integers(min_value=-40, max_value=40)


@st.composite
def _classes(draw):
    """Any class of a few zoo rings, from numerators that need not be in lowest terms."""
    ring = draw(st.sampled_from(_trusted_rings))
    degree = draw(st.integers(min_value=0, max_value=ring.n))
    dim = ring.dim(degree)
    re = draw(st.lists(_numerators, min_size=dim, max_size=dim))
    return ClassVector(ring, degree, re, draw(st.integers(min_value=1, max_value=36)))


@settings(max_examples=200, deadline=None)
@given(_classes(), st.sampled_from(FLAGS))
@example(ClassVector(_trusted_rings[1], 0, [1]), FLAGS[0])
@example(ClassVector(_trusted_rings[1], 0, [6], 4), FLAGS[0])
@example(ClassVector(_trusted_rings[1], 1, [2, 4], 6), FLAG_KAHLER)
def test_trusted_paths_equal_the_normalising_constructor(c, flag):
    ring = c.ring
    pairs = []
    if c.degree == 1:
        pairs.append((c.with_flag(flag), ClassVector(ring, 1, c.re, c.den, flag)))
        c = pairs[-1][0]
    plain = ClassVector(ring, c.degree, c.re, c.den)
    pairs += [
        (wedge(ring.unit(), c), plain),
        (wedge(c, ring.unit()), plain),
    ]
    for got, want in pairs:
        assert _fields(got) == _fields(want)
        assert _in_lowest_terms(got)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(POSITIVE_FLAGS), small_fractions, small_fractions),
                min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2**65), st.integers(min_value=0, max_value=99),
       st.sampled_from([1, 10, 1000]))
def test_sample_and_cone_classes_equal_the_normalising_constructor(samples, seed, index, height):
    base = zoo.get("p1xp1").ring
    ring = IntersectionRing("p1xp1/drawn", base.n, base.hodge, base.basis_labels, base.products,
                            base.integral, [RingSample(f"s{i}", flag, (a, b))
                                            for i, (flag, a, b) in enumerate(samples)])
    for s, got in zip(ring.samples, ring.sample_classes()):
        assert _fields(got) == _fields(_normalised(ring, 1, s.coeffs, s.flag))
        assert _fields(ring.sample(s.name)) == _fields(got)
        assert _in_lowest_terms(got)

    kahler = [s.coeffs for s in ring.samples if s.flag == FLAG_KAHLER]
    if not kahler:
        try:
            random_cone_class(ring, height, seed, index)
        except MissingSamplesError:
            return
        raise AssertionError("a cone draw without Kahler samples must raise")
    # The same draw in Fractions: n_j / d_j times each Kahler sample, in stream order.
    rng = Xoshiro256StarStar(seed, STREAM_CONE, index)
    total = [Fraction(0)] * ring.dim(1)
    for coeffs in kahler:
        t = Fraction(rng.int_between(1, height), rng.int_between(1, height))
        total = [x + t * y for x, y in zip(total, coeffs)]
    got = random_cone_class(ring, height, seed, index)
    assert _fields(got) == _fields(_normalised(ring, 1, total, FLAG_KAHLER))
    assert _in_lowest_terms(got)


# -- g and proportionality on ints against their oracles -----------------------

@cache
def _p1_power(k):
    """(P^1)^k with one Kahler sample per factor: (1, .., 2, .., 1), the 2 on factor j."""
    entry = zoo.projective_space(1, "x0")
    for i in range(1, k):
        entry = zoo.product(entry, zoo.projective_space(1, f"x{i}"))
    r = entry.ring
    samples = [RingSample(f"k{j}", FLAG_KAHLER, tuple(Fraction(2 if f == j else 1)
                                                      for f in range(k)))
               for j in range(k)]
    return IntersectionRing(r.name, r.n, r.hodge, r.basis_labels, r.products, r.integral,
                            samples)


# Every zoo (ring, p) pair, then (P^1)^k for k = 4..6 at every p.
_g_cases = ([(name, p) for name in zoo.list_entries()
             for p in range(1, zoo.get(name).ring.n // 2 + 1)]
            + [(k, p) for k in (4, 5, 6) for p in range(1, k // 2 + 1)])


def _case_ring(name):
    return _p1_power(name) if isinstance(name, int) else zoo.get(name).ring


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_g_cases), st.integers(min_value=0, max_value=2**64),
       st.sampled_from(["random", "w^p", "w^p + random"]), st.data())
def test_g_direct_equals_the_three_wedge_oracle_and_the_decomposition(case, seed, kind, data):
    ring = _case_ring(case[0])
    p = case[1]
    setup = random_strict_setup(ring, p, 10, seed, 0)
    dim = ring.dim(p)
    coeffs = data.draw(st.lists(small_fractions, min_size=dim, max_size=dim))
    alpha = ring.class_vector(p, coeffs)
    w_p = power(setup.omega, p)
    if kind == "w^p":
        alpha = w_p.scaled(data.draw(small_fractions))
    elif kind == "w^p + random":
        alpha = w_p + alpha
    g = compute_g_direct(alpha, setup)
    assert g == _g_three_wedges(alpha, setup) == compute_g_decomposed(alpha, setup).value
    g_verdict, _, prop = _verdict(alpha, setup._ints)
    assert (g_verdict, prop) == (g, proportional(alpha, w_p))


_small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def _numerator_pairs(draw):
    """Int numerator rows a and b; b is often an int multiple of a, or zero."""
    dim = draw(st.integers(min_value=1, max_value=4))
    a = draw(st.lists(_small_ints, min_size=dim, max_size=dim))
    kind = draw(st.sampled_from(["free", "multiple", "zero"]))
    if kind == "free":
        b = draw(st.lists(_small_ints, min_size=dim, max_size=dim))
    else:
        lam = 0 if kind == "zero" else draw(_small_ints)
        b = [lam * x for x in a]
    return tuple(a), tuple(b)


@settings(max_examples=300, deadline=None)
@given(_numerator_pairs(), st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=12))
@example(((0, 0), (1, 2)), 1, 1)
@example(((1, 2), (0, 0)), 1, 1)
@example(((0, 3), (0, -1)), 2, 5)
@example(((2, 3), (4, 5)), 1, 1)
def test_proportional_ints_equals_a_fraction_ratio_oracle(rows, da, db):
    are, bre = rows
    # Oracle: a = 0, or b = lam * a with lam = b_k / a_k at the first nonzero a_k.
    a = [Fraction(x, da) for x in are]
    b = [Fraction(x, db) for x in bre]
    k = next((i for i, x in enumerate(a) if x), None)
    expected = k is None or all(y == (b[k] / a[k]) * x for x, y in zip(a, b))
    assert _proportional_ints(are, bre) == expected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_g_cases), st.integers(min_value=0, max_value=2**64),
       st.sampled_from([1, 10, 1000]))
def test_verify_records_equal_the_verdict_on_the_drawn_setup(case, seed, height):
    ring = _case_ring(case[0])
    p = case[1]
    report = verify_theorem(ring, p, 3, seed, height)
    for r in report.records:
        setup = random_strict_setup(ring, p, height, seed, r.index)
        assert r.omega == setup.omega
        assert (r.g_value, r.relation, r.proportional) == _verdict(r.alpha, setup._ints)
        assert r.g_value == _g_three_wedges(r.alpha, setup)
        assert r.proportional == proportional(r.alpha, power(setup.omega, p))


# -- the indented JSON writer against json.dumps ------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)
                      | st.dictionaries(st.integers(), children, max_size=3)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example({"a": [], "b": {}, "c": (1, "\u00e9\n\"\\"), "d": {2: [1.5, None]}, "e": 10**30})
@example([True, False, -0, float("inf"), {"x": {1: {"y": 2}}}])
def test_json_text_equals_json_dumps(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)
