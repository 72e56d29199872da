"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every numeric assertion here is exact (Fraction equality or sign); there are
no floating-point tolerances anywhere. Each criterion prints a single
pass/fail line (visible with ``pytest -s``); a failed assertion is the fail
line.

Zoo coverage notes: the degree-1 signature criterion skips entries of complex
dimension < 2, where no n-2 reference classes exist. The opposite-direction
criterion pairs the blow-up fourfold at p = 2 with the flag threefold at
p = 1, its only admissible degree (a threefold has no valid p = 2 setup).
"""

import json
import time
from fractions import Fraction

import pytest

from hodgecs import zoo
from hodgecs.bundle import parse_ring_bundle, serialize_ring_bundle
from hodgecs.cli import main as cli_main
from hodgecs.errors import BundleSemanticError, BundleSyntaxError
from hodgecs.inequalities import (
    check_cs,
    compute_g_decomposed,
    compute_g_direct,
    hodge_condition,
    kt_chain,
    proportional,
)
from hodgecs.lefschetz import LefschetzDecomposer, gram_matrix_Q, hr_check
from hodgecs.ring import FLAG_NEF, integrate, mixed_setup, power, wedge
from hodgecs.sampling import random_cone_class, random_strict_setup, sample_random_class

SEED = 2024
HEIGHT = 10

ALL_ENTRIES = tuple(zoo.list_entries())


def _admissible_pairs():
    for name in ALL_ENTRIES:
        ring = zoo.get(name).ring
        for p in range(1, ring.n // 2 + 1):
            yield name, ring, p


def _conclude(num, label):
    print(f"criterion {num:02d} ({label}): PASS")


# ---------------------------------------------------------------------------
# Criterion 1: degree-1 signature (1, h^{1,1}-1, 0) for seeded collections.
# ---------------------------------------------------------------------------

def test_criterion_01_signature_suite():
    start = time.monotonic()
    checked = 0
    for name in ALL_ENTRIES:
        ring = zoo.get(name).ring
        if ring.n < 2:
            continue  # no degree-1 form without n-2 reference classes
        h1 = ring.dim(1)
        for k in range(20):
            classes = [
                random_cone_class(ring, HEIGHT, SEED, 1000 * ring.n + 20 * k + j)
                for j in range(ring.n - 2)
            ]
            form = gram_matrix_Q(ring, 1, classes)
            assert form.unsigned_inertia == (1, h1 - 1, 0), (name, k)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 20 * sum(1 for n in ALL_ENTRIES if zoo.get(n).ring.n >= 2)
    assert elapsed < 30.0, f"signature suite took {elapsed:.1f}s"
    _conclude(1, "degree-1 signature suite")


# ---------------------------------------------------------------------------
# Criteria 2 and 3: positivity on primitive subspaces and the dimension formula.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def hr_corpus():
    corpus = []
    for name, ring, p in _admissible_pairs():
        for k in range(10):
            setup = random_strict_setup(ring, p, HEIGHT, SEED, 100 * p + k)
            corpus.append((name, p, hr_check(ring, p, setup.omega, setup.omegas)))
    return corpus


def test_criterion_02_hodge_riemann_positivity(hr_corpus):
    assert hr_corpus
    for name, p, report in hr_corpus:
        assert report.passed, (name, p, str(report))
        assert report.restricted_inertia == (report.primitive.dim, 0, 0)
        assert report.form.inertia[2] == 0
    _conclude(2, "mixed positivity on primitive subspaces")


def test_criterion_03_dimension_formula(hr_corpus):
    for name, p, report in hr_corpus:
        ring = zoo.get(name).ring
        assert report.primitive.dim == ring.dim(p) - ring.dim(p - 1), (name, p)
    _conclude(3, "primitive dimension formula")


# ---------------------------------------------------------------------------
# Criteria 4 and 8: decomposition identities and the per-component sign law.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def decomposition_corpus():
    corpus = []
    for name, ring, p in _admissible_pairs():
        for s in range(5):
            setup = random_strict_setup(ring, p, HEIGHT, SEED, 10 * p + s)
            decomposer = LefschetzDecomposer(setup)
            for k in range(40):
                alpha = sample_random_class(ring, p, HEIGHT, SEED, 200 * s + k)
                corpus.append((name, p, setup, alpha, decomposer.decompose(alpha)))
    return corpus


def test_criterion_04_decomposition_identities(decomposition_corpus):
    per_pair = {}
    for name, p, setup, alpha, dec in decomposition_corpus:
        per_pair[(name, p)] = per_pair.get((name, p), 0) + 1

        assert dec.reconstruct() == alpha, (name, p)
        assert all(cert.is_zero for cert in dec.certificates), (name, p)

        denom = integrate(wedge(power(setup.omega, 2 * p), setup.omega_p))
        numer = integrate(wedge(wedge(alpha, power(setup.omega, p)), setup.omega_p))
        assert dec.lam == Fraction(numer, denom), (name, p)

        terms = dec.pairing_terms()
        pair_aa = integrate(wedge(wedge(alpha, alpha), setup.omega_p))
        assert pair_aa == dec.lam ** 2 * denom + sum(terms, Fraction(0)), (name, p)

        direct = compute_g_direct(alpha, setup)
        assert direct == denom * sum(terms, Fraction(0)), (name, p)
    assert per_pair and all(count == 200 for count in per_pair.values())
    _conclude(4, "decomposition identities, 200 classes per (ring, p)")


def test_criterion_08_sign_law(decomposition_corpus):
    for name, p, setup, alpha, dec in decomposition_corpus:
        for i, (component, term) in enumerate(zip(dec.components, dec.pairing_terms()), 1):
            signed = (-1) ** i * term
            assert signed >= 0, (name, p, i)
            assert (signed == 0) == component.is_zero, (name, p, i)
    _conclude(8, "per-component sign law")


# ---------------------------------------------------------------------------
# Criterion 5: the unconditional opposite inequality in degree 1.
# ---------------------------------------------------------------------------

def test_criterion_05_degree_one_opposite():
    for name in ("p1xp1", "blp2", "p1xp2"):
        ring = zoo.get(name).ring
        for k in range(1000):
            setup = random_strict_setup(ring, 1, HEIGHT, SEED, k)
            alpha = sample_random_class(ring, 1, HEIGHT, SEED, k)
            g = compute_g_direct(alpha, setup)
            assert g <= 0, (name, k)
            assert (g == 0) == proportional(alpha, setup.omega), (name, k)
        # Equality side, exercised deliberately: multiples of omega give g = 0.
        setup = random_strict_setup(ring, 1, HEIGHT, SEED, 0)
        scaled = setup.omega.scaled(Fraction(-7, 3))
        assert compute_g_direct(scaled, setup) == 0
        assert proportional(scaled, setup.omega)

    pp = zoo.get("p1xp1").ring
    fixed = mixed_setup(1, pp.sample("omega"), [])
    assert compute_g_direct(pp.class_vector(1, [3, 1]), fixed) == -4
    _conclude(5, "degree-1 opposite inequality on 3 rings x 1000 classes")


# ---------------------------------------------------------------------------
# Criterion 6: explicit counterexample on the blow-up; CS direction when
# h^{1,1} = 1.
# ---------------------------------------------------------------------------

def test_criterion_06_cs_direction_and_counterexample(capsys):
    code = cli_main(["counterexample", "zoo:blp4", "-p", "2", "--output", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["g"] == "-900"
    assert doc["theta"]["coeffs"] == ["6", "9"]      # w^2 + (H - 8E) * w
    assert doc["witness"]["coeffs"] == ["1", "-8"]

    bl = zoo.get("blp4").ring
    w = bl.sample("omega")
    theta = power(w, 2) + wedge(bl.class_vector(1, [1, -8]), w)
    assert theta.coeffs == (Fraction(6), Fraction(9))
    assert compute_g_direct(theta, mixed_setup(2, w, [])) == -900

    for name in ("p4", "quadric4"):
        ring = zoo.get(name).ring
        assert ring.dim(1) == 1
        assert hodge_condition(ring, 2, "cs").holds
        for k in range(500):
            setup = random_strict_setup(ring, 2, HEIGHT, SEED, k)
            alpha = sample_random_class(ring, 2, HEIGHT, SEED, k)
            g = compute_g_direct(alpha, setup)
            assert g >= 0, (name, k)
            assert (g == 0) == proportional(alpha, power(setup.omega, 2)), (name, k)
    _conclude(6, "CS direction and explicit counterexample")


# ---------------------------------------------------------------------------
# Criterion 7: opposite direction under h^{1,1} = h^{2,2}.
# ---------------------------------------------------------------------------

def test_criterion_07_opposite_direction():
    bl = zoo.get("blp4").ring
    assert bl.dim(1) == bl.dim(2) == 2
    assert hodge_condition(bl, 2, "opposite").holds
    for k in range(500):
        setup = random_strict_setup(bl, 2, HEIGHT, SEED, k)
        alpha = sample_random_class(bl, 2, HEIGHT, SEED, k)
        g = compute_g_direct(alpha, setup)
        assert g <= 0, k
        assert (g == 0) == proportional(alpha, power(setup.omega, 2)), k

    # The flag threefold also satisfies h^{1,1} = h^{2,2}, but a threefold
    # admits no p = 2 setup; its maximal degree p = 1 is checked instead.
    fl = zoo.get("flag3").ring
    assert fl.dim(1) == fl.dim(2) == 2
    assert hodge_condition(fl, 1, "opposite").holds
    for k in range(500):
        setup = random_strict_setup(fl, 1, HEIGHT, SEED, k)
        alpha = sample_random_class(fl, 1, HEIGHT, SEED, k)
        g = compute_g_direct(alpha, setup)
        assert g <= 0, k
        assert (g == 0) == proportional(alpha, setup.omega), k
    _conclude(7, "opposite direction under equal middle dimensions")


# ---------------------------------------------------------------------------
# Criterion 9: Khovanskii-Teissier log-concavity chains.
# ---------------------------------------------------------------------------

def test_criterion_09_kt_chains():
    for name in ALL_ENTRIES:
        ring = zoo.get(name).ring
        nef = ring.nef_samples()
        for i, d1 in enumerate(nef):
            for d2 in nef[i:]:
                report = kt_chain(ring, d1, d2)
                assert report.all_hold, (name, str(d1), str(d2))
        kahler = ring.kahler_samples()
        for i, d1 in enumerate(kahler):
            for d2 in kahler[i + 1:]:
                if proportional(d1, d2):
                    continue
                report = kt_chain(ring, d1, d2)
                assert report.all_strict, (name, str(d1), str(d2))

    b2 = zoo.get("blp2").ring
    fixed = kt_chain(b2, b2.sample("hyperplane"), b2.sample("omega"))
    assert fixed.steps[0].lhs_squared == 4 and fixed.steps[0].rhs_product == 3
    _conclude(9, "KT chains non-strict on nef pairs, strict on Kahler pairs")


# ---------------------------------------------------------------------------
# Criterion 10: nef boundary verdicts, equality cases logged uncharacterized.
# ---------------------------------------------------------------------------

def test_criterion_10_nef_boundary():
    pp = zoo.get("p1xp1").ring
    ruling = pp.sample("a")
    assert integrate(power(ruling, 2)) == 0  # nef, not Kahler
    setup = mixed_setup(1, ruling, [])
    assert setup.mode == "boundary"
    equality_witnesses = []
    for k in range(200):
        alpha = sample_random_class(pp, 1, HEIGHT, SEED, k)
        verdict = check_cs(alpha, setup, "opposite")
        assert verdict.satisfied, k            # non-strict direction only
        assert verdict.odd_components_vanish is None  # no strict-mode claims
        if verdict.g_value == 0:
            assert verdict.equality_uncharacterized
            equality_witnesses.append((k, alpha))
    # Witnesses are logged, never classified: multiples of the ruling are
    # equality cases whether or not they are proportional wrt the full pair.
    forced = check_cs(ruling.with_flag("none").scaled(3), setup, "opposite")
    assert forced.g_value == 0 and forced.equality_uncharacterized

    # CS direction on the nef boundary when the dimension condition holds.
    q4 = zoo.get("quadric4").ring
    hq = q4.sample("h").with_flag(FLAG_NEF)
    bsetup = mixed_setup(2, hq, [])
    assert bsetup.mode == "boundary"
    for k in range(200):
        alpha = sample_random_class(q4, 2, HEIGHT, SEED, k)
        verdict = check_cs(alpha, bsetup, "cs")
        assert verdict.satisfied, k

    # Opposite direction on the boundary of the blow-up cone (pullback class).
    bl = zoo.get("blp4").ring
    hb = bl.sample("hyperplane")
    bsetup2 = mixed_setup(2, hb, [])
    assert bsetup2.mode == "boundary"
    for k in range(200):
        alpha = sample_random_class(bl, 2, HEIGHT, SEED, k)
        verdict = check_cs(alpha, bsetup2, "opposite")
        assert verdict.satisfied, k
    _conclude(10, "nef boundary verdicts with uncharacterized equalities")


# ---------------------------------------------------------------------------
# Criterion 11: canonical round-trips and parse diagnostics.
# ---------------------------------------------------------------------------

CORRUPTED_FIXTURES = [
    ("syntax", '{"name": "x", "n": 2, OOPS', BundleSyntaxError, None),
    (
        "commutativity",
        json.dumps({
            "name": "c", "n": 2, "hodge": [1, 2, 1],
            "basis": [["1"], ["x", "y"], ["pt"]],
            "products": [
                {"da": 1, "ia": 0, "db": 1, "ib": 1, "out": ["1"]},
                {"da": 1, "ia": 1, "db": 1, "ib": 0, "out": ["2"]},
            ],
            "integral": ["1"], "samples": [],
        }),
        BundleSemanticError, "commutativity",
    ),
    (
        "nonpalindromic hodge",
        json.dumps({
            "name": "skew", "n": 3, "hodge": [1, 2, 1, 1],
            "basis": [["1"], ["x", "y"], ["u"], ["pt"]],
            "products": [{"da": 1, "ia": 0, "db": 1, "ib": 0, "out": ["1"]}],
            "integral": ["1"], "samples": [],
        }),
        BundleSemanticError, "poincare-duality",
    ),
    (
        "wrong output length",
        json.dumps({
            "name": "w", "n": 2, "hodge": [1, 1, 1],
            "basis": [["1"], ["h"], ["pt"]],
            "products": [{"da": 1, "ia": 0, "db": 1, "ib": 0, "out": ["1", "1"]}],
            "integral": ["1"], "samples": [],
        }),
        BundleSemanticError, "structure",
    ),
    (
        "degenerate integral",
        json.dumps({
            "name": "d", "n": 2, "hodge": [1, 1, 1],
            "basis": [["1"], ["h"], ["pt"]],
            "products": [{"da": 1, "ia": 0, "db": 1, "ib": 0, "out": ["1"]}],
            "integral": ["0"], "samples": [],
        }),
        BundleSemanticError, "poincare-duality",
    ),
]


def test_criterion_11_round_trip_and_diagnostics():
    for name in ALL_ENTRIES:
        ring = zoo.get(name).ring
        text = serialize_ring_bundle(ring)
        parsed = parse_ring_bundle(text)
        assert parsed == ring, name
        assert serialize_ring_bundle(parsed) == text, name

    assert len(CORRUPTED_FIXTURES) == 5
    for label, text, exc_type, constraint in CORRUPTED_FIXTURES:
        with pytest.raises(exc_type) as err:
            parse_ring_bundle(text)
        if constraint is not None:
            assert err.value.constraint == constraint, label
    _conclude(11, "canonical round-trips and parse diagnostics")
