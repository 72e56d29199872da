"""Lefschetz operators, primitive subspaces, signed forms, decompositions."""

import gc
import re
import sys
import threading
import weakref
from fractions import Fraction
from functools import cached_property

import pytest

from hodgecs import zoo
from hodgecs.errors import DegreeError, FlagError, RingMismatchError, SingularSplitError
from hodgecs.inequalities import check_cs, compute_g_decomposed, verify_theorem
from hodgecs.lefschetz import (
    LefschetzDecomposer,
    gram_matrix_Q,
    hr_check,
    lefschetz_operator,
    mixed_lefschetz_decompose,
    primitive_basis,
)
from hodgecs.linalg import Matrix
from hodgecs.ring import (
    FLAG_KAHLER,
    IntersectionRing,
    MixedSetup,
    RingSample,
    as_kahler,
    integrate,
    mixed_setup,
    power,
    wedge,
)
from hodgecs.sampling import random_strict_setup, sample_random_class
from test_inequalities import _count_wedges


# -- lefschetz operator ----------------------------------------------------------

def test_operator_p2_degree_zero():
    ring = zoo.get("p2").ring
    h = ring.sample("h")
    m, iso = lefschetz_operator(ring, 0, [h, h])
    assert iso and m.rows == m.cols == 1 and m[0, 0] == 1


def test_operator_empty_product_is_identity():
    ring = zoo.get("blp4").ring
    m, iso = lefschetz_operator(ring, 2, [])
    assert iso
    assert m == m.identity(2)


def test_operator_blowup_middle():
    ring = zoo.get("blp4").ring
    w = ring.sample("omega")
    m, iso = lefschetz_operator(ring, 1, [w, w])
    assert iso and m.rank() == 2


def _blp4_reference():
    ring = zoo.get("blp4").ring
    return ring, ring.sample("omega"), ring.class_vector(2, [1, 0])


# Each bad reference list fails where it is read, with a message that names the
# range, the count or the degree.
@pytest.mark.parametrize("call, message", [
    (lambda r, w, c2: lefschetz_operator(r, 1, [w]),
     "expected 2 reference classes for degree 1, got 1"),
    (lambda r, w, c2: primitive_basis(r, 1, w, [w]),
     "expected 2 reference classes for degree 1, got 1"),
    (lambda r, w, c2: gram_matrix_Q(r, 1, [c2, w]),
     "reference classes must have degree 1, got degree 2"),
    (lambda r, w, c2: lefschetz_operator(r, 1, [c2, w]),
     "reference classes must have degree 1, got degree 2"),
    (lambda r, w, c2: primitive_basis(r, 1, c2, [w, w]),
     "reference classes must have degree 1, got degree 2"),
    (lambda r, w, c2: hr_check(r, 3, w, []), "p must satisfy 1 <= p <= 2, got 3"),
    (lambda r, w, c2: hr_check(r, 0, w, [w] * 4), "p must satisfy 1 <= p <= 2, got 0"),
    (lambda r, w, c2: primitive_basis(r, 3, w, []), "p must satisfy 1 <= p <= 2, got 3"),
    (lambda r, w, c2: primitive_basis(r, 0, w, [w] * 4), "p must satisfy 1 <= p <= 2, got 0"),
    (lambda r, w, c2: gram_matrix_Q(r, 3, []), "p must satisfy 0 <= p <= 2, got 3"),
    (lambda r, w, c2: lefschetz_operator(r, -1, [w] * 6), "p must satisfy 0 <= p <= 2, got -1"),
], ids=["operator count", "primitive count", "gram degree", "operator degree",
        "primitive w degree", "hr p above half n", "hr p = 0", "primitive p above half n",
        "primitive p = 0", "gram p above half n", "operator p below 0"])
def test_operator_wrong_class_count(call, message):
    with pytest.raises(DegreeError) as err:
        call(*_blp4_reference())
    assert (type(err.value), str(err.value)) == (DegreeError, message)


def test_reference_of_another_ring_is_refused():
    ring, w, _ = _blp4_reference()
    other = zoo.get("p1xp1").ring.sample("omega")
    with pytest.raises(RingMismatchError, match="reference classes live in different rings"):
        gram_matrix_Q(ring, 1, [w, other])
    with pytest.raises(RingMismatchError, match="reference classes live in different rings"):
        primitive_basis(ring, 1, other, [w, w])
    with pytest.raises(RingMismatchError):
        hr_check(ring, 1, w, [w, other])
    with pytest.raises(RingMismatchError):
        hr_check(zoo.get("p1xp1").ring, 1, w, [w, w])


def test_operator_not_iso_for_nef_product():
    # H*E = 0, so wedging with H^2 kills E and the degree-1 map degenerates.
    ring = zoo.get("blp4").ring
    h = ring.class_vector(1, [1, 0])
    m, iso = lefschetz_operator(ring, 1, [h, h])
    assert not iso


# -- primitive subspaces -------------------------------------------------------------

def test_primitive_p1xp1():
    ring = zoo.get("p1xp1").ring
    prim = primitive_basis(ring, 1, ring.sample("omega"), [])
    # (xa + yb)(a + b) = (x + y) ab vanishes exactly when x = -y.
    assert [tuple(v.coeffs) for v in prim.basis] == [
        (Fraction(1), Fraction(-1))
    ]
    assert prim.dim == prim.expected_dim == 1


def test_primitive_projective_space_empty():
    ring = zoo.get("p4").ring
    h = ring.sample("h")
    for p in (1, 2):
        prim = primitive_basis(ring, p, h, [h] * (4 - 2 * p))
        assert prim.dim == 0 == prim.expected_dim


def test_primitive_blowup():
    ring = zoo.get("blp4").ring
    w = ring.sample("omega")
    prim = primitive_basis(ring, 1, w, [w, w])
    assert [tuple(v.coeffs) for v in prim.basis] == [
        (Fraction(1), Fraction(-8))
    ]


def test_primitive_certificates_exact():
    ring = zoo.get("flag3").ring
    w = ring.sample("rho")
    aux = ring.sample("w21")
    prim = primitive_basis(ring, 1, w, [aux])
    assert prim.basis
    for v in prim.basis:
        assert wedge(wedge(v, w), aux).is_zero


def test_dimension_formula_seeded():
    for name in zoo.list_entries():
        ring = zoo.get(name).ring
        for p in range(1, ring.n // 2 + 1):
            for k in range(3):
                setup = random_strict_setup(ring, p, 6, seed=5, index=k)
                prim = primitive_basis(ring, p, setup.omega, setup.omegas)
                assert prim.dim == ring.dim(p) - ring.dim(p - 1), (name, p)


# -- gram matrices ----------------------------------------------------------------------

def test_gram_p1xp1():
    ring = zoo.get("p1xp1").ring
    form = gram_matrix_Q(ring, 1, [])
    assert form.sign_factor == -1
    assert [[form.unsigned_gram[i, j] for j in range(2)] for i in range(2)] == [
        [0, 1], [1, 0]]
    assert [[form.gram[i, j] for j in range(2)] for i in range(2)] == [
        [0, -1], [-1, 0]]
    assert form.inertia == (1, 1, 0)
    assert form.unsigned_inertia == (1, 1, 0)


def test_gram_projective_space_both_conventions():
    ring = zoo.get("p4").ring
    h = ring.sample("h")
    form = gram_matrix_Q(ring, 1, [h, h])
    assert form.gram[0, 0] == -1 and form.inertia == (0, 1, 0)
    assert form.unsigned_gram[0, 0] == 1 and form.unsigned_inertia == (1, 0, 0)


def test_gram_restricted_to_primitive_positive():
    ring = zoo.get("p1xp1").ring
    w = ring.sample("omega")
    form = gram_matrix_Q(ring, 1, [])
    prim = primitive_basis(ring, 1, w, [])
    diff = prim.basis[0]
    # integral of (a-b)^2 is -2; the signed form flips it to +2.
    value = form.sign_factor * integrate(wedge(diff, diff))
    assert value == 2


# -- hr_check ----------------------------------------------------------------------------

def test_hr_p1xp1():
    ring = zoo.get("p1xp1").ring
    report = hr_check(ring, 1, ring.sample("omega"), [])
    assert report.passed
    assert report.restricted_inertia == (1, 0, 0)
    assert report.restricted_gram[0, 0] == 2
    assert str(report) == "ring 'p1xp1' p=1: primitive dim 1, restricted inertia (1, 0, 0) [ok]"


def test_hr_projective_space_vacuous():
    ring = zoo.get("p4").ring
    h = ring.sample("h")
    report = hr_check(ring, 2, h, [])
    assert report.passed and report.primitive.dim == 0


def test_hr_blowup_value_60():
    ring = zoo.get("blp4").ring
    w = ring.sample("omega")
    report = hr_check(ring, 1, w, [w, w])
    assert report.passed
    # Oracle: (H-8E)^2 = H^2 + 64 E^2, wedged with (2H-E)^2 = 4H^2 + E^2 gives
    # 4 H^4 + 64 E^4 -> 4 - 64 = -60; the signed form contributes (-1)^1.
    assert report.restricted_gram[0, 0] == 60


def test_hr_requires_kahler_flags():
    ring = zoo.get("p1xp1").ring
    with pytest.raises(FlagError):
        hr_check(ring, 1, ring.sample("a"), [])


def test_hr_detects_false_flag():
    ring = zoo.get("blp4").ring
    fake = ring.class_vector(1, [0, 1], FLAG_KAHLER)  # E, deliberately mislabelled
    report = hr_check(ring, 1, fake, [fake, fake])
    assert not report.passed


def _with_factor_samples(entry, factors):
    """The product ring with Kahler sample j = (1, .., 2, .., 1), the 2 on factor j,
    so that seeded setups are not all multiples of one class."""
    r = entry.ring
    width = r.dim(1) // factors
    samples = [RingSample(f"k{j}", FLAG_KAHLER,
                          tuple(Fraction(2 if f == j else 1) for f in range(factors) for _ in range(width)))
               for j in range(factors)]
    return IntersectionRing(r.name, r.n, r.hodge, r.basis_labels, r.products, r.integral, samples)


def _setup_route_rings():
    for name in zoo.list_entries():
        yield zoo.get(name).ring
    p1 = zoo.projective_space(1, "a")
    for label in "bcde":
        p1 = zoo.product(p1, zoo.projective_space(1, label))
    yield _with_factor_samples(p1, 5)
    p2 = zoo.product(zoo.product(zoo.projective_space(2, "x"), zoo.projective_space(2, "y")),
                     zoo.projective_space(2, "z"))
    yield _with_factor_samples(p2, 3)
    yield zoo.blowup_pn(8).ring


def test_hr_check_on_the_setup_matches_the_list_routes(monkeypatch):
    # Oracle: hr_check reads one setup's Omega_p and rungs; the list routes
    # multiply the reference out on their own.
    import hodgecs.lefschetz
    import hodgecs.ring
    real, calls = hodgecs.ring._omega_class, []

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    for module in (hodgecs.ring, hodgecs.lefschetz):
        monkeypatch.setattr(module, "_omega_class", counting)
    for ring in _setup_route_rings():
        for p in range(1, ring.n // 2 + 1):
            for k in range(2):
                setup = random_strict_setup(ring, p, 6, seed=22, index=k)
                w, omegas = setup.omega, setup.omegas
                calls.clear()
                report = hr_check(ring, p, w, omegas)
                assert calls == [p], (ring.name, p)  # Omega_p is formed once
                assert report.passed, (ring.name, p, str(report))
                assert report.primitive.basis == primitive_basis(ring, p, w, omegas).basis
                assert report.form == gram_matrix_Q(ring, p, omegas)
                deg1 = gram_matrix_Q(ring, 1, [w] * (2 * p - 2) + list(omegas))
                assert report.degree1_unsigned_inertia == deg1.unsigned_inertia


# -- decomposition --------------------------------------------------------------------------

def test_decompose_pure_power():
    ring = zoo.get("blp4").ring
    w = ring.sample("omega")
    setup = mixed_setup(2, w, [])
    dec = mixed_lefschetz_decompose(power(w, 2), setup)
    assert dec.lam == 1
    assert all(c.is_zero for c in dec.components)
    assert dec.reconstruct() == power(w, 2)


def test_decompose_p1xp1_example():
    ring = zoo.get("p1xp1").ring
    w = ring.sample("omega")
    setup = mixed_setup(1, w, [])
    alpha = ring.class_vector(1, [3, 1])
    dec = mixed_lefschetz_decompose(alpha, setup)
    # lam = (int alpha*w) / (int w^2) = 4/2 = 2; remainder 3a+b-2(a+b) = a-b.
    assert dec.lam == 2
    assert dec.components[0] == ring.class_vector(1, [1, -1])
    assert dec.reconstruct() == alpha


def test_decompose_blowup_theta():
    ring = zoo.get("blp4").ring
    w = ring.sample("omega")
    setup = mixed_setup(2, w, [])
    theta = power(w, 2) + wedge(ring.class_vector(1, [1, -8]), w)
    dec = mixed_lefschetz_decompose(theta, setup)
    assert dec.lam == 1
    assert dec.components[0] == ring.class_vector(1, [1, -8])
    assert dec.components[1].is_zero
    assert all(c.is_zero for c in dec.certificates)


def test_decompose_identities_seeded():
    for name in ("p1xp1", "blp3", "blp4", "quadric4", "flag3"):
        ring = zoo.get(name).ring
        for p in range(1, ring.n // 2 + 1):
            setup = random_strict_setup(ring, p, 5, seed=2, index=0)
            decomposer = LefschetzDecomposer(setup)
            denom = integrate(wedge(power(setup.omega, 2 * p), setup.omega_p))
            for k in range(8):
                alpha = sample_random_class(ring, p, 5, seed=40, index=k)
                dec = decomposer.decompose(alpha)
                assert dec.reconstruct() == alpha
                assert all(c.is_zero for c in dec.certificates)
                numer = integrate(
                    wedge(wedge(alpha, power(setup.omega, p)), setup.omega_p))
                assert dec.lam == Fraction(numer, denom)
                assert type(dec.lam) is Fraction


def test_decompose_complex_class():
    # A complex class alpha = x + iy decomposes through its rational parts, as
    # the decomposition is linear: the parts' lambdas and components, paired as
    # real and imaginary parts, reassemble alpha = (1 + 2i) a - i b, written as
    # one (real, imaginary) pair of Fractions per coefficient.
    ring = zoo.get("p1xp1").ring
    setup = mixed_setup(1, ring.sample("omega"), [])
    alpha = [(1, 2), (0, -1)]
    x, y = ring.class_vector(1, [1, 0]), ring.class_vector(1, [2, -1])
    dx, dy = mixed_lefschetz_decompose(x, setup), mixed_lefschetz_decompose(y, setup)
    for part, dec in ((x, dx), (y, dy)):
        assert dec.reconstruct() == part
        assert all(c.is_zero for c in dec.certificates)
    comp = zip(dx.components[0].coeffs, dy.components[0].coeffs)
    assert [(dx.lam * w + u, dy.lam * w + v) for w, (u, v) in zip(setup.omega.coeffs, comp)] == alpha
    # Linearity over the rationals, which the reduction rests on.
    t = Fraction(-3, 7)
    dec = mixed_lefschetz_decompose(x + y.scaled(t), setup)
    assert dec.lam == dx.lam + t * dy.lam
    assert dec.components == tuple(u + v.scaled(t) for u, v in zip(dx.components, dy.components))


def test_decompose_rejects_boundary():
    ring = zoo.get("p1xp1").ring
    setup = mixed_setup(1, ring.sample("a"), [])
    with pytest.raises(FlagError):
        mixed_lefschetz_decompose(ring.class_vector(1, [1, 0]), setup)


def test_decompose_singular_split_reports_bad_flags():
    ring = zoo.get("blp4").ring
    fake = ring.class_vector(1, [0, 1], FLAG_KAHLER)  # E mislabelled as Kahler
    setup = mixed_setup(2, fake, [])
    with pytest.raises(SingularSplitError):
        LefschetzDecomposer(setup)


def test_decompose_level_one_singular_map():
    ring = zoo.get("p1xp1").ring
    fake = ring.sample("a").with_flag(FLAG_KAHLER)  # nef boundary class
    with pytest.raises(SingularSplitError, match="level 1"):
        LefschetzDecomposer(mixed_setup(1, fake, []))


# -- decomposition against a split-system oracle ----------------------------------

def _split_oracle(alpha, setup):
    """Decompose level by level against [primitive basis | w * degree-(i-1) basis].

    Returns (lam, components, certificates) in the layout of
    DecompositionResult, computed independently of LefschetzDecomposer.
    """
    ring, p, w = setup.ring, setup.p, setup.omega
    components, certificates = [], []
    current = alpha
    for i in range(p, 0, -1):
        prim = primitive_basis(ring, i, w, [w] * (2 * (p - i)) + list(setup.omegas)).basis
        image = [wedge(ring.basis_class(i - 1, j), w) for j in range(ring.dim(i - 1))]
        split = Matrix.from_columns([c.coeffs for c in prim + tuple(image)], rows=ring.dim(i))
        assert split.rows == split.cols
        sol = split.solve(current.coeffs)
        comp = ring.zero_class(i)
        for c, b in zip(sol, prim):
            comp = comp + b.scaled(c)
        components.insert(0, comp)
        certificates.insert(0, wedge(comp, wedge(power(w, 2 * (p - i) + 1), setup.omega_p)))
        current = ring.class_vector(i - 1, sol[len(prim):])
    return current.coeffs[0], tuple(components), tuple(certificates)


def _p1_fourth():
    return zoo.product(
        zoo.product(zoo.projective_space(1, "a"), zoo.projective_space(1, "b")),
        zoo.product(zoo.projective_space(1, "c"), zoo.projective_space(1, "d")),
        name="p1fourth",
    ).ring


def _p1_fourth_ample():
    """Three distinct ample classes on (P1)^4."""
    ring = _p1_fourth()
    return tuple(as_kahler(ring, ring.class_vector(1, v))
                 for v in ([1, 2, 3, 4], [3, 1, 1, 2], [1, 1, 5, 1]))


def test_decompose_matches_split_oracle():
    # Random cone setups on every zoo (ring, p) and on blp6; mixed setups of
    # distinct ample classes on (P1)^4.
    cases = []
    for ring in [zoo.get(name).ring for name in zoo.list_entries()] + [zoo.blowup_pn(6).ring]:
        for p in range(1, ring.n // 2 + 1):
            cases.append(random_strict_setup(ring, p, 5, seed=41, index=p))
    a, b, c = _p1_fourth_ample()
    cases += [mixed_setup(1, a, [b, c]), mixed_setup(2, a, [])]

    for k, setup in enumerate(cases):
        ring, p = setup.ring, setup.p
        decomposer = LefschetzDecomposer(setup)
        first = sample_random_class(ring, p, 6, seed=43, index=k)
        second = sample_random_class(ring, p, 6, seed=44, index=k)
        for alpha in (first, second):
            dec = decomposer.decompose(alpha)
            lam, components, certificates = _split_oracle(alpha, setup)
            where = (ring.name, p, alpha)
            assert dec.lam == lam, where
            assert dec.components == components, where
            assert dec.certificates == certificates, where
            assert all(c.is_zero for c in certificates), where


# -- rungs and one decomposer per setup ------------------------------------------------

def test_tower_matches_powers_times_omega_p():
    a, b, c = _p1_fourth_ample()
    setups = [mixed_setup(1, a, [b, c])]
    for name in zoo.list_entries():
        ring = zoo.get(name).ring
        for p in range(1, ring.n // 2 + 1):
            setups.append(random_strict_setup(ring, p, 5, seed=45, index=p))
    for setup in setups:
        assert setup.rung(0) is setup.omega_p
        for k in range(2 * setup.p + 1):
            rung = setup.rung(k)
            assert rung == wedge(power(setup.omega, k), setup.omega_p), (setup.describe(), k)
            assert setup.rung(k) is rung
        with pytest.raises(DegreeError):
            setup.rung(2 * setup.p + 1)


def test_rungs_read_by_threads_at_once_stay_in_place():
    # Threads that read one fresh setup's top rung at once all get w^(2p) * Omega_p,
    # and every stored rung sits at its own index.
    ring = zoo.blowup_pn(8).ring
    w = ring.sample("omega")
    expected = [power(w, k) for k in range(9)]  # Omega_p is the unit at p = n/2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            setup, start, tops = mixed_setup(4, w, []), threading.Barrier(8), []

            def read():
                start.wait()
                tops.append(setup.rung(8))

            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert tops == [expected[8]] * 8
            assert [setup.rung(k) for k in range(9)] == expected
    finally:
        sys.setswitchinterval(interval)


def test_hr_check_builds_the_rungs_it_reads(monkeypatch):
    # At p = n/2, hr_check reads rung 1 (the primitive kernel) and rung 2p - 2
    # (the degree-1 signature). On blp8 at p = 4 it forms rungs 1 .. 6, one
    # wedge each, and not the two above them.
    ring = zoo.blowup_pn(8).ring
    w = ring.sample("omega")
    calls = _count_wedges(monkeypatch)
    assert hr_check(ring, 4, w, []).passed
    assert len(calls) == 6


def test_each_setup_builds_one_decomposer(monkeypatch):
    # Decomposers are cheap; the level build they read is once per setup.
    builds = []
    build = MixedSetup.levels.func

    def counting(setup):
        builds.append(setup)
        return build(setup)

    levels = cached_property(counting)
    levels.__set_name__(MixedSetup, "levels")
    monkeypatch.setattr(MixedSetup, "levels", levels)
    ring = _p1_fourth()
    setup = random_strict_setup(ring, 2, 5, seed=46, index=0)
    alpha = sample_random_class(ring, 2, 5, seed=46, index=0)
    for direction in ("cs", "opposite"):
        check_cs(alpha, setup, direction)
    compute_g_decomposed(alpha, setup)
    mixed_lefschetz_decompose(alpha, setup)
    assert len(builds) == 1 and builds[0] is setup
    assert LefschetzDecomposer(setup)._levels is setup.levels

    # Both dimension conditions fail on (P1)^4 at p = 2, so verify_theorem
    # builds two counterexamples on the setup of sample 0.
    builds.clear()
    report = verify_theorem(ring, 2, samples=2, seed=47)
    assert sorted(report.counterexamples) == ["cs", "opposite"]
    assert len(builds) == 1


def test_used_setup_is_freed_without_the_cycle_collector():
    # Nothing the setup caches (rungs, levels) points back at it, so dropping
    # the last reference frees it at once, with its rungs and level inverses.
    ring = zoo.blowup_pn(8).ring
    setup = random_strict_setup(ring, 3, 5, seed=48, index=0)
    alpha = sample_random_class(ring, 3, 5, seed=48, index=0)
    gc.disable()
    try:
        verdict = check_cs(alpha, setup)
        assert verdict.odd_components_vanish is not None   # it decomposed
        ref = weakref.ref(setup)
        del setup
        assert ref() is None
    finally:
        gc.enable()
