"""g evaluation, inequality verdicts, counterexamples, and the KT chain."""

import itertools
import sys
from collections import Counter
from fractions import Fraction

import pytest

import hodgecs.inequalities
import hodgecs.ring
from hodgecs import zoo
from hodgecs.bundle import serialize_ring_bundle
from hodgecs.cli import main
from hodgecs.errors import DegreeError, FlagError, RingMismatchError
from hodgecs.inequalities import (
    HodgeCondition,
    check_cs,
    compute_g_decomposed,
    compute_g_direct,
    construct_counterexample,
    hodge_condition,
    kt_chain,
    proportional,
    verify_theorem,
)
from hodgecs.lefschetz import hr_check, primitive_basis
from hodgecs.linalg import Matrix
from hodgecs.ring import (
    FLAG_KAHLER,
    FLAG_NEF,
    ClassVector,
    IntersectionRing,
    RingSample,
    as_kahler,
    form_matrix,
    integrate,
    mixed_setup,
    power,
    sanity_check_kahler,
    validate_ring,
    wedge,
)
from hodgecs.sampling import random_cone_class, random_strict_setup, sample_random_class


def _setup(ring, p, omega_name="omega", aux=None):
    w = ring.sample(omega_name)
    count = ring.n - 2 * p
    omegas = aux if aux is not None else [w] * count
    return mixed_setup(p, w, omegas)


def _g_three_wedges(alpha, setup):
    """Oracle: g from three product classes and the setup's rungs, as
    (int alpha * alpha * Omega_p) * V - (int alpha * w^p * Omega_p)^2."""
    aa = integrate(wedge(wedge(alpha, alpha), setup.omega_p))
    return aa * setup.volume - integrate(wedge(alpha, setup.rung(setup.p))) ** 2


def _g_complex(x, y, setup):
    """Oracle: g of the complex class x + iy as a (real, imaginary) pair of
    Fractions, from the form matrix Q of Omega_p, the integrals
    m_i = int e_i * w^p * Omega_p and V: (a^T Q conj(a)) * V - |m^T a|^2 with
    a = x + iy, where a_i * conj(a_j) = (u_i u_j + v_i v_j) + i (v_i u_j - u_i v_j)."""
    ring, p = setup.ring, setup.p
    a = list(zip(x.coeffs, y.coeffs))
    q = form_matrix(ring, p, setup.omega_p)
    m = [integrate(wedge(ring.basis_class(p, i), setup.rung(p))) for i in range(ring.dim(p))]
    pairs = [(q[i, j], a[i], a[j]) for i in range(len(a)) for j in range(len(a))]
    aqa_re = sum(f * (ui * uj + vi * vj) for f, (ui, vi), (uj, vj) in pairs)
    aqa_im = sum(f * (vi * uj - ui * vj) for f, (ui, vi), (uj, vj) in pairs)
    ma_re, ma_im = (sum(mi * ai[k] for mi, ai in zip(m, a)) for k in (0, 1))
    return aqa_re * setup.volume - ma_re ** 2 - ma_im ** 2, aqa_im * setup.volume


# -- g -------------------------------------------------------------------------

def test_g_zero_for_pure_power():
    ring = zoo.get("blp4").ring
    setup = _setup(ring, 2)
    assert compute_g_direct(power(setup.omega, 2), setup) == 0
    decomposed = compute_g_decomposed(power(setup.omega, 2), setup)
    assert decomposed.value == 0 and decomposed.terms == (0, 0)


def test_g_p1xp1_fixed_instance():
    ring = zoo.get("p1xp1").ring
    setup = _setup(ring, 1)
    alpha = ring.class_vector(1, [3, 1])
    # Structure constants: int alpha^2 = 6, int w^2 = 2, int alpha*w = 4.
    assert compute_g_direct(alpha, setup) == 6 * 2 - 4 * 4 == -4


def test_g_blp2_instance():
    ring = zoo.get("blp2").ring
    setup = _setup(ring, 1)
    alpha = ring.class_vector(1, [1, 0])
    # int H^2 = 1, int w^2 = 3, int H*w = 2, so g = 3 - 4 = -1.
    assert compute_g_direct(alpha, setup) == -1


def test_g_degree_mismatch():
    ring = zoo.get("blp4").ring
    setup = _setup(ring, 2)
    with pytest.raises(DegreeError):
        compute_g_direct(ring.basis_class(1, 0), setup)


def test_g_real_for_complex_class():
    # alpha = (1 + 2i) e_0 + (-3 + 5i) e_1 = x + iy: its g is real and is
    # g(x) + g(y), as the setup is real.
    ring = zoo.get("blp4").ring
    setup = _setup(ring, 2)
    x, y = ring.class_vector(2, [1, -3]), ring.class_vector(2, [2, 5])
    g, imaginary = _g_complex(x, y, setup)
    assert imaginary == 0
    assert g == compute_g_direct(x, setup) + compute_g_direct(y, setup)
    with pytest.raises(TypeError, match="as a rational"):
        ring.class_vector(2, [complex(1, 2), complex(-3, 5)])


def test_g_scale_equivariance_complex():
    # t * alpha = Re(t) * alpha + i * Im(t) * alpha for a rational class alpha.
    ring = zoo.get("p1xp1").ring
    setup = _setup(ring, 1)
    alpha = ring.class_vector(1, [3, -2])
    t_re, t_im = Fraction(2, 3), Fraction(-1, 2)
    g1 = compute_g_direct(alpha, setup)
    x, y = alpha.scaled(t_re), alpha.scaled(t_im)
    g2 = compute_g_direct(x, setup) + compute_g_direct(y, setup)
    assert (g2, 0) == _g_complex(x, y, setup) == ((t_re ** 2 + t_im ** 2) * g1, 0)


def test_g_decomposed_matches_direct():
    ring = zoo.get("p1xp1").ring
    setup = _setup(ring, 1)
    alpha = ring.class_vector(1, [3, 1])
    result = compute_g_decomposed(alpha, setup)
    assert result.value == -4
    assert result.terms == (Fraction(-2),)   # int (a-b)^2 = -2, times int w^2 = 2


def test_g_decomposed_blowup_theta():
    ring = zoo.get("blp4").ring
    setup = _setup(ring, 2)
    theta = power(setup.omega, 2) + wedge(ring.class_vector(1, [1, -8]), setup.omega)
    result = compute_g_decomposed(theta, setup)
    assert result.value == -900
    assert result.terms == (Fraction(-60), Fraction(0))
    assert compute_g_direct(theta, setup) == -900


def test_complex_proportional_class_gives_equality():
    # alpha = t * w^2 = x + iy is proportional to w^2 exactly when x and y are.
    ring = zoo.get("blp4").ring
    setup = _setup(ring, 2)
    t_re, t_im = Fraction(3, 2), Fraction(-1, 3)
    w2 = power(setup.omega, 2)
    x, y = w2.scaled(t_re), w2.scaled(t_im)
    assert proportional(x, w2) and proportional(y, w2)
    assert compute_g_direct(x, setup) + compute_g_direct(y, setup) == 0
    assert _g_complex(x, y, setup) == (0, 0)
    dx, dy = compute_g_decomposed(x, setup), compute_g_decomposed(y, setup)
    assert dx.value == dy.value == 0
    assert (dx.decomposition.lam, dy.decomposition.lam) == (t_re, t_im)


def test_two_route_agreement_complex_classes():
    ring = zoo.get("blp4").ring
    setup = _setup(ring, 2)
    from hodgecs.sampling import Xoshiro256StarStar

    rng = Xoshiro256StarStar(55)
    for _ in range(8):
        # alpha = x + iy, drawn as the real and imaginary part of each coefficient.
        draws = [(Fraction(rng.int_between(-5, 5), rng.int_between(1, 3)),
                  Fraction(rng.int_between(-5, 5), rng.int_between(1, 3))) for _ in range(2)]
        x = ring.class_vector(2, [u for u, _ in draws])
        y = ring.class_vector(2, [v for _, v in draws])
        direct = compute_g_direct(x, setup) + compute_g_direct(y, setup)
        assert (direct, 0) == _g_complex(x, y, setup)
        assert direct == compute_g_decomposed(x, setup).value + compute_g_decomposed(y, setup).value


def test_two_route_agreement_seeded():
    for name in ("p1xp1", "blp2", "blp4", "quadric4", "flag3", "p1xp2"):
        ring = zoo.get(name).ring
        for p in range(1, ring.n // 2 + 1):
            setup = random_strict_setup(ring, p, 5, seed=9, index=p)
            for k in range(10):
                alpha = sample_random_class(ring, p, 7, seed=90 + p, index=k)
                assert compute_g_direct(alpha, setup) == \
                    compute_g_decomposed(alpha, setup).value, (name, p, k)


# -- verdicts ----------------------------------------------------------------------

def test_check_cs_opposite_strict():
    ring = zoo.get("p1xp1").ring
    setup = _setup(ring, 1)
    verdict = check_cs(ring.class_vector(1, [3, 1]), setup, "opposite")
    assert verdict.g_value == -4
    assert verdict.relation == "strictly_negative"
    assert verdict.satisfied and not verdict.proportional
    assert verdict.mode == "strict"
    assert verdict.even_components_vanish  # only the odd component a-b survives


def test_check_cs_proportional_case():
    ring = zoo.get("blp4").ring
    setup = _setup(ring, 2)
    alpha = power(setup.omega, 2).scaled(5)
    verdict = check_cs(alpha, setup, "cs")
    assert verdict.g_value == 0 and verdict.relation == "zero"
    assert verdict.proportional
    assert verdict.odd_components_vanish and verdict.even_components_vanish


def test_check_cs_boundary_instance():
    # Degenerate boundary reference c = a on the quadric surface: the
    # opposite inequality survives non-strictly and equality cases are only
    # logged, never classified.
    ring = zoo.get("p1xp1").ring
    setup = mixed_setup(1, ring.sample("a"), [])
    verdict = check_cs(ring.class_vector(1, [0, 1]), setup, "opposite")
    assert verdict.mode == "boundary"
    assert verdict.g_value == -1
    assert verdict.satisfied and not verdict.proportional
    assert verdict.odd_components_vanish is None
    equality = check_cs(ring.class_vector(1, [1, 0]), setup, "opposite")
    assert equality.g_value == 0
    assert equality.equality_uncharacterized


# -- hodge conditions ----------------------------------------------------------------

def test_hodge_condition_p4():
    ring = zoo.get("p4").ring
    cond = hodge_condition(ring, 2, "cs")
    assert cond.holds and cond.pairs == ((0, 0, 1),)


def test_hodge_condition_blowup():
    ring = zoo.get("blp4").ring
    cs = hodge_condition(ring, 2, "cs")
    assert not cs.holds and cs.failing == (0,)
    opp = hodge_condition(ring, 2, "opposite")
    assert opp.holds


def test_hodge_condition_p1_opposite_unconditional():
    ring = zoo.get("p1xp1").ring
    cond = hodge_condition(ring, 1, "opposite")
    assert cond.holds and cond.unconditional


def _two_loop_hodge_condition(ring, p, kind):
    """Oracle: the condition as one hand-run loop per direction, with the
    opposite direction returning early at p = 1."""
    pairs = []
    failing = []
    if kind == "cs":
        for i in range((p + 1) // 2):
            pairs.append((i, 2 * i, 2 * i + 1))
            if ring.dim(2 * i) != ring.dim(2 * i + 1):
                failing.append(i)
    else:
        if p == 1:
            return HodgeCondition(kind, p, True, (), (), unconditional=True)
        for i in range(1, p // 2 + 1):
            pairs.append((i, 2 * i - 1, 2 * i))
            if ring.dim(2 * i - 1) != ring.dim(2 * i):
                failing.append(i)
    return HodgeCondition(kind, p, not failing, tuple(failing), tuple(pairs))


def test_hodge_condition_equals_the_two_loop_oracle():
    # Every grading with h^0 = 1 and entries 0..3 for n = 2..6; the condition
    # reads only the dimensions, so a ring without products serves.
    compared = 0
    for n in range(2, 7):
        for tail in itertools.product(range(4), repeat=n):
            hodge = (1, *tail)
            labels = [[f"e{d}_{i}" for i in range(h)] for d, h in enumerate(hodge)]
            ring = IntersectionRing("grading", n, hodge, labels, {}, [0] * hodge[n])
            for p in range(1, n // 2 + 1):
                for kind in ("cs", "opposite"):
                    want = _two_loop_hodge_condition(ring, p, kind)
                    assert hodge_condition(ring, p, kind) == want, (hodge, p, kind)
                    compared += 1
    assert compared == 2 * sum(4 ** n * (n // 2) for n in range(2, 7))


# -- counterexamples --------------------------------------------------------------------

def test_counterexample_blowup():
    ring = zoo.get("blp4").ring
    setup = _setup(ring, 2)
    ce = construct_counterexample(ring, 2, setup, "cs")
    assert ce is not None and ce.i0 == 0
    expected = power(setup.omega, 2) + wedge(ring.class_vector(1, [1, -8]), setup.omega)
    assert ce.theta == expected
    assert ce.g_value == -900
    assert not ce.verdict.satisfied


def test_counterexample_none_when_condition_holds():
    p4 = zoo.get("p4").ring
    assert construct_counterexample(p4, 2, _setup(p4, 2, "h"), "cs") is None
    q4 = zoo.get("quadric4").ring
    assert construct_counterexample(q4, 2, _setup(q4, 2, "h"), "cs") is None


def test_counterexample_jumps_at_the_first_level_whose_dimension_rises():
    # The quadric sixfold, h = (1, 1, 1, 2, 1, 1, 1): at p = 3 the cs levels
    # are 1 and 3, and level 1 has no primitive classes (h^1 = h^0), so the
    # witness is a - b at level 3, with a^2 = b^2 = 0 and a*b = pt.
    ring = IntersectionRing(
        "quadric6", 6, (1, 1, 1, 2, 1, 1, 1),
        [["1"], ["H"], ["H2"], ["a", "b"], ["l4"], ["l5"], ["pt"]],
        {(1, 0, 1, 0): [1], (1, 0, 2, 0): [1, 1], (1, 0, 3, 0): [1], (1, 0, 3, 1): [1],
         (1, 0, 4, 0): [1], (1, 0, 5, 0): [1], (2, 0, 2, 0): [2], (2, 0, 3, 0): [1],
         (2, 0, 3, 1): [1], (2, 0, 4, 0): [1], (3, 0, 3, 1): [1]},
        [1], [RingSample("H", FLAG_KAHLER, (Fraction(1),))],
    )
    assert validate_ring(ring).ok
    cond = hodge_condition(ring, 3, "cs")
    assert cond.pairs == ((0, 0, 1), (1, 2, 3)) and cond.failing == (1,)
    ce = construct_counterexample(ring, 3, mixed_setup(3, ring.sample("H"), []), "cs")
    assert ce.i0 == 1
    assert ce.witness == ring.class_vector(3, [1, -1])
    assert ce.theta == ring.class_vector(3, [2, 0]) and ce.g_value == -4


@pytest.mark.parametrize("name", ["blp3", "p1xp2"])
def test_counterexample_refuses_a_setup_of_another_ring(name, monkeypatch):
    # Both rings fail the cs condition at p = 1, so a blp4 setup used to yield a
    # counterexample with i0 from their dimensions and classes of blp4. The ring
    # is checked before any work: the dimension condition is never read.
    setup = random_strict_setup(zoo.get("blp4").ring, 1, 10, 0, 0)
    monkeypatch.setattr(hodgecs.inequalities, "hodge_condition", None)
    with pytest.raises(RingMismatchError, match="setup belongs to a different ring"):
        construct_counterexample(zoo.get(name).ring, 1, setup, "cs")


def _blp4_classes():
    ring = zoo.get("blp4").ring
    return ring, ring.sample("omega"), ring.sample("hyperplane"), ring.class_vector(2, [1, 0])


# Each refusal names what is wrong, with its exact type and message.
@pytest.mark.parametrize("call, error, message", [
    (lambda r, w, h, c2: construct_counterexample(r, 2, mixed_setup(2, h, []), "cs"),
     FlagError, "counterexample construction needs a strict Kahler setup"),
    (lambda r, w, h, c2: construct_counterexample(r, 1, mixed_setup(2, w, []), "cs"),
     DegreeError, "setup degree does not match p"),
    (lambda r, w, h, c2: check_cs(c2, mixed_setup(2, w, []), "both"),
     ValueError, "direction must be one of ('cs', 'opposite')"),
    (lambda r, w, h, c2: hodge_condition(r, 2, "both"),
     ValueError, "kind must be one of ('cs', 'opposite')"),
    (lambda r, w, h, c2: proportional(w, c2),
     DegreeError, "proportionality needs classes of equal degree"),
    (lambda r, w, h, c2: kt_chain(r, c2, w), DegreeError, "divisor classes must have degree 1"),
    (lambda r, w, h, c2: power(w, -1), ValueError, "negative powers are not defined"),
    (lambda r, w, h, c2: w + c2, DegreeError, "degree mismatch: 1 vs 2"),
    (lambda r, w, h, c2: Matrix.from_columns([[1, 2], [3]]), ValueError, "ragged columns"),
    (lambda r, w, h, c2: Matrix.identity(2).apply([1]), ValueError,
     "vector length does not match column count"),
    (lambda r, w, h, c2: Matrix.identity(2).solve([1, 2, 3]), ValueError,
     "right-hand side length does not match row count"),
], ids=["counterexample boundary setup", "counterexample setup p", "check_cs direction",
        "hodge_condition kind", "proportional degrees", "kt degree", "negative power",
        "sum across degrees", "ragged columns", "apply length", "solve length"])
def test_refusals_name_the_fault(call, error, message):
    with pytest.raises(error) as err:
        call(*_blp4_classes())
    assert (type(err.value), str(err.value)) == (error, message)


def test_counterexamples_in_both_directions():
    # On (P1)^4 at p = 2 the grading (1, 4, 6, 4, 1) breaks both dimension
    # conditions, so violating classes exist for each direction.
    entry = zoo.product(
        zoo.product(zoo.projective_space(1, "a"), zoo.projective_space(1, "b")),
        zoo.product(zoo.projective_space(1, "c"), zoo.projective_space(1, "d")),
        name="p1fourth",
    )
    ring = entry.ring
    assert ring.hodge == (1, 4, 6, 4, 1)
    assert not hodge_condition(ring, 2, "cs").holds
    assert not hodge_condition(ring, 2, "opposite").holds
    omega = ring.sample("a+b+c+d")
    setup = mixed_setup(2, omega, [])
    ce_cs = construct_counterexample(ring, 2, setup, "cs")
    ce_opp = construct_counterexample(ring, 2, setup, "opposite")
    assert ce_cs is not None and ce_cs.g_value < 0
    assert ce_opp is not None and ce_opp.g_value > 0
    assert ce_cs.i0 == 0 and ce_opp.i0 == 1


def test_counterexample_soundness_everywhere():
    for name in zoo.list_entries():
        ring = zoo.get(name).ring
        for p in range(1, ring.n // 2 + 1):
            setup = random_strict_setup(ring, p, 4, seed=77, index=p)
            for kind in ("cs", "opposite"):
                ce = construct_counterexample(ring, p, setup, kind)
                if ce is None:
                    continue
                if kind == "cs":
                    assert ce.g_value < 0, (name, p)
                else:
                    assert ce.g_value > 0, (name, p)


# -- verify_theorem -------------------------------------------------------------------------

def test_verify_p1xp1_clean():
    ring = zoo.get("p1xp1").ring
    report = verify_theorem(ring, 1, 200, seed=3)
    assert report.ok and report.samples_tested == 200
    assert not report.condition_cs.holds
    assert report.condition_opp.holds
    assert "cs" in report.counterexamples
    assert report.counterexamples["cs"].g_value < 0


def test_verify_blowup_p2():
    ring = zoo.get("blp4").ring
    report = verify_theorem(ring, 2, 100, seed=4)
    assert report.ok
    assert not report.condition_cs.holds and report.condition_opp.holds
    assert report.counterexamples["cs"].g_value < 0


def test_verify_zero_samples_reports_conditions():
    ring = zoo.get("p4").ring
    report = verify_theorem(ring, 2, 0, seed=1)
    assert report.samples_tested == 0 and report.ok
    assert report.records == []
    assert report.condition_cs.holds


def test_verify_keeps_per_sample_records():
    ring = zoo.get("p1xp1").ring
    report = verify_theorem(ring, 1, 10, seed=6)
    assert [r.index for r in report.records] == list(range(10))
    for r in report.records:
        assert r.g_value <= 0
        assert r.proportional == ((r.g_value == 0))


def test_verify_deterministic():
    ring = zoo.get("blp2").ring
    first = verify_theorem(ring, 1, 25, seed=8)
    second = verify_theorem(ring, 1, 25, seed=8)
    assert first.equality_count == second.equality_count
    assert [str(v) for v in first.violations] == [str(v) for v in second.violations]


def test_verify_draws_each_setup_once(monkeypatch):
    import hodgecs.sampling

    real = hodgecs.sampling._setup_draws
    indices = []

    def counting(ring, p, height, seed, index):
        indices.append(index)
        return real(ring, p, height, seed, index)

    monkeypatch.setattr(hodgecs.sampling, "_setup_draws", counting)
    ring = zoo.get("blp4").ring
    report = verify_theorem(ring, 2, 3, seed=4)
    assert indices == [0, 1, 2]
    expected = construct_counterexample(ring, 2, random_strict_setup(ring, 2, 10, 4, 0), "cs")
    assert report.counterexamples["cs"].theta == expected.theta

    indices.clear()
    report = verify_theorem(ring, 2, 0, seed=4)
    assert indices == [0]
    assert report.counterexamples["cs"].theta == expected.theta


def _mixed_sign_ring():
    """n = 2, h^1 = 3, a^2 = 1, b^2 = -1, c^2 = 1, integral 1 and sample a flagged
    kahler: a valid ring whose degree-1 form has two positive directions."""
    one = (Fraction(1), Fraction(0), Fraction(0))
    return IntersectionRing(
        "mixed-sign", 2, (1, 3, 1), [["1"], ["a", "b", "c"], ["pt"]],
        {(1, 0, 1, 0): [1], (1, 1, 1, 1): [-1], (1, 2, 1, 2): [1]}, [1],
        [RingSample("a", FLAG_KAHLER, one)],
    )


def test_verify_reports_violations_when_a_sample_fails_the_kahler_gate(
        monkeypatch, tmp_path, capsys):
    ring = _mixed_sign_ring()
    assert validate_ring(ring).ok
    assert not sanity_check_kahler(ring, ring.sample("a")).passed
    built = []
    real = hodgecs.inequalities.mixed_setup
    monkeypatch.setattr(hodgecs.inequalities, "mixed_setup",
                        lambda *args: built.append(args) or real(*args))
    report = verify_theorem(ring, 1, 20, seed=3)
    assert [str(v) for v in report.violations] == [
        "sample 7: equality and proportionality disagree (g = 0, proportional=False)",
        "sample 8: g > 0 although the opposite condition holds (g = 1247/144, proportional=False)",
        "sample 13: g > 0 although the opposite condition holds (g = 125/144, proportional=False)",
        "sample 14: g > 0 although the opposite condition holds (g = 8084/225, proportional=False)",
        "sample 15: g > 0 although the opposite condition holds (g = 224/81, proportional=False)",
        "sample 18: g > 0 although the opposite condition holds "
        "(g = 1809/40000, proportional=False)",
    ]
    assert str(report.counterexamples["cs"].theta) == "3/2*a + 1*b"
    # One setup for each violating sample and one, from sample 0, for the counterexample.
    assert len(built) == 7
    for v in report.violations:
        setup = random_strict_setup(ring, 1, 10, 3, v.index)
        assert v.setup == setup
        assert v.g_value == _g_three_wedges(v.alpha, setup)
        assert v.proportional == proportional(v.alpha, setup.omega)

    path = tmp_path / "mixed-sign.json"
    path.write_text(serialize_ring_bundle(ring), encoding="utf-8")
    assert main(["verify", str(path), "-p", "1", "--samples", "20", "--seed", "3"]) == 1
    assert capsys.readouterr().out == str(report) + "\n"


def _fake_hr_ring():
    """n = 4, h = (1, 1, 2, 1, 1): h^2 = a, h*a = h3, h*h3 = pt, a^2 = pt and
    b^2 = -pt, integral 1 and sample h flagged kahler. b is primitive at p = 2
    with a negative square, against the Hodge-Riemann sign there."""
    return IntersectionRing(
        "fakehr", 4, (1, 1, 2, 1, 1), [["1"], ["h"], ["a", "b"], ["h3"], ["pt"]],
        {(1, 0, 1, 0): [1, 0], (1, 0, 2, 0): [1], (1, 0, 3, 0): [1], (2, 0, 2, 0): [1],
         (2, 1, 2, 1): [-1]}, [1],
        [RingSample("h", FLAG_KAHLER, (Fraction(1),))],
    )


def test_a_ring_that_breaks_hodge_riemann_in_degree_2_is_blamed(tmp_path, capsys):
    # Every gate passes, so only the primitive form and the opposite
    # counterexample can see the fault.
    ring = _fake_hr_ring()
    h = ring.sample("h")
    assert validate_ring(ring).ok
    assert sanity_check_kahler(ring, h).passed
    assert hodge_condition(ring, 2, "cs").holds
    assert str(hodge_condition(ring, 2, "opposite")) == "opposite at p=2: fails at i=[1]"
    assert str(hr_check(ring, 2, h, [])) == (
        "ring 'fakehr' p=2: primitive dim 1, restricted inertia (0, 1, 0)\n"
        "  positivity: restricted inertia (0, 1, 0), expected (1, 0, 0)"
    )
    with pytest.raises(ArithmeticError, match="constructed class fails to violate"):
        construct_counterexample(ring, 2, mixed_setup(2, h, []), "opposite")

    path = tmp_path / "fakehr.json"
    path.write_text(serialize_ring_bundle(ring), encoding="utf-8")
    assert main(["verify", str(path), "-p", "2"]) == 1
    assert capsys.readouterr().err == (
        "assertion failed: constructed class fails to violate the inequality; "
        "ring data is inconsistent\n"
    )


def _count_wedges(monkeypatch):
    """Route every hodgecs binding of ``wedge`` through a call counter."""
    real = hodgecs.ring.wedge
    calls = []

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    for name, module in list(sys.modules.items()):
        if name == "hodgecs" or name.startswith("hodgecs."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counting)
    return calls


def test_g_direct_conjugates_its_mixed_integral(monkeypatch):
    # A rational class is its own conjugate: the mixed integral pairs alpha with itself.
    ring = zoo.blowup_pn(8).ring
    setup = random_strict_setup(ring, 3, 10, seed=1, index=0)
    alpha = sample_random_class(ring, 3, 10, seed=1, index=0) + sample_random_class(
        ring, 3, 10, seed=2, index=0).scaled(Fraction(-2, 3))
    # Oracle: the defining integrals, each formed on its own.
    mid = wedge(power(setup.omega, 3), setup.omega_p)
    expected = (
        integrate(wedge(wedge(alpha, alpha), setup.omega_p))
        * integrate(wedge(power(setup.omega, 6), setup.omega_p))
        - integrate(wedge(alpha, mid)) * integrate(wedge(alpha, mid))
    )
    setup.rung(2 * setup.p)  # the rungs are built once per setup, not per call
    calls = _count_wedges(monkeypatch)
    assert compute_g_direct(alpha, setup) == expected
    assert len(calls) == 0  # g contracts int numerators; it forms no product class


def test_counterexample_kernel_comes_from_the_tower(monkeypatch):
    p1 = [zoo.projective_space(1, label) for label in "abcd"]
    ring = zoo.product(zoo.product(p1[0], p1[1]), zoo.product(p1[2], p1[3])).ring
    w = as_kahler(ring, ring.class_vector(1, [1, 2, 3, 4]))
    setup = mixed_setup(2, w, [])
    # Oracle: the primitive basis for (w, w^2), multiplied out on its own.
    witness = primitive_basis(ring, 1, w, [w, w]).basis[0]
    theta = power(w, 2) + wedge(witness, w)
    setup.levels  # builds the rungs and the decomposer levels before counting
    calls = _count_wedges(monkeypatch)
    ce = construct_counterexample(ring, 2, setup, "cs")
    assert (ce.witness, ce.theta) == (witness, theta)
    # Theta takes 2 wedges; the kernel operator is filled from the ring's table,
    # the decomposition's levels and its closed-form check run on ints, and w^2
    # and g come from the int setup data.
    assert len(calls) == 2


def test_verdicts_take_w_to_the_p_from_the_setup(monkeypatch):
    # On blp8 at p = 4, no sample verdict forms a class: g and proportionality
    # read w^4 and the integrals from the int setup data. All 12 wedges are the
    # counterexample's: the rungs (8) and theta (4); the kernel operator, the
    # decomposition's levels and its closed-form check form no class.
    ring = zoo.blowup_pn(8).ring
    calls = _count_wedges(monkeypatch)
    report = verify_theorem(ring, 4, 20, seed=0)
    assert len(calls) == 12
    monkeypatch.undo()
    # Oracle: every verdict recomputed with w^4 formed on its own.
    for record in report.records:
        setup = random_strict_setup(ring, 4, 10, 0, record.index)
        assert record.g_value == compute_g_direct(record.alpha, setup)
        assert record.proportional == proportional(record.alpha, power(setup.omega, 4))
    setup = random_strict_setup(ring, 4, 10, 0, 0)
    ce = report.counterexamples["cs"]
    w4 = power(setup.omega, 4)
    assert ce.theta == w4 + wedge(ce.witness, power(setup.omega, 3))
    assert check_cs(w4.scaled(Fraction(-2, 3)), setup).proportional


def _class_constructions(fn):
    """Run ``fn()``; count ClassVector constructions, each one call of ``ClassVector.__new__``."""
    constructor = ClassVector.__new__.__code__
    seen = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is constructor:
            seen["constructions"] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return seen


def test_verify_builds_pinned_class_counts():
    ring = zoo.get("blp4").ring
    ring.kahler_samples()  # clears the sample ints, once per ring, before counting
    seen = _class_constructions(lambda: verify_theorem(ring, 1, 50, seed=1))
    # Per sample: three cone draws and one class draw; nothing else, as g and
    # proportionality run on ints. The cs counterexample adds 10: its setup's
    # Omega_p = w_1 * w_2 (one class, built from its int product) and the two
    # rungs 1 and 2, the witness, w^p, theta (w^0 is the unit, then a product and
    # a sum), and per decomposition level a component and a certificate; the
    # remainder is a Fraction and its closed-form check one int pairing.
    assert seen == {"constructions": 4 * 50 + 10}


def test_setup_draws_do_not_build_the_sample_classes(monkeypatch):
    ring = zoo.get("blp4").ring
    calls = []
    real = IntersectionRing.kahler_samples
    monkeypatch.setattr(IntersectionRing, "kahler_samples",
                        lambda self: calls.append(self) or real(self))
    setup = random_strict_setup(ring, 1, 10, seed=1, index=0)
    random_cone_class(ring, 10, seed=1, index=0)
    assert calls == []
    assert [w.flag for w in (setup.omega, *setup.omegas)] == [FLAG_KAHLER] * 3


def test_part2_universality_with_proportional_cases():
    ring = zoo.get("blp2").ring
    for k in range(50):
        setup = random_strict_setup(ring, 1, 6, seed=31, index=k)
        alpha = sample_random_class(ring, 1, 6, seed=32, index=k)
        g = compute_g_direct(alpha, setup)
        assert g <= 0
        assert (g == 0) == proportional(alpha, setup.omega)
        scaled = setup.omega.scaled(Fraction(-3, 7))
        assert compute_g_direct(scaled, setup) == 0
        assert proportional(scaled, setup.omega)


# -- KT chain ----------------------------------------------------------------------------------

def test_kt_p1xp1_nef_rulings():
    ring = zoo.get("p1xp1").ring
    report = kt_chain(ring, ring.sample("a"), ring.sample("b"))
    assert report.mode == "boundary"
    step = report.steps[0]
    assert step.k == 1 and step.lhs_squared == 1 and step.rhs_product == 0
    assert step.verdict == "holds_strictly"


def test_kt_equal_divisors_all_equalities():
    ring = zoo.get("blp4").ring
    w = ring.sample("omega")
    report = kt_chain(ring, w, w)
    assert report.proportional
    assert all(s.verdict == "equality" for s in report.steps)


def test_kt_blp2_fixed_instance():
    ring = zoo.get("blp2").ring
    report = kt_chain(ring, ring.sample("hyperplane"), ring.sample("omega"))
    step = report.steps[0]
    assert step.lhs_squared == 4 and step.rhs_product == 3
    assert report.all_hold


def test_kt_requires_flags():
    ring = zoo.get("blp2").ring
    with pytest.raises(FlagError):
        kt_chain(ring, ring.class_vector(1, [1, 0]), ring.sample("omega"))


def test_kt_matches_g_on_surfaces():
    # At n = 2 the single chain step is exactly -g(d1, d2; empty reference).
    ring = zoo.get("p1xp1").ring
    d1 = ring.sample("omega")
    d2 = ring.sample("omega2")
    report = kt_chain(ring, d1, d2)
    setup = mixed_setup(1, d2, [])
    g = compute_g_direct(d1, setup)
    assert report.steps[0].difference == -g


def test_kt_strict_for_nonproportional_kahler_pairs():
    for name in zoo.list_entries():
        ring = zoo.get(name).ring
        kanler = ring.kahler_samples()
        for i, d1 in enumerate(kanler):
            for d2 in kanler[i + 1:]:
                report = kt_chain(ring, d1, d2)
                if proportional(d1, d2):
                    continue
                assert report.all_strict, name
