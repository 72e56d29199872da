"""Cauchy-Schwarz-type intersection inequalities and their verdicts.

For a degree-p class a and a setup (w, w_1..w_(n-2p)) with product Omega_p,
the central quantity is the rational number

    g(a, w; Omega_p) = (int a*a*Omega_p) * (int w^(2p)*Omega_p)
                     - (int a*w^p*Omega_p)^2,

the Cauchy-Schwarz defect of the form b(x, y) = int x*y*Omega_p at the pair
(a, w^p): g = b(a, a) * b(w^p, w^p) - b(a, w^p)^2. Classes are rational; for a
complex class a = x + iy the defect with conj(a) in place of one a is
g(x) + g(y), as the setup is real (see :func:`compute_g_direct`). It is
evaluated on (numerators, den) pairs: a setup gives w^p, Omega_p, w^p * Omega_p
and int w^(2p)*Omega_p once, a class adds one product and two integrals, and
one ``Fraction`` is built for the result. :func:`compute_g_decomposed` is the
independent route, through the Lefschetz decomposition.

Whether g >= 0 for every a ("Cauchy-Schwarz") or g <= 0 ("opposite
Cauchy-Schwarz") is governed purely by equalities among the graded
dimensions: the level-d term of g has the sign (-1)^d, and level d has no
primitive classes when h^(d-1,d-1) = h^(d,d) (see :func:`hodge_condition`).
When the relevant equality fails there is an explicit class violating the
inequality, built from a primitive class at the first level where the
dimension rises. Both directions, the equality case (g = 0 exactly
when a is proportional to w^p), and the decomposition identity expressing g
through primitive components are implemented here.

Nef (boundary) setups keep every inequality in non-strict form, and equality
cases are reported as uncharacterized rather than classified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .errors import DegreeError, FlagError
from .ring import (
    FLAG_KAHLER,
    POSITIVE_FLAGS,
    ClassVector,
    IntersectionRing,
    MODE_BOUNDARY,
    MODE_STRICT,
    MixedSetup,
    _check_same_ring,
    _check_setup_p,
    _omega_ints,
    _pair_ints,
    _product_ints,
    _setup_ints,
    integrate,
    mixed_setup,
    power,
    wedge,
)
from .lefschetz import DecompositionResult, _primitive_classes, mixed_lefschetz_decompose

DIRECTION_CS = "cs"
DIRECTION_OPPOSITE = "opposite"
DIRECTIONS = (DIRECTION_CS, DIRECTION_OPPOSITE)


def _proportional_ints(a, b) -> bool:
    """Exact test that {a, b} spans at most a line, on int numerators: with a_k the
    first nonzero coordinate of a, that holds exactly when b_i * a_k == a_i * b_k
    for all i. Scale plays no part."""
    k = next((k for k, x in enumerate(a) if x), None)
    if k is None:
        return True
    ak, bk = a[k], b[k]
    return all(y * ak == x * bk for x, y in zip(a, b))


def proportional(a: ClassVector, b: ClassVector) -> bool:
    """Exact test that {a, b} spans at most a line; see :func:`_proportional_ints`.

    Classes of different rings raise RingMismatchError.
    """
    _check_same_ring(a.ring, b.ring)
    if a.degree != b.degree:
        raise DegreeError("proportionality needs classes of equal degree")
    return _proportional_ints(a.re, b.re)


def _g(alpha: ClassVector, data: tuple) -> Fraction:
    """g of the degree-p class alpha from its setup's int data (:func:`_setup_ints`).

    With the pairs aa = int alpha * (Omega * alpha) and m = int alpha * T, each
    (num, den) from :func:`_pair_ints`, g = aa * V - m^2, one ``Fraction``.
    """
    ring, p, x = alpha.ring, alpha.degree, (alpha.re, alpha.den)
    _, o, t, (v, v_den) = data
    aa, aa_den = _pair_ints(ring, p, x, _product_ints(ring, ring.n - 2 * p, o, p, x))
    m, m_den = _pair_ints(ring, p, x, t)
    return Fraction(aa * v * m_den * m_den - m * m * aa_den * v_den,
                    aa_den * v_den * m_den * m_den)


def compute_g_direct(alpha: ClassVector, setup: MixedSetup) -> Fraction:
    """Evaluate g on ints from the setup's cached int data.

    Classes are rational. For a complex class alpha = x + iy (x, y rational),
    the defect int alpha*conj(alpha)*Omega_p * V - |int alpha*w^p*Omega_p|^2
    equals g(x) + g(y), as w and Omega_p are real: call this on x and on y.
    """
    setup.check_class(alpha)
    return _g(alpha, setup._ints)


@dataclass(frozen=True)
class DecomposedG:
    """g evaluated through the Lefschetz decomposition, with its terms."""

    value: Fraction
    terms: tuple[Fraction, ...]           # terms[i-1] pairs the level-i component
    decomposition: DecompositionResult


def compute_g_decomposed(alpha: ClassVector, setup: MixedSetup) -> DecomposedG:
    """Evaluate g as (int w^(2p)*Omega_p) * sum_i t_i over the components.

    This route never forms the defining integrals of g, so comparing it with
    :func:`compute_g_direct` cross-checks the decomposition exactly.
    """
    dec = mixed_lefschetz_decompose(alpha, setup)
    terms = dec.pairing_terms()
    return DecomposedG(setup.volume * sum(terms, Fraction(0)), terms, dec)


RELATION_POSITIVE = "strictly_positive"
RELATION_ZERO = "zero"
RELATION_NEGATIVE = "strictly_negative"


@dataclass(frozen=True)
class CsVerdict:
    """Outcome of one inequality check for a single class."""

    p: int
    direction: str
    mode: str
    g_value: Fraction
    relation: str
    proportional: bool
    satisfied: bool
    odd_components_vanish: Optional[bool] = None   # strict mode only
    even_components_vanish: Optional[bool] = None  # strict mode only
    equality_uncharacterized: bool = False         # boundary equality cases

    def summary(self) -> str:
        tail = []
        if self.proportional:
            tail.append("proportional")
        if self.equality_uncharacterized:
            tail.append("equality uncharacterized (boundary)")
        extra = f" [{', '.join(tail)}]" if tail else ""
        status = "satisfied" if self.satisfied else "VIOLATED"
        return f"g = {self.g_value} ({self.relation}); {self.direction} {status}{extra}"


def _verdict(alpha: ClassVector, data: tuple) -> tuple[Fraction, str, bool]:
    """g, the relation of g to zero, and whether alpha is proportional to W = w^p,
    from the setup's int data."""
    g = _g(alpha, data)
    prop = _proportional_ints(alpha.re, data[0][0])
    relation = RELATION_ZERO if g == 0 else (
        RELATION_POSITIVE if g > 0 else RELATION_NEGATIVE
    )
    return g, relation, prop


def check_cs(alpha: ClassVector, setup: MixedSetup, direction: str = DIRECTION_CS) -> CsVerdict:
    """Check one direction of the inequality for ``alpha`` in ``setup``.

    Strict setups also run the decomposition and report which parity of
    components vanishes; boundary setups only tag exact equalities as
    uncharacterized, since nothing stronger holds on the nef boundary.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    setup.check_class(alpha)
    g, relation, prop = _verdict(alpha, setup._ints)
    satisfied = g >= 0 if direction == DIRECTION_CS else g <= 0

    odd_vanish = even_vanish = None
    uncharacterized = False
    if setup.mode == MODE_STRICT:
        dec = mixed_lefschetz_decompose(alpha, setup)
        odd_vanish = all(c.is_zero for i, c in enumerate(dec.components, 1) if i % 2 == 1)
        even_vanish = all(c.is_zero for i, c in enumerate(dec.components, 1) if i % 2 == 0)
    elif g == 0:
        uncharacterized = True

    return CsVerdict(
        p=setup.p,
        direction=direction,
        mode=setup.mode,
        g_value=g,
        relation=relation,
        proportional=prop,
        satisfied=satisfied,
        odd_components_vanish=odd_vanish,
        even_components_vanish=even_vanish,
        equality_uncharacterized=uncharacterized,
    )


@dataclass(frozen=True)
class HodgeCondition:
    """Result of testing the graded-dimension equalities for one direction.

    Each compared pair is (d // 2, d - 1, d) for a level d the direction
    forbids: the equality h^(d-1,d-1) = h^(d,d) says level d has no primitive
    classes. ``failing`` lists d // 2 for the pairs whose equality fails, and
    ``unconditional`` marks a direction with no level to compare.
    """

    kind: str
    p: int
    holds: bool
    failing: tuple[int, ...]            # d // 2 for each failing pair
    pairs: tuple[tuple[int, int, int], ...]  # (d // 2, d - 1, d) compared
    unconditional: bool = False

    def __str__(self):
        if self.unconditional:
            return f"{self.kind} at p={self.p}: holds unconditionally"
        verdict = "holds" if self.holds else f"fails at i={list(self.failing)}"
        return f"{self.kind} at p={self.p}: {verdict}"


def hodge_condition(ring: IntersectionRing, p: int, kind: str) -> HodgeCondition:
    """Evaluate the dimension equalities that govern the direction ``kind``.

    By the mixed Hodge-Riemann relations the level-d term of g has the sign
    (-1)^d, so g >= 0 for every class ("cs") exactly when no odd level d <= p
    has primitive classes, and g <= 0 ("opposite") exactly when no even level
    2 <= d <= p has them. Level d has none when h^(d-1,d-1) = h^(d,d). The
    opposite direction has no such level at p = 1 and holds unconditionally.
    """
    if kind not in DIRECTIONS:
        raise ValueError(f"kind must be one of {DIRECTIONS}")
    _check_setup_p(ring, p)
    h = ring.hodge
    pairs = tuple((d // 2, d - 1, d) for d in range(1 if kind == DIRECTION_CS else 2, p + 1, 2))
    failing = tuple(i for i, da, db in pairs if h[da] != h[db])
    return HodgeCondition(kind, p, not failing, failing, pairs, not pairs)


@dataclass(frozen=True)
class Counterexample:
    """An explicit class violating the requested inequality direction."""

    kind: str
    i0: int                     # d // 2 for the jump level d
    witness: ClassVector        # nonzero primitive class at the jump level
    theta: ClassVector          # w^p + witness * w^(p - d)
    g_value: Fraction
    verdict: CsVerdict


def construct_counterexample(
    ring: IntersectionRing, p: int, setup: MixedSetup, kind: str = DIRECTION_CS
) -> Optional[Counterexample]:
    """Build a violating class when the dimension condition fails.

    The jump level d is the first level of :func:`hodge_condition`'s pairs with
    h^(d,d) > h^(d-1,d-1): odd for kind="cs", even for kind="opposite". It
    supplies a nonzero primitive class a in degree d with respect to
    (w, w^(2(p-d)) * Omega_p). Then theta = w^p + a * w^(p-d) has its one nonzero
    term at level d, so g has the sign (-1)^d: g < 0 for "cs", g > 0 for
    "opposite". i0 = d // 2. Returns None when no level's dimension rises, in
    particular when the condition holds; a setup of another ring raises
    RingMismatchError.
    """
    _check_same_ring(setup.ring, ring, "setup belongs to a different ring")
    if setup.mode != MODE_STRICT:
        raise FlagError("counterexample construction needs a strict Kahler setup")
    if setup.p != p:
        raise DegreeError("setup degree does not match p")
    condition = hodge_condition(ring, p, kind)
    # A level whose dimension drops fails the equality but has no primitive
    # witness; nothing can be built from it.
    h = ring.hodge
    deg = next((d for _, da, d in condition.pairs if h[d] > h[da]), None)
    if deg is None:
        return None

    primitive = _primitive_classes(setup, deg)
    if not primitive:
        return None
    witness = primitive[0]
    theta = setup.omega_power + wedge(witness, power(setup.omega, p - deg))
    verdict = check_cs(theta, setup, kind)
    if verdict.satisfied:
        raise ArithmeticError(
            "constructed class fails to violate the inequality; ring data is inconsistent"
        )
    return Counterexample(kind, deg // 2, witness, theta, verdict.g_value, verdict)


@dataclass
class TheoremViolation:
    index: int
    problem: str
    g_value: Fraction
    proportional: bool
    alpha: ClassVector
    setup: MixedSetup

    def __str__(self):
        return (
            f"sample {self.index}: {self.problem} (g = {self.g_value}, "
            f"proportional={self.proportional})"
        )


@dataclass(frozen=True)
class SampleRecord:
    index: int
    alpha: ClassVector
    omega: ClassVector
    g_value: Fraction
    relation: str
    proportional: bool


@dataclass
class TheoremReport:
    """Seeded audit of both inequality directions on one ring and degree."""

    ring_name: str
    p: int
    seed: int
    height: int
    condition_cs: HodgeCondition
    condition_opp: HodgeCondition
    samples_tested: int = 0
    equality_count: int = 0
    records: list[SampleRecord] = field(default_factory=list)
    violations: list[TheoremViolation] = field(default_factory=list)
    counterexamples: dict[str, Counterexample] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        lines = [
            f"ring {self.ring_name!r} p={self.p}: {self.samples_tested} samples, "
            f"{self.equality_count} equality cases, {len(self.violations)} violations",
            f"  {self.condition_cs}",
            f"  {self.condition_opp}",
        ]
        for v in self.violations[:10]:
            lines.append(f"  {v}")
        for kind, ce in sorted(self.counterexamples.items()):
            lines.append(
                f"  counterexample [{kind}]: theta = {ce.theta} with g = {ce.g_value}"
            )
        return "\n".join(lines)


def verify_theorem(
    ring: IntersectionRing, p: int, samples: int, seed: int, height: int = 10
) -> TheoremReport:
    """Sample random classes and strict setups; assert the governed directions.

    Whenever a dimension condition holds, every sampled class must satisfy
    the corresponding inequality, with equality exactly at classes
    proportional to w^p. Directions whose condition fails are witnessed by an
    explicit counterexample instead. Deterministic for fixed (seed, height).
    Raises ValueError for ``samples`` below 0 or ``height`` below 1.
    """
    from .sampling import _setup_draws, sample_random_class

    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if height < 1:
        raise ValueError(f"height must be at least 1, got {height}")
    cond_cs = hodge_condition(ring, p, DIRECTION_CS)
    cond_opp = hodge_condition(ring, p, DIRECTION_OPPOSITE)
    report = TheoremReport(ring.name, p, seed, height, cond_cs, cond_opp)

    # Each sample's verdict reads its draws' int setup data alone; a MixedSetup
    # is built only for a violation and for the counterexamples.
    first_draws = None
    for k in range(samples):
        draws = _setup_draws(ring, p, height, seed, k)
        if k == 0:
            first_draws = draws
        alpha = sample_random_class(ring, p, height, seed, k)
        w, omegas = draws
        g, relation, prop = _verdict(alpha, _setup_ints(ring, p, w, _omega_ints(ring, omegas)))
        report.records.append(SampleRecord(k, alpha, w, g, relation, prop))
        if g == 0:
            report.equality_count += 1
        problems = []
        if cond_cs.holds and g < 0:
            problems.append("g < 0 although the cs condition holds")
        if cond_opp.holds and g > 0:
            problems.append("g > 0 although the opposite condition holds")
        if (cond_cs.holds or cond_opp.holds) and (g == 0) != prop:
            problems.append("equality and proportionality disagree")
        if problems:
            setup = mixed_setup(p, *draws)
            report.violations += [TheoremViolation(k, problem, g, prop, alpha, setup)
                                  for problem in problems]
        report.samples_tested += 1

    if not (cond_cs.holds and cond_opp.holds):
        # Counterexamples use the setup of sample 0, drawn at most once.
        first_setup = mixed_setup(p, *(first_draws or _setup_draws(ring, p, height, seed, 0)))
        for kind, cond in ((DIRECTION_CS, cond_cs), (DIRECTION_OPPOSITE, cond_opp)):
            if not cond.holds:
                ce = construct_counterexample(ring, p, first_setup, kind)
                if ce is not None:
                    report.counterexamples[kind] = ce
    return report


@dataclass(frozen=True)
class KtStep:
    k: int
    lhs: Fraction
    lhs_squared: Fraction
    rhs_product: Fraction
    difference: Fraction

    @property
    def verdict(self) -> str:
        if self.difference > 0:
            return "holds_strictly"
        if self.difference == 0:
            return "equality"
        return "violated"


@dataclass
class KtReport:
    """Log-concavity chain of intersection numbers of two divisor classes."""

    ring_name: str
    mode: str
    proportional: bool
    steps: tuple[KtStep, ...]

    @property
    def all_hold(self) -> bool:
        return all(s.difference >= 0 for s in self.steps)

    @property
    def all_strict(self) -> bool:
        return all(s.difference > 0 for s in self.steps)

    def __str__(self):
        lines = [f"ring {self.ring_name!r} [{self.mode}]"]
        for s in self.steps:
            lines.append(
                f"  k={s.k}: {s.lhs_squared} >= {s.rhs_product} [{s.verdict}]"
            )
        return "\n".join(lines)


def kt_chain(ring: IntersectionRing, d1: ClassVector, d2: ClassVector) -> KtReport:
    """Check ([d1^k d2^(n-k)])^2 >= [d1^(k-1) d2^(n-k+1)] [d1^(k+1) d2^(n-k-1)].

    Runs over k = 1 .. n-1. Both classes must carry a kahler or nef flag; the
    chain is strict for non-proportional Kahler pairs and non-strict on the
    nef boundary.
    """
    for d in (d1, d2):
        if d.degree != 1:
            raise DegreeError("divisor classes must have degree 1")
        if d.flag not in POSITIVE_FLAGS:
            raise FlagError("divisor classes must be flagged kahler or nef")
    n = ring.n
    powers1 = tuple(accumulate([d1] * n, wedge, initial=ring.unit()))
    powers2 = tuple(accumulate([d2] * n, wedge, initial=ring.unit()))
    numbers = [integrate(wedge(powers1[k], powers2[n - k])) for k in range(n + 1)]
    steps = []
    for k in range(1, n):
        lhs = numbers[k]
        square, rhs = lhs * lhs, numbers[k - 1] * numbers[k + 1]
        steps.append(KtStep(k, lhs, square, rhs, square - rhs))
    mode = MODE_STRICT if d1.flag == FLAG_KAHLER and d2.flag == FLAG_KAHLER else MODE_BOUNDARY
    return KtReport(ring.name, mode, proportional(d1, d2), tuple(steps))
