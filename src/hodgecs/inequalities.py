"""Cauchy-Schwarz-type intersection inequalities and their verdicts.

For a degree-p class a and a setup (w, w_1..w_(n-2p)) with product Omega_p,
the central quantity is the real number

    g(a, w; Omega_p) = (int a*conj(a)*Omega_p) * (int w^(2p)*Omega_p)
                     - (int a*w^p*Omega_p) * (int conj(a)*w^p*Omega_p).

Whether g >= 0 for every a ("Cauchy-Schwarz") or g <= 0 ("opposite
Cauchy-Schwarz") is governed purely by equalities among the graded
dimensions; when the relevant equality fails there is an explicit class
violating the inequality, built from a primitive class in the first degree
where the dimensions jump. Both directions, the equality case (g = 0 exactly
when a is proportional to w^p), and the decomposition identity expressing g
through primitive components are implemented here.

Nef (boundary) setups keep every inequality in non-strict form, and equality
cases are reported as uncharacterized rather than classified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import DegreeError, FlagError
from .linalg import Matrix, real_fraction
from .ring import (
    FLAG_KAHLER,
    POSITIVE_FLAGS,
    ClassVector,
    IntersectionRing,
    MODE_STRICT,
    MixedSetup,
    integrate,
    integrate_real,
    power,
    wedge,
)
from .lefschetz import DecompositionResult, primitive_basis

DIRECTION_CS = "cs"
DIRECTION_OPPOSITE = "opposite"
DIRECTIONS = (DIRECTION_CS, DIRECTION_OPPOSITE)


def proportional(a: ClassVector, b: ClassVector) -> bool:
    """Exact test that {a, b} spans at most a line (rank of the stacked pair)."""
    if a.degree != b.degree:
        raise DegreeError("proportionality needs classes of equal degree")
    return Matrix([a.coeffs, b.coeffs]).rank() <= 1


def compute_g_direct(alpha: ClassVector, setup: MixedSetup) -> Fraction:
    """Evaluate g from its defining integrals; the result is provably real."""
    setup.check_class(alpha)
    mid = setup.tower[setup.p]
    pair_aa = integrate(wedge(wedge(alpha, alpha.conjugate()), setup.omega_p))
    vol = integrate(setup.tower[2 * setup.p])
    mixed = integrate(wedge(alpha, mid))
    mixed_conj = integrate(wedge(alpha.conjugate(), mid))
    g = pair_aa * vol - mixed * mixed_conj
    return real_fraction(g)


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
    dec = setup.decomposer.decompose(alpha)
    vol = integrate_real(setup.tower[2 * setup.p])
    terms = dec.pairing_terms()
    return DecomposedG(vol * sum(terms, Fraction(0)), terms, dec)


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


def _g_verdict(alpha: ClassVector, setup: MixedSetup) -> tuple[Fraction, str, bool]:
    """g, the relation of g to zero, and whether alpha is proportional to w^p."""
    g = compute_g_direct(alpha, setup)
    prop = proportional(alpha, power(setup.omega, setup.p))
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
    g, relation, prop = _g_verdict(alpha, setup)
    satisfied = g >= 0 if direction == DIRECTION_CS else g <= 0

    odd_vanish = even_vanish = None
    uncharacterized = False
    if setup.mode == MODE_STRICT:
        dec = setup.decomposer.decompose(alpha)
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
    """Result of testing the graded-dimension equalities for one direction."""

    kind: str
    p: int
    holds: bool
    failing: tuple[int, ...]            # indices i whose equality fails
    pairs: tuple[tuple[int, int, int], ...]  # (i, degree_a, degree_b) compared
    unconditional: bool = False

    def __str__(self):
        if self.unconditional:
            return f"{self.kind} at p={self.p}: holds unconditionally"
        verdict = "holds" if self.holds else f"fails at i={list(self.failing)}"
        return f"{self.kind} at p={self.p}: {verdict}"


def hodge_condition(ring: IntersectionRing, p: int, kind: str) -> HodgeCondition:
    """Evaluate the dimension equalities that govern the direction ``kind``.

    kind="cs" needs h^(2i,2i) = h^(2i+1,2i+1) for 0 <= i <= ceil((p+1)/2)-1;
    kind="opposite" needs h^(2i-1,2i-1) = h^(2i,2i) for 1 <= i <= floor(p/2),
    and is unconditionally true at p = 1.
    """
    if kind not in DIRECTIONS:
        raise ValueError(f"kind must be one of {DIRECTIONS}")
    if not (1 <= p <= ring.n // 2):
        raise DegreeError(f"p must satisfy 1 <= p <= {ring.n // 2}")
    pairs = []
    failing = []
    if kind == DIRECTION_CS:
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


@dataclass(frozen=True)
class Counterexample:
    """An explicit class violating the requested inequality direction."""

    kind: str
    i0: int
    witness: ClassVector        # nonzero primitive class at the jump degree
    theta: ClassVector          # w^p + witness * w^(p - jump)
    g_value: Fraction
    verdict: CsVerdict


def construct_counterexample(
    ring: IntersectionRing, p: int, setup: MixedSetup, kind: str = DIRECTION_CS
) -> Optional[Counterexample]:
    """Build a violating class when the dimension condition fails.

    For kind="cs" the first index i0 with h^(2i0+1,2i0+1) > h^(2i0,2i0)
    supplies a nonzero primitive class a(i0) in degree 2i0+1 with respect to
    (w, w^(2(p-(2i0+1))) * Omega_p); then theta = w^p + a(i0) * w^(p-(2i0+1))
    has g < 0. For kind="opposite" the even-degree analogue gives g > 0.
    Returns None when the condition holds (no counterexample exists).
    """
    if setup.mode != MODE_STRICT:
        raise FlagError("counterexample construction needs a strict Kahler setup")
    if setup.p != p:
        raise DegreeError("setup degree does not match p")
    condition = hodge_condition(ring, p, kind)
    if condition.holds:
        return None

    jump = None
    for i, da, db in condition.pairs:
        if i in condition.failing and ring.dim(db) > ring.dim(da):
            jump = (i, db)
            break
    if jump is None:
        # Dimensions fail the equality in the direction that admits no
        # primitive witness; nothing can be built from this ring.
        return None
    i0, deg = jump

    refs = [setup.omega] * (2 * (p - deg)) + list(setup.omegas)
    prim = primitive_basis(ring, deg, setup.omega, refs)
    if not prim.basis:
        return None
    witness = prim.basis[0]
    theta = power(setup.omega, p) + wedge(witness, power(setup.omega, p - deg))
    verdict = check_cs(theta, setup, kind)
    if verdict.satisfied:
        raise ArithmeticError(
            "constructed class fails to violate the inequality; ring data is inconsistent"
        )
    return Counterexample(kind, i0, witness, theta, verdict.g_value, verdict)


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
    from .sampling import random_strict_setup, sample_random_class

    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if height < 1:
        raise ValueError(f"height must be at least 1, got {height}")
    cond_cs = hodge_condition(ring, p, DIRECTION_CS)
    cond_opp = hodge_condition(ring, p, DIRECTION_OPPOSITE)
    report = TheoremReport(ring.name, p, seed, height, cond_cs, cond_opp)

    first_setup = None
    for k in range(samples):
        setup = random_strict_setup(ring, p, height, seed, k)
        if k == 0:
            first_setup = setup
        alpha = sample_random_class(ring, p, height, seed, k)
        g, relation, prop = _g_verdict(alpha, setup)
        report.records.append(SampleRecord(k, alpha, setup.omega, g, relation, prop))
        if g == 0:
            report.equality_count += 1
        if cond_cs.holds and g < 0:
            report.violations.append(TheoremViolation(
                k, "g < 0 although the cs condition holds", g, prop, alpha, setup))
        if cond_opp.holds and g > 0:
            report.violations.append(TheoremViolation(
                k, "g > 0 although the opposite condition holds", g, prop, alpha, setup))
        if cond_cs.holds or cond_opp.holds:
            if (g == 0) != prop:
                report.violations.append(TheoremViolation(
                    k, "equality and proportionality disagree", g, prop, alpha, setup))
        report.samples_tested += 1

    for kind, cond in ((DIRECTION_CS, cond_cs), (DIRECTION_OPPOSITE, cond_opp)):
        if not cond.holds:
            # Counterexamples use the setup of sample 0, drawn at most once.
            if first_setup is None:
                first_setup = random_strict_setup(ring, p, height, seed, 0)
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
    numbers = [
        integrate_real(wedge(power(d1, k), power(d2, n - k))) for k in range(n + 1)
    ]
    steps = []
    for k in range(1, n):
        lhs = numbers[k]
        rhs = numbers[k - 1] * numbers[k + 1]
        steps.append(KtStep(k, lhs, lhs * lhs, rhs, lhs * lhs - rhs))
    mode = MODE_STRICT if d1.flag == FLAG_KAHLER and d2.flag == FLAG_KAHLER else "boundary"
    return KtReport(ring.name, mode, proportional(d1, d2), tuple(steps))
