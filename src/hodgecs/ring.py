"""Graded commutative intersection rings with exact rational coefficients.

An :class:`IntersectionRing` models the even part of the cohomology of a
compact Kahler n-fold: one graded piece per degree p (the (p,p)-classes),
structure constants for the cup product, and a linear integration functional
on the top degree. Classes are :class:`ClassVector` values whose coefficients
are Gaussian rationals, so complex classes and conjugation are exact.

The ring data cannot certify that a degree-1 class is Kahler; positivity is a
user-declared flag. :func:`sanity_check_kahler` enforces the checkable
necessary conditions (positive volume, injective multiplication maps below
the middle, Lorentzian degree-1 signature) before a flag is honoured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DegreeError, FlagError, RingMismatchError
from .gaussian import GQ_ZERO, GaussianRational
from .linalg import Matrix, real_fraction

FLAG_NONE = "none"
FLAG_KAHLER = "kahler"
FLAG_NEF = "nef"
FLAGS = (FLAG_NONE, FLAG_KAHLER, FLAG_NEF)
POSITIVE_FLAGS = (FLAG_KAHLER, FLAG_NEF)

ProductKey = tuple[int, int, int, int]


@dataclass(frozen=True)
class RingSample:
    """A named degree-1 class shipped with a ring, with its positivity flag."""

    name: str
    flag: str
    coeffs: tuple[Fraction, ...]


def canonical_product_key(da: int, ia: int, db: int, ib: int) -> ProductKey:
    if (da, ia) <= (db, ib):
        return (da, ia, db, ib)
    return (db, ib, da, ia)


class IntersectionRing:
    """Structure constants of a graded commutative algebra with integration.

    ``hodge[p]`` is the dimension of the degree-p piece; ``products`` maps a
    canonically ordered pair of basis elements to the coefficient vector of
    their product (pairs involving degree 0 are implicit: the unique degree-0
    basis element is the multiplicative identity). Missing pairs multiply to
    zero. ``integral`` is the coefficient vector of the integration
    functional on the top degree.
    """

    __slots__ = ("name", "n", "hodge", "basis_labels", "products", "integral",
                 "samples", "_label_index")

    def __init__(
        self,
        name: str,
        n: int,
        hodge: Sequence[int],
        basis_labels: Sequence[Sequence[str]],
        products: Mapping[ProductKey, Sequence[Fraction]] | Iterable,
        integral: Sequence[Fraction],
        samples: Sequence[RingSample] = (),
    ):
        if n < 1:
            raise ValueError("complex dimension must be at least 1")
        hodge = tuple(int(h) for h in hodge)
        if len(hodge) != n + 1:
            raise ValueError(f"hodge vector must have length {n + 1}")
        if any(h < 0 for h in hodge):
            raise ValueError("graded dimensions must be nonnegative")
        labels = tuple(tuple(str(x) for x in row) for row in basis_labels)
        if len(labels) != n + 1:
            raise ValueError("one label list per degree is required")
        for p, row in enumerate(labels):
            if len(row) != hodge[p]:
                raise ValueError(f"degree {p}: {len(row)} labels for dimension {hodge[p]}")

        items = products.items() if isinstance(products, Mapping) else products
        table: dict[ProductKey, tuple[Fraction, ...]] = {}
        for key, out in items:
            da, ia, db, ib = (int(x) for x in key)
            for d, i in ((da, ia), (db, ib)):
                if not (0 <= d <= n) or not (0 <= i < hodge[d]):
                    raise ValueError(f"product key {key}: index out of range")
            out = tuple(Fraction(c) for c in out)
            if da + db > n:
                if any(out):
                    raise ValueError(f"product key {key}: degree {da + db} exceeds n")
                continue
            if da == 0 or db == 0:
                # Degree 0 acts as the identity; entries are redundant but
                # tolerated when consistent.
                tgt_dim = hodge[da + db]
                other = ib if da == 0 else ia
                expected = tuple(
                    Fraction(1) if k == other else Fraction(0) for k in range(tgt_dim)
                )
                if out != expected:
                    raise ValueError(f"product key {key}: degree-0 factor must act as identity")
                continue
            if len(out) != hodge[da + db]:
                raise ValueError(
                    f"product key {key}: output length {len(out)} != {hodge[da + db]}"
                )
            ckey = canonical_product_key(da, ia, db, ib)
            if ckey in table:
                if table[ckey] != out:
                    raise ValueError(
                        f"product key {key}: conflicts with the mirrored entry "
                        f"{ckey} (commutativity)"
                    )
                continue
            if any(out):
                table[ckey] = out

        integral = tuple(Fraction(c) for c in integral)
        if len(integral) != hodge[n]:
            raise ValueError(f"integral vector must have length {hodge[n]}")

        samples = tuple(samples)
        for s in samples:
            if s.flag not in POSITIVE_FLAGS:
                raise ValueError(f"sample {s.name!r}: flag must be kahler or nef")
            if len(s.coeffs) != hodge[1]:
                raise ValueError(f"sample {s.name!r}: coefficient length mismatch")

        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "hodge", hodge)
        object.__setattr__(self, "basis_labels", labels)
        object.__setattr__(self, "products", table)
        object.__setattr__(self, "integral", integral)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(
            self, "_label_index",
            tuple({lab: i for i, lab in enumerate(row)} for row in labels),
        )

    def __setattr__(self, name, value):
        raise AttributeError("IntersectionRing is immutable")

    # -- structure access ------------------------------------------------

    def dim(self, p: int) -> int:
        if not (0 <= p <= self.n):
            raise DegreeError(f"degree {p} outside 0..{self.n}")
        return self.hodge[p]

    def labels(self, p: int) -> tuple[str, ...]:
        return self.basis_labels[p]

    def label_index(self, p: int, label: str) -> int:
        try:
            return self._label_index[p][label]
        except KeyError:
            raise KeyError(f"no basis element {label!r} in degree {p}") from None

    # -- class construction ------------------------------------------------

    def class_vector(self, p: int, coeffs: Sequence, flag: str = FLAG_NONE) -> "ClassVector":
        coeffs = tuple(GaussianRational.coerce(c) for c in coeffs)
        if len(coeffs) != self.dim(p):
            raise DegreeError(
                f"degree {p} needs {self.dim(p)} coefficients, got {len(coeffs)}"
            )
        if flag not in FLAGS:
            raise FlagError(f"unknown positivity flag {flag!r}")
        if flag != FLAG_NONE and (p != 1 or not all(c.is_real for c in coeffs)):
            raise FlagError("kahler/nef flags only apply to real degree-1 classes")
        return ClassVector(self, p, coeffs, flag)

    def basis_class(self, p: int, i: int) -> "ClassVector":
        coeffs = [GQ_ZERO] * self.dim(p)
        coeffs[i] = GaussianRational(1)
        return ClassVector(self, p, tuple(coeffs), FLAG_NONE)

    def unit(self) -> "ClassVector":
        return self.basis_class(0, 0)

    def zero_class(self, p: int) -> "ClassVector":
        return ClassVector(self, p, (GQ_ZERO,) * self.dim(p), FLAG_NONE)

    def sample(self, name: str) -> "ClassVector":
        for s in self.samples:
            if s.name == name:
                return self.class_vector(1, s.coeffs, s.flag)
        raise KeyError(f"ring {self.name!r} has no sample {name!r}")

    def sample_classes(self, flag: Optional[str] = None) -> tuple["ClassVector", ...]:
        return tuple(
            self.class_vector(1, s.coeffs, s.flag)
            for s in self.samples
            if flag is None or s.flag == flag
        )

    def kahler_samples(self) -> tuple["ClassVector", ...]:
        return self.sample_classes(FLAG_KAHLER)

    def nef_samples(self) -> tuple["ClassVector", ...]:
        """Boundary sample classes; Kahler samples are nef as well."""
        return self.sample_classes(FLAG_NEF) + self.sample_classes(FLAG_KAHLER)

    def pairing_matrix(self, p: int) -> Matrix:
        """Matrix of (a, b) -> integral of a*b on degree p x degree n-p."""
        return form_matrix(self, p, self.unit())

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, IntersectionRing):
            return NotImplemented
        return (
            self.name == other.name
            and self.n == other.n
            and self.hodge == other.hodge
            and self.basis_labels == other.basis_labels
            and self.products == other.products
            and self.integral == other.integral
            and self.samples == other.samples
        )

    def __repr__(self):
        return f"IntersectionRing({self.name!r}, n={self.n}, hodge={list(self.hodge)})"


class ClassVector:
    """An element of one graded piece of an intersection ring."""

    __slots__ = ("ring", "degree", "coeffs", "flag")

    def __init__(self, ring: IntersectionRing, degree: int,
                 coeffs: tuple[GaussianRational, ...], flag: str = FLAG_NONE):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "flag", flag)

    def __setattr__(self, name, value):
        raise AttributeError("ClassVector is immutable")

    # -- linear structure ----------------------------------------------

    def _check_peer(self, other: "ClassVector") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError("classes live in different rings")
        if self.degree != other.degree:
            raise DegreeError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )

    def __add__(self, other):
        if not isinstance(other, ClassVector):
            return NotImplemented
        self._check_peer(other)
        return ClassVector(
            self.ring, self.degree,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other):
        if not isinstance(other, ClassVector):
            return NotImplemented
        self._check_peer(other)
        return ClassVector(
            self.ring, self.degree,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self):
        return ClassVector(self.ring, self.degree, tuple(-c for c in self.coeffs))

    def scaled(self, factor) -> "ClassVector":
        f = GaussianRational.coerce(factor)
        return ClassVector(self.ring, self.degree, tuple(c * f for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, ClassVector):
            return wedge(self, other)
        try:
            return self.scaled(other)
        except TypeError:
            return NotImplemented

    def __rmul__(self, other):
        try:
            return self.scaled(other)
        except TypeError:
            return NotImplemented

    def conjugate(self) -> "ClassVector":
        return ClassVector(
            self.ring, self.degree, tuple(c.conjugate() for c in self.coeffs), self.flag
        )

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def is_real(self) -> bool:
        return all(c.is_real for c in self.coeffs)

    def with_flag(self, flag: str) -> "ClassVector":
        return self.ring.class_vector(self.degree, self.coeffs, flag)

    def __eq__(self, other):
        # Positivity flags are advisory metadata and do not affect identity.
        if not isinstance(other, ClassVector):
            return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring:
            return False
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __repr__(self):
        return f"ClassVector(deg={self.degree}, {self})"

    def __str__(self):
        terms = []
        for c, lab in zip(self.coeffs, self.ring.labels(self.degree)):
            if not c:
                continue
            coef = str(c) if c.is_real else f"({c})"
            terms.append(f"{coef}*{lab}")
        return " + ".join(terms) if terms else "0"


# -- ring operations -------------------------------------------------------

def wedge(a: ClassVector, b: ClassVector) -> ClassVector:
    """Product of two classes; degree overflow past n is an error."""
    if a.ring is not b.ring and a.ring != b.ring:
        raise RingMismatchError("classes live in different rings")
    ring = a.ring
    total = a.degree + b.degree
    if total > ring.n:
        raise DegreeError(
            f"wedge of degrees {a.degree} and {b.degree} exceeds top degree {ring.n}"
        )
    if a.degree == 0:
        return b.scaled(a.coeffs[0])
    if b.degree == 0:
        return a.scaled(b.coeffs[0])
    acc = [GQ_ZERO] * ring.dim(total)
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        for j, cb in enumerate(b.coeffs):
            if not cb:
                continue
            out = ring.products.get(canonical_product_key(a.degree, i, b.degree, j))
            if out is None:
                continue
            cab = ca * cb
            for k, f in enumerate(out):
                if f:
                    acc[k] = acc[k] + cab * f
    return ClassVector(ring, total, tuple(acc))


def power(a: ClassVector, k: int) -> ClassVector:
    """k-fold product; power(a, 0) is the identity class."""
    if k < 0:
        raise ValueError("negative powers are not defined")
    if k * a.degree > a.ring.n:
        raise DegreeError(
            f"power {k} of a degree-{a.degree} class exceeds top degree {a.ring.n}"
        )
    return wedge_all([a] * k, a.ring)


def wedge_all(classes: Sequence[ClassVector], ring: IntersectionRing) -> ClassVector:
    """Product of a (possibly empty) list of classes; empty gives the unit."""
    out = ring.unit()
    for c in classes:
        out = wedge(out, c)
    return out


def integrate(a: ClassVector) -> GaussianRational:
    """Apply the integration functional; only top-degree classes integrate."""
    ring = a.ring
    if a.degree != ring.n:
        raise DegreeError(f"cannot integrate a degree-{a.degree} class on an {ring.n}-fold")
    return sum((c * w for c, w in zip(a.coeffs, ring.integral) if w), GQ_ZERO)


def integrate_real(a: ClassVector) -> Fraction:
    """Integrate and certify the result is real."""
    return real_fraction(integrate(a))


# -- validation -------------------------------------------------------------

@dataclass(frozen=True)
class ValidationIssue:
    check: str
    location: str
    message: str

    def __str__(self):
        return f"[{self.check}] {self.location}: {self.message}"


@dataclass
class ValidationReport:
    ring_name: str
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, check: str, location: str, message: str) -> None:
        self.issues.append(ValidationIssue(check, location, message))

    def __str__(self):
        if self.ok:
            return f"ring {self.ring_name!r}: all checks passed"
        lines = [f"ring {self.ring_name!r}: {len(self.issues)} problem(s)"]
        lines += [f"  {issue}" for issue in self.issues]
        return "\n".join(lines)


def validate_ring(ring: IntersectionRing) -> ValidationReport:
    """Check grading, commutativity, associativity and Poincare duality."""
    report = ValidationReport(ring.name)
    n = ring.n

    if ring.hodge[0] != 1:
        report.add("grading", "hodge[0]", f"h^(0,0) must be 1, got {ring.hodge[0]}")
    if ring.hodge[n] != 1:
        report.add("grading", f"hodge[{n}]", f"h^(n,n) must be 1, got {ring.hodge[n]}")
    for p in range(n + 1):
        if ring.hodge[p] != ring.hodge[n - p]:
            # Palindromic grading is forced by a nondegenerate pairing, so a
            # violation is already a Poincare-duality failure.
            report.add(
                "poincare-duality", f"hodge[{p}]",
                f"h^({p},{p})={ring.hodge[p]} != h^({n - p},{n - p})={ring.hodge[n - p]}",
            )
        if ring.hodge[p] < 1:
            report.add("grading", f"hodge[{p}]", "graded dimension must be positive")
    if not report.ok:
        # Later checks assume a sane grading.
        return report

    for p, row in enumerate(ring.basis_labels):
        if len(set(row)) != len(row):
            report.add("labels", f"basis[{p}]", "duplicate labels in one degree")

    # Commutativity is structural (one canonical slot per pair); associativity
    # has to be checked on every basis triple that stays within the grading.
    for da in range(1, n + 1):
        for db in range(1, n - da + 1):
            for dc in range(1, n - da - db + 1):
                for ia in range(ring.dim(da)):
                    ea = ring.basis_class(da, ia)
                    for ib in range(ring.dim(db)):
                        eb = ring.basis_class(db, ib)
                        ab = wedge(ea, eb)
                        for ic in range(ring.dim(dc)):
                            ec = ring.basis_class(dc, ic)
                            left = wedge(ab, ec)
                            right = wedge(ea, wedge(eb, ec))
                            if left != right:
                                report.add(
                                    "associativity",
                                    f"({da},{ia})*({db},{ib})*({dc},{ic})",
                                    "products do not associate",
                                )

    for p in range(n + 1):
        rank = ring.pairing_matrix(p).rank()
        if rank != ring.dim(p):
            report.add(
                "poincare-duality", f"pairing p={p}",
                f"rank {rank} < {ring.dim(p)}: pairing is degenerate",
            )

    return report


# -- Kahler sanity gate ------------------------------------------------------

@dataclass(frozen=True)
class KahlerCheck:
    name: str
    passed: bool
    detail: str

    def __str__(self):
        return f"{'ok  ' if self.passed else 'FAIL'} {self.name}: {self.detail}"


@dataclass
class KahlerCheckReport:
    ring_name: str
    checks: list[KahlerCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = [f"kahler sanity on {self.ring_name!r}:"]
        lines += [f"  {c}" for c in self.checks]
        return "\n".join(lines)


def multiplication_matrix(ring: IntersectionRing, p: int, by: ClassVector) -> Matrix:
    """Matrix of the map (wedge with ``by``) from degree p, in the ring bases."""
    target = p + by.degree
    cols = [wedge(ring.basis_class(p, i), by).coeffs for i in range(ring.dim(p))]
    return Matrix.from_columns(cols, rows=ring.dim(target))


def form_matrix(ring: IntersectionRing, p: int, by: ClassVector) -> Matrix:
    """Matrix of (a, b) -> integral of a * b * ``by``, in the ring bases.

    Rows run over degree p, columns over degree n - p - deg(by); each column
    class b * by is formed once.
    """
    q = ring.n - p - by.degree
    right = [wedge(ring.basis_class(q, j), by) for j in range(ring.dim(q))]
    return Matrix([
        [integrate(wedge(ring.basis_class(p, i), r)) for r in right]
        for i in range(ring.dim(p))
    ])


def sanity_check_kahler(ring: IntersectionRing, w: ClassVector) -> KahlerCheckReport:
    """Necessary (not sufficient) conditions for a degree-1 class to be Kahler.

    Checks positive volume, injectivity of multiplication up to the middle
    degree, and the Lorentzian signature (1, h^(1,1)-1, 0) of the degree-1
    intersection form. Use :func:`as_kahler` to obtain the reflagged class
    once the gate passes.
    """
    if w.degree != 1:
        raise DegreeError("only degree-1 classes can be Kahler")
    checks: list[KahlerCheck] = []
    n = ring.n

    checks.append(KahlerCheck("real", w.is_real, f"coefficients {'' if w.is_real else 'not '}real"))

    try:
        vol = integrate_real(power(w, n))
        checks.append(KahlerCheck("volume", vol > 0, f"integral of w^{n} = {vol}"))
    except ArithmeticError:
        checks.append(KahlerCheck("volume", False, "volume is not real"))

    for p in range(n):
        if 2 * p >= n:
            break
        rank = multiplication_matrix(ring, p, w).rank()
        checks.append(
            KahlerCheck(
                f"lefschetz-injectivity p={p}", rank == ring.dim(p),
                f"rank {rank} of {ring.dim(p)}",
            )
        )

    if n >= 2 and w.is_real:
        h1 = ring.dim(1)
        sig = form_matrix(ring, 1, power(w, n - 2)).inertia(hermitian=True)
        ok = sig == (1, h1 - 1, 0)
        checks.append(
            KahlerCheck(
                "degree1-signature", ok,
                f"inertia {sig}, expected (1, {h1 - 1}, 0)",
            )
        )

    report = KahlerCheckReport(ring.name, checks)
    return report


def as_kahler(ring: IntersectionRing, w: ClassVector) -> ClassVector:
    """Upgrade a class to the Kahler flag, or raise if the sanity gate fails."""
    report = sanity_check_kahler(ring, w)
    if not report.passed:
        raise FlagError(f"class fails the Kahler sanity checks:\n{report}")
    return w.with_flag(FLAG_KAHLER)


# -- mixed setups -------------------------------------------------------------

MODE_STRICT = "strict"
MODE_BOUNDARY = "boundary"


@dataclass(frozen=True)
class MixedSetup:
    """A target degree p with reference classes w, w_1 .. w_(n-2p).

    ``omega_p`` is the product Omega_p of the w_i and ``tower[0]`` of the
    products w^k * Omega_p. The mode is strict when every reference class is
    Kahler-flagged and boundary when nef classes occur.
    """

    p: int
    omega: ClassVector
    omegas: tuple[ClassVector, ...]
    omega_p: ClassVector
    mode: str

    @property
    def ring(self) -> IntersectionRing:
        return self.omega.ring

    @cached_property
    def tower(self) -> tuple[ClassVector, ...]:
        """w^k * Omega_p for k = 0 .. 2p, each one product from the last."""
        return tuple(accumulate([self.omega] * (2 * self.p), wedge, initial=self.omega_p))

    @cached_property
    def decomposer(self):
        """The setup's LefschetzDecomposer, built on first use; raises as it does."""
        from .lefschetz import LefschetzDecomposer
        return LefschetzDecomposer(self)

    def check_class(self, alpha: ClassVector) -> None:
        """Raise DegreeError unless ``alpha`` is a degree-p class of the ring."""
        if alpha.degree != self.p:
            raise DegreeError(f"expected a degree-{self.p} class, got degree {alpha.degree}")
        if alpha.ring is not self.ring and alpha.ring != self.ring:
            raise DegreeError("class belongs to a different ring")

    def describe(self) -> str:
        ws = ", ".join(str(w) for w in self.omegas) or "(empty)"
        return f"p={self.p}, w={self.omega}, reference=[{ws}], mode={self.mode}"


def mixed_setup(p: int, omega: ClassVector, omegas: Sequence[ClassVector]) -> MixedSetup:
    ring = omega.ring
    n = ring.n
    if not (1 <= p <= n // 2):
        raise DegreeError(f"p must satisfy 1 <= p <= {n // 2}, got {p}")
    omegas = tuple(omegas)
    if len(omegas) != n - 2 * p:
        raise DegreeError(f"expected {n - 2 * p} auxiliary classes, got {len(omegas)}")
    for w in (omega, *omegas):
        if w.ring is not ring and w.ring != ring:
            raise RingMismatchError("reference classes live in different rings")
        if w.degree != 1:
            raise DegreeError("reference classes must have degree 1")
        if w.flag not in POSITIVE_FLAGS:
            raise FlagError(
                "reference classes must be flagged kahler or nef "
                "(see sanity_check_kahler / with_flag)"
            )
    strict = all(w.flag == FLAG_KAHLER for w in (omega, *omegas))
    omega_p = wedge_all(omegas, ring)
    return MixedSetup(p, omega, omegas, omega_p, MODE_STRICT if strict else MODE_BOUNDARY)
