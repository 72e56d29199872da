"""Mixed hard-Lefschetz operators, primitive subspaces and decompositions.

Throughout, a reference consists of a degree-1 class w together with a list
of degree-1 classes whose product is written Omega. The primitive subspace in
degree p is the kernel of multiplication by w*Omega, and the associated
bilinear form in degree p is

    Q(u, v) = (-1)^p * integral of u * conj(v) * Omega.

Both the signed form above and the unsigned variant (without the (-1)^p
prefactor, the usual convention in degree 1) are reported side by side, since
they differ by a sign exactly when p is odd.

The mixed Lefschetz decomposition writes a degree-p class a as

    a = lam * w^p + sum_i a_i * w^(p-i),    a_i primitive in degree i
                                            w.r.t. (w, w^(2(p-i)) * Omega_p),

by peeling one primitive component per level. At level i the current class c
splits as c = a_i + w * r with r of degree i-1; multiplying by
C_i = w^(2(p-i)+1) * Omega_p kills a_i, so r solves the mixed hard Lefschetz
system r * w * C_i = c * C_i in degree i-1. For genuine Kahler references that
map is an isomorphism, so r and a_i = c - w * r are unique; a singular map is
reported as evidence of wrong flags. The products w^k * Omega_p come from
``MixedSetup.tower``, and ``MixedSetup.decomposer`` is built once per setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegreeError, FlagError, SingularSplitError
from .gaussian import GaussianRational
from .linalg import Matrix
from .ring import (
    FLAG_KAHLER,
    ClassVector,
    IntersectionRing,
    MixedSetup,
    MODE_STRICT,
    form_matrix,
    integrate,
    integrate_real,
    multiplication_matrix,
    power,
    wedge,
    wedge_all,
)


@dataclass(frozen=True)
class PrimitiveSubspace:
    """Canonical basis of the primitive classes for one reference pair."""

    p: int
    omega: ClassVector
    omegas: tuple[ClassVector, ...]
    basis: tuple[ClassVector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def expected_dim(self) -> int:
        ring = self.omega.ring
        lower = ring.dim(self.p - 1) if self.p >= 1 else 0
        return ring.dim(self.p) - lower


@dataclass(frozen=True)
class SymmetricFormReport:
    """Gram data of the degree-p intersection form in both sign conventions."""

    p: int
    sign_factor: int                      # (-1)^p applied in the signed form
    gram: Matrix                          # signed convention
    inertia: tuple[int, int, int]
    unsigned_gram: Matrix
    unsigned_inertia: tuple[int, int, int]

    @property
    def nondegenerate(self) -> bool:
        return self.inertia[2] == 0


def _omega_product(
    ring: IntersectionRing, p: int, classes: Sequence[ClassVector]
) -> ClassVector:
    """Omega, the product of the n-2p degree-1 classes that pair degree p."""
    classes = tuple(classes)
    if len(classes) != ring.n - 2 * p:
        raise DegreeError(
            f"expected {ring.n - 2 * p} classes for degree {p}, got {len(classes)}"
        )
    return wedge_all(classes, ring)


def lefschetz_operator(
    ring: IntersectionRing, p: int, classes: Sequence[ClassVector]
) -> tuple[Matrix, bool]:
    """Matrix of a -> a * Omega from degree p to degree n-p, plus an iso flag.

    Omega is the product of the given n-2p degree-1 classes; the flag records
    whether the map is an isomorphism (square of full rank).
    """
    m = multiplication_matrix(ring, p, _omega_product(ring, p, classes))
    iso = m.rows == m.cols and m.rank() == ring.dim(p)
    return m, iso


def primitive_basis(
    ring: IntersectionRing, p: int, omega: ClassVector, omegas: Sequence[ClassVector]
) -> PrimitiveSubspace:
    """Kernel of a -> a * w * Omega in degree p, in canonical echelon form."""
    omegas = tuple(omegas)
    if omega.degree != 1 or any(w.degree != 1 for w in omegas):
        raise DegreeError("reference classes must have degree 1")
    multiplier = wedge(omega, wedge_all(omegas, ring))
    if p + multiplier.degree > ring.n:
        raise DegreeError("reference product leaves the grading")
    kernel = multiplication_matrix(ring, p, multiplier).nullspace()
    return PrimitiveSubspace(p, omega, omegas, tuple(ring.class_vector(p, v) for v in kernel))


def gram_matrix_Q(
    ring: IntersectionRing, p: int, omegas: Sequence[ClassVector]
) -> SymmetricFormReport:
    """Gram matrix of the degree-p form against the product of ``omegas``."""
    unsigned = form_matrix(ring, p, _omega_product(ring, p, omegas))
    ui = unsigned.inertia(hermitian=True)
    if p % 2 == 0:
        return SymmetricFormReport(p, 1, unsigned, ui, unsigned, ui)
    # Negating a form swaps its positive and negative index.
    signed_inertia = (ui[1], ui[0], ui[2])
    return SymmetricFormReport(p, -1, unsigned.scaled(-1), signed_inertia, unsigned, ui)


def restrict_form(report: SymmetricFormReport, basis: Sequence[ClassVector]) -> Matrix:
    """Gram matrix of the signed form restricted to the span of ``basis``."""
    cols = Matrix.from_columns([b.coeffs for b in basis], rows=report.gram.rows)
    return cols.conj_transpose() @ report.gram @ cols


@dataclass
class HrViolation:
    check: str
    message: str

    def __str__(self):
        return f"{self.check}: {self.message}"


@dataclass
class HrReport:
    """Positivity audit of the signed form on the primitive subspace."""

    ring_name: str
    p: int
    primitive: PrimitiveSubspace
    form: SymmetricFormReport
    restricted_gram: Matrix
    restricted_inertia: tuple[int, int, int]
    degree1_unsigned_inertia: tuple[int, int, int]
    violations: list[HrViolation]

    @property
    def passed(self) -> bool:
        return not self.violations

    def __str__(self):
        head = (
            f"ring {self.ring_name!r} p={self.p}: primitive dim {self.primitive.dim}, "
            f"restricted inertia {self.restricted_inertia}"
        )
        if self.passed:
            return head + " [ok]"
        return head + "\n" + "\n".join(f"  {v}" for v in self.violations)


def hr_check(
    ring: IntersectionRing,
    p: int,
    omega: ClassVector,
    omegas: Sequence[ClassVector],
) -> HrReport:
    """Verify positive-definiteness of the signed form on the primitive basis.

    Also audits the dimension of the primitive subspace, nondegeneracy of the
    full-space form, and the degree-1 unsigned signature (1, h^(1,1)-1, 0)
    evaluated against w^(2p-2) * Omega. A violation indicts the positivity
    flags of the input classes, not the underlying theory.
    """
    omegas = tuple(omegas)
    for w in (omega, *omegas):
        if w.flag != FLAG_KAHLER:
            raise FlagError("hr_check needs strictly Kahler reference classes")
    prim = primitive_basis(ring, p, omega, omegas)
    form = gram_matrix_Q(ring, p, omegas)
    violations: list[HrViolation] = []

    if prim.dim != prim.expected_dim:
        violations.append(HrViolation(
            "dimension",
            f"primitive dim {prim.dim} != h^({p},{p}) - h^({p - 1},{p - 1}) = {prim.expected_dim}",
        ))

    if prim.dim:
        restricted = restrict_form(form, prim.basis)
        ri = restricted.inertia(hermitian=True)
    else:
        restricted = Matrix([])
        ri = (0, 0, 0)
    if ri != (prim.dim, 0, 0):
        violations.append(HrViolation(
            "positivity",
            f"restricted inertia {ri}, expected ({prim.dim}, 0, 0)",
        ))

    if form.inertia[2] != 0:
        violations.append(HrViolation(
            "nondegeneracy",
            f"full-space form has radical of dimension {form.inertia[2]}",
        ))

    # Degree-1 claim in the unsigned convention, against w^(2(p-1)) * Omega.
    deg1 = gram_matrix_Q(ring, 1, [omega] * (2 * (p - 1)) + list(omegas))
    h1 = ring.dim(1)
    if deg1.unsigned_inertia != (1, h1 - 1, 0):
        violations.append(HrViolation(
            "degree1-signature",
            f"unsigned degree-1 inertia {deg1.unsigned_inertia}, expected (1, {h1 - 1}, 0)",
        ))

    return HrReport(
        ring.name, p, prim, form, restricted, ri, deg1.unsigned_inertia, violations
    )


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of the mixed Lefschetz decomposition of one class."""

    setup: MixedSetup
    alpha: ClassVector
    lam: GaussianRational
    components: tuple[ClassVector, ...]      # components[i-1] has degree i
    certificates: tuple[ClassVector, ...]    # a_i * w^(2(p-i)+1) * Omega_p

    def reconstruct(self) -> ClassVector:
        """Reassemble lam * w^p + sum_i a_i * w^(p-i)."""
        s = self.setup
        out = power(s.omega, s.p).scaled(self.lam)
        for i, comp in enumerate(self.components, start=1):
            out = out + wedge(comp, power(s.omega, s.p - i))
        return out

    def pairing_terms(self) -> tuple[Fraction, ...]:
        """The reals t_i = integral of a_i * conj(a_i) * w^(2(p-i)) * Omega_p."""
        s = self.setup
        return tuple(
            integrate_real(wedge(wedge(comp, comp.conjugate()), s.tower[2 * (s.p - i)]))
            for i, comp in enumerate(self.components, start=1)
        )


class LefschetzDecomposer:
    """Reusable decomposition engine for a fixed strict setup.

    Per level i = p .. 1 it takes C_i = w^(2(p-i)+1) * Omega_p from the
    setup's tower and builds the matrix of the mixed hard Lefschetz map
    r -> r * w * C_i on degree i-1, checking once that it is invertible.
    Decomposing a class is then one h^(i-1)-sized exact solve per level.
    ``MixedSetup.decomposer`` holds the one instance a setup needs.
    """

    def __init__(self, setup: MixedSetup):
        if setup.mode != MODE_STRICT:
            raise FlagError("decomposition requires a strictly Kahler setup")
        self.setup = setup
        ring, p, tower = setup.ring, setup.p, setup.tower
        self._levels = []
        for i in range(p, 0, -1):
            lower = multiplication_matrix(ring, i - 1, tower[2 * (p - i) + 2])
            rank = lower.rank()
            if lower.rows != lower.cols or rank != lower.cols:
                raise SingularSplitError(
                    f"level {i}: the Lefschetz map on degree {i - 1} is "
                    f"{lower.rows}x{lower.cols} of rank {rank}; "
                    f"the reference classes are not Kahler"
                )
            self._levels.append((i, tower[2 * (p - i) + 1], lower))

    def decompose(self, alpha: ClassVector) -> DecompositionResult:
        setup = self.setup
        ring = setup.ring
        setup.check_class(alpha)

        components: list[ClassVector] = []      # levels p .. 1
        certificates: list[ClassVector] = []
        current = alpha
        for i, cert_multiplier, lower in self._levels:
            # The map is invertible, so the solve always succeeds.
            rest = ring.class_vector(
                i - 1, lower.solve(wedge(current, cert_multiplier).coeffs)
            )
            components.append(current - wedge(rest, setup.omega))
            certificates.append(wedge(components[-1], cert_multiplier))
            current = rest
        lam = current.coeffs[0]

        # The recursion remainder must match the closed form
        # lam = (int a * w^p * Omega_p) / (int w^(2p) * Omega_p).
        denom = integrate(setup.tower[2 * setup.p])
        numer = integrate(wedge(alpha, setup.tower[setup.p]))
        if lam * denom != numer:
            raise SingularSplitError(
                "recursion remainder disagrees with the closed-form coefficient; "
                "the reference classes are not Kahler"
            )

        return DecompositionResult(
            setup, alpha, lam, tuple(reversed(components)), tuple(reversed(certificates))
        )


def mixed_lefschetz_decompose(alpha: ClassVector, setup: MixedSetup) -> DecompositionResult:
    """Decompose ``alpha`` with the setup's own decomposer, built on first use."""
    return setup.decomposer.decompose(alpha)
