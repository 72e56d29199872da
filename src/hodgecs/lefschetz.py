"""Mixed hard-Lefschetz operators, primitive subspaces and decompositions.

Throughout, a reference consists of a degree-1 class w together with a list
of degree-1 classes whose product is written Omega. The primitive subspace in
degree p is the kernel of multiplication by w*Omega, and the associated
bilinear form in degree p is

    Q(u, v) = (-1)^p * integral of u * v * Omega,

on rational classes; for complex u + iv, Q(u + iv, u - iv) = Q(u, u) + Q(v, v),
as Omega is real.

Both the signed form above and the unsigned variant (without the (-1)^p
prefactor, the usual convention in degree 1) are reported side by side, since
they differ by a sign exactly when p is odd.

Omega comes from ``ring._omega_class``, which checks the list: the list functions
call it once each, and ``hr_check`` reads Omega and w^k * Omega from one
``mixed_setup``. Primitive in degree i for a setup means in the kernel of its
rung w^(2(p-i)+1) * Omega (``_primitive_classes``).

The mixed Lefschetz decomposition writes a degree-p class a as

    a = lam * w^p + sum_i a_i * w^(p-i),    a_i primitive in degree i
                                            w.r.t. (w, w^(2(p-i)) * Omega_p),

by peeling one primitive component per level. At level i the current class c
splits as c = a_i + w * r with r of degree i-1; multiplying by
C_i = w^(2(p-i)+1) * Omega_p kills a_i, so r solves the mixed hard Lefschetz
system r * w * C_i = c * C_i in degree i-1. For genuine Kahler references that
map is an isomorphism, so r and a_i = c - w * r are unique; a singular map is
reported as evidence of wrong flags. The products w^k * Omega_p come from
``MixedSetup.rung`` and each level's C_i and map inverse from
``MixedSetup.levels``: one build per setup, read by all its decomposers. The
levels run on (numerators, den) pairs; classes are built only for what is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import FlagError, SingularSplitError
from .linalg import Matrix
from .ring import (
    ClassVector,
    IntersectionRing,
    MixedSetup,
    MODE_STRICT,
    _check_setup_p,
    _omega_class,
    _pair_ints,
    _product_ints,
    class_columns,
    form_matrix,
    integrate,
    mixed_setup,
    multiplication_matrix,
    wedge,
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
        return ring.dim(self.p) - ring.dim(self.p - 1)


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


def lefschetz_operator(ring: IntersectionRing, p: int,
                       classes: Sequence[ClassVector]) -> tuple[Matrix, bool]:
    """Matrix of a -> a * Omega from degree p to degree n-p, plus an iso flag.

    Omega is the product of the given n-2p degree-1 classes; the flag records
    whether the map is an isomorphism (square of full rank).
    """
    m = multiplication_matrix(ring, p, _omega_class(ring, p, classes))
    iso = m.rows == m.cols and m.rank() == ring.dim(p)
    return m, iso


def _kernel_classes(ring: IntersectionRing, p: int, by: ClassVector) -> tuple[ClassVector, ...]:
    """The kernel of a -> a * ``by`` on degree p, as classes in canonical echelon form."""
    kernel = multiplication_matrix(ring, p, by).kernel()
    return tuple(ClassVector(ring, p, row, kernel.den) for row in kernel.num)


def _primitive_classes(setup: MixedSetup, i: int) -> tuple[ClassVector, ...]:
    """The primitive classes of degree i: the kernel of the rung w^(2(p-i)+1) * Omega_p."""
    return _kernel_classes(setup.ring, i, setup.rung(2 * (setup.p - i) + 1))


def primitive_basis(ring: IntersectionRing, p: int, omega: ClassVector,
                    omegas: Sequence[ClassVector]) -> PrimitiveSubspace:
    """Kernel of a -> a * w * Omega in degree p, in canonical echelon form, from the list;
    p is checked first against 1 <= p <= n/2, as a setup's is."""
    _check_setup_p(ring, p)
    omegas = tuple(omegas)
    multiplier = wedge(omega, _omega_class(ring, p, omegas, omega))
    return PrimitiveSubspace(p, omega, omegas, _kernel_classes(ring, p, multiplier))


def _form_report(ring: IntersectionRing, p: int, omega_p: ClassVector) -> SymmetricFormReport:
    """Gram data of the degree-p form against the class ``omega_p``."""
    unsigned = form_matrix(ring, p, omega_p)
    ui = unsigned.inertia()
    if p % 2 == 0:
        return SymmetricFormReport(p, 1, unsigned, ui, unsigned, ui)
    # Negating a form swaps its positive and negative index.
    signed_inertia = (ui[1], ui[0], ui[2])
    return SymmetricFormReport(p, -1, -unsigned, signed_inertia, unsigned, ui)


def gram_matrix_Q(ring: IntersectionRing, p: int,
                  omegas: Sequence[ClassVector]) -> SymmetricFormReport:
    """Gram matrix of the degree-p form against the product of ``omegas``."""
    return _form_report(ring, p, _omega_class(ring, p, omegas))


def restrict_form(report: SymmetricFormReport, basis: Sequence[ClassVector]) -> Matrix:
    """Gram matrix of the signed form restricted to the span of the real ``basis``."""
    cols = class_columns(basis, report.gram.rows)
    return cols.transpose() @ report.gram @ cols


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


def hr_check(ring: IntersectionRing, p: int, omega: ClassVector,
             omegas: Sequence[ClassVector]) -> HrReport:
    """Verify positive-definiteness of the signed form on the primitive basis.

    Also audits the dimension of the primitive subspace, nondegeneracy of the
    full-space form, and the degree-1 unsigned signature (1, h^(1,1)-1, 0)
    evaluated against w^(2p-2) * Omega. A violation indicts the positivity
    flags of the input classes, not the underlying theory. The reference is read
    by one :func:`mixed_setup`, which must be strict.
    """
    setup = mixed_setup(p, omega, omegas)
    if setup.mode != MODE_STRICT:
        raise FlagError("hr_check needs strictly Kahler reference classes")
    # The form reads ``ring``, so a reference of another ring raises here.
    form = _form_report(ring, p, setup.omega_p)
    prim = PrimitiveSubspace(p, omega, setup.omegas, _primitive_classes(setup, p))
    restricted = restrict_form(form, prim.basis)
    ri = restricted.inertia()
    # Degree-1 claim in the unsigned convention, against w^(2(p-1)) * Omega.
    deg1 = form_matrix(ring, 1, setup.rung(2 * p - 2)).inertia()
    h1 = ring.dim(1)
    checks = [
        ("dimension", prim.dim != prim.expected_dim,
         f"primitive dim {prim.dim} != h^({p},{p}) - h^({p - 1},{p - 1}) = {prim.expected_dim}"),
        ("positivity", ri != (prim.dim, 0, 0),
         f"restricted inertia {ri}, expected ({prim.dim}, 0, 0)"),
        ("nondegeneracy", not form.nondegenerate,
         f"full-space form has radical of dimension {form.inertia[2]}"),
        ("degree1-signature", deg1 != (1, h1 - 1, 0),
         f"unsigned degree-1 inertia {deg1}, expected (1, {h1 - 1}, 0)"),
    ]
    violations = [HrViolation(check, message) for check, failed, message in checks if failed]
    return HrReport(ring.name, p, prim, form, restricted, ri, deg1, violations)


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of the mixed Lefschetz decomposition of one class."""

    setup: MixedSetup
    alpha: ClassVector
    lam: Fraction
    components: tuple[ClassVector, ...]      # components[i-1] has degree i
    certificates: tuple[ClassVector, ...]    # a_i * w^(2(p-i)+1) * Omega_p

    def reconstruct(self) -> ClassVector:
        """Reassemble lam * w^p + sum_i a_i * w^(p-i) by Horner's rule."""
        s = self.setup
        out = s.ring.unit().scaled(self.lam)
        for comp in self.components:
            out = wedge(out, s.omega) + comp
        return out

    def pairing_terms(self) -> tuple[Fraction, ...]:
        """The rationals t_i = integral of a_i * a_i * w^(2(p-i)) * Omega_p."""
        s = self.setup
        return tuple(
            integrate(wedge(wedge(comp, comp), s.rung(2 * (s.p - i))))
            for i, comp in enumerate(self.components, start=1)
        )


class LefschetzDecomposer:
    """Decomposition engine for a fixed strict setup.

    Per level i = p .. 1 it reads C_i = w^(2(p-i)+1) * Omega_p and the int
    inverse of the mixed hard Lefschetz map r -> r * w * C_i on degree i-1
    from ``setup.levels``, which raises on a singular map. Decomposing a
    class then runs on the (numerators, den) pairs of ``_product_ints``: per
    level, three products, one int matrix-vector product and one gcd, then one
    ``_pair_ints`` for lam. Classes are built only for what is returned.
    """

    def __init__(self, setup: MixedSetup):
        if setup.mode != MODE_STRICT:
            raise FlagError("decomposition requires a strictly Kahler setup")
        self.setup = setup
        self._levels = setup.levels

    def decompose(self, alpha: ClassVector) -> DecompositionResult:
        setup = self.setup
        ring, w = setup.ring, (setup.omega.re, setup.omega.den)
        setup.check_class(alpha)

        components: list[ClassVector] = []      # levels p .. 1
        certificates: list[ClassVector] = []
        # The current class as a (numerators, den) pair.
        current = alpha.re, alpha.den
        for i, c, inverse, d in self._levels:
            k, c = ring.n - 2 * i + 1, (c.re, c.den)    # the degree of C_i, and C_i
            # rest = L^-1 (current * C_i), with L^-1 = inverse / d, in lowest terms.
            v, v_den = _product_ints(ring, i, current, k, c)
            rest, rest_den = [sum(map(mul, row, v)) for row in inverse], v_den * d
            g = gcd(rest_den, *rest)
            rest = [x // g for x in rest], rest_den // g
            # a_i = current - rest * w.
            (x, x_den), (y, y_den) = current, _product_ints(ring, i - 1, rest, 1, w)
            m = lcm(x_den, y_den)
            s, t = m // x_den, m // y_den
            a = ClassVector(ring, i, [s * xi - t * yi for xi, yi in zip(x, y)], m)
            components.append(a)
            certificates.append(ClassVector(ring, ring.n - i + 1,
                                            *_product_ints(ring, i, (a.re, a.den), k, c)))
            current = rest

        # The recursion remainder lam = current must match the closed form
        # lam = (int a * T) / (int w^(2p) * Omega_p), T = w^p * Omega_p the setup's
        # rung p: one pairing.
        lam = Fraction(current[0][0], current[1])
        t = setup.rung(setup.p)
        if lam * setup.volume != Fraction(*_pair_ints(ring, setup.p, (alpha.re, alpha.den),
                                                      (t.re, t.den))):
            raise SingularSplitError(
                "recursion remainder disagrees with the closed-form coefficient; "
                "the reference classes are not Kahler"
            )

        return DecompositionResult(setup, alpha, lam,
                                   tuple(reversed(components)), tuple(reversed(certificates)))


def mixed_lefschetz_decompose(alpha: ClassVector, setup: MixedSetup) -> DecompositionResult:
    """Decompose ``alpha`` in a strict ``setup``, whose levels are built on first use."""
    return LefschetzDecomposer(setup).decompose(alpha)
