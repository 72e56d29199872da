"""Graded commutative intersection rings with exact rational coefficients.

An :class:`IntersectionRing` models the even part of the cohomology of a
compact Kahler n-fold: one graded piece per degree p (the (p,p)-classes),
structure constants for the cup product, and a linear integration functional
on the top degree. The classes are rational, as the ring is the rational
(p,p)-part of the cohomology: a :class:`ClassVector` holds int numerators
over one denominator, and a coefficient or scalar other than an int or a
Fraction raises ``TypeError`` where it enters (``class_vector``, ``scaled``,
and the constructor for structure constants, integral and sample coefficients).
Every product reads the sparse structure table of its ordered degree pair,
degree 0 included (the unit row is the identity); the first read builds every
table in one pass over the stored products, each filed under both orders of
its factors. ``wedge`` and ``_product_ints`` contract numerators over a
table, an operator matrix scatters a class's numerators through one into int
rows, and ``validate_ring`` and the int pairing matrices read them. A form
matrix is the pairing times an operator, and every integral of a class is the
int ``_integral``. Int products and integrals carry their denominator as
(numerators, den) pairs, not reduced (``_product_ints``, ``_pair_ints``), so
only this module reads D (``_den``) and the integral's scale (``_weights``).
Fractions are built only where values leave (``coeffs``, ``integrate``).

Omega_p, the product of a reference list, is formed and the list checked in one
place, ``_omega_class``: once per ``mixed_setup``, once per list function call.

The ring data cannot certify that a degree-1 class is Kahler; positivity is a
user-declared flag. :func:`sanity_check_kahler` enforces the checkable
necessary conditions (positive volume, injective multiplication maps below
the middle, Lorentzian degree-1 signature, positive pairing with the declared
Kahler samples) before a flag is honoured.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from operator import index, mul
from typing import Mapping, Optional, Sequence

from .errors import (DegreeError, FlagError, RingMismatchError, SingularSplitError,
                     ValidationLimitError)
from .linalg import Matrix, _rational_ints, _rationals, int_from_str

FLAG_NONE = "none"
FLAG_KAHLER = "kahler"
FLAG_NEF = "nef"
FLAGS = (FLAG_NONE, FLAG_KAHLER, FLAG_NEF)
POSITIVE_FLAGS = (FLAG_KAHLER, FLAG_NEF)

ProductKey = tuple[int, int, int, int]

# Default bound on validation_work(hodge), and the variable validate_ring reads
# to override it. The default admits (P^1)^8 (W = 1,893,946) and refuses
# (P^1)^9 (W = 13,008,845).
VALIDATE_LIMIT = 2_000_000
VALIDATE_LIMIT_ENV = "HODGECS_VALIDATE_LIMIT"


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
                 "samples", "_label_index", "_den", "_weights", "_tables", "_pairings",
                 "_sample_rows")

    def __init__(
        self,
        name: str,
        n: int,
        hodge: Sequence[int],
        basis_labels: Sequence[Sequence[str]],
        products: Mapping[ProductKey, Sequence[Fraction]],
        integral: Sequence[Fraction],
        samples: Sequence[RingSample] = (),
    ):
        n = index(n)
        if n < 1:
            raise ValueError("complex dimension must be at least 1")
        hodge = tuple(map(index, hodge))
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

        table: dict[ProductKey, tuple[Fraction, ...]] = {}
        dens: set[int] = set()
        for key, out in products.items():
            da, ia, db, ib = map(index, key)
            for d, i in ((da, ia), (db, ib)):
                if not (0 <= d <= n) or not (0 <= i < hodge[d]):
                    raise ValueError(f"product key {key}: index out of range")
            out = tuple(out)
            # A vector of exact Fractions, as parsing and the zoo give, is taken as it is.
            if set(map(type, out)) != {Fraction}:
                out = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in _rationals(out))
            if da + db > n:
                if any(out):
                    raise ValueError(f"product key {key}: degree {da + db} exceeds n")
                continue
            if da == 0 or db == 0:
                # Degree 0 acts as the identity; entries are redundant but
                # tolerated when consistent.
                other = ib if da == 0 else ia
                if out != tuple(int(k == other) for k in range(hodge[da + db])):
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
            # One read per entry: the denominators of the nonzero entries make D.
            nonzero = {c.denominator for c in out if c}
            if nonzero:
                table[ckey] = out
                dens |= nonzero

        integral = tuple(map(Fraction, _rationals(integral)))
        if len(integral) != hodge[n]:
            raise ValueError(f"integral vector must have length {hodge[n]}")

        # Each sample cleared once, to (re, den, flag) in lowest terms: the numerators
        # of reduced Fractions over the lcm of their denominators have gcd 1 with it.
        samples = tuple(samples)
        sample_rows = []
        for k, s in enumerate(samples):
            re, den = _rational_ints(s.coeffs)
            if s.flag not in POSITIVE_FLAGS:
                raise ValueError(f"sample {s.name!r}: flag must be kahler or nef")
            if len(re) != hodge[1]:
                raise ValueError(f"sample {s.name!r}: coefficient length mismatch")
            if any(t.name == s.name for t in samples[:k]):
                raise ValueError(f"sample {s.name!r}: name is already declared")
            sample_rows.append((tuple(re), den, s.flag))

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
        # D, one denominator of every structure constant; the integral as int weights.
        weights, scale = _rational_ints(integral)
        object.__setattr__(self, "_den", lcm(*dens))
        object.__setattr__(self, "_weights", (weights, scale))
        object.__setattr__(self, "_tables", {})
        object.__setattr__(self, "_pairings", {})
        # Ints, not classes: a class points back at its ring, and the cycle would
        # leave a ring that drew to the cycle collector instead of freeing it.
        object.__setattr__(self, "_sample_rows", tuple(sample_rows))

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

    def _table(self, da: int, db: int) -> tuple:
        """The products of degrees da x db, da + db <= n: i -> {j: ((k, D * c_k), ...)}.

        The one product view of the ring. The first read builds the tables of
        every pair in one pass over ``products``, clearing each nonzero entry of a
        product once and filing the product under both orders of its factors, so a
        table and its transpose share entries; the pairs with a zero product are
        left out. In degree 0
        the unit, basis element 0, acts as the identity, and any other element
        (in a ring that fails validation) as zero.
        """
        tables = self._tables
        if not tables:
            h, den = self.hodge, self._den
            tables = {(a, b): tuple({} for _ in range(h[a]))
                      for a in range(self.n + 1) for b in range(self.n + 1 - a)}
            # The unit rows; in the (0, 0) table only the unit's row is filled.
            for b in range(self.n + 1) if h[0] else ():
                for j in range(h[b]):
                    unit = ((j, den),)
                    tables[0, b][0][j] = unit
                    if b:
                        tables[b, 0][j][0] = unit
            for (a, i, b, j), out in self.products.items():
                tables[a, b][i][j] = tables[b, a][j][i] = tuple(
                    (k, c.numerator * (den // c.denominator)) for k, c in enumerate(out) if c)
            # Stored whole, so a concurrent reader never sees a partly filled table.
            object.__setattr__(self, "_tables", tables)
        return tables[da, db]

    def _pairing(self, p: int) -> Matrix:
        """The pairing (a, b) -> integral of a * b of degrees p x (n - p), built once:
        the integral's int weights dotted with the products of the (p, n - p) table."""
        if p not in self._pairings:
            n, (w, scale) = self.n, self._weights
            rows = [[sum(w[k] * c for k, c in row.get(j, ())) for j in range(self.hodge[n - p])]
                    for row in self._table(p, n - p)]
            self._pairings[p] = Matrix._of(rows, scale * self._den, self.hodge[n - p])
        return self._pairings[p]

    # -- class construction ------------------------------------------------

    def class_vector(self, p: int, coeffs: Sequence, flag: str = FLAG_NONE) -> "ClassVector":
        re, den = _rational_ints(coeffs)
        return ClassVector(self, p, re, den, flag)

    def basis_class(self, p: int, i: int) -> "ClassVector":
        re = [0] * self.dim(p)
        if not 0 <= i < len(re):
            raise DegreeError(f"basis index {i} outside 0..{len(re) - 1} in degree {p}")
        re[i] = 1
        return ClassVector(self, p, re)

    def unit(self) -> "ClassVector":
        return self.basis_class(0, 0)

    def zero_class(self, p: int) -> "ClassVector":
        return ClassVector(self, p, (0,) * self.dim(p))

    def _sample_ints(self, flag: Optional[str] = None) -> tuple[tuple, ...]:
        """Each declared sample of ``flag`` (any flag for None) as (re, den, flag),
        the ints the constructor cleared it to, in declaration order."""
        return tuple(row for row in self._sample_rows if flag is None or row[2] == flag)

    def sample(self, name: str) -> "ClassVector":
        for s, row in zip(self.samples, self._sample_rows):
            if s.name == name:
                return ClassVector(self, 1, *row)
        raise KeyError(f"ring {self.name!r} has no sample {name!r}")

    def sample_classes(self, flag: Optional[str] = None) -> tuple["ClassVector", ...]:
        """The declared samples as flagged degree-1 classes, in declaration order;
        with ``flag``, only the samples of that flag.

        Each call builds its classes from the ints the ring cleared when it was
        built, through the constructor, which checks them like any other class.
        """
        return tuple(ClassVector(self, 1, re, den, f) for re, den, f in self._sample_ints(flag))

    def kahler_samples(self) -> tuple["ClassVector", ...]:
        return self.sample_classes(FLAG_KAHLER)

    def nef_samples(self) -> tuple["ClassVector", ...]:
        """Boundary sample classes; Kahler samples are nef as well."""
        return self.sample_classes(FLAG_NEF) + self.sample_classes(FLAG_KAHLER)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, IntersectionRing):
            return NotImplemented
        return self is other or (
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
    """An element of one graded piece of an intersection ring.

    The class is re / den: ``re`` is an int tuple of numerators over one
    positive ``den``. Every class comes from the constructor, which checks it
    (the degree lies in 0..n with one coefficient per basis element, else
    :class:`DegreeError`; a denominator below 1 raises ``ValueError``; a kahler
    or nef flag needs a degree-1 class, else :class:`FlagError`) and brings the
    fields to lowest terms, so equal classes have equal fields. ``coeffs``, the
    ``Fraction`` coefficients for values that leave the package, is built on
    each read. Arithmetic stays on ints.
    """

    __slots__ = ("ring", "degree", "re", "den", "flag")

    def __new__(cls, ring: IntersectionRing, degree: int, re: Sequence[int],
                den: int = 1, flag: str = FLAG_NONE):
        if not 0 <= degree <= ring.n:
            raise DegreeError(f"degree {degree} outside 0..{ring.n}")
        h = ring.hodge[degree]
        if len(re) != h:
            raise DegreeError(f"degree {degree} needs {h} coefficients, got {len(re)}")
        if den < 1:
            raise ValueError(f"a class denominator must be a positive integer, got {den}")
        if flag != FLAG_NONE:
            if flag not in FLAGS:
                raise FlagError(f"unknown positivity flag {flag!r}")
            if degree != 1:
                raise FlagError("kahler/nef flags only apply to real degree-1 classes")
        g = gcd(den, *re)
        if g != 1:
            re, den = [x // g for x in re], den // g
        # The slots are written through their descriptors, as __setattr__ refuses.
        c = object.__new__(cls)
        _set_ring(c, ring)
        _set_degree(c, degree)
        _set_re(c, tuple(re))
        _set_den(c, den)
        _set_flag(c, flag)
        return c

    def __setattr__(self, name, value):
        raise AttributeError("ClassVector is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.re)

    # -- linear structure ----------------------------------------------

    def __add__(self, other, sign: int = 1):
        if not isinstance(other, ClassVector):
            return NotImplemented
        _check_same_ring(self.ring, other.ring)
        if self.degree != other.degree:
            raise DegreeError(f"degree mismatch: {self.degree} vs {other.degree}")
        den = lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        return ClassVector(self.ring, self.degree,
                           [s * x + t * y for x, y in zip(self.re, other.re)], den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return self._times(-1, 1)

    def _times(self, f: int, q: int) -> "ClassVector":
        """This class times the rational f / q, for ints f and q > 0."""
        return ClassVector(self.ring, self.degree, [f * x for x in self.re], self.den * q)

    def scaled(self, factor) -> "ClassVector":
        (f,), q = _rational_ints([factor])
        return self._times(f, q)

    def __mul__(self, other):
        if isinstance(other, ClassVector):
            return wedge(self, other)
        try:
            return self.scaled(other)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.re)

    def with_flag(self, flag: str) -> "ClassVector":
        return ClassVector(self.ring, self.degree, self.re, self.den, flag)

    def __eq__(self, other):
        # Positivity flags are advisory metadata and do not affect identity.
        if not isinstance(other, ClassVector):
            return NotImplemented
        return (self.ring == other.ring
                and (self.degree, self.re, self.den) == (other.degree, other.re, other.den))

    def __hash__(self):
        return hash((self.degree, self.re, self.den))

    def __repr__(self):
        return f"ClassVector(deg={self.degree}, {self})"

    def __str__(self):
        terms = [f"{c}*{lab}" for c, lab in zip(self.coeffs, self.ring.labels(self.degree)) if c]
        return " + ".join(terms) if terms else "0"


_set_ring, _set_degree, _set_re, _set_den, _set_flag = (
    ClassVector.__dict__[name].__set__ for name in ClassVector.__slots__)


# -- ring operations -------------------------------------------------------

def _check_same_ring(a: IntersectionRing, b: IntersectionRing,
                     message: str = "classes live in different rings") -> None:
    """Raise RingMismatchError unless ``a`` and ``b`` are one ring (or equal rings);
    the identity test spares the hot paths a call to ``IntersectionRing.__eq__``."""
    if a is not b and a != b:
        raise RingMismatchError(message)


def wedge(a: ClassVector, b: ClassVector) -> ClassVector:
    """Product of two classes, unflagged; degree overflow past n is an error.

    The numerators contract once over the ring's (a.degree, b.degree) table,
    over a.den * b.den * D; a degree-0 factor goes through its unit row.
    """
    _check_same_ring(a.ring, b.ring)
    ring = a.ring
    total = a.degree + b.degree
    if total > ring.n:
        raise DegreeError(
            f"wedge of degrees {a.degree} and {b.degree} exceeds top degree {ring.n}"
        )
    return ClassVector(ring, total, *_product_ints(ring, a.degree, (a.re, a.den),
                                                   b.degree, (b.re, b.den)))


def _contract(acc: list[int], table: tuple, x: Sequence[int], y: Sequence[int]) -> None:
    """acc[k] += x_i * y_j * (D * c_ijk), summed over the table's entries."""
    for i, xi in enumerate(x):
        if xi:
            for j, out in table[i].items():
                yj = y[j]
                if yj:
                    f = xi * yj
                    for k, c in out:
                        acc[k] += f * c


def _product_ints(ring: IntersectionRing, da: int, x: tuple, db: int, y: tuple) -> tuple:
    """x * y for (numerators, den) pairs x of degree da and y of degree db, in either
    order and degree 0 included: (numerators, den_x * den_y * D), not reduced, from
    one contraction over the ring's (da, db) table."""
    acc = [0] * ring.hodge[da + db]
    _contract(acc, ring._table(da, db), x[0], y[0])
    return acc, x[1] * y[1] * ring._den


def _pair_ints(ring: IntersectionRing, da: int, x: tuple, y: tuple) -> tuple[int, int]:
    """The integral of x * y for (numerators, den) pairs x of degree da and y of degree
    n - da, as (num, den), not reduced: the product dotted with the integral's int
    weights, over the product's den times their scale."""
    (v, den), (weights, scale) = _product_ints(ring, da, x, ring.n - da, y), ring._weights
    return sum(map(mul, weights, v)), den * scale


def _omega_ints(ring: IntersectionRing, omegas: Sequence[ClassVector]) -> tuple:
    """The product of the degree-1 ``omegas`` as (numerators, den), not reduced;
    the empty product is the degree-0 unit ((1,), 1)."""
    o = (1,), 1
    for k, c in enumerate(omegas):
        o = _product_ints(ring, k, o, 1, (c.re, c.den))
    return o


def _omega_class(ring: IntersectionRing, p: int, classes: Sequence[ClassVector],
                 omega: Optional[ClassVector] = None) -> ClassVector:
    """Omega_p, the product of the n - 2p degree-1 ``classes`` that pair degree p, as
    one class from its int product; the one reader of a reference list.

    Raises :class:`DegreeError` unless 0 <= p <= n/2, there are n - 2p classes and
    each has degree 1, :class:`RingMismatchError` for a class of another ring.
    ``omega``, a reference's w, is checked with the list but not multiplied in.
    """
    n, classes = ring.n, tuple(classes)
    if not 0 <= p <= n // 2:
        raise DegreeError(f"p must satisfy 0 <= p <= {n // 2}, got {p}")
    if len(classes) != n - 2 * p:
        raise DegreeError(f"expected {n - 2 * p} reference classes for degree {p}, "
                          f"got {len(classes)}")
    for c in classes if omega is None else (omega, *classes):
        _check_same_ring(c.ring, ring, "reference classes live in different rings")
        if c.degree != 1:
            raise DegreeError(f"reference classes must have degree 1, got degree {c.degree}")
    return ClassVector(ring, n - 2 * p, *_omega_ints(ring, classes))


def _setup_ints(ring: IntersectionRing, p: int, omega: ClassVector, omega_p: tuple) -> tuple:
    """The setup data of g as pairs from :func:`_product_ints` and :func:`_pair_ints`,
    none reduced: W = w^p, Omega = ``omega_p`` (a pair of degree n - 2p, the unit
    when n = 2p), T = W * Omega and V = integral of W * T, as (num, den).

    Every product is one contraction and every integral one dot product with the
    ring's weights; no class is built and no gcd is taken.
    """
    w = w1 = omega.re, omega.den
    for k in range(1, p):
        w = _product_ints(ring, 1, w1, k, w)
    # Omega leads its products (here and in _g): the contraction loops over the
    # first factor's rows, and the unit has one.
    t = _product_ints(ring, ring.n - 2 * p, omega_p, p, w)
    return w, omega_p, t, _pair_ints(ring, p, w, t)


def power(a: ClassVector, k: int) -> ClassVector:
    """k-fold product; power(a, 0) is the identity class."""
    if k < 0:
        raise ValueError("negative powers are not defined")
    if k * a.degree > a.ring.n:
        raise DegreeError(
            f"power {k} of a degree-{a.degree} class exceeds top degree {a.ring.n}"
        )
    out = a.ring.unit()
    for _ in range(k):
        out = wedge(out, a)
    return out


def _integral(a: ClassVector) -> tuple[int, int]:
    """The integral as ints (num, den): num / den, den > 0, not reduced."""
    ring = a.ring
    if a.degree != ring.n:
        raise DegreeError(f"cannot integrate a degree-{a.degree} class on an {ring.n}-fold")
    weights, scale = ring._weights
    return sum(map(mul, weights, a.re)), a.den * scale


def integrate(a: ClassVector) -> Fraction:
    """Apply the integration functional; only top-degree classes integrate."""
    return Fraction(*_integral(a))


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


def validation_work(hodge: Sequence[int]) -> int:
    """W = sum of h_da * h_db * h_dc over every degree triple of associativity, plus
    sum of h_p^3 over the n + 1 Poincare pairings: the work of checking every triple
    and ranking every pairing, an upper bound on what :func:`validate_ring` does."""
    n = len(hodge) - 1
    return sum(hodge[da] * hodge[db] * hodge[dc]
               for da in range(1, n + 1)
               for db in range(1, n - da + 1)
               for dc in range(1, n - da - db + 1)) + sum(h ** 3 for h in hodge)


def _spanned_by_degree_1(ring: IntersectionRing) -> bool:
    """Whether each degree d in 2..n-2 is spanned by the products of degree 1 with
    degree d - 1, seen at once: every basis element of degree d is the one nonzero
    output of such a product. A degree spanned only by combinations of outputs
    reads as not spanned, and the ring takes the full check.

    With the triples (x, b, c) of x in degree 1 associating, this makes the ring
    associative, by induction on the degree of a in (a, b, c): for a = x * a',
    ((x a') b) c = (x (a' b)) c = x ((a' b) c) = x (a' (b c)) = (x a') (b c).
    A triple's first degree is at most n - 2, so no higher degree needs spanning.
    """
    return all(
        len({out[0][0] for row in ring._table(1, d - 1) for out in row.values()
             if len(out) == 1}) == ring.hodge[d]
        for d in range(2, ring.n - 1))


def validate_ring(ring: IntersectionRing) -> ValidationReport:
    """Check grading, commutativity, associativity and Poincare duality.

    Commutativity is structural. Associativity is checked on the basis triples
    whose first degree is 1; when they associate and degree 1 generates
    (:func:`_spanned_by_degree_1`), the ring is associative, and otherwise every
    triple is checked, so the issues are those of the full check, in its order.
    The pairing of degrees n - p and p is the transpose of that of p and n - p,
    so only the pairings with p <= n/2 are ranked, and each rank is reported for
    both degrees.

    The one reader of the work limit: $HODGECS_VALIDATE_LIMIT on each call,
    ``VALIDATE_LIMIT`` when unset. Raises :class:`ValidationLimitError` before
    any product or pairing rank when W (:func:`validation_work`) exceeds it.
    """
    text = os.environ.get(VALIDATE_LIMIT_ENV, "")
    if text and not text.isdecimal():
        raise ValueError(f"{VALIDATE_LIMIT_ENV} must be a nonnegative integer, got {text!r}")
    try:
        limit = int_from_str(text) if text else VALIDATE_LIMIT
    except ValueError as exc:
        raise ValueError(f"{VALIDATE_LIMIT_ENV}: {exc}") from None
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

    work = validation_work(ring.hodge)
    if work > limit:
        raise ValidationLimitError(
            f"ring {ring.name!r}: validation work W = {work} (sum of h_a*h_b*h_c over "
            f"degree triples plus sum of h_p^3 over pairings) exceeds the limit {limit}; "
            f"set {VALIDATE_LIMIT_ENV} to at least {work} to validate it"
        )

    for p, row in enumerate(ring.basis_labels):
        if len(set(row)) != len(row):
            report.add("labels", f"basis[{p}]", "duplicate labels in one degree")

    # Commutativity is structural (one canonical slot per pair). The triples run
    # in order of (da, db, dc, ia, ib, ic), so the da = 1 issues are a prefix of
    # the full check's. For each (ia, ib), both sides are formed for every ic at
    # once as int rows over D^2: left (e_a e_b) e_c, right e_a (e_b e_c).
    table, h = ring._table, ring.hodge
    checked = len(report.issues)
    for da in range(1, n + 1):
        if da == 2 and len(report.issues) == checked and _spanned_by_degree_1(ring):
            break
        for db in range(1, n - da + 1):
            ab = table(da, db)
            for dc in range(1, n - da - db + 1):
                ab_c, b_c, a_bc = table(da + db, dc), table(db, dc), table(da, db + dc)
                hc, ht = h[dc], h[da + db + dc]
                for ia in range(h[da]):
                    for ib in range(h[db]):
                        left, right = [0] * (hc * ht), [0] * (hc * ht)
                        for m, x in ab[ia].get(ib, ()):
                            for ic, out in ab_c[m].items():
                                for k, y in out:
                                    left[ic * ht + k] += x * y
                        for ic, out in b_c[ib].items():
                            for m, x in out:
                                for k, y in a_bc[ia].get(m, ()):
                                    right[ic * ht + k] += x * y
                        if left == right:
                            continue
                        for ic in range(hc):
                            if left[ic * ht:(ic + 1) * ht] != right[ic * ht:(ic + 1) * ht]:
                                report.add(
                                    "associativity",
                                    f"({da},{ia})*({db},{ib})*({dc},{ic})",
                                    "products do not associate",
                                )

    # The grading is palindromic, so pairing n - p, the transpose of pairing p, is
    # square of the same size and rank.
    ranks = [ring._pairing(p).rank() for p in range(n // 2 + 1)]
    for p in range(n + 1):
        rank = ranks[min(p, n - p)]
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


def class_columns(classes: Sequence[ClassVector], rows: int) -> Matrix:
    """Classes with ``rows`` coefficients as the int columns of one matrix."""
    den = lcm(*(c.den for c in classes))
    return Matrix._of([[c.re[k] * (den // c.den) for c in classes] for k in range(rows)],
                      den, len(classes))


def multiplication_matrix(ring: IntersectionRing, p: int, by: ClassVector) -> Matrix:
    """Matrix of the map (wedge with the class ``by``) from degree p, in the ring bases.

    ``by``'s numerators are scattered through the ring's (p, deg(by)) table into
    int rows over by.den * D.
    """
    _check_same_ring(by.ring, ring)
    d, cols = by.degree, ring.dim(p)
    if p + d > ring.n:
        raise DegreeError(f"wedge of degrees {p} and {d} exceeds top degree {ring.n}")
    rows = [[0] * cols for _ in range(ring.hodge[p + d])]
    for i, row in enumerate(ring._table(p, d)):
        for j, out in row.items():
            if yj := by.re[j]:
                for k, c in out:
                    rows[k][i] += yj * c
    return Matrix._of(rows, by.den * ring._den, cols)


def form_matrix(ring: IntersectionRing, p: int, by: ClassVector) -> Matrix:
    """Matrix of (a, b) -> integral of a * b * ``by``, in the ring bases.

    Rows run over degree p, columns over degree q = n - p - deg(by): the
    ring's pairing of degrees p x (n - p) times the operator of ``by`` on degree q,
    which is built first, as it raises for a p outside the grading.
    """
    operator = multiplication_matrix(ring, ring.n - p - by.degree, by)
    return ring._pairing(p) @ operator


def sanity_check_kahler(ring: IntersectionRing, w: ClassVector) -> KahlerCheckReport:
    """Necessary (not sufficient) conditions for a degree-1 class to be Kahler.

    Checks positive volume, injectivity of multiplication up to the middle
    degree and the Lorentzian signature (1, h^(1,1)-1, 0) of the degree-1 form,
    both eliminations over the rationals, and the cone side: integral of
    w^(n-1) * k > 0 for every declared Kahler sample k, as mixed volumes of
    Kahler classes are positive. The "real" entry always passes, as every
    class is rational; reports keep it. :func:`as_kahler` returns the
    reflagged class once this passes.
    """
    if w.degree != 1:
        raise DegreeError("only degree-1 classes can be Kahler")
    checks: list[KahlerCheck] = []
    n = ring.n
    powers = tuple(accumulate([w] * n, wedge, initial=ring.unit()))

    checks.append(KahlerCheck("real", True, "coefficients real"))
    vol = integrate(powers[n])
    checks.append(KahlerCheck("volume", vol > 0, f"integral of w^{n} = {vol}"))

    for p in range((n + 1) // 2):
        rank = multiplication_matrix(ring, p, w).rank()
        checks.append(
            KahlerCheck(
                f"lefschetz-injectivity p={p}", rank == ring.dim(p),
                f"rank {rank} of {ring.dim(p)}",
            )
        )

    if n >= 2:
        h1 = ring.dim(1)
        sig = form_matrix(ring, 1, powers[n - 2]).inertia()
        ok = sig == (1, h1 - 1, 0)
        checks.append(
            KahlerCheck(
                "degree1-signature", ok,
                f"inertia {sig}, expected (1, {h1 - 1}, 0)",
            )
        )

    names = [s.name for s in ring.samples if s.flag == FLAG_KAHLER]
    sides = [(name, integrate(wedge(powers[n - 1], k)))
             for name, k in zip(names, ring.kahler_samples())]
    values = ", ".join(f"{name} {v}" for name, v in sides)
    checks.append(KahlerCheck(
        "cone-side", all(v > 0 for _, v in sides),
        f"integral of w^{n - 1} * k for kahler samples k: {values}" if sides
        else "skipped: the ring declares no kahler sample",
    ))

    return KahlerCheckReport(ring.name, checks)


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

    ``omega_p`` is the product Omega_p of the w_i and ``rung(0)`` of the
    products w^k * Omega_p. The mode is strict when every reference class is
    Kahler-flagged and boundary when nef classes occur.
    """

    p: int
    omega: ClassVector
    omegas: tuple[ClassVector, ...]
    omega_p: ClassVector
    mode: str
    _rungs: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def ring(self) -> IntersectionRing:
        return self.omega.ring

    def rung(self, k: int) -> ClassVector:
        """w^k * Omega_p for 0 <= k <= 2p, built on first read from the rung below, so
        reading rung k builds none above it. Each rung is stored by ``setdefault``: of
        two threads' builds of one rung the first is kept, at its own index."""
        rungs = self._rungs
        for j in range(len(rungs), k + 1):
            rungs.setdefault(j, wedge(rungs[j - 1], self.omega) if j else self.omega_p)
        return rungs[k]

    @cached_property
    def volume(self) -> Fraction:
        """The integral of w^(2p) * Omega_p, the top rung."""
        return integrate(self.rung(2 * self.p))

    @cached_property
    def _ints(self) -> tuple:
        """W = w^p, Omega_p, T = W * Omega_p and V on ints (:func:`_setup_ints`), built once
        from ``omega_p``."""
        o = self.omega_p
        return _setup_ints(self.ring, self.p, self.omega, (o.re, o.den))

    @cached_property
    def omega_power(self) -> ClassVector:
        """w^p, from the int setup data."""
        w, w_den = self._ints[0]
        return ClassVector(self.ring, self.p, w, w_den)

    @cached_property
    def levels(self) -> tuple[tuple[int, ClassVector, tuple, int], ...]:
        """Levels i = p .. 1 of the Lefschetz decomposition: (i, C_i, rows, den) with
        C_i = w^(2(p-i)+1) * Omega_p and rows / den the inverse of r -> r * w * C_i
        on degree i-1; built on first use, a singular map raises."""
        p = self.p
        levels = []
        for i in range(p, 0, -1):
            lower = multiplication_matrix(self.ring, i - 1, self.rung(2 * (p - i) + 2))
            inverse = lower.inverse()
            if inverse is None:
                raise SingularSplitError(
                    f"level {i}: the Lefschetz map on degree {i - 1} is "
                    f"{lower.rows}x{lower.cols} of rank {lower.rank()}; "
                    f"the reference classes are not Kahler"
                )
            levels.append((i, self.rung(2 * (p - i) + 1), inverse.num, inverse.den))
        return tuple(levels)

    def check_class(self, alpha: ClassVector) -> None:
        """Raise unless ``alpha`` is a degree-p class of the setup's ring."""
        _check_same_ring(self.ring, alpha.ring, "class belongs to a different ring")
        if alpha.degree != self.p:
            raise DegreeError(f"expected a degree-{self.p} class, got degree {alpha.degree}")

    def describe(self) -> str:
        ws = ", ".join(str(w) for w in self.omegas) or "(empty)"
        return f"p={self.p}, w={self.omega}, reference=[{ws}], mode={self.mode}"


def _check_setup_p(ring: IntersectionRing, p: int) -> None:
    """Raise DegreeError unless 1 <= p <= n/2: the one range check of a setup's p."""
    if not 1 <= p <= ring.n // 2:
        raise DegreeError(f"p must satisfy 1 <= p <= {ring.n // 2}, got {p}")


def mixed_setup(p: int, omega: ClassVector, omegas: Sequence[ClassVector]) -> MixedSetup:
    """The degree-p setup of w = ``omega`` and w_1 .. w_(n-2p) = ``omegas``; Omega_p is
    formed here, once, by :func:`_omega_class`, which checks the count, the ring and
    degree 1. This checks 1 <= p <= n/2 first (:func:`_check_setup_p`) and the flags
    after: each class kahler or nef (:class:`FlagError`); all kahler makes it strict.
    """
    _check_setup_p(omega.ring, p)
    omegas = tuple(omegas)
    omega_p = _omega_class(omega.ring, p, omegas, omega)
    flags = {w.flag for w in (omega, *omegas)}
    if not flags <= set(POSITIVE_FLAGS):
        raise FlagError("reference classes must be flagged kahler or nef "
                        "(see sanity_check_kahler / with_flag)")
    mode = MODE_STRICT if flags == {FLAG_KAHLER} else MODE_BOUNDARY
    return MixedSetup(p, omega, omegas, omega_p, mode)
