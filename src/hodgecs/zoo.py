"""Builders and bundled data for concrete manifolds with known even cohomology.

Every entry ships with user-declared Kahler cone samples (and, where they
exist, nef boundary samples); the builders only declare classes that pass the
sanity gate, e.g. aH - bE on a point blow-up needs a > b > 0. Bundled rings
(the quadric fourfold and the full flag threefold) live as data files so they
can be inspected, diffed and extended without touching code.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Sequence

from .errors import UnknownRingError
from .ring import (
    FLAG_KAHLER,
    FLAG_NEF,
    IntersectionRing,
    RingSample,
)

DATA_ENV_VAR = "HODGECS_DATA_DIR"


@dataclass(frozen=True)
class ZooEntry:
    name: str
    ring: IntersectionRing
    note: str


def _with_samples(ring: IntersectionRing, samples: Sequence[RingSample]) -> IntersectionRing:
    return IntersectionRing(
        ring.name, ring.n, ring.hodge, ring.basis_labels,
        ring.products, ring.integral, samples,
    )


def projective_space(n: int, label: str = "h") -> ZooEntry:
    """Complex projective n-space: one class per degree, integral of h^n = 1."""
    if n < 1:
        raise ValueError("projective space needs n >= 1")
    labels = [["1"]] + [[label if p == 1 else f"{label}^{p}"] for p in range(1, n + 1)]
    products = {}
    for a in range(1, n + 1):
        for b in range(a, n - a + 1):
            products[(a, 0, b, 0)] = (Fraction(1),)
    ring = IntersectionRing(
        f"p{n}", n, [1] * (n + 1), labels, products, [Fraction(1)],
        samples=[RingSample(label, FLAG_KAHLER, (Fraction(1),))],
    )
    return ZooEntry(ring.name, ring, f"projective {n}-space; cone = positive multiples of {label}")


def blowup_pn(n: int) -> ZooEntry:
    """Projective n-space blown up in a point.

    Degree-1 basis {H, E} with H*E = 0, integral of H^n = 1 and of
    E^n = (-1)^(n-1); grading (1, 2, ..., 2, 1). Kahler classes are exactly
    aH - bE with a > b > 0.
    """
    if n < 2:
        raise ValueError("point blow-up needs n >= 2")
    hodge = [1] + [2] * (n - 1) + [1]
    labels = [["1"]]
    for p in range(1, n):
        labels.append(["H" if p == 1 else f"H^{p}", "E" if p == 1 else f"E^{p}"])
    labels.append(["[pt]"])
    e_top = Fraction((-1) ** (n - 1))
    products = {}
    for a in range(1, n):
        for b in range(a, n - a + 1):
            if a + b < n:
                products[(a, 0, b, 0)] = (Fraction(1), Fraction(0))
                products[(a, 1, b, 1)] = (Fraction(0), Fraction(1))
            else:
                products[(a, 0, b, 0)] = (Fraction(1),)
                products[(a, 1, b, 1)] = (e_top,)
    samples = [
        RingSample("omega", FLAG_KAHLER, (Fraction(2), Fraction(-1))),
        RingSample("omega2", FLAG_KAHLER, (Fraction(3), Fraction(-2))),
        RingSample("hyperplane", FLAG_NEF, (Fraction(1), Fraction(0))),
    ]
    ring = IntersectionRing(f"blp{n}", n, hodge, labels, products, [Fraction(1)], samples)
    return ZooEntry(
        ring.name, ring,
        f"one-point blow-up of p{n}; cone = aH - bE with a > b > 0",
    )


def _join_label(u: str, v: str) -> str:
    if u == "1":
        return v
    if v == "1":
        return u
    return f"{u}.{v}"


def _nonzero_products(r: IntersectionRing) -> list:
    """Every nonzero product e_(a,i) * e_(b,j) of r as (a, i, b, j, ((k, c_k), ...)):
    the unit e_(0,0) times each basis element, and the ring's products, in both orders."""
    unit = [(0, 0, d, k, ((k, Fraction(1)),)) for d in range(r.n + 1) for k in range(r.hodge[d])]
    out = unit + [(d, k, 0, 0, v) for _, _, d, k, v in unit[1:]]
    for (da, ia, db, ib), v in r.products.items():
        terms = tuple((k, c) for k, c in enumerate(v) if c)
        out.append((da, ia, db, ib, terms))
        if (da, ia) != (db, ib):
            out.append((db, ib, da, ia, terms))
    return out


def product(e1: ZooEntry, e2: ZooEntry, name: str | None = None) -> ZooEntry:
    """Kunneth product of two entries.

    Valid because both factors carry only diagonal (p,p) classes: the
    degree-p basis is the union over a of (degree a of the first factor)
    tensor (degree p-a of the second), products act factorwise, and the
    integral is the product of the factor integrals. As (x (x) x') * (y (x) y')
    = (x * y) (x) (x' * y'), the table takes one step per pair of nonzero factor
    products: its cost grows with the number of nonzero products.
    """
    r1, r2 = e1.ring, e2.ring
    n = r1.n + r2.n
    name = name or f"{r1.name}x{r2.name}"

    triples: list[list[tuple[int, int, int]]] = []
    index: list[dict[tuple[int, int, int], int]] = []
    labels = []
    for p in range(n + 1):
        row = []
        for a in range(min(p, r1.n), max(0, p - r2.n) - 1, -1):
            for i in range(r1.dim(a)):
                for j in range(r2.dim(p - a)):
                    row.append((a, i, j))
        triples.append(row)
        index.append({t: k for k, t in enumerate(row)})
        labels.append([
            _join_label(r1.labels(a)[i], r2.labels(p - a)[j]) for (a, i, j) in row
        ])
    hodge = [len(row) for row in triples]
    for p, row in enumerate(labels):
        if len(set(row)) != len(row):
            raise ValueError(
                f"label collision in degree {p} of {name}; relabel a factor first"
            )

    products_table = []
    second = _nonzero_products(r2)
    for a1, i1, a2, i2, v1 in _nonzero_products(r1):
        for b1, j1, b2, j2, v2 in second:
            da, db = a1 + b1, a2 + b2
            key = (da, index[da][a1, i1, j1], db, index[db][a2, i2, j2])
            if da and db and key[:2] <= key[2:]:
                out = [Fraction(0)] * hodge[da + db]
                for (k1, c1), (k2, c2) in itertools.product(v1, v2):
                    out[index[da + db][a1 + a2, k1, k2]] = c1 * c2
                products_table.append((key, tuple(out)))

    integral = [r1.integral[0] * r2.integral[0]]

    samples = []
    for s in r1.samples:
        if s.flag == FLAG_KAHLER:
            for t in r2.samples:
                if t.flag == FLAG_KAHLER:
                    samples.append(RingSample(
                        f"{s.name}+{t.name}", FLAG_KAHLER, s.coeffs + t.coeffs,
                    ))
    zeros1 = (Fraction(0),) * r1.dim(1)
    zeros2 = (Fraction(0),) * r2.dim(1)
    for s in r1.samples:
        samples.append(RingSample(f"{s.name}@1", FLAG_NEF, s.coeffs + zeros2))
    for t in r2.samples:
        samples.append(RingSample(f"{t.name}@2", FLAG_NEF, zeros1 + t.coeffs))

    ring = IntersectionRing(name, n, hodge, labels, dict(sorted(products_table)), integral, samples)
    return ZooEntry(name, ring, f"product of {r1.name} and {r2.name} (Kunneth)")


def _build_p1xp1() -> ZooEntry:
    entry = product(projective_space(1, "a"), projective_space(1, "b"), name="p1xp1")
    ring = _with_samples(entry.ring, [
        RingSample("omega", FLAG_KAHLER, (Fraction(1), Fraction(1))),
        RingSample("omega2", FLAG_KAHLER, (Fraction(2), Fraction(1))),
        RingSample("a", FLAG_NEF, (Fraction(1), Fraction(0))),
        RingSample("b", FLAG_NEF, (Fraction(0), Fraction(1))),
    ])
    return ZooEntry("p1xp1", ring, "quadric surface; cone = xa + yb with x, y > 0")


def _build_p1xp2() -> ZooEntry:
    entry = product(projective_space(1, "a"), projective_space(2, "b"), name="p1xp2")
    ring = _with_samples(entry.ring, [
        RingSample("omega", FLAG_KAHLER, (Fraction(1), Fraction(1))),
        RingSample("omega2", FLAG_KAHLER, (Fraction(1), Fraction(2))),
        RingSample("a", FLAG_NEF, (Fraction(1), Fraction(0))),
        RingSample("b", FLAG_NEF, (Fraction(0), Fraction(1))),
    ])
    return ZooEntry("p1xp2", ring, "product threefold; cone = xa + yb with x, y > 0")


def load_bundled(name: str) -> ZooEntry:
    """Load a ring shipped as a data file (or from $HODGECS_DATA_DIR).

    Parsing validates the ring, within the limit ``validate_ring`` reads.
    """
    from .bundle import parse_ring_bundle

    filename = f"{name}.json"
    override = os.environ.get(DATA_ENV_VAR)
    if override:
        path = os.path.join(override, filename)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                ring = parse_ring_bundle(fh.read(), source=path)
            return ZooEntry(name, ring, f"bundled ring data ({path})")
    try:
        text = resources.files("hodgecs").joinpath("data", filename).read_text("utf-8")
    except FileNotFoundError:
        raise UnknownRingError(f"no bundled ring named {name!r}") from None
    ring = parse_ring_bundle(text, source=f"data/{filename}")
    return ZooEntry(name, ring, f"bundled ring data ({filename})")


# Entries shipped as data files; loading one parses it, which validates it.
_BUNDLED = ("quadric4", "flag3")

_BUILDERS: dict[str, Callable[[], ZooEntry]] = {
    "p1": lambda: projective_space(1),
    "p2": lambda: projective_space(2),
    "p3": lambda: projective_space(3),
    "p4": lambda: projective_space(4),
    "blp2": lambda: blowup_pn(2),
    "blp3": lambda: blowup_pn(3),
    "blp4": lambda: blowup_pn(4),
    "p1xp1": _build_p1xp1,
    "p1xp2": _build_p1xp2,
    **{name: functools.partial(load_bundled, name) for name in _BUNDLED},
}

_CACHE: dict[str, ZooEntry] = {}


def list_entries() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def get(name: str) -> ZooEntry:
    """The entry ``name``, built and cached on first use (a bundled one is validated then)."""
    if name not in _BUILDERS:
        raise UnknownRingError(
            f"unknown zoo entry {name!r}; available: {', '.join(_BUILDERS)}"
        )
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]
