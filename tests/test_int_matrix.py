"""The int-native operator and form matrices, and the path from them to elimination.

``multiplication_matrix`` and ``form_matrix`` fill int rows from class
numerators and the ring's int pairing. They are checked entry by entry
against the public route: ``wedge(...).coeffs`` and
``integrate(wedge(...))`` per basis pair. From these matrices to ranks, kernels,
inverses, inertias and products no ``Fraction`` is built: a profile hook sees
no call of a constructor from ``fractions`` there.
"""

import fractions
import sys
from collections import Counter
from fractions import Fraction

from hodgecs import zoo
from hodgecs.lefschetz import gram_matrix_Q, primitive_basis
from hodgecs.linalg import Matrix
from hodgecs.ring import (
    ClassVector,
    IntersectionRing,
    class_columns,
    form_matrix,
    integrate,
    multiplication_matrix,
    wedge,
)
from hodgecs.sampling import random_strict_setup, sample_random_class


def _p1_fifth():
    entry = zoo.projective_space(1, "a")
    for label in "bcde":
        entry = zoo.product(entry, zoo.projective_space(1, label))
    return entry.ring


def _scaled(ring):
    """Every product times 1/3 and the integral times 2/5: still associative, with
    fractional structure constants and integral weights, unlike the zoo rings."""
    products = {k: [x * Fraction(1, 3) for x in out] for k, out in ring.products.items()}
    return IntersectionRing(ring.name, ring.n, ring.hodge, ring.basis_labels, products,
                            [x * Fraction(2, 5) for x in ring.integral], ring.samples)


def _rings():
    for name in zoo.list_entries():
        yield zoo.get(name).ring
    yield _p1_fifth()
    yield zoo.blowup_pn(8).ring
    yield _scaled(zoo.get("flag3").ring)
    yield _scaled(zoo.get("quadric4").ring)


def _check_matrices(ring, p, by):
    basis = [ring.basis_class(p, i) for i in range(ring.dim(p))]
    m = multiplication_matrix(ring, p, by)
    target = ring.dim(p + by.degree)
    assert (m.rows, m.cols) == (target, len(basis))
    for i, e in enumerate(basis):
        column = wedge(e, by).coeffs
        assert [m[k, i] for k in range(target)] == list(column), (ring.name, p, i)

    q = ring.n - p - by.degree
    f = form_matrix(ring, p, by)
    assert (f.rows, f.cols) == (len(basis), ring.dim(q))
    for i, e in enumerate(basis):
        for j in range(ring.dim(q)):
            expected = integrate(wedge(e, wedge(ring.basis_class(q, j), by)))
            assert f[i, j] == expected, (ring.name, p, i, j)


def test_matrices_match_the_gaussian_route():
    for ring in _rings():
        n = ring.n
        # Random classes in every degree pair the ring admits.
        for p in range(n + 1):
            for k in range(n - p + 1):
                _check_matrices(ring, p, sample_random_class(ring, k, 7, seed=11, index=p * 10 + k))
        # The classes a setup multiplies by: Omega_p and w * Omega_p.
        for p in range(1, n // 2 + 1):
            setup = random_strict_setup(ring, p, 7, seed=12, index=p)
            _check_matrices(ring, p, setup.omega_p)
            _check_matrices(ring, p, wedge(setup.omega, setup.omega_p))


# Every Fraction is made by __new__ or, on Python 3.12+, by _from_coprime_ints.
CONSTRUCTORS = {
    (fractions.__file__, "__new__"),
    (fractions.__file__, "_from_coprime_ints"),
}


def _constructions(fn):
    """Run ``fn()``; count the Fraction constructor calls."""
    seen = Counter()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and (code.co_filename, code.co_name) in CONSTRUCTORS:
            seen[code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, seen


def test_no_fraction_from_matrices_to_elimination_results():
    ring = _p1_fifth()
    p = 2
    setup = random_strict_setup(ring, p, 10, seed=5, index=0)
    rung1, rung2 = setup.rung(1), setup.rung(2)

    steps = {}

    def record(name, fn):
        result, seen = _constructions(fn)
        steps[name] = seen
        return result

    # The primitive operator, the Gram matrix and a decomposer level's map.
    op = record("multiplication_matrix", lambda: multiplication_matrix(ring, p, rung1))
    form = record("form_matrix", lambda: form_matrix(ring, p, setup.omega_p))
    lower = record("level map", lambda: multiplication_matrix(ring, p - 1, rung2))
    rank = record("rank", op.rank)
    kernel = record("kernel", op.kernel)
    inverse = record("inverse", lower.inverse)
    inertia = record("inertia", form.inertia)
    basis = [ClassVector(ring, p, row, kernel.den) for row in kernel.num]
    cols = class_columns(basis, form.rows)
    restricted = record("@", lambda: cols.transpose() @ form @ cols)
    signed = record("negation", lambda: -form)
    assert {name: dict(seen) for name, seen in steps.items() if seen} == {}
    # The hook does see a construction where there is one.
    assert _constructions(lambda: Fraction(1, 2))[1]["__new__"] == 1

    # The results are what their callers rely on.
    assert rank + kernel.rows == ring.dim(p)
    assert tuple(basis) == primitive_basis(ring, p, setup.omega, setup.omegas).basis
    assert lower @ inverse == Matrix.identity(lower.rows)
    assert inertia == gram_matrix_Q(ring, p, setup.omegas).unsigned_inertia
    assert restricted.inertia() == (kernel.rows, 0, 0)
    assert all(signed[i, j] == -form[i, j] for i in range(form.rows) for j in range(form.cols))
