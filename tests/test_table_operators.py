"""Operator matrices read off the ring's table, and the int level loop of the
decomposition, at their edges.

``multiplication_matrix`` raises past the top degree, ``form_matrix`` builds
its operator before it reads a pairing, and degree 0 acts through the table,
even in a ring with two degree-0 basis elements, which fails validation.
``wedge``, ``multiplication_matrix`` and the pairings all read the ring's one
table per ordered degree pair, so the independent check is the ``Fraction``
loop over ``ring.products`` (``_old_wedge``) in both factor orders, and the
ring's ``integral`` vector for the pairings of degrees 0 and n. On rings whose structure constants are not integers
(D != 1, unlike the zoo rings), every product of numerators adds a factor D
to its denominator: in the decomposition's levels and in the setup data
``verify`` evaluates g from. Both are checked against routes that form
classes: reconstruction, the decomposition's g and the three-wedge g.
"""

from fractions import Fraction
from math import lcm

import pytest

from hodgecs import zoo
from hodgecs.errors import DegreeError
from hodgecs.inequalities import compute_g_decomposed, compute_g_direct, verify_theorem
from hodgecs.linalg import Matrix
from hodgecs.ring import (ClassVector, IntersectionRing, class_columns, form_matrix,
                          multiplication_matrix, wedge)
from hodgecs.sampling import random_strict_setup, sample_random_class
from test_inequalities import _g_three_wedges
from test_int_matrix import _p1_fifth, _scaled
from test_ring_ints import _old_wedge, _rescaled
from test_validate_batched import bundle_load_entries


def test_matrices_reject_degrees_past_the_top():
    ring = zoo.get("blp4").ring
    by = ring.class_vector(2, [1] * ring.dim(2))
    with pytest.raises(DegreeError, match="exceeds top degree 4"):
        multiplication_matrix(ring, 3, by)
    with pytest.raises(DegreeError):
        multiplication_matrix(ring, 5, ring.unit())
    with pytest.raises(DegreeError):
        form_matrix(ring, 3, by)
    # A degree outside the grading raises before the ring caches a pairing for it.
    with pytest.raises(DegreeError):
        form_matrix(ring, 5, ring.unit())
    assert 5 not in ring._pairings


def test_degree_zero_acts_as_in_wedge_on_a_ring_that_fails_validation():
    # h^(0,0) = 2: the unit, basis element 0, is the identity and the other
    # degree-0 element multiplies to zero, as wedge reads only re[0].
    ring = IntersectionRing("two-units", 2, (2, 2, 1), [["u", "v"], ["a", "b"], ["t"]],
                            {(1, 0, 1, 0): [1], (1, 1, 1, 1): [Fraction(1, 2)]}, [3])
    classes = (ClassVector(ring, 0, [3, 5], 2), ClassVector(ring, 0, [-1, 2], 1),
               ClassVector(ring, 1, [1, 4], 3), ClassVector(ring, 1, [-2, 0], 5),
               ClassVector(ring, 2, [7], 1))
    for by in classes:
        for p in range(ring.n - by.degree + 1):
            columns = [wedge(ring.basis_class(p, i), by) for i in range(ring.dim(p))]
            assert multiplication_matrix(ring, p, by) == class_columns(
                columns, ring.dim(p + by.degree)), (p, by)
    # wedge against the Fraction loop, in both factor orders, for every ordered
    # degree pair, degree 0 included; here and on rings that pass validation.
    rings = [ring, zoo.get("blp4").ring, _scaled(zoo.get("flag3").ring)]
    for r in rings:
        cs = classes if r is ring else [
            r.class_vector(d, [Fraction((s * i + d) % 7 - 3, 1 + i % 3) for i in range(r.dim(d))])
            for d in range(r.n + 1) for s in (3, 5)]
        for a in cs:
            for b in cs:
                if a.degree + b.degree <= r.n:
                    assert wedge(a, b).coeffs == _old_wedge(a, b), (r.name, a, b)
                    assert wedge(b, a).coeffs == _old_wedge(b, a), (r.name, a, b)
    # The pairings of degrees 0 and n read the unit row: the integral, as a row
    # and as a column.
    for name in zoo.list_entries():
        r = zoo.get(name).ring
        assert r._pairing(0) == Matrix([list(r.integral)]), name
        assert r._pairing(r.n) == Matrix([[c] for c in r.integral]), name


def test_first_read_builds_every_table_sharing_each_product_with_its_transpose():
    entry = zoo.projective_space(1, "a")
    for label in "bcd":
        entry = zoo.product(entry, zoo.projective_space(1, label))
    for r in [zoo.get(name).ring for name in zoo.list_entries()] + [entry.ring]:
        ring = IntersectionRing(r.name, r.n, r.hodge, r.basis_labels, r.products, r.integral)
        assert ring._tables == {}
        ring._table(0, 0)
        assert set(ring._tables) == {(a, b) for a in range(ring.n + 1)
                                     for b in range(ring.n + 1 - a)}, ring.name
        for (a, i, b, j) in ring.products:
            assert ring._tables[b, a][j][i] is ring._tables[a, b][i][j], (ring.name, a, i, b, j)


def _dense_tables(ring) -> tuple[int, dict]:
    """D, the lcm of every entry's denominator, and every table as the ring files
    it, from each product cleared whole over D, zeros included."""
    den = lcm(*(c.denominator for out in ring.products.values() for c in out))
    h = ring.hodge
    tables = {(a, b): tuple({} for _ in range(h[a]))
              for a in range(ring.n + 1) for b in range(ring.n + 1 - a)}
    for b in range(ring.n + 1):
        for j in range(h[b]):
            tables[0, b][0][j] = tables[b, 0][j][0] = ((j, den),)
    for (a, i, b, j), out in ring.products.items():
        cleared = [c.numerator * (den // c.denominator) for c in out]
        tables[a, b][i][j] = tables[b, a][j][i] = tuple((k, c) for k, c in enumerate(cleared) if c)
    return den, tables


class _Q(Fraction):
    """A Fraction subclass: its vectors take the constructor's conversion, not the
    path of vectors of exact Fractions."""


def test_denominator_and_tables_match_the_dense_build_for_every_vector_type():
    rings = [zoo.get(name).ring for name in zoo.list_entries()]
    rings += [entry.ring for entry in bundle_load_entries().values()]
    rings += [_rescaled(zoo.get("blp3").ring), _scaled(zoo.get("flag3").ring)]
    assert {r._den for r in rings} > {1}
    for ring in rings:
        den, tables = _dense_tables(ring)
        integral = all(c.denominator == 1 for out in ring.products.values() for c in out)
        variants = {
            "fractions": ring.products,
            "lists": {k: list(out) for k, out in ring.products.items()},
            "mixed": {k: tuple(int(c) if i % 2 and c.denominator == 1 else c
                               for i, c in enumerate(out)) for k, out in ring.products.items()},
            "subclass": {k: tuple(map(_Q, out)) for k, out in ring.products.items()},
        }
        if integral:
            variants["ints"] = {k: tuple(map(int, out)) for k, out in ring.products.items()}
        for kind, products in variants.items():
            built = IntersectionRing(ring.name, ring.n, ring.hodge, ring.basis_labels,
                                     products, ring.integral, ring.samples)
            where = (ring.name, kind)
            assert built.products == ring.products, where
            assert all(type(out) is tuple and all(isinstance(c, Fraction) for c in out)
                       for out in built.products.values()), where
            assert built._den == den, where
            for (a, b), table in tables.items():
                assert built._table(a, b) == table, (*where, a, b)


def test_decomposition_and_g_on_rings_with_fractional_constants():
    # The scalings are positive, so the Kahler samples stay Kahler.
    for ring in (_scaled(zoo.get("flag3").ring), _scaled(zoo.get("quadric4").ring),
                 _scaled(_p1_fifth())):
        assert ring._den != 1
        for p in range(1, ring.n // 2 + 1):
            setup = random_strict_setup(ring, p, 7, seed=13, index=p)
            for alpha in (sample_random_class(ring, p, 7, seed=14, index=p),
                          sample_random_class(ring, p, 7, seed=15, index=p)):
                dec = compute_g_decomposed(alpha, setup)
                assert dec.decomposition.reconstruct() == alpha, (ring.name, p)
                assert all(c.is_zero for c in dec.decomposition.certificates)
                assert dec.value == compute_g_direct(alpha, setup) == _g_three_wedges(alpha, setup)
            report = verify_theorem(ring, p, 6, seed=16)
            for record in report.records:
                drawn = random_strict_setup(ring, p, 10, 16, record.index)
                assert record.g_value == _g_three_wedges(record.alpha, drawn), (ring.name, p)
