"""Zoo builders and bundled ring data."""

import itertools
from fractions import Fraction

import pytest

from hodgecs import zoo
from hodgecs.errors import UnknownRingError
from hodgecs.lefschetz import hr_check
from hodgecs.ring import (
    FLAG_KAHLER,
    FLAG_NEF,
    IntersectionRing,
    RingSample,
    canonical_product_key,
    integrate,
    power,
    sanity_check_kahler,
    validate_ring,
)
from hodgecs.sampling import random_strict_setup


def test_projective_space_gradings():
    assert zoo.get("p1").ring.hodge == (1, 1)
    p4 = zoo.get("p4").ring
    assert p4.hodge == (1, 1, 1, 1, 1)
    assert integrate(power(p4.sample("h"), 4)) == 1


def test_blowup_data():
    b2 = zoo.get("blp2").ring
    assert integrate(power(b2.class_vector(1, [1, 0]), 2)) == 1
    assert integrate(power(b2.class_vector(1, [0, 1]), 2)) == -1
    b4 = zoo.get("blp4").ring
    assert b4.hodge == (1, 2, 2, 2, 1)
    assert integrate(power(b4.class_vector(1, [0, 1]), 4)) == -1
    assert integrate(power(b4.sample("omega"), 4)) == 15
    assert not sanity_check_kahler(b4, b4.class_vector(1, [0, 1])).passed


def test_product_gradings():
    assert zoo.get("p1xp1").ring.hodge == (1, 2, 1)
    # Convolution of (1,1) and (1,1,1).
    assert zoo.get("p1xp2").ring.hodge == (1, 2, 2, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: zoo.projective_space(0), "projective space needs n >= 1"),
    (lambda: zoo.blowup_pn(1), "point blow-up needs n >= 2"),
], ids=["p0", "blp1"])
def test_builders_refuse_small_dimensions(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert (type(err.value), str(err.value)) == (ValueError, message)


def test_product_of_equal_factors_relabels():
    entry = zoo.product(zoo.projective_space(1, "a"), zoo.projective_space(1, "b"))
    assert entry.ring.labels(1) == ("a", "b")
    assert entry.ring.labels(2) == ("a.b",)


def test_product_label_collision_rejected():
    with pytest.raises(ValueError, match="collision"):
        zoo.product(zoo.projective_space(1), zoo.projective_space(1))


def test_product_composes():
    from hodgecs.lefschetz import hr_check

    triple = zoo.product(
        zoo.product(zoo.projective_space(1, "a"), zoo.projective_space(1, "b")),
        zoo.projective_space(1, "c"),
        name="p1cubed",
    )
    ring = triple.ring
    assert ring.hodge == (1, 3, 3, 1)
    assert ring.labels(3) == ("a.b.c",)
    assert validate_ring(ring).ok
    w = ring.sample("a+b+c")
    assert sanity_check_kahler(ring, w).passed
    report = hr_check(ring, 1, w.with_flag("kahler"), [w.with_flag("kahler")])
    assert report.passed and report.primitive.dim == 2


def test_bundled_quadric4():
    ring = zoo.get("quadric4").ring
    assert ring.hodge == (1, 1, 2, 1, 1)
    assert integrate(power(ring.sample("h"), 4)) == 2
    from hodgecs.inequalities import hodge_condition
    assert hodge_condition(ring, 2, "cs").holds


def test_bundled_flag3():
    ring = zoo.get("flag3").ring
    assert ring.hodge == (1, 2, 2, 1)
    assert ring.dim(1) == ring.dim(2) == 2
    assert integrate(power(ring.sample("rho"), 3)) == 6


def test_unknown_names_error():
    with pytest.raises(UnknownRingError):
        zoo.get("nope")
    with pytest.raises(UnknownRingError):
        zoo.load_bundled("missing-file")


def test_data_directory_override(tmp_path, monkeypatch):
    from hodgecs.bundle import serialize_ring_bundle

    ring = zoo.get("quadric4").ring
    text = serialize_ring_bundle(ring).replace('"name": "quadric4"', '"name": "q4-local"')
    (tmp_path / "quadric4.json").write_text(text)
    monkeypatch.setenv(zoo.DATA_ENV_VAR, str(tmp_path))
    entry = zoo.load_bundled("quadric4")
    assert entry.ring.name == "q4-local"
    monkeypatch.delenv(zoo.DATA_ENV_VAR)
    assert zoo.load_bundled("quadric4").ring.name == "quadric4"


def test_every_entry_passes_all_validators():
    for name in zoo.list_entries():
        ring = zoo.get(name).ring
        assert validate_ring(ring).ok, name
        assert ring.hodge == tuple(reversed(ring.hodge)), name
        for sample in ring.kahler_samples():
            assert sanity_check_kahler(ring, sample).passed, name
        for p in range(1, ring.n // 2 + 1):
            setup = random_strict_setup(ring, p, 4, seed=1, index=p)
            report = hr_check(ring, p, setup.omega, setup.omegas)
            assert report.passed, (name, p, str(report))


def _old_basis_product(r, a, i, b, j):
    """The coefficients of e_(a,i) * e_(b,j), read off the ring's products; degree 0 is the unit."""
    if a == 0 or b == 0:
        return [int(k == (j if a == 0 else i)) for k in range(r.hodge[a + b])]
    return r.products.get(canonical_product_key(a, i, b, j), ())


def _old_product(e1, e2, name=None):
    """The pair-scan Kunneth product: every ordered pair of product basis elements."""
    r1, r2 = e1.ring, e2.ring
    n = r1.n + r2.n
    name = name or f"{r1.name}x{r2.name}"

    triples, index, labels = [], [], []
    for p in range(n + 1):
        row = []
        for a in range(min(p, r1.n), max(0, p - r2.n) - 1, -1):
            for i in range(r1.dim(a)):
                for j in range(r2.dim(p - a)):
                    row.append((a, i, j))
        triples.append(row)
        index.append({t: k for k, t in enumerate(row)})
        labels.append([
            zoo._join_label(r1.labels(a)[i], r2.labels(p - a)[j]) for (a, i, j) in row
        ])
    hodge = [len(row) for row in triples]
    for p, row in enumerate(labels):
        if len(set(row)) != len(row):
            raise ValueError(
                f"label collision in degree {p} of {name}; relabel a factor first"
            )

    products_table = {}
    flat = [(p, k) for p in range(1, n + 1) for k in range(hodge[p])]
    for x, (da, ka) in enumerate(flat):
        a1, i1, j1 = triples[da][ka]
        for db, kb in flat[x:]:
            if da + db > n:
                continue
            a2, i2, j2 = triples[db][kb]
            if a1 + a2 > r1.n or (da - a1) + (db - a2) > r2.n:
                continue
            v1 = _old_basis_product(r1, a1, i1, a2, i2)
            v2 = _old_basis_product(r2, da - a1, j1, db - a2, j2)
            out = [Fraction(0)] * hodge[da + db]
            for (i, c1), (j, c2) in itertools.product(enumerate(v1), enumerate(v2)):
                if c1 and c2:
                    out[index[da + db][(a1 + a2, i, j)]] += c1 * c2
            if any(out):
                products_table[(da, ka, db, kb)] = tuple(out)

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

    ring = IntersectionRing(name, n, hodge, labels, products_table, integral, samples)
    return zoo.ZooEntry(name, ring, f"product of {r1.name} and {r2.name} (Kunneth)")


def _assert_same_product(build):
    """zoo.product and the pair scan give the same entry, or the same refusal."""
    try:
        old = build(_old_product)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            build(zoo.product)
        assert str(caught.value) == str(exc)
        return False
    new = build(zoo.product)
    assert new.ring == old.ring
    assert new.ring.hodge == old.ring.hodge
    assert new.ring.basis_labels == old.ring.basis_labels
    assert list(new.ring.products.items()) == list(old.ring.products.items())
    assert new.ring.samples == old.ring.samples
    assert new.note == old.note
    return True


def test_product_matches_the_pair_scan_on_zoo_pairs():
    """Every ordered pair of zoo entries, a label collision included."""
    built = [_assert_same_product(lambda product: product(zoo.get(a), zoo.get(b)))
             for a, b in itertools.product(zoo.list_entries(), repeat=2)]
    assert 0 < sum(built) < len(built)


@pytest.mark.parametrize("k, n", [(k, 1) for k in range(2, 8)] + [(3, 2)])
def test_product_matches_the_pair_scan_on_powers(k, n):
    """(P^n)^k by successive products, one label per factor."""
    def build(product):
        entry = zoo.projective_space(n, "x0")
        for i in range(1, k):
            entry = product(entry, zoo.projective_space(n, f"x{i}"))
        return entry

    assert _assert_same_product(build)
