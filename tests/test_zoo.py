"""Zoo builders and bundled ring data."""

import pytest

from hodgecs import zoo
from hodgecs.errors import UnknownRingError
from hodgecs.lefschetz import hr_check
from hodgecs.ring import integrate, power, sanity_check_kahler, validate_ring
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
