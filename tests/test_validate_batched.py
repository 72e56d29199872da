"""Batched ring validation against a per-triple oracle, and its work limit."""

import array
import fcntl
import json
import os
import subprocess
import sys
import termios
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hodgecs import zoo
from hodgecs.bundle import parse_ring_bundle, serialize_ring_bundle
from hodgecs.cli import main
from hodgecs.errors import BundleSemanticError, UnknownRingError, ValidationLimitError
from hodgecs.linalg import Matrix
from hodgecs.ring import (
    VALIDATE_LIMIT,
    IntersectionRing,
    ValidationReport,
    _spanned_by_degree_1,
    integrate,
    validate_ring,
    validation_work,
    wedge,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def oracle_validate(ring: IntersectionRing) -> ValidationReport:
    """validate_ring as three wedges per basis triple and a Matrix rank per pairing."""
    report = ValidationReport(ring.name)
    n = ring.n
    if ring.hodge[0] != 1:
        report.add("grading", "hodge[0]", f"h^(0,0) must be 1, got {ring.hodge[0]}")
    if ring.hodge[n] != 1:
        report.add("grading", f"hodge[{n}]", f"h^(n,n) must be 1, got {ring.hodge[n]}")
    for p in range(n + 1):
        if ring.hodge[p] != ring.hodge[n - p]:
            report.add(
                "poincare-duality", f"hodge[{p}]",
                f"h^({p},{p})={ring.hodge[p]} != h^({n - p},{n - p})={ring.hodge[n - p]}",
            )
        if ring.hodge[p] < 1:
            report.add("grading", f"hodge[{p}]", "graded dimension must be positive")
    if not report.ok:
        return report
    for p, row in enumerate(ring.basis_labels):
        if len(set(row)) != len(row):
            report.add("labels", f"basis[{p}]", "duplicate labels in one degree")
    for da in range(1, n + 1):
        for db in range(1, n - da + 1):
            for dc in range(1, n - da - db + 1):
                for ia in range(ring.dim(da)):
                    ea = ring.basis_class(da, ia)
                    for ib in range(ring.dim(db)):
                        eb = ring.basis_class(db, ib)
                        for ic in range(ring.dim(dc)):
                            ec = ring.basis_class(dc, ic)
                            if wedge(wedge(ea, eb), ec) != wedge(ea, wedge(eb, ec)):
                                report.add(
                                    "associativity",
                                    f"({da},{ia})*({db},{ib})*({dc},{ic})",
                                    "products do not associate",
                                )
    for p in range(n + 1):
        rank = pairing_matrix(ring, p).rank()
        if rank != ring.dim(p):
            report.add(
                "poincare-duality", f"pairing p={p}",
                f"rank {rank} < {ring.dim(p)}: pairing is degenerate",
            )
    return report


def replaced(ring: IntersectionRing, products=None, integral=None) -> IntersectionRing:
    return IntersectionRing(
        ring.name, ring.n, ring.hodge, ring.basis_labels,
        ring.products if products is None else products,
        ring.integral if integral is None else integral, ring.samples,
    )


def pairing_matrix(ring: IntersectionRing, p: int) -> Matrix:
    """The pairing of degrees p and n - p from ``integrate(wedge(...))`` per basis pair.

    ``form_matrix`` reads the ring's int pairing, as ``validate_ring`` does, so
    the oracle forms every entry through the public Fraction route.
    """
    return Matrix([[integrate(wedge(ring.basis_class(p, i), ring.basis_class(ring.n - p, j)))
                    for j in range(ring.dim(ring.n - p))] for i in range(ring.dim(p))])


def assert_same_ranks(ring: IntersectionRing) -> None:
    for p in range(ring.n + 1):
        assert ring._pairing(p).rank() == pairing_matrix(ring, p).rank(), (ring.name, p)


@pytest.mark.parametrize("name", zoo.list_entries())
def test_zoo_rings_match_the_oracle(name):
    ring = replaced(zoo.get(name).ring)   # a fresh ring has built no pairing
    assert validate_ring(ring).issues == oracle_validate(ring).issues == []
    # Pairing n - p is the transpose of pairing p: only p <= n/2 is ranked.
    assert sorted(ring._pairings) == list(range(ring.n // 2 + 1))
    assert_same_ranks(ring)


@pytest.mark.parametrize("name", zoo.list_entries())
def test_degenerate_integral_matches_the_oracle(name):
    ring = replaced(zoo.get(name).ring, integral=[Fraction(0)])
    report = validate_ring(ring)
    assert report.issues == oracle_validate(ring).issues
    assert [i.location for i in report.issues] == [f"pairing p={p}" for p in range(ring.n + 1)]
    assert sorted(ring._pairings) == list(range(ring.n // 2 + 1))
    assert_same_ranks(ring)


def test_partly_degenerate_pairing_ranks():
    # Dropping x*y from P^1 x P^1 leaves ranks 1, 0, 1 for the pairings of
    # degrees 0, 1, 2; the associativity issues come out in triple order.
    ring = zoo.get("p1xp1").ring
    x_y = next(k for k, out in ring.products.items() if k[0] == k[2] == 1 and any(out))
    broken = replaced(ring, products={k: v for k, v in ring.products.items() if k != x_y})
    report = validate_ring(broken)
    assert report.issues == oracle_validate(broken).issues
    assert str(report) == ("ring 'p1xp1': 1 problem(s)\n"
                           "  [poincare-duality] pairing p=1: rank 0 < 2: pairing is degenerate")
    assert [broken._pairing(p).rank() for p in range(3)] == [1, 0, 1]
    assert_same_ranks(broken)


def power(k: int, n: int, prefix: str = "x") -> zoo.ZooEntry:
    """(P^n)^k through zoo.product, one label family per factor."""
    entry = zoo.projective_space(n, f"{prefix}0")
    for i in range(1, k):
        entry = zoo.product(entry, zoo.projective_space(n, f"{prefix}{i}"))
    return entry


def bundle_load_entries() -> dict[str, zoo.ZooEntry]:
    """The seven ring-bundle documents of the benchmark's bundle-load workload, by
    name, built with the same zoo calls and labels."""
    return {
        "blp6": zoo.blowup_pn(6),
        "p1x4": power(4, 1),
        "blp8": zoo.blowup_pn(8),
        "p3xp3": zoo.product(zoo.projective_space(3, "u"), zoo.projective_space(3, "v")),
        "p1x3p2": zoo.product(power(3, 1), zoo.projective_space(2, "y")),
        "p2x3": power(3, 2, "y"),
        "p1x5": power(5, 1),
    }


# The zoo rings of dimension 3 or more, of which quadric4 alone is not
# generated in degree 1 and takes the full triple loop, and two rings that
# are, (P^1)^4 and blp6, whose associative mutations pass the spanning test.
MUTABLE = {**{name: zoo.get(name).ring for name in zoo.list_entries()
              if zoo.get(name).ring.n >= 3},
           "p1x4": power(4, 1).ring, "blp6": zoo.blowup_pn(6).ring}


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(MUTABLE)), data=st.data())
def test_mutated_product_record_is_rejected_where_the_oracle_rejects(name, data):
    ring = MUTABLE[name]
    doc = json.loads(serialize_ring_bundle(ring))
    rec = data.draw(st.sampled_from(doc["products"]), label="record")
    k = data.draw(st.integers(0, len(rec["out"]) - 1), label="entry")
    delta = data.draw(st.integers(-9, 9).filter(bool), label="delta")
    rec["out"][k] = str(Fraction(rec["out"][k]) + Fraction(delta, data.draw(st.integers(1, 3))))
    text = json.dumps(doc)
    mutated = IntersectionRing(ring.name, ring.n, ring.hodge, ring.basis_labels,
                               {tuple(r[f] for f in ("da", "ia", "db", "ib")):
                                [Fraction(c) for c in r["out"]] for r in doc["products"]},
                               ring.integral, ring.samples)
    expected = oracle_validate(mutated).issues
    assert validate_ring(mutated).issues == expected
    assert_same_ranks(mutated)
    if expected:
        with pytest.raises(BundleSemanticError) as err:
            parse_ring_bundle(text)
        assert err.value.issues == expected
        assert (err.value.constraint, err.value.path) == (expected[0].check, expected[0].location)
    else:
        parse_ring_bundle(text)


# -- each check once: degree-1 triples, one rank per transposed pair --------------

def test_degree_1_spans_every_ring_but_quadric4():
    spanned = {name: _spanned_by_degree_1(zoo.get(name).ring) for name in zoo.list_entries()}
    assert [name for name, ok in spanned.items() if not ok] == ["quadric4"]
    assert all(_spanned_by_degree_1(entry.ring) for entry in bundle_load_entries().values())


def test_degenerate_pairing_is_reported_at_p_and_n_minus_p():
    # Dropping E * E^3 from blp4 leaves the pairing of degrees 1 and 3
    # degenerate; its one rank is reported at p = 1 and at p = 3, after the
    # associativity issues.
    ring = zoo.get("blp4").ring
    e, e3 = ring.label_index(1, "E"), ring.label_index(3, "E^3")
    broken = replaced(ring, products={k: v for k, v in ring.products.items()
                                      if k != (1, e, 3, e3)})
    issues = validate_ring(broken).issues
    assert issues == oracle_validate(broken).issues
    assert [i.location for i in issues if i.check == "poincare-duality"] == [
        "pairing p=1", "pairing p=3"]


def unspanned_sixfold() -> IntersectionRing:
    """A 6-fold whose degree 2 holds H^2 and three classes a, b, c outside H * H.

    H kills a, b, c and their duals a', b', c' in degree 4, so every triple of
    first degree 1 associates; a * b = c' while b * c = a * c = 0, so (a * b) * c
    = pt differs from a * (b * c) = 0, a failure first met at degrees (2, 2, 2).
    """
    hodge = (1, 1, 4, 1, 4, 1, 1)
    basis = [["1"], ["H"], ["H^2", "a", "b", "c"], ["H^3"],
             ["H^4", "a'", "b'", "c'"], ["H^5"], ["pt"]]
    products = {}
    for i in range(1, 7):
        for j in range(i, 7 - i):
            products[(i, 0, j, 0)] = [1] + [0] * (hodge[i + j] - 1)
    for k in (1, 2, 3):
        products[(2, k, 4, k)] = [1]
    products[(2, 1, 2, 2)] = [0, 0, 0, 1]
    return IntersectionRing("unspanned6", 6, hodge, basis, products, [1])


def test_unspanned_ring_checks_the_triples_past_degree_1():
    ring = unspanned_sixfold()
    assert not _spanned_by_degree_1(ring)
    issues = validate_ring(ring).issues
    assert issues == oracle_validate(ring).issues
    assert [str(i) for i in issues] == [
        f"[associativity] {t}: products do not associate"
        for t in ("(2,1)*(2,2)*(2,3)", "(2,2)*(2,1)*(2,3)",
                  "(2,3)*(2,1)*(2,2)", "(2,3)*(2,2)*(2,1)")]


# -- work limit ------------------------------------------------------------------

def power_of_p1(k: int) -> str:
    """The bundle document of (P^1)^k: only the grading matters to the limit."""
    from math import comb
    hodge = [comb(k, i) for i in range(k + 1)]
    return json.dumps({
        "name": f"p1x{k}", "n": k, "hodge": hodge,
        "basis": [[f"e{p}_{i}" for i in range(h)] for p, h in enumerate(hodge)],
        "products": [], "integral": ["1"],
    })


def test_validation_work_figures():
    from math import comb
    assert validation_work([comb(7, i) for i in range(8)]) == 274_059
    assert validation_work([comb(8, i) for i in range(9)]) == 1_893_946
    assert validation_work([comb(9, i) for i in range(10)]) == 13_008_845
    assert validation_work([1, 400, 1]) == 64_000_002
    assert validation_work([comb(9, i) for i in range(10)]) > VALIDATE_LIMIT
    assert all(validation_work(zoo.get(name).ring.hodge) <= VALIDATE_LIMIT
               for name in zoo.list_entries())


def test_work_limit_is_checked_before_any_product(monkeypatch):
    ring = replaced(zoo.get("blp4").ring)   # a fresh ring has built no structure table
    monkeypatch.setenv("HODGECS_VALIDATE_LIMIT", "57")
    with pytest.raises(ValidationLimitError, match=r"W = 58 .* exceeds the limit 57"):
        validate_ring(ring)
    assert ring._tables == {} and ring._pairings == {}
    monkeypatch.setenv("HODGECS_VALIDATE_LIMIT", "58")
    assert validate_ring(ring).ok


def test_work_limit_exit_2_names_work_limit_and_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "p1x9.json"
    path.write_text(power_of_p1(9))
    monkeypatch.delenv("HODGECS_VALIDATE_LIMIT", raising=False)
    for cmd in ("validate", "info"):
        assert main([cmd, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: ring 'p1x9': validation work W = 13008845 (sum of h_a*h_b*h_c over "
            "degree triples plus sum of h_p^3 over pairings) exceeds the limit "
            f"{VALIDATE_LIMIT}; set HODGECS_VALIDATE_LIMIT to at least 13008845 to validate it\n")


def test_work_limit_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "p1x4.json"
    path.write_text(power_of_p1(4))
    monkeypatch.setenv("HODGECS_VALIDATE_LIMIT", "697")
    assert main(["info", str(path)]) == 2
    assert "W = 698 (" in capsys.readouterr().err
    monkeypatch.setenv("HODGECS_VALIDATE_LIMIT", "698")
    # Past the limit, the empty product table fails validation as usual.
    assert main(["validate", str(path)]) == 1
    assert "[associativity]" not in capsys.readouterr().out
    monkeypatch.setenv("HODGECS_VALIDATE_LIMIT", "lots")
    assert main(["validate", "zoo:p3"]) == 2
    assert capsys.readouterr().err == (
        "error: HODGECS_VALIDATE_LIMIT must be a nonnegative integer, got 'lots'\n")
    # validate_ring is the one reader: a command that validates nothing ignores it.
    assert main(["info", "zoo:p3"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("HODGECS_VALIDATE_LIMIT", "0")
    assert main(["validate", "zoo:p3"]) == 2
    assert "W = 5 (" in capsys.readouterr().err


def test_work_limit_counts_the_pairing_ranks(tmp_path, capsys, monkeypatch):
    # A 2-fold has no degree triple; its W is the cost of ranking its pairings.
    # With h^1 = 400 and a tridiagonal (nondegenerate) pairing it is refused
    # before any pairing is ranked.
    h1 = 400
    doc = {
        "name": "wide", "n": 2, "hodge": [1, h1, 1],
        "basis": [["1"], [f"e{i}" for i in range(h1)], ["pt"]],
        "products": [{"da": 1, "ia": i, "db": 1, "ib": j, "out": ["2" if i == j else "1"]}
                     for i in range(h1) for j in (i, i + 1) if j < h1],
        "integral": ["1"],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))

    def no_rank(self):
        raise AssertionError("a pairing was ranked")

    monkeypatch.setattr(Matrix, "rank", no_rank)
    monkeypatch.delenv("HODGECS_VALIDATE_LIMIT", raising=False)
    assert main(["info", str(path)]) == 2
    assert "validation work W = 64000002 (" in capsys.readouterr().err


def test_work_limit_override_reaches_bundled_zoo_entries(tmp_path, capsys, monkeypatch):
    doc = json.loads(power_of_p1(5))
    doc["name"] = "flag3"
    (tmp_path / "flag3.json").write_text(json.dumps(doc))
    monkeypatch.setenv("HODGECS_DATA_DIR", str(tmp_path))
    monkeypatch.setattr(zoo, "_CACHE", {})
    monkeypatch.setenv("HODGECS_VALIDATE_LIMIT", "5376")
    assert main(["zoo", "flag3"]) == 2
    assert "W = 5377 (" in capsys.readouterr().err
    monkeypatch.setenv("HODGECS_VALIDATE_LIMIT", "5377")
    assert main(["info", "zoo:flag3"]) == 2
    assert capsys.readouterr().err.startswith("invalid ring bundle: pairing p=1: ")


# A limit that is all decimal digits is still read by the one int reader, which
# refuses full-width digits and a literal longer than 640 digits.
@pytest.mark.parametrize("limit, message", [
    ("１２", "invalid int value: '１２'"),
    ("9" * 641, "integer literal with 641 digits exceeds the limit of 640 digits"),
], ids=["full-width digits", "641 digits"])
def test_malformed_work_limit_refuses_bundled_zoo_entries(limit, message, capsys, monkeypatch):
    monkeypatch.delenv("HODGECS_DATA_DIR", raising=False)
    monkeypatch.setattr(zoo, "_CACHE", {})
    monkeypatch.setenv("HODGECS_VALIDATE_LIMIT", limit)
    assert main(["info", "zoo:flag3"]) == 2
    assert capsys.readouterr() == ("", f"error: HODGECS_VALIDATE_LIMIT: {message}\n")


# -- error lines and closed pipes --------------------------------------------------

def test_unknown_ring_error_line_is_unquoted(capsys):
    assert main(["export", "zoo:p1x3p2"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown zoo entry 'p1x3p2'; available: p1, p2, p3, p4, blp2, blp3, blp4, "
        "p1xp1, p1xp2, quadric4, flag3\n")
    with pytest.raises(KeyError):
        zoo.get("p1x3p2")
    assert str(UnknownRingError("no ring")) == "no ring"


@pytest.mark.parametrize("argv, code", [
    (["export", "zoo:flag3", "--output", "json"], 0),
    (["validate", "zoo:blp4"], 0),
    (["check", "zoo:p1xp1", "-p", "1", "--alpha", "a", "--omega", "a + b"], 1),
])
def test_closed_stdout_keeps_the_exit_code(argv, code):
    proc = _hodgecs_process(argv)
    proc.stdout.close()   # the reader goes away before the report is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == code
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_reader_gone_after_one_line_keeps_exit_0():
    # The report is about 98 KB, more than a pipe and the reader's buffer hold,
    # so the write is still blocked when the reader (``| head -n 1``) goes.
    proc = _hodgecs_process(["verify", "zoo:blp4", "-p", "1", "--samples", "400",
                             "--output", "json"])
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == ""


def test_reader_gone_while_many_lines_are_buffered_keeps_exit_0(tmp_path):
    # ``info`` prints one line per sample, so 3,000 samples make about 85 KB in
    # short lines, more than the pipe and the 8 KB stdout buffer. The reader
    # takes one line and goes once the pipe has stopped filling: the writer is
    # then blocked part way through a write, which returns short and leaves
    # bytes in the buffer, and the next write fails with them still there.
    document = json.loads(serialize_ring_bundle(zoo.get("blp4").ring))
    document["samples"] += [{"name": f"s{i}", "flag": "nef", "coeffs": [str(i), "0"]}
                            for i in range(3000)]
    path = tmp_path / "many-samples.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = _hodgecs_process(["info", str(path)])
    assert proc.stdout.readline().startswith(b"ring 'blp4'")
    held, last, still = array.array("i", [0]), -1, 0
    while still < 20 and proc.poll() is None:
        time.sleep(0.01)
        fcntl.ioctl(proc.stdout.fileno(), termios.FIONREAD, held)
        still, last = (still + 1 if held[0] == last else 0), held[0]
    assert proc.poll() is None, "the report fit in the pipe"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == ""


def _hodgecs_process(argv):
    """``python -m hodgecs argv`` with its stdout and stderr on pipes.

    Its stdout is buffered, as by default: with PYTHONUNBUFFERED set, a failed
    write keeps no bytes for the exit-time flush to fail on again, and the
    closed-pipe tests could not see that flush.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "hodgecs", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
