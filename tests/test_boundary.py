"""Input checks at the boundary: bundle documents, the ring constructor, the CLI.

Each row of ``BOUNDARY`` reaches one check and pins its constraint, path and
exit code. A document goes through ``parse_ring_bundle`` and ``hodgecs info``;
a case the bundle parser stops earlier goes to ``IntersectionRing`` directly;
a command-line case runs ``hodgecs`` on the (changed) p1xp1 document.
"""

import json
from fractions import Fraction

import pytest

from hodgecs import zoo
from hodgecs.bundle import parse_ring_bundle, serialize_ring_bundle
from hodgecs.cli import main
from hodgecs.errors import BundleSemanticError
from hodgecs.ring import IntersectionRing, RingSample


def p1xp1_doc() -> dict:
    """The bundle document of p1xp1: n = 2, basis 1 | a, b | a.b, four samples."""
    return json.loads(serialize_ring_bundle(zoo.get("p1xp1").ring))


def p1xp1_args() -> dict:
    ring = zoo.get("p1xp1").ring
    return {"name": ring.name, "n": ring.n, "hodge": ring.hodge,
            "basis_labels": ring.basis_labels, "products": ring.products,
            "integral": ring.integral, "samples": ring.samples}


def replaced(**fields):
    return lambda doc: {**doc, **fields}


def without(key, record=None):
    """Drop ``key`` from the document, or from its first ``record`` entry."""
    def change(doc):
        target = doc[record][0] if record else doc
        del target[key]
        return doc
    return change


def extra_field(record, key):
    """Give the first ``record`` entry a field ``key`` (set to 1) it does not take."""
    def change(doc):
        doc[record][0][key] = 1
        return doc
    return change


def extra_product(da, ia, db, ib, out):
    def change(doc):
        doc["products"].append({"da": da, "ia": ia, "db": db, "ib": ib, "out": out})
        return doc
    return change


BUNDLE, RING, CLI = "bundle", "ring", "cli"
INFO = ("info", "{file}")

# (route, change, argv, exit code, constraint, path, message). For RING rows
# the change is constructor arguments over p1xp1's; the other rows write the
# changed document to {file} and run argv on it. The constructor's output-length
# and mirrored-entry checks are tested in test_bundle and test_ring.
BOUNDARY = {
    # IntersectionRing.__init__
    "n below 1": (BUNDLE, replaced(n=0, hodge=[1], basis=[["1"]], products=[], samples=[]),
                  INFO, 2, "structure", "$", "complex dimension must be at least 1"),
    "hodge length": (BUNDLE, replaced(hodge=[1, 2, 1, 1]), INFO, 2, "structure", "$",
                     "hodge vector must have length 3"),
    "negative dimension": (BUNDLE, replaced(hodge=[1, -2, 1]), INFO, 2, "structure", "$",
                           "graded dimensions must be nonnegative"),
    "label rows": (BUNDLE, replaced(basis=[["1"], ["a", "b"]]), INFO, 2, "structure", "$",
                   "one label list per degree is required"),
    "label count": (BUNDLE, replaced(basis=[["1"], ["a"], ["a.b"]]), INFO, 2, "structure", "$",
                    "degree 1: 1 labels for dimension 2"),
    "product index": (BUNDLE, extra_product(1, 5, 1, 0, ["1"]), INFO, 2, "structure", "$",
                      "product key (1, 5, 1, 0): index out of range"),
    "product past n": (BUNDLE, extra_product(1, 0, 2, 0, ["1"]), INFO, 2, "structure", "$",
                       "product key (1, 0, 2, 0): degree 3 exceeds n"),
    "degree-0 factor": (BUNDLE, extra_product(0, 0, 1, 0, ["0", "1"]), INFO, 2, "structure",
                        "$", "product key (0, 0, 1, 0): degree-0 factor must act as identity"),
    "integral length": (BUNDLE, replaced(integral=["1", "1"]), INFO, 2, "structure", "$",
                        "integral vector must have length 1"),
    "sample flag": (RING, {"samples": [RingSample("s", "none", (Fraction(1), Fraction(1)))]},
                    None, None, None, None, "sample 's': flag must be kahler or nef"),
    # One name, one sample, as in a bundle (duplicate-sample).
    "sample name twice": (RING, {"samples": [RingSample("omega", "kahler", (Fraction(1),) * 2),
                                             RingSample("omega", "kahler", (Fraction(2), Fraction(1)))]},
                          None, None, None, None, "sample 'omega': name is already declared"),
    "sample length": (BUNDLE, replaced(samples=[{"name": "s", "flag": "kahler", "coeffs": ["1"]}]),
                      INFO, 2, "structure", "$", "sample 's': coefficient length mismatch"),
    # validate_ring: grading and labels
    "h00": (BUNDLE, replaced(hodge=[2, 1, 2], basis=[["1", "u"], ["a"], ["p", "q"]], products=[],
                             integral=["1", "0"], samples=[]),
            INFO, 2, "grading", "hodge[0]", "h^(0,0) must be 1, got 2"),
    "hnn": (BUNDLE, replaced(hodge=[1, 1, 2], basis=[["1"], ["a"], ["p", "q"]], products=[],
                             integral=["1", "0"], samples=[]),
            INFO, 2, "grading", "hodge[2]", "h^(n,n) must be 1, got 2"),
    "empty degree": (BUNDLE, replaced(hodge=[1, 0, 1], basis=[["1"], [], ["pt"]], products=[],
                                      samples=[]),
                     INFO, 2, "grading", "hodge[1]", "graded dimension must be positive"),
    "duplicate labels": (BUNDLE, replaced(basis=[["1"], ["a", "a"], ["a.b"]]), INFO, 2,
                         "labels", "basis[1]", "duplicate labels in one degree"),
    # parse_ring_bundle: missing fields
    "missing field": (BUNDLE, without("integral"), INFO, 2, "required-field", "$",
                      "missing field 'integral'"),
    "missing product field": (BUNDLE, without("out", "products"), INFO, 2, "required-field",
                              "products[0]", "missing field 'out'"),
    "missing sample field": (BUNDLE, without("coeffs", "samples"), INFO, 2, "required-field",
                             "samples[0]", "missing field 'coeffs'"),
    # parse_ring_bundle: record fields and the samples list
    "unknown product field": (BUNDLE, extra_field("products", "note"), INFO, 2, "unknown-field",
                              "products[0]", "unknown field 'note'"),
    "unknown sample field": (BUNDLE, extra_field("samples", "note"), INFO, 2, "unknown-field",
                             "samples[0]", "unknown field 'note'"),
    "samples null": (BUNDLE, replaced(samples=None), INFO, 2, "type", "samples",
                     "expected list, got NoneType"),
    "samples a number": (BUNDLE, replaced(samples=3), INFO, 2, "type", "samples",
                         "expected list, got int"),
    # the command line
    "sample of the wrong degree": (CLI, None, ("g", "zoo:blp4", "-p", "2", "--alpha",
                                               "sample:omega", "--omega", "sample:omega"),
                                   2, None, None, "sample 'sample:omega' has degree 1, wanted 2"),
    "no kahler sample": (CLI, replaced(samples=[]), ("counterexample", "{file}", "-p", "1"),
                         2, None, None, "ring 'p1xp1' declares no Kahler samples"),
}


@pytest.mark.parametrize("case", list(BOUNDARY))
def test_boundary_check(case, tmp_path, capsys):
    route, change, argv, code, constraint, path, message = BOUNDARY[case]
    if route == RING:
        with pytest.raises(ValueError) as err:
            IntersectionRing(**{**p1xp1_args(), **change})
        assert str(err.value) == message
        return
    text = json.dumps(change(p1xp1_doc())) if change else ""
    if route == BUNDLE:
        with pytest.raises(BundleSemanticError) as err:
            parse_ring_bundle(text)
        assert (err.value.constraint, err.value.path) == (constraint, path)
        assert Exception.__str__(err.value) == message
    file = tmp_path / "ring.json"
    file.write_text(text)
    assert main([arg.format(file=file) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = f"invalid ring bundle: {path}" if route == BUNDLE else "error"
    assert captured.err == f"{prefix}: {message}\n"


# -- what the format promises about names -------------------------------------------

def _invalid(tmp_path, capsys, doc, constraint, path):
    """The document fails to parse at ``path``; info exits 2, validate 1 with INVALID."""
    with pytest.raises(BundleSemanticError) as err:
        parse_ring_bundle(json.dumps(doc))
    assert (err.value.constraint, err.value.path) == (constraint, path)
    file = tmp_path / "ring.json"
    file.write_text(json.dumps(doc))
    assert main(["info", str(file)]) == 2
    assert capsys.readouterr().err.startswith(f"invalid ring bundle: {path}: ")
    assert main(["validate", str(file)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"INVALID: {file}\n  [{constraint}] {path}: ")


@pytest.mark.parametrize("label", ["a+b", "a-b", "a*b", "a b", "a\tb"])
def test_label_with_an_operator_or_whitespace_is_rejected(label, tmp_path, capsys):
    # A class literal splits at + and -, so no literal could name such a label.
    doc = p1xp1_doc()
    doc["basis"][1][1] = label
    _invalid(tmp_path, capsys, doc, "label", "basis[1][1]")


def test_duplicate_sample_name_is_rejected(tmp_path, capsys):
    # sample:omega would silently take the first of two samples named omega.
    doc = p1xp1_doc()
    doc["samples"][2]["name"] = doc["samples"][0]["name"]
    _invalid(tmp_path, capsys, doc, "duplicate-sample", "samples[2].name")
