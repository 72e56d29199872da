"""Ring-bundle parsing, canonical serialization, and class literals."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hodgecs import zoo
from hodgecs.bundle import (
    parse_class_literal,
    parse_ring_bundle,
    resolve_class,
    serialize_ring_bundle,
)
from hodgecs.cli import main
from hodgecs.errors import BundleSemanticError, BundleSyntaxError


def test_round_trip_every_zoo_ring():
    for name in zoo.list_entries():
        ring = zoo.get(name).ring
        text = serialize_ring_bundle(ring)
        parsed = parse_ring_bundle(text)
        assert parsed == ring, name
        assert serialize_ring_bundle(parsed) == text, name


def test_parse_canonicalizes_rationals_and_order():
    ring = zoo.get("blp2").ring
    doc = json.loads(serialize_ring_bundle(ring))
    doc["integral"] = ["2/2"]
    doc["products"] = list(reversed(doc["products"]))
    loose = json.dumps(doc)   # non-canonical spacing and ordering
    parsed = parse_ring_bundle(loose)
    assert parsed == ring
    assert serialize_ring_bundle(parsed) == serialize_ring_bundle(ring)


def test_syntax_error_has_position():
    with pytest.raises(BundleSyntaxError) as err:
        parse_ring_bundle('{"name": "x",')
    assert err.value.line is not None
    assert str(err.value).startswith(f"line {err.value.line}, column {err.value.col}: ")
    assert str(BundleSyntaxError("not JSON")) == "not JSON"


def test_commutativity_conflict_diagnostic():
    ring = zoo.get("p1xp1").ring
    doc = json.loads(serialize_ring_bundle(ring))
    doc["products"].append({"da": 1, "ia": 1, "db": 1, "ib": 0, "out": ["5"]})
    with pytest.raises(BundleSemanticError) as err:
        parse_ring_bundle(json.dumps(doc))
    assert err.value.constraint == "commutativity"


def test_duplicate_product_diagnostic():
    ring = zoo.get("p1xp1").ring
    doc = json.loads(serialize_ring_bundle(ring))
    doc["products"].append(dict(doc["products"][0]))
    with pytest.raises(BundleSemanticError) as err:
        parse_ring_bundle(json.dumps(doc))
    assert err.value.constraint == "duplicate-product"


def test_nonpalindromic_hodge_diagnostic():
    doc = {
        "name": "skewed",
        "n": 3,
        "hodge": [1, 2, 1, 1],
        "basis": [["1"], ["x", "y"], ["u"], ["pt"]],
        "products": [
            {"da": 1, "ia": 0, "db": 1, "ib": 0, "out": ["1"]},
            {"da": 1, "ia": 0, "db": 2, "ib": 0, "out": ["1"]},
        ],
        "integral": ["1"],
        "samples": [],
    }
    with pytest.raises(BundleSemanticError) as err:
        parse_ring_bundle(json.dumps(doc))
    assert err.value.constraint == "poincare-duality"


def test_wrong_output_length_diagnostic():
    ring = zoo.get("p2").ring
    doc = json.loads(serialize_ring_bundle(ring))
    doc["products"][0]["out"] = ["1", "1"]
    with pytest.raises(BundleSemanticError) as err:
        parse_ring_bundle(json.dumps(doc))
    assert err.value.constraint == "structure"


def test_degenerate_integral_diagnostic():
    ring = zoo.get("p2").ring
    doc = json.loads(serialize_ring_bundle(ring))
    doc["integral"] = ["0"]
    with pytest.raises(BundleSemanticError) as err:
        parse_ring_bundle(json.dumps(doc))
    assert err.value.constraint == "poincare-duality"
    assert "p=0" in err.value.path


def test_bad_rational_diagnostic():
    ring = zoo.get("p2").ring
    doc = json.loads(serialize_ring_bundle(ring))
    for bad in ("1.5", "1/0"):
        doc["integral"] = [bad]
        with pytest.raises(BundleSemanticError) as err:
            parse_ring_bundle(json.dumps(doc))
        assert err.value.constraint == "rational", bad
        assert "integral[0]" in err.value.path, bad


def test_non_ascii_digits_fail_the_rational_constraint(tmp_path, capsys):
    # int and Fraction read digits of every script; a literal takes ASCII digits only.
    doc = json.loads(serialize_ring_bundle(zoo.get("p2").ring))
    for bad in ("\uff11", "\u0661/\u0662"):
        doc["integral"] = [bad]
        with pytest.raises(BundleSemanticError) as err:
            parse_ring_bundle(json.dumps(doc))
        assert (err.value.constraint, err.value.path) == ("rational", "integral[0]"), bad
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(doc))
        assert main(["info", str(path)]) == 2
        assert capsys.readouterr().err == \
            f"invalid ring bundle: integral[0]: not a rational literal: {bad!r}\n"
    # A full-width coefficient on the command line is refused, not read as 1.
    argv = ["g", "zoo:blp4", "-p", "2", "--omega", "sample:omega", "--alpha"]
    assert main([*argv, "\uff11*H^2+9*E^2"]) == 2
    assert capsys.readouterr().err == "error: not a rational literal: '\uff11'\n"


def _hodgecs(argv, digit_limit):
    """Run the CLI in a fresh interpreter with PYTHONINTMAXSTRDIGITS set."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS=str(digit_limit), PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-m", "hodgecs", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("digits", [641, 5001])
def test_literal_size_limit_does_not_depend_on_the_interpreter(digits, tmp_path):
    message = (f"rational literal with {digits} digits exceeds the limit "
               f"of 640 digits per numerator or denominator")
    doc = json.loads(serialize_ring_bundle(zoo.get("p1xp1").ring))
    doc["samples"][0]["coeffs"][1] = "1/" + "3" * digits
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    literal = ["check", "zoo:p1xp1", "-p", "1", "--alpha", "7" * digits + "*a - b",
               "--omega", "a + b"]
    for limit in (640, 4300, 0):
        assert _hodgecs(literal, limit) == (2, "", f"error: {message}\n"), limit
        assert _hodgecs(["validate", str(path)], limit) == (
            1, f"INVALID: {path}\n  [rational] samples[0].coeffs[1]: {message}\n", ""), limit


def _same_under_every_limit(argv):
    """Run ``argv`` in both output modes under digit limits 640, 4300 and 0; each
    mode must give the same (exit code, stdout, stderr) under all three."""
    results = []
    for mode in ("text", "json"):
        runs = [_hodgecs([*argv, "--output", mode], limit) for limit in (640, 4300, 0)]
        assert runs[1:] == runs[:1] * 2, (mode, runs)
        results.append(runs[0])
    return results


def _int_message(digits):
    return f"integer literal with {digits} digits exceeds the limit of 640 digits"


@pytest.mark.parametrize("field, digits", [('"n": 2', 5001), ('"da": 1', 641)])
def test_integer_field_size_limit_does_not_depend_on_the_interpreter(field, digits, tmp_path):
    text = serialize_ring_bundle(zoo.get("p1xp1").ring)
    assert field in text
    text = text.replace(field, field[:-1] + "9" * digits, 1)
    with pytest.raises(BundleSemanticError) as err:
        parse_ring_bundle(text)
    assert (err.value.constraint, err.value.path) == ("integer", "$")
    assert Exception.__str__(err.value) == _int_message(digits)
    path = tmp_path / "long.json"
    path.write_text(text, encoding="utf-8")
    (code, out, stderr), (json_code, json_out, _) = _same_under_every_limit(["validate", str(path)])
    assert (code, out, stderr) == (1, f"INVALID: {path}\n  [integer] $: {_int_message(digits)}\n", "")
    assert json_code == 1 and json.loads(json_out)["issues"] == [
        {"check": "integer", "location": "$", "message": _int_message(digits)}]
    for code, out, stderr in _same_under_every_limit(["info", str(path)]):
        assert (code, out, stderr) == (2, "", f"invalid ring bundle: $: {_int_message(digits)}\n")


def test_integer_options_are_bounded_before_conversion(capsys, monkeypatch):
    interpreter_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    long = "9" * 641
    base = {"-p": "1", "--samples": "1", "--seed": "0", "--height": "10"}
    for option in base:
        argv = ["verify", "zoo:p1xp1",
                *(x for k, v in base.items() for x in (k, long if k == option else v))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {option}: {_int_message(641)}\n"), err
    # A malformed value keeps argparse's wording; a 640-digit one converts.
    assert main(["verify", "zoo:p1xp1", "-p", "x"]) == 2
    assert capsys.readouterr().err.endswith("error: argument -p: invalid int value: 'x'\n")
    assert main(["verify", "zoo:p1xp1", "-p", "1", "--samples", "1", "--seed", "9" * 640]) == 0
    capsys.readouterr()
    # main lifts the interpreter's digit limit only while it runs.
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == interpreter_limit
    for code, out, stderr in _same_under_every_limit(
            ["verify", "zoo:p1xp1", "-p", "1", "--samples", "1", "--height", long]):
        assert code == 2 and out == ""
        assert stderr.endswith(f"error: argument --height: {_int_message(641)}\n")
    monkeypatch.setenv("HODGECS_VALIDATE_LIMIT", long)
    for code, out, stderr in _same_under_every_limit(["info", "zoo:flag3"]):
        assert (code, out, stderr) == (2, "", f"error: HODGECS_VALIDATE_LIMIT: {_int_message(641)}\n")


def test_long_exact_results_print_under_every_limit(tmp_path):
    doc = json.loads(serialize_ring_bundle(zoo.get("p1xp1").ring))
    doc["samples"][0]["coeffs"][0] = "7" * 640
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    (code, out, stderr), (json_code, json_out, _) = _same_under_every_limit(
        ["kt", str(path), "--d1", "sample:omega", "--d2", "sample:omega"])
    assert (code, stderr, json_code) == (0, "", 0)
    # The step's square has more digits than any of the three limits but 0.
    steps = json.loads(json_out)["steps"]
    assert steps and all(len(s["lhs_squared"]) > 640 for s in steps)
    assert steps[0]["lhs_squared"] in out


def test_boolean_is_not_an_integer():
    ring = zoo.get("p2").ring
    doc = json.loads(serialize_ring_bundle(ring))
    doc["n"] = True
    with pytest.raises(BundleSemanticError) as err:
        parse_ring_bundle(json.dumps(doc))
    assert err.value.constraint == "type"


def test_unknown_field_diagnostic():
    ring = zoo.get("p2").ring
    doc = json.loads(serialize_ring_bundle(ring))
    doc["extra"] = 1
    with pytest.raises(BundleSemanticError) as err:
        parse_ring_bundle(json.dumps(doc))
    assert err.value.constraint == "unknown-field"


def test_bad_sample_flag_diagnostic():
    ring = zoo.get("p2").ring
    doc = json.loads(serialize_ring_bundle(ring))
    doc["samples"][0]["flag"] = "ample"
    with pytest.raises(BundleSemanticError) as err:
        parse_ring_bundle(json.dumps(doc))
    assert err.value.constraint == "flag"


# -- class literals -----------------------------------------------------------------

def test_literal_basic():
    ring = zoo.get("p1xp1").ring
    cls = parse_class_literal(ring, 1, "3*a+1*b")
    assert cls == ring.class_vector(1, [3, 1])


def test_literal_signs_and_fractions():
    ring = zoo.get("blp4").ring
    expected = ring.class_vector(1, [-4, Fraction(1, 2)])
    # Any whitespace is dropped, before or after a label or a sign.
    for text in ["-H + 1/2*E - 3*H", "-H\t+ 1/2*E\t- 3*H\t", "\t-H\n+\n1/2 *E -3*H\n"]:
        assert parse_class_literal(ring, 1, text) == expected, text


def test_literal_bare_label():
    ring = zoo.get("blp4").ring
    assert parse_class_literal(ring, 2, "H^2") == ring.basis_class(2, 0)


LITERAL_ERRORS = [
    ("", "empty class literal"),
    ("  ", "empty class literal"),
    ("\t", "empty class literal"),
    ("+", "dangling sign in class literal '+'"),
    ("-", "dangling sign in class literal '-'"),
    ("a+", "dangling sign in class literal 'a+'"),
    ("a++b", "misplaced sign in class literal 'a++b'"),
    ("a+-b", "misplaced sign in class literal 'a+-b'"),
    ("-+a", "misplaced sign in class literal '-+a'"),
    ("3*q", "unknown degree-1 basis label 'q' in '3*q'"),
    ("3*", "unknown degree-1 basis label '' in '3*'"),
    ("q+", "unknown degree-1 basis label 'q' in 'q+'"),
    ("*a", "not a rational literal: ''"),
    ("1.5*a", "not a rational literal: '1.5'"),
    ("1/0*a", "zero denominator in rational literal '1/0'"),
]


@pytest.mark.parametrize("bad, message", LITERAL_ERRORS, ids=[bad for bad, _ in LITERAL_ERRORS])
def test_literal_errors(bad, message):
    ring = zoo.get("p1xp1").ring
    with pytest.raises(ValueError) as err:
        parse_class_literal(ring, 1, bad)
    assert str(err.value) == message


def test_resolve_sample_reference():
    ring = zoo.get("blp4").ring
    cls = resolve_class(ring, 1, "sample:omega")
    assert cls.flag == "kahler"
    assert cls == ring.class_vector(1, [2, -1])
