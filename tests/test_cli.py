"""Command-line interface behaviour and exit codes."""

import argparse
import json

import pytest

from hodgecs.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zoo_listing(capsys):
    code, out, _ = run(capsys, "zoo")
    assert code == 0
    assert "blp4" in out and "quadric4" in out


def test_zoo_single_entry(capsys):
    code, out, _ = run(capsys, "zoo", "flag3", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["hodge"] == [1, 2, 2, 1]
    assert "note" in doc


def test_validate_flags_bogus_kahler_sample(tmp_path, capsys):
    code, out, _ = run(capsys, "export", "zoo:blp4")
    doc = json.loads(out)
    doc["samples"] = [{"name": "fake", "flag": "kahler", "coeffs": ["0", "1"]}]
    path = tmp_path / "bad-sample.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "fake" in out and "FAIL" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "zoo:blp4", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["hodge"] == [1, 2, 2, 2, 1]
    assert doc["samples"][0] == {"name": "omega", "flag": "kahler", "coeffs": ["2", "-1"]}


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "zoo:flag3")
    assert code == 0
    assert "all checks passed" in out


def test_validate_corrupted_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"name": "bad", "n": 2, "hodge": [1, 1, 1],'
        ' "basis": [["1"], ["h"], ["hh"]],'
        ' "products": [{"da": 1, "ia": 0, "db": 1, "ib": 0, "out": ["1"]}],'
        ' "integral": ["0"], "samples": []}'
    )
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "poincare-duality" in out


def test_syntax_error_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "syntax" in err


def test_verify_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "zoo:p1xp1", "-p", "1",
                       "--samples", "50", "--seed", "1")
    assert code == 0
    assert "0 violations" in out


def test_counterexample_blp4_json(capsys):
    code, out, _ = run(capsys, "counterexample", "zoo:blp4", "-p", "2",
                       "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["g"] == "-900"
    assert doc["theta"]["coeffs"] == ["6", "9"]
    assert doc["witness"]["coeffs"] == ["1", "-8"]


def test_counterexample_none_when_condition_holds(capsys):
    code, out, _ = run(capsys, "counterexample", "zoo:p4", "-p", "2",
                       "--output", "json")
    assert code == 0
    assert json.loads(out)["found"] is False


def test_check_malformed_literal_is_exit_2(capsys):
    code, _, err = run(capsys, "check", "zoo:p1xp1", "-p", "1",
                       "--alpha", "3*zz+1*b", "--omega", "sample:omega")
    assert code == 2
    assert "zz" in err


def test_check_violation_is_exit_1(capsys):
    code, out, _ = run(capsys, "check", "zoo:p1xp1", "-p", "1",
                       "--alpha", "3*a+1*b", "--omega", "sample:omega",
                       "--direction", "cs", "--output", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["g"] == "-4" and doc["satisfied"] is False


def test_check_opposite_satisfied(capsys):
    code, out, _ = run(capsys, "check", "zoo:p1xp1", "-p", "1",
                       "--alpha", "3*a+1*b", "--omega", "sample:omega",
                       "--direction", "opposite", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["satisfied"] is True and doc["proportional"] is False


def test_g_command_two_routes(capsys):
    code, out, _ = run(capsys, "g", "zoo:blp4", "-p", "2",
                       "--alpha", "6*H^2+9*E^2", "--omega", "sample:omega",
                       "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["g"] == "-900" and doc["g_decomposed"] == "-900"
    assert doc["two_route_agreement"] is True


def test_decompose_command(capsys):
    code, out, _ = run(capsys, "decompose", "zoo:p1xp1", "-p", "1",
                       "--alpha", "3*a+1*b", "--omega", "sample:omega",
                       "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == "2"
    assert doc["components"][0]["coeffs"] == ["1", "-1"]
    assert doc["certificates_zero"] and doc["reconstruction_exact"]


def test_signature_reports_both_conventions(capsys):
    code, out, _ = run(capsys, "signature", "zoo:p4", "-p", "1", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["signed"]["inertia"] == [0, 1, 0]
    assert doc["unsigned"]["inertia"] == [1, 0, 0]


def test_kt_command(capsys):
    code, out, _ = run(capsys, "kt", "zoo:blp2", "--d1", "sample:hyperplane",
                       "--d2", "sample:omega", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"][0]["lhs_squared"] == "4"
    assert doc["steps"][0]["rhs_product"] == "3"
    assert doc["mode"] == "boundary"


def test_kahler_gate_on_literal_omega(capsys):
    # E is not Kahler; using it as a bare literal omega must trip the gate.
    code, _, err = run(capsys, "g", "zoo:blp4", "-p", "2",
                       "--alpha", "1*H^2", "--omega", "0*H+1*E")
    assert code == 1
    assert "assertion failed" in err


def test_kahler_gate_rejects_negative_cone_class(capsys):
    # -2H + E passes volume, injectivity and signature on blp4; the cone-side
    # check against the declared samples trips the gate.
    code, out, err = run(capsys, "signature", "zoo:blp4", "-p", "1",
                         "--omegas=-2*H+1*E;sample:omega")
    assert code == 1 and out == ""
    assert "FAIL cone-side" in err


def test_boundary_via_nef_flag(capsys):
    code, out, _ = run(capsys, "check", "zoo:p1xp1", "-p", "1",
                       "--alpha", "1*b", "--omega", "1*a", "--nef",
                       "--direction", "opposite", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "boundary" and doc["g"] == "-1"


def test_reports_byte_identical(capsys):
    args = ("verify", "zoo:blp2", "-p", "1", "--samples", "25", "--seed", "9",
            "--output", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_unknown_ring_exit_2(capsys):
    code, _, err = run(capsys, "info", "zoo:nothere")
    assert code == 2
    assert "unknown" in err.lower()


def test_missing_cone_samples_is_usage_error(tmp_path, capsys):
    code, out, _ = run(capsys, "export", "zoo:p2")
    doc = json.loads(out)
    doc["samples"] = []
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path), "-p", "1", "--samples", "5")
    assert code == 2
    assert "samples" in err


def test_usage_error_exit_2(capsys):
    assert main(["signature", "zoo:p4"]) == 2  # missing -p


def test_export_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "export", "zoo:quadric4")
    assert code == 0
    path = tmp_path / "q4.json"
    path.write_text(out)
    code2, out2, _ = run(capsys, "info", str(path), "--output", "json")
    assert code2 == 0
    assert json.loads(out2)["hodge"] == [1, 1, 2, 1, 1]


def _bundle_without_samples(tmp_path, capsys):
    _, out, _ = run(capsys, "export", "zoo:blp4")
    doc = json.loads(out)
    doc["samples"] = []
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    return str(path)


# signature checks p before it resolves any class; verify reads p through
# hodge_condition. Both share the one range check of a setup's p.
@pytest.mark.parametrize("argv", [("signature", "zoo:p4", "-p", "3"),
                                  ("verify", "zoo:blp4", "-p", "3", "--samples", "1")],
                         ids=["signature", "verify"])
def test_p_range_is_checked_with_its_value(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: p must satisfy 1 <= p <= 2, got 3\n"


def test_counterexample_uses_omegas_without_omega(capsys):
    code, out, _ = run(capsys, "counterexample", "zoo:blp4", "-p", "1",
                       "--omegas", "sample:omega2;sample:omega2", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"]["expr"] == "1*H + -9/2*E"
    assert "reference=[3*H + -2*E, 3*H + -2*E]" in doc["setup"]


def test_signature_omegas_need_no_declared_samples(tmp_path, capsys):
    path = _bundle_without_samples(tmp_path, capsys)
    code, out, _ = run(capsys, "signature", path, "-p", "1",
                       "--omegas", "2*H-1*E;3*H-2*E")
    assert code == 0
    assert "inertia" in out


def test_signature_middle_degree_needs_no_declared_samples(tmp_path, capsys):
    # At p = n/2 there is no reference slot, so no sample is looked up.
    path = _bundle_without_samples(tmp_path, capsys)
    code, out, _ = run(capsys, "signature", path, "-p", "2")
    assert code == 0
    assert "inertia" in out


# A given --omegas is counted even when it names no class: zero is a wrong count
# for the two slots at p = 1, and the right one at p = n/2.
@pytest.mark.parametrize("omegas", ["", " ; "], ids=["empty", "separator only"])
def test_empty_omegas_is_a_wrong_count(capsys, omegas):
    code, out, err = run(capsys, "signature", "zoo:blp4", "-p", "1", "--omegas", omegas)
    assert (code, out, err) == (2, "", "error: --omegas needs exactly 2 classes, got 0\n")
    code, out, _ = run(capsys, "signature", "zoo:blp4", "-p", "2", "--omegas", omegas)
    assert code == 0 and "inertia" in out


def test_check_tags_a_boundary_equality_uncharacterized(capsys):
    code, out, err = run(capsys, "check", "zoo:p1xp1", "-p", "1", "--alpha", "a",
                         "--omega", "sample:a")
    assert (code, out, err) == (
        0, "g = 0 (zero); cs satisfied [proportional, equality uncharacterized (boundary)]\n", "")


def test_signature_omegas_override_omega(capsys):
    base = ("signature", "zoo:blp4", "-p", "1", "--omegas", "sample:omega;sample:omega2")
    _, expected, _ = run(capsys, *base)
    # --omega is ignored when --omegas is given, even when it would fail the gate.
    code, out, _ = run(capsys, *base, "--omega", "0*H+1*E")
    assert code == 0
    assert out == expected


def test_validate_file_validates_once(tmp_path, monkeypatch, capsys):
    import hodgecs.bundle
    import hodgecs.cli
    import hodgecs.zoo

    _, text, _ = run(capsys, "export", "zoo:blp4")
    path = tmp_path / "blp4.json"
    path.write_text(text)
    _, zoo_out, _ = run(capsys, "validate", "zoo:blp4")
    _, flag3_out, _ = run(capsys, "validate", "zoo:flag3")

    calls = []
    real = hodgecs.bundle.validate_ring

    def counting(ring):
        calls.append(ring.name)
        return real(ring)

    monkeypatch.setattr(hodgecs.bundle, "validate_ring", counting)
    monkeypatch.setattr(hodgecs.cli, "validate_ring", counting)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert calls == ["blp4"]
    assert out == zoo_out

    # A bundled zoo entry is validated by the parse that loads it.
    monkeypatch.setattr(hodgecs.zoo, "_CACHE", {})
    calls.clear()
    code, out, _ = run(capsys, "validate", "zoo:flag3")
    assert code == 0
    assert calls == ["flag3"]
    assert out == flag3_out


def test_validate_gates_only_the_kahler_samples(tmp_path, monkeypatch, capsys):
    from hodgecs.ring import IntersectionRing

    _, text, _ = run(capsys, "export", "zoo:p1xp2")
    doc = json.loads(text)
    doc["samples"] = [{"name": "a", "flag": "nef", "coeffs": ["1", "0"]},
                      {"name": "w", "flag": "kahler", "coeffs": ["1/2", "3"]},
                      {"name": "b", "flag": "nef", "coeffs": ["0", "1"]},
                      {"name": "bad", "flag": "kahler", "coeffs": ["1", "-1"]}]
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(doc))
    cleared = []
    real = IntersectionRing.class_vector
    monkeypatch.setattr(IntersectionRing, "class_vector",
                        lambda self, *args: cleared.append(args[0]) or real(self, *args))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    # The Kahler samples are cleared to ints once each, not once per gate; no nef one is.
    assert cleared == [1, 1]
    assert out.splitlines()[:3] == ["ring 'p1xp2': all checks passed",
                                    "kahler sample 'w': ok", "kahler sample 'bad': FAIL"]


def test_verify_rejects_negative_samples(capsys):
    code, out, err = run(capsys, "verify", "zoo:p1xp1", "-p", "1", "--samples", "-5")
    assert code == 2 and out == ""
    assert "samples" in err


def test_seed_and_height_belong_to_verify_only(capsys):
    code, out, err = run(capsys, "check", "zoo:p1xp1", "-p", "1", "--alpha", "3*a+1*b",
                         "--omega", "sample:omega", "--seed", "1")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --seed 1" in err
    code, out, _ = run(capsys, "verify", "zoo:p1xp1", "-p", "1", "--samples", "5",
                       "--seed", "1", "--height", "5", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["seed"], doc["height"]) == (1, 5)


def test_verify_rejects_zero_height(capsys):
    code, out, err = run(capsys, "verify", "zoo:p1xp1", "-p", "1", "--height", "0")
    assert code == 2 and out == ""
    assert "height" in err and "range must be positive" not in err


@pytest.mark.parametrize("argv, message", [
    (("check", "zoo:p1xp1", "-p", "1", "--alpha", "3*a+1*b", "--omega", "sample:nope"),
     "ring 'p1xp1' has no sample 'nope'"),
    (("g", "zoo:blp4", "-p", "2", "--alpha", "sample:nope", "--omega", "sample:omega"),
     "ring 'blp4' has no sample 'nope'"),
    (("kt", "zoo:blp2", "--d1", "sample:nope", "--d2", "sample:omega"),
     "ring 'blp2' has no sample 'nope'"),
    (("check", "zoo:p1xp1", "-p", "1", "--alpha", "3*a+1*b", "--omega", "1/0*a"),
     "zero denominator in rational literal '1/0'"),
], ids=["check-omega-sample", "g-alpha-sample", "kt-d1-sample", "check-omega-zero-denominator"])
def test_bad_class_argument_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--output", "json")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# Every settable value of every subcommand: {option: (default, required)}.
OUTPUT = {"--output": ("text", False)}
RING = {**OUTPUT, "ring": (None, True)}
REFERENCE = {**RING, "-p": (None, True), "--omega": (None, False), "--omegas": (None, False)}
ONE_CLASS = {**REFERENCE, "--alpha": (None, True), "--omega": (None, True), "--nef": (False, False)}
OPTIONS = {
    "info": RING,
    "validate": RING,
    "zoo": {**OUTPUT, "name": (None, False)},
    "signature": {**REFERENCE, "--nef": (False, False)},
    "decompose": ONE_CLASS,
    "g": ONE_CLASS,
    "check": {**ONE_CLASS, "--direction": ("cs", False)},
    "verify": {**RING, "-p": (None, True), "--samples": (100, False), "--seed": (0, False),
               "--height": (10, False)},
    "counterexample": {**REFERENCE, "--kind": ("cs", False)},
    "kt": {**RING, "--d1": (None, True), "--d2": (None, True), "--nef": (False, False)},
    "export": RING,
}


def test_subcommand_options_are_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        name: {
            "/".join(a.option_strings) or a.dest: (a.default, a.required)
            for a in cmd._actions if not isinstance(a, argparse._HelpAction)
        }
        for name, cmd in sub.choices.items()
    }
    assert found == OPTIONS
