"""Command-line interface.

Rings are addressed either as ``zoo:NAME`` or as a path to a ring-bundle
file. Classes on the command line are literals over the ring's basis labels
("3*a + 1/2*b") or ``sample:NAME`` references to the ring's declared classes.
Reports are deterministic for fixed inputs, flags and seed, in both output
modes; all numbers are exact rational strings.

Exit codes: 0 = every asserted property held, 1 = a mathematical assertion
failed (an inequality violated, a validation or positivity gate tripped),
2 = usage or parse error.

Each command handler returns (exit code, report, text lines). ``main`` is the
one place that adds ``command`` (the subcommand name) and ``ok`` (exit code
0) to the report, and the one place that turns a raised error into an exit
code and a stderr line, through the ordered table ``_EXITS``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable, Optional, Sequence

from . import zoo
from .bundle import _json_text, parse_ring_bundle, resolve_class, serialize_ring_bundle
from .errors import (
    BundleSemanticError,
    BundleSyntaxError,
    DegreeError,
    FlagError,
    MissingSamplesError,
    SingularSplitError,
    UnknownRingError,
    ValidationLimitError,
)
from .inequalities import (
    DIRECTION_CS,
    DIRECTIONS,
    check_cs,
    compute_g_decomposed,
    compute_g_direct,
    construct_counterexample,
    hodge_condition,
    kt_chain,
    verify_theorem,
)
from .lefschetz import gram_matrix_Q, mixed_lefschetz_decompose
from .linalg import Matrix, _ratios, int_from_str, rational_to_str
from .ring import (
    FLAG_KAHLER,
    FLAG_NEF,
    FLAG_NONE,
    ClassVector,
    IntersectionRing,
    MODE_STRICT,
    MixedSetup,
    ValidationIssue,
    ValidationReport,
    _check_setup_p,
    as_kahler,
    mixed_setup,
    sanity_check_kahler,
    validate_ring,
)


# -- serialization helpers ---------------------------------------------------

def _coeffs_json(c: ClassVector) -> list:
    return _ratios(c.re, c.den)


def _class_json(c: ClassVector) -> dict:
    return {
        "degree": c.degree,
        "coeffs": _coeffs_json(c),
        "expr": str(c),
    }


def _matrix_json(m: Matrix) -> list:
    return [_ratios(row, m.den) for row in m.num]


def _counterexample_json(ce) -> dict:
    return {"i0": ce.i0, "witness": _class_json(ce.witness), "theta": _class_json(ce.theta),
            "g": rational_to_str(ce.g_value)}


# -- argument plumbing ---------------------------------------------------------

def _load_ring(address: str) -> IntersectionRing:
    if address.startswith("zoo:"):
        return zoo.get(address[len("zoo:"):]).ring
    with open(address, encoding="utf-8") as fh:
        return parse_ring_bundle(fh.read(), source=address)


def _setup_class(ring: IntersectionRing, text: str, nef: bool) -> ClassVector:
    """Resolve a reference-class option and give it a usable positivity flag.

    Samples carry their declared flag. Bare literals are gated through the
    Kahler sanity checks unless --nef marks them as boundary classes.
    """
    c = resolve_class(ring, 1, text)
    if c.flag != FLAG_NONE:
        return c
    if nef:
        return c.with_flag(FLAG_NEF)
    return as_kahler(ring, c)


def _reference(ring: IntersectionRing, args) -> tuple[Callable[[], ClassVector], list[ClassVector]]:
    """Resolve w and the slots w_1 .. w_(n-2p), checking the range of p first.

    When --omegas is given, it names exactly n-2p classes (zero is a wrong
    count), which fill the slots; otherwise every slot holds w: --omega, else the
    first declared Kahler sample. w is a function, resolved on first use, once.
    """
    n, p = ring.n, args.p
    _check_setup_p(ring, p)
    nef = getattr(args, "nef", False)

    @functools.cache
    def omega() -> ClassVector:
        if args.omega is not None:
            return _setup_class(ring, args.omega, nef)
        samples = ring.kahler_samples()
        if not samples:
            raise MissingSamplesError(f"ring {ring.name!r} declares no Kahler samples")
        return samples[0]

    count = n - 2 * p
    if args.omegas is None:
        return omega, [omega()] * count if count else []
    texts = [t for chunk in args.omegas for t in chunk.split(";") if t.strip()]
    if len(texts) != count:
        raise DegreeError(f"--omegas needs exactly {count} classes, got {len(texts)}")
    return omega, [_setup_class(ring, t, nef) for t in texts]


def _build_setup(ring: IntersectionRing, args) -> MixedSetup:
    omega, omegas = _reference(ring, args)
    return mixed_setup(args.p, omega(), omegas)


def _class_prologue(args) -> tuple[MixedSetup, ClassVector, dict]:
    """Resolve ring, setup and alpha, in that order, and the shared report fields."""
    ring = _load_ring(args.ring)
    setup = _build_setup(ring, args)
    alpha = resolve_class(ring, args.p, args.alpha)
    report = {"ring": ring.name, "p": args.p, "alpha": _class_json(alpha),
              "setup": setup.describe()}
    return setup, alpha, report


# -- command handlers -----------------------------------------------------------

def _cmd_info(args) -> tuple[int, dict, list[str]]:
    ring = _load_ring(args.ring)
    report = {
        "ring": ring.name,
        "n": ring.n,
        "hodge": list(ring.hodge),
        "basis": [list(row) for row in ring.basis_labels],
        "samples": [
            {"name": s.name, "flag": s.flag, "coeffs": [rational_to_str(c) for c in s.coeffs]}
            for s in ring.samples
        ],
    }
    lines = [
        f"ring {ring.name!r}: n = {ring.n}, grading {tuple(ring.hodge)}",
        "basis: " + "; ".join(
            f"deg {p}: {', '.join(row)}" for p, row in enumerate(ring.basis_labels)
        ),
    ]
    for s in ring.samples:
        cls = ring.sample(s.name)
        lines.append(f"sample {s.name!r} [{s.flag}]: {cls}")
    return 0, report, lines


def _issue_records(issues) -> list[dict]:
    return [{"check": i.check, "location": i.location, "message": i.message} for i in issues]


def _cmd_validate(args) -> tuple[int, dict, list[str]]:
    try:
        ring = _load_ring(args.ring)
    except BundleSemanticError as exc:
        issues = getattr(exc, "issues", None) or [
            ValidationIssue(exc.constraint, exc.path, Exception.__str__(exc))
        ]
        report = {"ring": args.ring, "issues": _issue_records(issues)}
        return 1, report, [f"INVALID: {args.ring}"] + [f"  {i}" for i in issues]

    # Parsing a bundle file or a bundled zoo entry already ran validate_ring
    # and raised on any issue; only rings built by zoo code still need the checks.
    if args.ring.startswith("zoo:") and args.ring[len("zoo:"):] not in zoo._BUNDLED:
        ring_report = validate_ring(ring)
    else:
        ring_report = ValidationReport(ring.name)
    lines = [str(ring_report)]
    sample_reports = []
    failures = len(ring_report.issues)
    names = [s.name for s in ring.samples if s.flag == FLAG_KAHLER]
    for name, sample in zip(names, ring.kahler_samples()):
        check = sanity_check_kahler(ring, sample)
        sample_reports.append({
            "sample": name,
            "passed": check.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in check.checks
            ],
        })
        lines.append(f"kahler sample {name!r}: {'ok' if check.passed else 'FAIL'}")
        if not check.passed:
            failures += 1
            lines += [f"  {c}" for c in check.checks]
    report = {
        "ring": ring.name,
        "issues": _issue_records(ring_report.issues),
        "kahler_samples": sample_reports,
    }
    return (0 if failures == 0 else 1), report, lines


def _cmd_zoo(args) -> tuple[int, dict, list[str]]:
    if args.name:
        entry = zoo.get(args.name)
        sub = argparse.Namespace(ring=f"zoo:{args.name}")
        code, report, lines = _cmd_info(sub)
        report["note"] = entry.note
        lines.append(f"note: {entry.note}")
        return code, report, lines
    records = []
    lines = []
    for name in zoo.list_entries():
        entry = zoo.get(name)
        records.append({
            "name": name,
            "n": entry.ring.n,
            "hodge": list(entry.ring.hodge),
            "note": entry.note,
        })
        lines.append(f"{name:10s} n={entry.ring.n} grading {tuple(entry.ring.hodge)}  {entry.note}")
    return 0, {"entries": records}, lines


def _cmd_signature(args) -> tuple[int, dict, list[str]]:
    ring = _load_ring(args.ring)
    _, omegas = _reference(ring, args)
    form = gram_matrix_Q(ring, args.p, omegas)
    report = {
        "ring": ring.name,
        "p": args.p,
        "reference": [_class_json(w) for w in omegas],
        "signed": {
            "prefactor": f"(-1)^{args.p}",
            "gram": _matrix_json(form.gram),
            "inertia": list(form.inertia),
        },
        "unsigned": {
            "gram": _matrix_json(form.unsigned_gram),
            "inertia": list(form.unsigned_inertia),
        },
    }
    lines = [
        f"ring {ring.name!r} p={args.p}",
        f"signed convention   ((-1)^p prefactor): inertia {form.inertia}",
        f"unsigned convention (no prefactor)    : inertia {form.unsigned_inertia}",
    ]
    return 0, report, lines


def _cmd_decompose(args) -> tuple[int, dict, list[str]]:
    setup, alpha, report = _class_prologue(args)
    dec = mixed_lefschetz_decompose(alpha, setup)
    recon_ok = dec.reconstruct() == alpha
    certs_ok = all(c.is_zero for c in dec.certificates)
    report.update({
        "lambda": rational_to_str(dec.lam),
        "components": [_class_json(c) for c in dec.components],
        "certificates": [_class_json(c) for c in dec.certificates],
        "certificates_zero": certs_ok,
        "reconstruction_exact": recon_ok,
    })
    lines = [f"lambda = {dec.lam}"]
    for i, comp in enumerate(dec.components, start=1):
        lines.append(f"alpha_{i} = {comp}")
    lines.append(f"certificates zero: {certs_ok}; reconstruction exact: {recon_ok}")
    return (0 if recon_ok and certs_ok else 1), report, lines


def _cmd_g(args) -> tuple[int, dict, list[str]]:
    setup, alpha, report = _class_prologue(args)
    g = compute_g_direct(alpha, setup)
    report.update({"g": rational_to_str(g), "mode": setup.mode})
    lines = [f"g = {g} [{setup.mode}]"]
    agree = True
    if setup.mode == MODE_STRICT:
        decomposed = compute_g_decomposed(alpha, setup)
        agree = decomposed.value == g
        report["g_decomposed"] = rational_to_str(decomposed.value)
        report["component_terms"] = [rational_to_str(t) for t in decomposed.terms]
        report["two_route_agreement"] = agree
        lines.append(f"decomposed route: {decomposed.value} (agreement: {agree})")
    return (0 if agree else 1), report, lines


def _cmd_check(args) -> tuple[int, dict, list[str]]:
    setup, alpha, report = _class_prologue(args)
    verdict = check_cs(alpha, setup, args.direction)
    report.update({
        "direction": args.direction,
        "mode": verdict.mode,
        "g": rational_to_str(verdict.g_value),
        "relation": verdict.relation,
        "proportional": verdict.proportional,
        "satisfied": verdict.satisfied,
        "odd_components_vanish": verdict.odd_components_vanish,
        "even_components_vanish": verdict.even_components_vanish,
        "equality_uncharacterized": verdict.equality_uncharacterized,
    })
    return (0 if verdict.satisfied else 1), report, [verdict.summary()]


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    ring = _load_ring(args.ring)
    result = verify_theorem(ring, args.p, args.samples, args.seed, args.height)
    report = {
        "ring": ring.name,
        "p": args.p,
        "seed": args.seed,
        "height": args.height,
        "samples": result.samples_tested,
        "equality_cases": result.equality_count,
        "condition_cs": {
            "holds": result.condition_cs.holds,
            "failing": list(result.condition_cs.failing),
        },
        "condition_opposite": {
            "holds": result.condition_opp.holds,
            "failing": list(result.condition_opp.failing),
            "unconditional": result.condition_opp.unconditional,
        },
        "records": [
            {
                "index": r.index,
                "alpha": _coeffs_json(r.alpha),
                "omega": _coeffs_json(r.omega),
                "g": rational_to_str(r.g_value),
                "relation": r.relation,
                "proportional": r.proportional,
            }
            for r in result.records
        ],
        "violations": [
            {
                "index": v.index,
                "problem": v.problem,
                "g": rational_to_str(v.g_value),
                "alpha": _class_json(v.alpha),
            }
            for v in result.violations
        ],
        "counterexamples": {
            kind: _counterexample_json(ce) for kind, ce in sorted(result.counterexamples.items())
        },
    }
    return (0 if result.ok else 1), report, [str(result)]


def _cmd_counterexample(args) -> tuple[int, dict, list[str]]:
    ring = _load_ring(args.ring)
    setup = _build_setup(ring, args)
    condition = hodge_condition(ring, args.p, args.kind)
    ce = construct_counterexample(ring, args.p, setup, args.kind)
    report = {
        "ring": ring.name,
        "p": args.p,
        "kind": args.kind,
        "condition_holds": condition.holds,
        "setup": setup.describe(),
        "found": ce is not None,
    }
    if ce is None:
        lines = [
            f"no counterexample: the {args.kind} dimension condition "
            f"{'holds' if condition.holds else 'fails without a usable jump'}"
        ]
        return 0, report, lines
    report.update(_counterexample_json(ce))
    lines = [
        f"condition fails at i0 = {ce.i0}",
        f"witness = {ce.witness}",
        f"theta = {ce.theta}",
        f"g(theta) = {ce.g_value} ({'violates ' + args.kind})",
    ]
    return 0, report, lines


def _cmd_kt(args) -> tuple[int, dict, list[str]]:
    ring = _load_ring(args.ring)
    d1 = _setup_class(ring, args.d1, args.nef)
    d2 = _setup_class(ring, args.d2, args.nef)
    result = kt_chain(ring, d1, d2)
    report = {
        "ring": ring.name,
        "d1": _class_json(d1),
        "d2": _class_json(d2),
        "mode": result.mode,
        "proportional": result.proportional,
        "steps": [
            {
                "k": s.k,
                "lhs_squared": rational_to_str(s.lhs_squared),
                "rhs_product": rational_to_str(s.rhs_product),
                "verdict": s.verdict,
            }
            for s in result.steps
        ],
        "all_hold": result.all_hold,
    }
    return (0 if result.all_hold else 1), report, [str(result)]


def _cmd_export(args) -> tuple[int, dict, list[str]]:
    ring = _load_ring(args.ring)
    text = serialize_ring_bundle(ring)
    return 0, {"ring": ring.name, "document": text}, [text.rstrip("\n")]


# -- parser ----------------------------------------------------------------------

def _int_option(text: str) -> int:
    """An integer option read by ``int_from_str``; a refusal is a usage error (exit 2)."""
    try:
        return int_from_str(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built on first use and shared for the process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    ringed = argparse.ArgumentParser(add_help=False, parents=[common])
    ringed.add_argument("ring")

    parser = argparse.ArgumentParser(
        prog="hodgecs",
        description="Exact intersection-inequality and signature checks on even cohomology rings.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, handler, help_text, parent=ringed):
        p = sub.add_parser(name, parents=[parent], help=help_text)
        p.set_defaults(handler=handler)
        return p

    def add_reference_command(name, handler, help_text, alpha, nef=True):
        # --omega is required exactly where --alpha is.
        p = add(name, handler, help_text)
        p.add_argument("-p", type=_int_option, required=True)
        if alpha:
            p.add_argument("--alpha", required=True)
        p.add_argument("--omega", required=alpha,
                       help="reference class w; it fills every slot unless --omegas is given")
        p.add_argument("--omegas", action="append",
                       help="reference classes (';'-separated, repeatable)")
        if nef:
            p.add_argument("--nef", action="store_true", help="flag literal reference classes nef")
        return p

    add("info", _cmd_info, "describe a ring")
    add("validate", _cmd_validate, "run all ring invariants and sample gates")
    p = add("zoo", _cmd_zoo, "list or describe bundled rings", parent=common)
    p.add_argument("name", nargs="?", default=None)

    add_reference_command("signature", _cmd_signature,
                          "gram matrix and inertia of the degree-p form", alpha=False)
    add_reference_command("decompose", _cmd_decompose,
                          "mixed Lefschetz decomposition of a class", alpha=True)
    add_reference_command("g", _cmd_g, "evaluate g(alpha, omega; Omega_p)", alpha=True)
    p = add_reference_command("check", _cmd_check, "inequality verdict for one class", alpha=True)
    p.add_argument("--direction", choices=DIRECTIONS, default=DIRECTION_CS)

    p = add("verify", _cmd_verify, "seeded verification of both directions")
    p.add_argument("-p", type=_int_option, required=True)
    p.add_argument("--samples", type=_int_option, default=100)
    p.add_argument("--seed", type=_int_option, default=0, help="PRNG seed (default: 0)")
    p.add_argument("--height", type=_int_option, default=10,
                   help="bound on sampled numerators/denominators (default: 10)")

    p = add_reference_command("counterexample", _cmd_counterexample,
                              "build a violating class if one exists", alpha=False, nef=False)
    p.add_argument("--kind", choices=DIRECTIONS, default=DIRECTION_CS)

    p = add("kt", _cmd_kt, "log-concavity chain for two divisor classes")
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    p.add_argument("--nef", action="store_true", help="flag literal divisors nef")

    add("export", _cmd_export, "print the canonical ring-bundle document")
    return parser


# (exception types, exit code, stderr prefix). The first row that matches
# wins, so a subclass must come before its base class: the bundle errors,
# DegreeError and FlagError are ValueErrors.
_EXITS = (
    ((BundleSyntaxError,), 2, "syntax error"),
    ((BundleSemanticError,), 2, "invalid ring bundle"),
    ((UnknownRingError, DegreeError, ValidationLimitError), 2, "error"),
    ((FlagError, SingularSplitError, ArithmeticError), 1, "assertion failed"),
    ((ValueError, OSError), 2, "error"),
)
_HANDLED = tuple(t for types, _, _ in _EXITS for t in types)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and print its report; returns the exit code.

    The interpreter's int/str digit limit is lifted while the command runs and
    prints, and restored after: every digit string hodgecs reads is bounded
    first (``int_from_str``, ``rational_from_str``), and an exact result may be
    longer. Interpreters before 3.10.7 have no limit and no setter.
    """
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


def _run(argv: Optional[Sequence[str]]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        code, report, lines = args.handler(args)
    except _HANDLED as exc:
        code, prefix = next((c, pre) for types, c, pre in _EXITS if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code

    report["command"] = args.cmd
    report["ok"] = code == 0
    try:
        if args.output == "json":
            print(_json_text(report))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (``| head``); the report's exit code still
        # stands. Point stdout at devnull so the exit-time flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
