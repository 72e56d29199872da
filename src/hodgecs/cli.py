"""Command-line interface.

Rings are addressed either as ``zoo:NAME`` or as a path to a ring-bundle
file. Classes on the command line are literals over the ring's basis labels
("3*a + 1/2*b") or ``sample:NAME`` references to the ring's declared classes.
Reports are deterministic for fixed inputs, flags and seed, in both output
modes; all numbers are exact rational strings.

Exit codes: 0 = every asserted property held, 1 = a mathematical assertion
failed (an inequality violated, a validation or positivity gate tripped),
2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import zoo
from .bundle import parse_ring_bundle, resolve_class, serialize_ring_bundle
from .errors import (
    BundleSemanticError,
    BundleSyntaxError,
    DegreeError,
    FlagError,
    MissingSamplesError,
    SingularSplitError,
    UnknownRingError,
)
from .gaussian import GaussianRational, rational_to_str
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
from .lefschetz import gram_matrix_Q
from .linalg import Matrix
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
    as_kahler,
    mixed_setup,
    sanity_check_kahler,
    validate_ring,
)


# -- serialization helpers ---------------------------------------------------

def _scalar(x) -> object:
    """Exact JSON form of a scalar: "p/q" when real, {"re","im"} otherwise."""
    if isinstance(x, GaussianRational):
        if x.is_real:
            return rational_to_str(x.re)
        return x.to_json()
    return rational_to_str(Fraction(x))


def _class_json(c: ClassVector) -> dict:
    return {
        "degree": c.degree,
        "coeffs": [_scalar(x) for x in c.coeffs],
        "expr": str(c),
    }


def _matrix_json(m: Matrix) -> list:
    return [[_scalar(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


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

    --omegas must name exactly n-2p classes, which fill the slots; otherwise
    every slot holds w: --omega, else the first declared Kahler sample. w is
    returned as a function and resolved on first use, once.
    """
    n, p = ring.n, args.p
    if not 1 <= p <= n // 2:
        raise DegreeError(f"p must satisfy 1 <= p <= {n // 2}, got {p}")
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
    texts = [t for chunk in args.omegas or [] for t in chunk.split(";") if t.strip()]
    if not texts:
        return omega, [omega()] * count if count else []
    if len(texts) != count:
        raise DegreeError(f"--omegas needs exactly {count} classes, got {len(texts)}")
    return omega, [_setup_class(ring, t, nef) for t in texts]


def _build_setup(ring: IntersectionRing, args) -> MixedSetup:
    omega, omegas = _reference(ring, args)
    return mixed_setup(args.p, omega(), omegas)


# -- command handlers -----------------------------------------------------------

def _cmd_info(args) -> tuple[int, dict, list[str]]:
    ring = _load_ring(args.ring)
    report = {
        "command": "info",
        "ring": ring.name,
        "n": ring.n,
        "hodge": list(ring.hodge),
        "basis": [list(row) for row in ring.basis_labels],
        "samples": [
            {"name": s.name, "flag": s.flag, "coeffs": [rational_to_str(c) for c in s.coeffs]}
            for s in ring.samples
        ],
        "ok": True,
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
        report = {"command": "validate", "ring": args.ring, "ok": False,
                  "issues": _issue_records(issues)}
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
    for s in ring.samples:
        if s.flag != FLAG_KAHLER:
            continue
        check = sanity_check_kahler(ring, ring.sample(s.name))
        sample_reports.append({
            "sample": s.name,
            "passed": check.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in check.checks
            ],
        })
        lines.append(f"kahler sample {s.name!r}: {'ok' if check.passed else 'FAIL'}")
        if not check.passed:
            failures += 1
            lines += [f"  {c}" for c in check.checks]
    report = {
        "command": "validate",
        "ring": ring.name,
        "ok": failures == 0,
        "issues": _issue_records(ring_report.issues),
        "kahler_samples": sample_reports,
    }
    return (0 if failures == 0 else 1), report, lines


def _cmd_zoo(args) -> tuple[int, dict, list[str]]:
    if args.name:
        entry = zoo.get(args.name)
        sub = argparse.Namespace(ring=f"zoo:{args.name}")
        code, report, lines = _cmd_info(sub)
        report["command"] = "zoo"
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
    return 0, {"command": "zoo", "entries": records, "ok": True}, lines


def _cmd_signature(args) -> tuple[int, dict, list[str]]:
    ring = _load_ring(args.ring)
    _, omegas = _reference(ring, args)
    form = gram_matrix_Q(ring, args.p, omegas)
    report = {
        "command": "signature",
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
        "ok": True,
    }
    lines = [
        f"ring {ring.name!r} p={args.p}",
        f"signed convention   ((-1)^p prefactor): inertia {form.inertia}",
        f"unsigned convention (no prefactor)    : inertia {form.unsigned_inertia}",
    ]
    return 0, report, lines


def _cmd_decompose(args) -> tuple[int, dict, list[str]]:
    ring = _load_ring(args.ring)
    setup = _build_setup(ring, args)
    alpha = resolve_class(ring, args.p, args.alpha)
    dec = setup.decomposer.decompose(alpha)
    recon_ok = dec.reconstruct() == alpha
    certs_ok = all(c.is_zero for c in dec.certificates)
    report = {
        "command": "decompose",
        "ring": ring.name,
        "p": args.p,
        "alpha": _class_json(alpha),
        "setup": setup.describe(),
        "lambda": _scalar(dec.lam),
        "components": [_class_json(c) for c in dec.components],
        "certificates": [_class_json(c) for c in dec.certificates],
        "certificates_zero": certs_ok,
        "reconstruction_exact": recon_ok,
        "ok": recon_ok and certs_ok,
    }
    lines = [f"lambda = {dec.lam}"]
    for i, comp in enumerate(dec.components, start=1):
        lines.append(f"alpha_{i} = {comp}")
    lines.append(f"certificates zero: {certs_ok}; reconstruction exact: {recon_ok}")
    return (0 if recon_ok and certs_ok else 1), report, lines


def _cmd_g(args) -> tuple[int, dict, list[str]]:
    ring = _load_ring(args.ring)
    setup = _build_setup(ring, args)
    alpha = resolve_class(ring, args.p, args.alpha)
    g = compute_g_direct(alpha, setup)
    report = {
        "command": "g",
        "ring": ring.name,
        "p": args.p,
        "alpha": _class_json(alpha),
        "setup": setup.describe(),
        "g": rational_to_str(g),
        "mode": setup.mode,
        "ok": True,
    }
    lines = [f"g = {g} [{setup.mode}]"]
    if setup.mode == MODE_STRICT:
        decomposed = compute_g_decomposed(alpha, setup)
        agree = decomposed.value == g
        report["g_decomposed"] = rational_to_str(decomposed.value)
        report["component_terms"] = [rational_to_str(t) for t in decomposed.terms]
        report["two_route_agreement"] = agree
        report["ok"] = agree
        lines.append(f"decomposed route: {decomposed.value} (agreement: {agree})")
        if not agree:
            return 1, report, lines
    return 0, report, lines


def _cmd_check(args) -> tuple[int, dict, list[str]]:
    ring = _load_ring(args.ring)
    setup = _build_setup(ring, args)
    alpha = resolve_class(ring, args.p, args.alpha)
    verdict = check_cs(alpha, setup, args.direction)
    report = {
        "command": "check",
        "ring": ring.name,
        "p": args.p,
        "direction": args.direction,
        "alpha": _class_json(alpha),
        "setup": setup.describe(),
        "mode": verdict.mode,
        "g": rational_to_str(verdict.g_value),
        "relation": verdict.relation,
        "proportional": verdict.proportional,
        "satisfied": verdict.satisfied,
        "odd_components_vanish": verdict.odd_components_vanish,
        "even_components_vanish": verdict.even_components_vanish,
        "equality_uncharacterized": verdict.equality_uncharacterized,
        "ok": verdict.satisfied,
    }
    return (0 if verdict.satisfied else 1), report, [verdict.summary()]


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    ring = _load_ring(args.ring)
    result = verify_theorem(ring, args.p, args.samples, args.seed, args.height)
    report = {
        "command": "verify",
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
                "alpha": [_scalar(c) for c in r.alpha.coeffs],
                "omega": [_scalar(c) for c in r.omega.coeffs],
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
            kind: {
                "i0": ce.i0,
                "witness": _class_json(ce.witness),
                "theta": _class_json(ce.theta),
                "g": rational_to_str(ce.g_value),
            }
            for kind, ce in sorted(result.counterexamples.items())
        },
        "ok": result.ok,
    }
    return (0 if result.ok else 1), report, [str(result)]


def _cmd_counterexample(args) -> tuple[int, dict, list[str]]:
    ring = _load_ring(args.ring)
    setup = _build_setup(ring, args)
    condition = hodge_condition(ring, args.p, args.kind)
    ce = construct_counterexample(ring, args.p, setup, args.kind)
    report = {
        "command": "counterexample",
        "ring": ring.name,
        "p": args.p,
        "kind": args.kind,
        "condition_holds": condition.holds,
        "setup": setup.describe(),
        "ok": True,
    }
    if ce is None:
        report["found"] = False
        lines = [
            f"no counterexample: the {args.kind} dimension condition "
            f"{'holds' if condition.holds else 'fails without a usable jump'}"
        ]
        return 0, report, lines
    report["found"] = True
    report["i0"] = ce.i0
    report["witness"] = _class_json(ce.witness)
    report["theta"] = _class_json(ce.theta)
    report["g"] = rational_to_str(ce.g_value)
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
        "command": "kt",
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
        "ok": result.all_hold,
    }
    return (0 if result.all_hold else 1), report, [str(result)]


def _cmd_export(args) -> tuple[int, dict, list[str]]:
    ring = _load_ring(args.ring)
    text = serialize_ring_bundle(ring)
    report = {"command": "export", "ring": ring.name, "document": text, "ok": True}
    return 0, report, [text.rstrip("\n")]


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    common.add_argument("--seed", type=int, default=0, help="PRNG seed (default: 0)")
    common.add_argument("--height", type=int, default=10,
                        help="bound on sampled numerators/denominators (default: 10)")

    parser = argparse.ArgumentParser(
        prog="hodgecs",
        description="Exact intersection-inequality and signature checks on even cohomology rings.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, handler, help_text, **kwargs):
        p = sub.add_parser(name, parents=[common], help=help_text, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add("info", _cmd_info, "describe a ring")
    p.add_argument("ring")

    p = add("validate", _cmd_validate, "run all ring invariants and sample gates")
    p.add_argument("ring")

    p = add("zoo", _cmd_zoo, "list or describe bundled rings")
    p.add_argument("name", nargs="?", default=None)

    p = add("signature", _cmd_signature, "gram matrix and inertia of the degree-p form")
    p.add_argument("ring")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("--omega", default=None, help="use one class for every reference slot")
    p.add_argument("--omegas", action="append", help="reference classes (';'-separated, repeatable)")
    p.add_argument("--nef", action="store_true", help="flag literal reference classes nef")

    def add_class_command(name, handler, help_text):
        p = add(name, handler, help_text)
        p.add_argument("ring")
        p.add_argument("-p", type=int, required=True)
        p.add_argument("--alpha", required=True)
        p.add_argument("--omega", required=True)
        p.add_argument("--omegas", action="append")
        return p

    p = add_class_command("decompose", _cmd_decompose, "mixed Lefschetz decomposition of a class")
    p.add_argument("--nef", action="store_true")

    p = add_class_command("g", _cmd_g, "evaluate g(alpha, omega; Omega_p)")
    p.add_argument("--nef", action="store_true")

    p = add_class_command("check", _cmd_check, "inequality verdict for one class")
    p.add_argument("--direction", choices=DIRECTIONS, default=DIRECTION_CS)
    p.add_argument("--nef", action="store_true")

    p = add("verify", _cmd_verify, "seeded verification of both directions")
    p.add_argument("ring")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)

    p = add("counterexample", _cmd_counterexample, "build a violating class if one exists")
    p.add_argument("ring")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("--kind", choices=DIRECTIONS, default=DIRECTION_CS)
    p.add_argument("--omega", default=None)
    p.add_argument("--omegas", action="append")

    p = add("kt", _cmd_kt, "log-concavity chain for two divisor classes")
    p.add_argument("ring")
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    p.add_argument("--nef", action="store_true", help="flag literal divisors nef")

    p = add("export", _cmd_export, "print the canonical ring-bundle document")
    p.add_argument("ring")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        code, report, lines = args.handler(args)
    except BundleSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except BundleSemanticError as exc:
        print(f"invalid ring bundle: {exc}", file=sys.stderr)
        return 2
    except (UnknownRingError, DegreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FlagError, SingularSplitError, ArithmeticError) as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
