"""The benchmark's workloads: set-up, the op schedule and the output checks.

Every workload is a closed loop driven by one client: op ``i`` is built by
``next_op(i)`` from the workload seed and ``i`` alone, runs to completion, and
only then is op ``i + 1`` built. The op kinds follow a fixed cycle, so the mix
of costs is the same for every seed; the seed picks the numbers (CLI seeds,
class and setup indices, corruption choices).

``next_op`` returns ``(label, run, check)``. ``run()`` is the timed call and
returns the raw result; ``check(result)`` asserts invariants that hold for
any seed and returns the canonical text that feeds the output digest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

from hodgecs import bundle, cli, inequalities, lefschetz, ring, sampling, zoo

SAMPLES = 50          # --samples of every verify op
HEIGHTS = (10, 1000)  # --height; every fourth zoo-audit op uses the large one
CLASS_HEIGHT = 10     # coefficient height of scaled-lefschetz classes and setups
DECOMPOSE_BATCH = 8   # classes shared by one decomposer in a decompose-batch op


class CheckFailed(Exception):
    """An op's output broke one of the invariants its workload asserts."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _op_rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds are hashed with SHA-512, so draws repeat across processes.
    return random.Random(f"{workload}/{seed}/{index}")


def _hodge_holds(hodge, p: int, kind: str) -> bool:
    """Dimension condition of a direction, recomputed from the grading."""
    if kind == "cs":
        return all(hodge[2 * i] == hodge[2 * i + 1] for i in range((p + 1) // 2))
    return p == 1 or all(hodge[2 * i - 1] == hodge[2 * i] for i in range(1, p // 2 + 1))


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_text(result) -> str:
    code, out, err = result
    return f"exit {code}\n{out}--\n{err}"


# -- ring builders -------------------------------------------------------------

def power_product(k: int, n: int, prefix: str) -> zoo.ZooEntry:
    """(P^n)^k through zoo.product, one label family per factor."""
    entry = zoo.projective_space(n, f"{prefix}0")
    for i in range(1, k):
        entry = zoo.product(entry, zoo.projective_space(n, f"{prefix}{i}"))
    return entry


def with_factor_samples(entry: zoo.ZooEntry, factors: int) -> ring.IntersectionRing:
    """Rebuild a product of projective spaces with one Kahler sample per factor.

    zoo.product declares a single Kahler sample for (P^1)^k and P^2 x P^2 x
    P^2, so every random strict setup would be a multiple of one class.
    Sample j is (1, ..., 2, ..., 1) with the 2 on factor j.
    """
    r = entry.ring
    width = r.dim(1) // factors
    samples = []
    for j in range(factors):
        coeffs = tuple(Fraction(2 if f == j else 1) for f in range(factors) for _ in range(width))
        samples.append(ring.RingSample(f"k{j}", ring.FLAG_KAHLER, coeffs))
    samples += [s for s in r.samples if s.flag != ring.FLAG_KAHLER]
    return ring.IntersectionRing(r.name, r.n, r.hodge, r.basis_labels, r.products,
                                 r.integral, samples)


def gate_samples(r: ring.IntersectionRing) -> None:
    """Every declared Kahler sample must pass the sanity gate before timing."""
    for c in r.kahler_samples():
        report = ring.sanity_check_kahler(r, c)
        if not report.passed:
            raise RuntimeError(f"set-up: a declared Kahler sample of {r.name} fails\n{report}")


# -- zoo-audit -------------------------------------------------------------------

class ZooAudit:
    """``hodgecs verify zoo:R -p P --samples 50`` over all 13 (ring, p) pairs."""

    name = "zoo-audit"
    # 13 pairs times 4 height slots: each pair meets --height 1000 once.
    cycle = 52

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        zoo._CACHE.clear()  # the first zoo:flag3 call parses a bundle; set-up pays it
        self.pairs = []
        for entry_name in zoo.list_entries():
            r = zoo.get(entry_name).ring
            self.pairs += [(entry_name, r.hodge, p) for p in range(1, r.n // 2 + 1)]
        if len(self.pairs) * 4 != self.cycle:
            raise RuntimeError(f"zoo has {len(self.pairs)} admissible pairs, expected 13")

    def next_op(self, i: int):
        entry_name, hodge, p = self.pairs[i % len(self.pairs)]
        height = HEIGHTS[1] if i % 4 == 3 else HEIGHTS[0]
        cli_seed = _op_rng(self.name, self.seed, i).randrange(1 << 31)
        argv = ["verify", f"zoo:{entry_name}", "-p", str(p), "--samples", str(SAMPLES),
                "--seed", str(cli_seed), "--height", str(height), "--output", "json"]

        def check(result) -> str:
            code, out, err = result
            expect(code == 0, f"exit {code}: {err.strip()}")
            report = json.loads(out)
            expect(report["ok"] and not report["violations"], "verify reported violations")
            expect(report["samples"] == SAMPLES, f"{report['samples']} samples")
            expect(len(report["records"]) == SAMPLES, "record count")
            for kind, key in (("cs", "condition_cs"), ("opposite", "condition_opposite")):
                holds = _hodge_holds(hodge, p, kind)
                expect(report[key]["holds"] == holds, f"{kind} condition")
                expect((kind in report["counterexamples"]) == (not holds),
                       f"{kind} counterexample presence")
            for ce in report["counterexamples"].values():
                g = Fraction(ce["g"])
                expect(g != 0, "counterexample with g = 0")
            return _cli_text(result)

        return f"verify {entry_name} p={p} h={height}", lambda: run_cli(argv), check


# -- bundle-load -------------------------------------------------------------------

# Documents, largest last. Each builder returns a ZooEntry.
DOCUMENTS = (
    ("blp6", lambda: zoo.blowup_pn(6)),
    ("p1x4", lambda: power_product(4, 1, "x")),
    ("blp8", lambda: zoo.blowup_pn(8)),
    ("p3xp3", lambda: zoo.product(zoo.projective_space(3, "u"), zoo.projective_space(3, "v"))),
    ("p1x3p2", lambda: zoo.product(power_product(3, 1, "x"), zoo.projective_space(2, "y"))),
    ("p2x3", lambda: power_product(3, 2, "y")),
    ("p1x5", lambda: power_product(5, 1, "x")),
)

# Cycle of (command, document, corruption). Corrupted copies must exit 1
# under validate and 2 under info, with the expected first diagnostic.
BUNDLE_OPS = (
    [(cmd, doc, None) for doc, _ in DOCUMENTS for cmd in ("info", "export", "validate")]
    + [
        ("validate", "p1x3p2", "associativity"),
        ("info", "p2x3", "associativity"),
        ("validate", "p1x4", "pairing"),
        ("info", "p3xp3", "pairing"),
        ("validate", "p1x5", "mirror"),
        ("info", "p1x5", "mirror"),
    ]
)
# Ops run three times per cycle. Per-op latency jitters by 10-20 % on a shared
# host, so a quantile that falls on a jump between document sizes swings by
# the size of the jump. The repeats put the median inside the group of 50-60
# ms ops (validating blp6; parsing (P^1)^4, blp8 and P^3 x P^3; the pairing
# rejections) and p90 inside the group of 0.37-0.41 s ops (parsing (P^1)^5,
# validating (P^1)^3 x P^2).
BUNDLE_REPEATED = {
    ("validate", "blp6", None),
    ("info", "p1x4", None), ("export", "p1x4", None),
    ("info", "blp8", None), ("export", "blp8", None),
    ("info", "p3xp3", None), ("export", "p3xp3", None),
    ("validate", "p1x4", "pairing"), ("info", "p3xp3", "pairing"),
    ("validate", "p1x3p2", None),
    ("info", "p1x5", None), ("export", "p1x5", None),
}
BUNDLE_CYCLE = [op for op in BUNDLE_OPS for _ in range(3 if op in BUNDLE_REPEATED else 1)]


def _corrupt(doc: dict, kind: str, rng: random.Random) -> tuple[dict, str, str, str]:
    """Corrupt a parsed document in place; return it and its expected first diagnostic.

    Returns (document, check, location, message). Every element of these rings
    of degree two or more is a product of degree-one classes and every
    multiplication map below the middle is injective, so changing any one
    product record breaks associativity.
    """
    records = doc["products"]
    if kind == "associativity":
        rec = rng.choice(records)
        k = rng.randrange(len(rec["out"]))
        rec["out"][k] = str(Fraction(rec["out"][k]) + rng.randint(1, 9))
        return doc, "associativity", "", "products do not associate"
    if kind == "pairing":
        doc["integral"] = ["0"]
        return doc, "poincare-duality", "pairing p=0", "rank 0 < 1: pairing is degenerate"
    # A mirrored record of a pair of distinct basis elements, with another output.
    rec = rng.choice([r for r in records if (r["da"], r["ia"]) != (r["db"], r["ib"])])
    out = list(rec["out"])
    k = rng.randrange(len(out))
    out[k] = str(Fraction(out[k]) + rng.randint(1, 9))
    mirror = {"da": rec["db"], "ia": rec["ib"], "db": rec["da"], "ib": rec["ia"], "out": out}
    at = rng.randrange(len(records) + 1)
    original = records.index(rec)
    records.insert(at, mirror)
    first, later = sorted((at, original + (1 if at <= original else 0)))
    dup = records[later]
    message = (f"pair ({dup['da']},{dup['ia']})x({dup['db']},{dup['ib']}) already given by "
               f"products[{first}] with a different output")
    return doc, "commutativity", f"products[{later}]", message


class BundleLoad:
    """``hodgecs info|export|validate PATH`` on ring-bundle files."""

    name = "bundle-load"
    cycle = len(BUNDLE_CYCLE)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        os.makedirs(workdir, exist_ok=True)
        self.paths, self.canonical, self.rings = {}, {}, {}
        for doc_name, build in DOCUMENTS:
            r = build().ring
            text = bundle.serialize_ring_bundle(r)
            path = os.path.join(workdir, f"{doc_name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths[doc_name], self.canonical[doc_name], self.rings[doc_name] = path, text, r
        # One corrupted copy per (slot, cycle parity) so the choices vary with
        # the seed and within a run, while every run sees the same op kinds.
        self.corrupted = {}
        rng = random.Random(f"{self.name}/{seed}/corrupt")
        for slot, (cmd, doc_name, kind) in enumerate(BUNDLE_CYCLE):
            if kind is None:
                continue
            for parity in (0, 1):
                doc, check, location, message = _corrupt(
                    json.loads(self.canonical[doc_name]), kind, rng)
                path = os.path.join(workdir, f"{doc_name}.{kind}.{slot}.{parity}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(doc, indent=2) + "\n")
                self.corrupted[(slot, parity)] = (path, check, location, message)

    def next_op(self, i: int):
        slot = i % self.cycle
        cmd, doc_name, kind = BUNDLE_CYCLE[slot]
        if kind is not None:
            return self._corrupted_op(cmd, *self.corrupted[(slot, (i // self.cycle) % 2)])
        path = self.paths[doc_name]
        r = self.rings[doc_name]
        argv = [cmd, path]

        def check(result) -> str:
            code, out, err = result
            expect(code == 0, f"{cmd} {doc_name}: exit {code}: {err.strip()}")
            lines = out.splitlines()
            if cmd == "info":
                expect(lines[0] == f"ring {r.name!r}: n = {r.n}, grading {tuple(r.hodge)}",
                       f"info header {lines[0]!r}")
            elif cmd == "export":
                expect(out == self.canonical[doc_name], "export differs from the canonical file")
            else:
                expect(lines[0] == f"ring {r.name!r}: all checks passed", f"validate {lines[0]!r}")
                gated = [ln for ln in lines[1:] if ln.startswith("kahler sample")]
                expect(len(gated) == len(r.kahler_samples())
                       and all(ln.endswith(": ok") for ln in gated), "kahler sample gates")
            return _cli_text(result)

        return f"{cmd} {doc_name}", lambda: run_cli(argv), check

    def _corrupted_op(self, cmd, path, check_name, location, message):
        argv = [cmd, path]

        def check(result) -> str:
            code, out, err = result
            if cmd == "validate":
                expect(code == 1, f"validate of a corrupted copy: exit {code}")
                lines = out.splitlines()
                expect(lines[0] == f"INVALID: {path}", f"validate header {lines[0]!r}")
                first = lines[1].strip()
                expect(first.startswith(f"[{check_name}] {location}")
                       and first.endswith(f": {message}"), f"first diagnostic {first!r}")
            else:
                expect(code == 2, f"info of a corrupted copy: exit {code}")
                line = err.strip()
                prefix = f"invalid ring bundle: {location}"
                expect(line.startswith(prefix) and line.endswith(f": {message}"),
                       f"first diagnostic {line!r}")
            return _cli_text(result)

        return f"{cmd} {os.path.basename(path)}", lambda: run_cli(argv), check


# -- scaled-lefschetz ---------------------------------------------------------------

# (name, builder, ops per kind and p in a cycle). Op costs span 1 ms to 2 s
# with few ops at any one cost, and per-op latency jitters by 10-20 % on a
# shared host, so a quantile between two sparse costs swings by the gap.
# Running the blp8 ops (1-30 ms) ten times and the (P^1)^5 and P^2 x P^2 x
# P^2 ops (15-400 ms) twice puts the median among the blp8 ops and p90 among
# the dense 0.1-0.15 s ops of the two; (P^1)^6 still takes most of the time.
SCALED_RINGS = (
    ("p1x5", lambda: with_factor_samples(power_product(5, 1, "x"), 5), 2),
    ("p1x6", lambda: with_factor_samples(power_product(6, 1, "x"), 6), 1),
    ("p2x3", lambda: with_factor_samples(power_product(3, 2, "y"), 3), 2),
    ("blp8", lambda: zoo.blowup_pn(8).ring, 10),
)
SCALED_KINDS = ("signature", "hr", "decompose-batch", "g", "check", "counterexample", "kt")


class ScaledLefschetz:
    """Library calls of one CLI command each, on rings loaded once in set-up."""

    name = "scaled-lefschetz"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.rings, repeats = {}, {}
        for ring_name, build, repeat in SCALED_RINGS:
            r = build()
            report = ring.validate_ring(r)
            if not report.ok:
                raise RuntimeError(f"set-up: {report}")
            gate_samples(r)
            self.rings[ring_name], repeats[ring_name] = r, repeat
        self.slots = [
            (kind, ring_name, p)
            for ring_name, r in self.rings.items()
            for p in range(2, r.n // 2 + 1)
            for kind in SCALED_KINDS
            if kind != "kt" or p == 2
            for _ in range(repeats[ring_name])
        ]
        self.cycle = len(self.slots)

    def next_op(self, i: int):
        kind, ring_name, p = self.slots[i % self.cycle]
        r = self.rings[ring_name]
        rng = _op_rng(self.name, self.seed, i)
        setup_index, class_index = rng.randrange(1 << 20), rng.randrange(1 << 20)
        make = getattr(self, "_" + kind.replace("-", "_"))
        run, check = make(r, p, rng, setup_index, class_index)
        return f"{kind} {ring_name} p={p}", run, check

    def _strict(self, r, p, index):
        return sampling.random_strict_setup(r, p, CLASS_HEIGHT, self.seed, index)

    def _class(self, r, p, index):
        return sampling.sample_random_class(r, p, CLASS_HEIGHT, self.seed, index)

    def _signature(self, r, p, rng, si, ci):
        def run():
            setup = self._strict(r, p, si)
            return lefschetz.gram_matrix_Q(r, p, setup.omegas)

        def check(form) -> str:
            expect(form.inertia[2] == 0 and form.unsigned_inertia[2] == 0, "radical")
            expect(sum(form.inertia) == r.dim(p), "inertia size")
            return f"{form.inertia} {form.unsigned_inertia} {form.gram!r}"

        return run, check

    def _hr(self, r, p, rng, si, ci):
        def run():
            setup = self._strict(r, p, si)
            return lefschetz.hr_check(r, p, setup.omega, setup.omegas)

        def check(report) -> str:
            expect(report.passed, f"hr_check: {report}")
            expect(report.primitive.dim == r.dim(p) - r.dim(p - 1), "primitive dimension")
            return f"{report} {report.restricted_gram!r}"

        return run, check

    def _decompose_batch(self, r, p, rng, si, ci):
        def run():
            setup = self._strict(r, p, si)
            decomposer = lefschetz.LefschetzDecomposer(setup)
            return [decomposer.decompose(self._class(r, p, ci + k))
                    for k in range(DECOMPOSE_BATCH)]

        def check(results) -> str:
            parts = []
            for dec in results:
                expect(dec.reconstruct() == dec.alpha, "reconstruction")
                expect(all(c.is_zero for c in dec.certificates), "certificates")
                parts.append(f"{dec.lam} " + " | ".join(str(c) for c in dec.components))
            return "\n".join(parts)

        return run, check

    def _g(self, r, p, rng, si, ci):
        def run():
            setup = self._strict(r, p, si)
            alpha = self._class(r, p, ci)
            return (inequalities.compute_g_direct(alpha, setup),
                    inequalities.compute_g_decomposed(alpha, setup))

        def check(result) -> str:
            direct, decomposed = result
            expect(direct == decomposed.value, f"two routes disagree: {direct} vs {decomposed.value}")
            return f"{direct} {decomposed.terms}"

        return run, check

    def _check(self, r, p, rng, si, ci):
        direction = rng.choice(inequalities.DIRECTIONS)

        def run():
            setup = self._strict(r, p, si)
            return inequalities.check_cs(self._class(r, p, ci), setup, direction)

        def check(v) -> str:
            g = v.g_value
            expect(v.relation == ("zero" if g == 0 else "strictly_positive" if g > 0
                                  else "strictly_negative"), "relation")
            expect(v.satisfied == (g >= 0 if direction == "cs" else g <= 0), "satisfied")
            if _hodge_holds(r.hodge, p, direction):
                expect(v.satisfied, f"{direction} violated although its condition holds")
            # Sign law: (-1)^i t_i >= 0 for the level-i term, and g is their sum.
            expect(not v.odd_components_vanish or g >= 0, "odd components vanish but g < 0")
            expect(not v.even_components_vanish or g <= 0, "even components vanish but g > 0")
            expect(not v.proportional or g == 0, "proportional class with g != 0")
            return v.summary()

        return run, check

    def _counterexample(self, r, p, rng, si, ci):
        kinds = [k for k in inequalities.DIRECTIONS if not _hodge_holds(r.hodge, p, k)]

        def run():
            setup = self._strict(r, p, si)
            return [inequalities.construct_counterexample(r, p, setup, k) for k in kinds]

        def check(found) -> str:
            parts = []
            for kind, ce in zip(kinds, found):
                expect(ce is not None, f"no {kind} counterexample")
                expect(ce.g_value < 0 if kind == "cs" else ce.g_value > 0, "wrong side")
                expect(not ce.verdict.satisfied, "verdict satisfied")
                parts.append(f"{kind} {ce.i0} {ce.theta} {ce.g_value}")
            return "\n".join(parts)

        return run, check

    def _kt(self, r, p, rng, si, ci):
        def run():
            d1 = sampling.random_cone_class(r, CLASS_HEIGHT, self.seed, si)
            d2 = sampling.random_cone_class(r, CLASS_HEIGHT, self.seed, ci)
            return inequalities.kt_chain(r, d1, d2)

        def check(report) -> str:
            expect(report.all_hold, f"kt chain fails\n{report}")
            expect(len(report.steps) == r.n - 1, "kt step count")
            return str(report)

        return run, check


WORKLOADS = {w.name: w for w in (ZooAudit, BundleLoad, ScaledLefschetz)}
