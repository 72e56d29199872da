"""Benchmark harness for hodgecs.

One run measures one workload in this process, driven as a closed loop by a
single client on one thread:

    python3 perfbench/run.py --workload zoo-audit --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
End-to-end times are in reference seconds, scaled by host-speed probes that
run between ops (see HostSpeed); a ``wall clock:`` line gives the raw ones.

    python3 perfbench/run.py --workload all --seed 1 --seconds 30

runs every workload in fresh processes: one untraced run and two traced runs
each. It prints the end-to-end metrics with their units, the tracing overhead,
the per-layer metrics, and a check that the per-layer counts of the two traced
runs repeat exactly. It exits nonzero if any op failed or a count differs.

The package is imported from ``src/`` of the checkout that holds this file;
without it the harness exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_OPS = 100        # at least 10 ops lie beyond p90
MIN_CYCLES = 2       # and every op kind is timed at least twice
# setup_s is the median of the set-ups of a run. They are spread over the
# run, so that they see the same host load as the ops: one at each cycle
# boundary until there are SETUP_REPEATS, and more while they fill less than
# SETUP_SHARE of the loop's time, so that cheap set-ups are sampled often.
SETUP_REPEATS = 3
SETUP_SHARE = 0.05
CHILD_TIMEOUT_S = 900
# Host-speed probes: a fixed piece of pure-int work after every op.
PROBE_ITERATIONS = 3000
PROBES_AFTER_SETUP = 3
PROBE_NOMINAL_S = 0.004  # probe duration at reference speed
PROBE_WINDOW_S = 1.0     # probes this close to an interval set its speed
PROBE_MIN = 8            # and at least this many of the nearest

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Per-layer metrics: (metric, span name, field). Fields come from
# spans.Tracer.aggregate over the count window (the first cycle of ops).
LAYER_FIELDS = (
    ("ring.wedge.calls", "ring.wedge", "calls"),
    ("ring.wedge.busy_s", "ring.wedge", "busy_s"),
    ("ring.validate_ring.calls", "ring.validate_ring", "calls"),
    ("ring.validate_ring.busy_s", "ring.validate_ring", "busy_s"),
    ("ring.validate_ring.self_s", "ring.validate_ring", "self_s"),
    ("ring.sanity_check_kahler.calls", "ring.sanity_check_kahler", "calls"),
    ("ring.sanity_check_kahler.busy_s", "ring.sanity_check_kahler", "busy_s"),
    ("ring.multiplication_matrix.busy_s", "ring.multiplication_matrix", "busy_s"),
    ("linalg.rref.calls", "linalg.rref", "calls"),
    ("linalg.rref.busy_s", "linalg.rref", "busy_s"),
    ("linalg.rref.cells", "linalg.rref", "cells"),
    ("linalg.inertia.calls", "linalg.inertia", "calls"),
    ("linalg.inertia.busy_s", "linalg.inertia", "busy_s"),
    ("linalg.inertia.cells", "linalg.inertia", "cells"),
    ("lefschetz.decomposer_init.calls", "lefschetz.decomposer_init", "calls"),
    ("lefschetz.decomposer_init.busy_s", "lefschetz.decomposer_init", "busy_s"),
    ("lefschetz.decompose.calls", "lefschetz.decompose", "calls"),
    ("lefschetz.decompose.busy_s", "lefschetz.decompose", "busy_s"),
    ("lefschetz.gram_matrix_Q.busy_s", "lefschetz.gram_matrix_Q", "busy_s"),
    ("lefschetz.primitive_basis.busy_s", "lefschetz.primitive_basis", "busy_s"),
    ("lefschetz.hr_check.busy_s", "lefschetz.hr_check", "busy_s"),
    ("inequalities.compute_g_direct.calls", "inequalities.compute_g_direct", "calls"),
    ("inequalities.compute_g_direct.busy_s", "inequalities.compute_g_direct", "busy_s"),
    ("inequalities.check_cs.busy_s", "inequalities.check_cs", "busy_s"),
    ("inequalities.construct_counterexample.busy_s",
     "inequalities.construct_counterexample", "busy_s"),
    ("inequalities.verify_theorem.self_s", "inequalities.verify_theorem", "self_s"),
    ("sampling.random_strict_setup.busy_s", "sampling.random_strict_setup", "busy_s"),
    ("sampling.sample_random_class.busy_s", "sampling.sample_random_class", "busy_s"),
    ("bundle.parse_ring_bundle.self_s", "bundle.parse_ring_bundle", "self_s"),
    ("bundle.serialize_ring_bundle.busy_s", "bundle.serialize_ring_bundle", "busy_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
    ("zoo.product.busy_s", "setup:zoo.product", "busy_s"),
    ("ops.busy_s", "op", "busy_s"),
)
LAYERS = ("ring", "linalg", "lefschetz", "inequalities", "bundle", "sampling", "zoo", "cli")
SHARES = (
    ("share.ring.validate_ring", ("ring.validate_ring",)),
    ("share.linalg.elimination", ("linalg.rref", "linalg.inertia")),
    ("share.ring.wedge", ("ring.wedge",)),
)
# Counts that must repeat exactly between two traced runs with one seed.
EXACT_SUFFIXES = (".calls", ".cells")
EXACT_NAMES = ("linalg.max_bits", "bundle.doc_bytes", "lefschetz.decompose_per_init")


def per_layer_units() -> dict[str, str]:
    units = {}
    for metric, _, field in LAYER_FIELDS:
        units[metric] = {"calls": "count", "cells": "count"}.get(field, "s")
    units["linalg.max_bits"] = "bit"
    units["bundle.doc_bytes"] = "byte"
    units["lefschetz.decompose_per_init"] = "ratio"
    units.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
    units.update({name: "ratio" for name, _ in SHARES})
    units["trace.ops_per_s"] = "1/s"
    return units


def load_package() -> None:
    """Import hodgecs from this checkout's src/, or exit 2."""
    init = ROOT / "src" / "hodgecs" / "__init__.py"
    if not init.is_file():
        print(f"error: {init.relative_to(ROOT)} not found; run from a hodgecs checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import hodgecs
    if Path(hodgecs.__file__).resolve() != init.resolve():
        print(f"error: imported hodgecs from {hodgecs.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)


def load_digests() -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def quantile(values: list[float], q: int) -> float:
    """The q-th decile, as statistics.quantiles(values, n=10) gives it."""
    return statistics.quantiles(values, n=10)[q - 1]


_MASK = (1 << 160) - 1


def probe_host() -> tuple[float, float]:
    """Time fixed pure-int work that no hodgecs code can change; (time, duration).

    Profile and trace hooks are lifted while it runs, so a hook the program
    installs slows the ops but not the probe. The work makes no object the
    garbage collector tracks.
    """
    profile, trace = sys.getprofile(), sys.gettrace()
    sys.setprofile(None)
    sys.settrace(None)
    t0 = perf_counter()
    a, b = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9
    for k in range(PROBE_ITERATIONS):
        a = (a * 0x94D049BB133111EB + k) & _MASK
        b = (b * a) % 0xFFFFFFFFFFFFFFC5 + math.gcd(a, b)
    t1 = perf_counter()
    sys.setprofile(profile)
    sys.settrace(trace)
    return (t0 + t1) / 2, t1 - t0


class HostSpeed:
    """Scale wall-clock intervals to the speed at which the probe takes PROBE_NOMINAL_S.

    The host's speed for identical work drifts over seconds and minutes; the
    probes run between ops and track it. An interval is scaled by
    PROBE_NOMINAL_S over the median duration of the probes within
    PROBE_WINDOW_S of it (at least the PROBE_MIN nearest).
    """

    def __init__(self, probes: list[tuple[float, float]]):
        self.times = [t for t, _ in probes]
        self.durations = [d for _, d in probes]

    def adjust(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
        while hi - lo < PROBE_MIN and (lo > 0 or hi < len(self.times)):
            if lo > 0 and (hi == len(self.times)
                           or start - self.times[lo - 1] < self.times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return (end - start) * PROBE_NOMINAL_S / statistics.median(self.durations[lo:hi])


def run_workload(name: str, seed: int, seconds: int, traced: bool):
    """Set up, run the closed loop and check every output; returns (result, lines)."""
    from workloads import WORKLOADS

    tracer = None
    if traced:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    workdir = str((OUT / name).relative_to(ROOT))
    lines = []

    setups = []  # (start, end) of each set-up
    probes = []  # (time, duration) of each host-speed probe

    def set_up():
        """One set-up with its warm-up op; returns the workload it built."""
        if tracer:
            tracer.current = spans.SETUP
        t0 = perf_counter()
        built = WORKLOADS[name](seed, workdir)
        _, warm_run, warm_check = built.next_op(0)
        warm_result = warm_run()
        setups.append((t0, perf_counter()))
        if tracer:
            tracer.current = spans.IDLE
        warm_check(warm_result)
        for _ in range(PROBES_AFTER_SETUP):
            probes.append(probe_host())
        return built

    workload = set_up()
    window = workload.cycle
    if tracer:
        tracer.bits_window = window

    intervals, failures = [], []  # (start, end) of each op
    digest = hashlib.sha256()
    loop_start = perf_counter()
    deadline = loop_start + seconds
    i, cycle_start = 0, loop_start
    # Whole cycles only, so every run sees the same mix of op kinds and the
    # quantiles land on the same kinds whatever the number of cycles. Another
    # cycle starts only if one as long as the last still ends by the deadline.
    while True:
        if i and i % window == 0:
            t0 = perf_counter()
            if i >= max(MIN_OPS, MIN_CYCLES * window) and 2 * t0 - cycle_start > deadline:
                break
            while (len(setups) < min(i // window + 1, SETUP_REPEATS)
                   or sum(b - a for a, b in setups) < SETUP_SHARE * (t0 - loop_start)):
                set_up()
            deadline += perf_counter() - t0
            cycle_start = perf_counter()
        label, run, check = workload.next_op(i)
        close = tracer.op_span(i) if tracer else None
        t0 = perf_counter()
        try:
            result, error = run(), None
        except Exception:  # an op that raises is a failed op, not a crash
            result, error = None, traceback.format_exc()
        intervals.append((t0, perf_counter()))
        if close:
            close()
        if error is None:
            try:
                text = check(result)
            except Exception as exc:  # any broken output fails the op
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"op {i} ({label}): {error}")
            text = "FAILED"
        if i < window:
            digest.update(f"{i} {label}\n{text}\n".encode("utf-8"))
        probes.append(probe_host())
        i += 1
    loop_s = perf_counter() - loop_start
    while len(setups) < SETUP_REPEATS:
        set_up()

    attempted = len(intervals)
    expected = load_digests().get(name, {}).get(str(seed))
    got = digest.hexdigest()
    if expected is not None and expected != got:
        failures.append(f"digest of ops 0..{window - 1} is {got}, expected {expected}")
    failed = len(failures)
    lines.append(f"workload {name} seed {seed}: {attempted} ops ({attempted // window} cycles) "
                 f"in {loop_s:.1f} s, "
                 f"{failed} failed, failed_ratio {failed / attempted:.4f}")
    lines.append(f"digest of ops 0..{window - 1}: {got} "
                 + ("(no committed digest for this seed)" if expected is None
                    else "(matches)" if expected == got else "(MISMATCH)"))
    lines += failures[:20]
    lines.append(f"{len(setups)} set-ups, {len(probes)} host-speed probes")

    latencies = [b - a for a, b in intervals]
    setup_times = [b - a for a, b in setups]
    speed = HostSpeed(probes)
    adjusted = [speed.adjust(a, b) for a, b in intervals]
    setup_adjusted = [speed.adjust(a, b) for a, b in setups]
    lines.append(f"wall clock: ops_per_s {attempted / sum(latencies):.6g} 1/s, "
                 f"op_s.p50 {statistics.median(latencies):.6g} s, "
                 f"op_s.p90 {quantile(latencies, 9):.6g} s, "
                 f"setup_s {statistics.median(setup_times):.6g} s, "
                 f"median probe {statistics.median(d for _, d in probes) * 1e3:.4g} ms")
    ops_per_s = attempted / sum(adjusted)
    if tracer:
        metrics = layer_metrics(tracer, window, len(setup_times))
        metrics["trace.ops_per_s"] = ops_per_s
        units = per_layer_units()
        OUT.mkdir(parents=True, exist_ok=True)
        span_file = OUT / f"spans-{name}.csv"
        tracer.write(span_file)
        lines.append(f"{len(tracer.start)} spans written to {span_file.relative_to(ROOT)}")
    else:
        metrics = {
            "ops_per_s": ops_per_s,
            "op_s.p50": statistics.median(adjusted),
            "op_s.p90": quantile(adjusted, 9),
            "setup_s": statistics.median(setup_adjusted),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    for key, value in metrics.items():
        lines.append(f"  {key:48s} {value:.6g} {units[key]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def layer_metrics(tracer, window: int, setups: int) -> dict[str, float]:
    stats = tracer.aggregate(window, setups)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "cells": 0}
    metrics = {metric: stats.get(span, empty)[field] for metric, span, field in LAYER_FIELDS}
    metrics["linalg.max_bits"] = tracer.max_bits
    metrics["bundle.doc_bytes"] = tracer.doc_bytes
    inits = metrics["lefschetz.decomposer_init.calls"]
    metrics["lefschetz.decompose_per_init"] = (
        metrics["lefschetz.decompose.calls"] / inits if inits else 0.0)
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(
            s["self_s"] for key, s in stats.items() if key.startswith(layer + "."))
    total = metrics["ops.busy_s"]
    for share, names in SHARES:
        metrics[share] = sum(stats.get(n, empty)["busy_s"] for n in names) / total
    return metrics


# -- all workloads ----------------------------------------------------------------

def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    out = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not out:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(out[-1])
    result["lines"] = out[:-1]
    return result


def run_all(seed: int, seconds: int) -> int:
    from workloads import WORKLOADS

    ok = True
    rows = {}
    for name in WORKLOADS:
        print(f"== {name} (seed {seed}, {seconds} s per run)", flush=True)
        plain = run_child(name, seed, seconds, 0)
        traced = [run_child(name, seed, seconds, 1) for _ in range(2)]
        rows[name] = (plain, traced)
        for res in (plain, *traced):
            ok &= res["correct"]
        m = plain["metrics"]
        for key in END_TO_END_UNITS:
            print(f"  {key:14s} {m[key]['value']:.6g} {m[key]['unit']}")
        print(f"  {'failed_ratio':14s} {plain['failed'] / plain['attempted']:.4f} "
              f"({plain['failed']} of {plain['attempted']} ops)")
        t = traced[0]["metrics"]
        overhead = 1 - t["trace.ops_per_s"]["value"] / m["ops_per_s"]["value"]
        print(f"  tracing overhead: traced ops_per_s {t['trace.ops_per_s']['value']:.4g} "
              f"vs untraced {m['ops_per_s']['value']:.4g} ({overhead:+.1%})")
        exact = [k for k in t if k.endswith(EXACT_SUFFIXES) or k in EXACT_NAMES]
        differ = [k for k in exact if t[k]["value"] != traced[1]["metrics"][k]["value"]]
        ok &= not differ
        print(f"  counts repeat exactly over two traced runs: "
              f"{'yes' if not differ else 'NO: ' + ', '.join(differ)} ({len(exact)} counts)")
        print("  per-layer metrics (traced run 1):")
        for key, entry in t.items():
            print(f"    {key:48s} {entry['value']:.6g} {entry['unit']}")
        for res in (plain, *traced):
            for line in res["lines"]:
                if line.startswith("op ") or "MISMATCH" in line:
                    print(f"  {line}")

    print("== workload purposes (traced run 1)")
    layer = {name: traced[0]["metrics"] for name, (_, traced) in rows.items()}

    def value(name, key):
        return layer[name][key]["value"] if name in layer else float("nan")

    statements = [
        ("ring.validate_ring is most of bundle-load op time",
         value("bundle-load", "share.ring.validate_ring") > 0.5),
        ("ring.validate_ring makes 0 calls in zoo-audit and scaled-lefschetz ops",
         value("zoo-audit", "ring.validate_ring.calls") == 0
         and value("scaled-lefschetz", "ring.validate_ring.calls") == 0),
        ("linalg.rref + linalg.inertia is most of scaled-lefschetz op time",
         value("scaled-lefschetz", "share.linalg.elimination") > 0.5),
        ("linalg.rref + linalg.inertia is a minority of zoo-audit op time",
         value("zoo-audit", "share.linalg.elimination") < 0.5),
        ("ring.wedge is the largest busy layer in zoo-audit: ring has the largest "
         "layer self time and wedge is most of it", wedge_leads(layer.get("zoo-audit"))),
    ]
    for text, holds in statements:
        print(f"  {'holds' if holds else 'DOES NOT HOLD'}: {text}")
    print(f"== {'all ops correct, counts repeat' if ok else 'FAILED'}")
    return 0 if ok else 1


def wedge_leads(metrics) -> bool:
    if not metrics:
        return False
    selfs = {layer: metrics[f"layer.{layer}.self_s"]["value"] for layer in LAYERS}
    return (max(selfs, key=selfs.get) == "ring"
            and metrics["ring.wedge.busy_s"]["value"] > 0.5 * selfs["ring"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="zoo-audit, bundle-load, scaled-lefschetz or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    load_package()
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}, all")
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
