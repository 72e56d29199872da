"""The benchmark harness's hooks into the package, checked with the unit tests.

``perfbench/spans.py`` wraps ``Matrix.rref`` and ``Matrix.inertia`` by name,
reads ``rows`` and ``cols`` of the matrices they take and measures the bit
lengths of their entries through ``Matrix._e``. A change to ``linalg`` that
breaks one of these hooks would otherwise show only when the benchmark runs.
One traced scaled-lefschetz op and one traced zoo-audit op run in a fresh
process, since the tracer rebinds functions for the rest of its process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from workloads import WORKLOADS, _hodge_holds

tracer = spans.Tracer()
tracer.install()
zoo_audit = WORKLOADS["zoo-audit"](1, sys.argv[3])
# The first zoo-audit op that builds a counterexample, which takes a kernel.
zoo_op = next(i for i, (_, hodge, p) in enumerate(zoo_audit.pairs)
              if not _hodge_holds(hodge, p, "cs"))
out = {}
for k, (workload, i) in enumerate([(WORKLOADS["scaled-lefschetz"](1, sys.argv[3]), 0),
                                   (zoo_audit, zoo_op)]):
    label, run, check = workload.next_op(i)
    tracer.bits_window, tracer.max_bits = k + 1, 0
    close = tracer.op_span(k)
    result = run()
    close()
    check(result)
    sids = [s for s in range(len(tracer.start)) if tracer.op[s] == k]
    names = [tracer.names[tracer.name_id[s]] for s in sids]
    out[workload.name] = {
        "label": label,
        "max_bits": tracer.max_bits,
        "spans": {n: names.count(n) for n in spans.ELIMINATION},
        "cells": sum(tracer.cells[s] for s in sids),
    }
print(json.dumps(out))
"""


def _traced_ops(tmp_path) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"), str(tmp_path)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_traced_ops_record_elimination_spans_and_entry_sizes(tmp_path):
    out = _traced_ops(tmp_path)
    signature, verify = out["scaled-lefschetz"], out["zoo-audit"]
    assert signature["label"].startswith("signature ")
    assert signature["spans"]["linalg.inertia"] >= 1
    assert verify["label"].startswith("verify ")
    assert verify["spans"]["linalg.rref"] >= 1
    for op in (signature, verify):
        assert op["max_bits"] > 0
        assert op["cells"] > 0
