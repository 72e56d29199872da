"""Per-layer tracing installed from outside the package.

The traced run wraps the public functions of each hodgecs module and records
one span per call: name, start, end, parent span and op id. Spans are kept in
memory in flat arrays and written out once the run is over. Nothing in
``src/`` knows about the tracer, and the untraced run never installs it.

Scalars (``gaussian``) are not wrapped: they are called millions of times per
run, and their cost shows up as the self time of the ``ring`` and ``linalg``
spans that call them.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

from hodgecs import bundle, cli, inequalities, lefschetz, linalg, ring, sampling, zoo

# Phase tags stored in a span's op field. Ops use their index (>= 0).
SETUP = -1
IDLE = None  # wrappers pass straight through, e.g. while outputs are checked

# (module, attribute, span name). Module-level functions are rebound in every
# hodgecs module that imported them by name; class attributes are patched on
# the class, which covers every caller.
FUNCTIONS = (
    (ring, "wedge", "ring.wedge"),
    (ring, "multiplication_matrix", "ring.multiplication_matrix"),
    (ring, "validate_ring", "ring.validate_ring"),
    (ring, "sanity_check_kahler", "ring.sanity_check_kahler"),
    (lefschetz, "gram_matrix_Q", "lefschetz.gram_matrix_Q"),
    (lefschetz, "primitive_basis", "lefschetz.primitive_basis"),
    (lefschetz, "hr_check", "lefschetz.hr_check"),
    (inequalities, "compute_g_direct", "inequalities.compute_g_direct"),
    (inequalities, "compute_g_decomposed", "inequalities.compute_g_decomposed"),
    (inequalities, "check_cs", "inequalities.check_cs"),
    (inequalities, "construct_counterexample", "inequalities.construct_counterexample"),
    (inequalities, "verify_theorem", "inequalities.verify_theorem"),
    (inequalities, "kt_chain", "inequalities.kt_chain"),
    (bundle, "parse_ring_bundle", "bundle.parse_ring_bundle"),
    (bundle, "serialize_ring_bundle", "bundle.serialize_ring_bundle"),
    (sampling, "random_strict_setup", "sampling.random_strict_setup"),
    (sampling, "sample_random_class", "sampling.sample_random_class"),
    (zoo, "product", "zoo.product"),
    (zoo, "get", "zoo.get"),
    (cli, "main", "cli.main"),
)
METHODS = (
    (linalg.Matrix, "rref", "linalg.rref"),
    (linalg.Matrix, "inertia", "linalg.inertia"),
    (lefschetz.LefschetzDecomposer, "__init__", "lefschetz.decomposer_init"),
    (lefschetz.LefschetzDecomposer, "decompose", "lefschetz.decompose"),
)
ELIMINATION = ("linalg.rref", "linalg.inertia")
ROOT = "op"


def _max_bits(m: linalg.Matrix) -> int:
    bits = 0
    for row in m._e:
        for x in row:
            bits = max(bits, x.re.numerator.bit_length(), x.re.denominator.bit_length(),
                       x.im.numerator.bit_length(), x.im.denominator.bit_length())
    return bits


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.cells = array("q")   # rows x cols of an elimination input, else 0
        self.max_bits = 0         # largest entry bit length seen in the count window
        self.bits_window = 0      # ops below this index feed max_bits
        self.doc_bytes = 0        # bytes handed to parse_ring_bundle in the window
        self.current = IDLE
        self._stack: list[int] = []

    # -- span recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, cells: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current)
        self.cells.append(cells)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    def _in_window(self) -> bool:
        return self.current is not None and 0 <= self.current < self.bits_window

    def wrap(self, name: str, fn, elimination: bool = False, parser: bool = False):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.current is IDLE:
                return fn(*args, **kwargs)
            cells = 0
            if elimination:
                m = args[0]
                cells = m.rows * m.cols
                if tracer._in_window():
                    tracer.max_bits = max(tracer.max_bits, _max_bits(m))
            elif parser and tracer._in_window():
                tracer.doc_bytes += len(args[0].encode("utf-8"))
            sid = tracer._open(nid, cells)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, t0, perf_counter())

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Replace every binding of the wrapped functions inside hodgecs."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "hodgecs" or key.startswith("hodgecs."))]
        for module, attr, name in FUNCTIONS:
            fn = getattr(module, attr)
            wrapped = self.wrap(name, fn, parser=(name == "bundle.parse_ring_bundle"))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
        for cls, attr, name in METHODS:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr),
                                         elimination=name in ELIMINATION))

    def op_span(self, index: int):
        """Open the root span of one op; returns a closer to call afterwards."""
        self.current = index
        sid = self._open(self._id(ROOT), 0)
        t0 = perf_counter()

        def close() -> None:
            self._close(sid, t0, perf_counter())
            self.current = IDLE

        return close

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """Dump every span as CSV: id,name,start,end,parent,op,cells."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op,cells\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(f"{sid},{names[self.name_id[sid]]},{self.start[sid]!r},"
                         f"{self.end[sid]!r},{self.parent[sid]},{self.op[sid]},"
                         f"{self.cells[sid]}\n")

    def aggregate(self, window: int, setups: int) -> dict[str, dict[str, float]]:
        """Per-name calls, busy, self and cells over ops [0, window) and set-up.

        Set-up spans are reported per set-up (averaged over the ``setups``
        repetitions) under the ``setup:`` prefix.
        """
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for sid in range(n):
            par = self.parent[sid]
            if par >= 0:
                child[par] += self.end[sid] - self.start[sid]
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "cells": 0})
        for sid in range(n):
            op = self.op[sid]
            name = self.names[self.name_id[sid]]
            if op == SETUP:
                name = "setup:" + name
            elif not 0 <= op < window:
                continue
            dur = self.end[sid] - self.start[sid]
            s = stats[name]
            s["calls"] += 1
            s["busy_s"] += dur
            s["self_s"] += dur - child[sid]
            s["cells"] += self.cells[sid]
        for name, s in stats.items():
            if name.startswith("setup:"):
                for key in s:
                    s[key] /= setups
        return stats
