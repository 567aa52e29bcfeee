"""Span tracer that wraps annealgap's functions from outside the package.

The tracer runs inside one ``annealgap`` CLI process (see ``child.py``).
It replaces every public function of the six package modules, plus the sweep
cell function ``cli._sweep_cell``, with a wrapper that records a span: name,
start, end, parent span and operation id. ``numpy.linalg.eigh`` and
``numpy.linalg.eigvalsh`` are wrapped the same way, so every eigensolve is
attributed to the package function that called it.

The package imports functions by name (``from .operators import
hamiltonian_at``), so a wrapper is installed under every name in every
``annealgap`` module that refers to the original function, not only in the
defining module. Spans stay in memory and are written out once, at exit.

``summarize`` turns the spans of one process into the per-layer metrics of
the benchmark. A span's self time is its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict

MODULES = ("problems", "eltip", "operators", "spectral", "overlaps", "cli")

#: The one private function wrapped: it marks the boundary of a sweep cell.
CELL = "annealgap.cli._sweep_cell"

EIG_NAMES = ("eigh", "eigvalsh")
ROOT = "process"
DUMP = "trace.dump"
INSTALL = "trace.install"

#: Operator functions whose result is a dense 2^n x 2^n matrix.
HAMILTONIAN = "annealgap.operators.hamiltonian_at"
DERIVATIVE = "annealgap.operators.derivative_at"

#: Flop estimates for a symmetric eigensolve of dimension d (Golub & Van Loan,
#: Matrix Computations, 4th ed., section 8.3): tridiagonal reduction plus
#: implicit QR costs about 4/3 d^3 for eigenvalues only and 9 d^3 with vectors.
FLOPS_PER_D3 = {"numpy.linalg.eigvalsh": 4.0 / 3.0, "numpy.linalg.eigh": 9.0}


class Tracer:
    """Records spans for one process; ``install`` patches, ``dump`` writes."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._cells = itertools.count()
        self._local = threading.local()
        self._main_stack: list[tuple[int, str]] = []
        self._local.stack = self._main_stack
        self.start = time.perf_counter()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack) -> tuple[int, str]:
        if stack:
            return stack[-1]
        # A pool thread starts with an empty stack: its parent is the span
        # the main thread is blocked in (cmd_sweep waiting on the pool).
        main = self._main_stack
        return main[-1] if main else (0, self.op)

    def wrap(self, fn, name: str, size=None):
        tracer = self
        is_cell = name == CELL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent, op = tracer._parent(stack)
            if is_cell:
                op = f"{tracer.op}/c{next(tracer._cells)}"
            sid = next(tracer._ids)
            stack.append((sid, op))
            ok, result, start = False, None, time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                dim = size(args, result) if size is not None and ok else 0
                tracer.spans.append([sid, name, start, end, parent, op, ok, dim])

        return wrapper

    def install(self) -> int:
        """Wrap the package functions and numpy's eigensolvers; returns the count."""
        import numpy.linalg

        mods = {m: importlib.import_module(f"annealgap.{m}") for m in MODULES}
        holders = [sys.modules["annealgap"], *mods.values()]
        originals = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                qual = f"annealgap.{short}.{attr}"
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or qual == CELL)
                ):
                    originals[id(obj)] = self.wrap(obj, qual, _size_for(qual))
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                wrapped = originals.get(id(obj))
                if wrapped is not None:
                    setattr(holder, attr, wrapped)
        for attr in EIG_NAMES:
            fn = getattr(numpy.linalg, attr)
            setattr(
                numpy.linalg,
                attr,
                self.wrap(fn, f"numpy.linalg.{attr}", lambda a, r: a[0].shape[-1]),
            )
        return len(originals) + len(EIG_NAMES)

    def dump(self, path: str) -> None:
        """Write the root span, the spans, and a last span timing the encoding."""
        end = time.perf_counter()
        root = [0, ROOT, self.start, end, -1, self.op, True, 0]
        text = json.dumps([root] + self.spans, separators=(",", ":"))
        encode = [-2, DUMP, end, time.perf_counter(), -1, self.op, True, 0]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text[:-1] + "," + json.dumps(encode) + "]")


def span_cost() -> float:
    """Seconds a wrapper adds to one call: the median, over 5 repeats, of the
    wrapped minus the bare time of 10 000 calls to a no-op."""
    calls, repeats = 10_000, 5

    def noop():
        return None

    tracer = Tracer("calibrate")
    wrapped = tracer.wrap(noop, "calibrate")
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
    return max(sorted(costs)[repeats // 2], 0.0)


def _size_for(qual: str):
    if qual.startswith("annealgap.operators.") and qual.rsplit(".", 1)[1] in (
        "hamiltonian_at",
        "derivative_at",
        "problem_operator",
        "transverse_driver",
        "antiferromagnetic_driver",
    ):
        return lambda args, result: result.dim
    return None


# --------------------------------------------------------------------------
# Aggregation (runs in the benchmark process, not under the tracer).


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children."""
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append((s[2], s[3]))
    out = {}
    for s in spans:
        start, end = s[2], s[3]
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(s[0], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[s[0]] = (end - start) - covered
    return out


def _layer_metric(name: str, owner: str) -> str:
    """Per-layer self-time metric that a span of ``name`` counts towards."""
    if name == ROOT:
        return "cli.startup_s"
    if name == DUMP:
        return "trace.dump_s"
    if name == INSTALL:
        return "trace.install_s"
    if name.startswith("numpy.linalg."):
        return "overlaps.eig_s" if owner == "overlaps" else "spectral.eig_s"
    _, layer, fn = name.split(".")
    if layer == "operators":
        return {
            "hamiltonian_at": "operators.hamiltonian_s",
            "derivative_at": "operators.derivative_s",
        }.get(fn, "operators.build_s")
    if layer == "spectral":
        return {
            "gap_trace": "spectral.gap_trace_s",
            "min_gap": "spectral.refine_s",
            "detect_anticrossing": "spectral.refine_s",
            "epsilon": "spectral.epsilon_s",
            "full_spectrum": "spectral.epsilon_s",
        }.get(fn, "spectral.fit_s")
    return {
        "problems": "problems.load_s",
        "eltip": "eltip.transform_s",
        "overlaps": "overlaps.trace_s",
        "cli": "cli.self_s",
    }[layer]


def summarize(spans: list[list], workers: int = 1) -> dict[str, float]:
    """Per-layer totals over the spans of one traced process.

    Span ids are unique only within a process; ``merge`` adds the totals of
    several processes.
    """
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    m: dict[str, float] = defaultdict(float)
    sweep_wall = 0.0
    for s in spans:
        sid, name, start, end, parent, _op, ok, dim = s
        owner = ""
        if name.startswith("numpy.linalg."):
            p = by_id.get(parent)
            while p is not None and p[1].startswith("numpy.linalg."):
                p = by_id.get(p[4])
            owner = p[1].split(".")[1] if p is not None and p[1] != ROOT else "cli"
            kind = name.rsplit(".", 1)[1]
            if owner == "overlaps":
                m[f"overlaps.{kind}_calls"] += 1
            else:
                m[f"spectral.{kind}_calls"] += 1
                m["spectral.eig_flops"] += FLOPS_PER_D3[name] * dim**3
        m[_layer_metric(name, owner)] += selfs[sid]
        if name == HAMILTONIAN:
            m["operators.hamiltonian_calls"] += 1
        elif name == DERIVATIVE:
            m["operators.derivative_calls"] += 1
        elif dim and name.startswith("annealgap.operators."):
            m["operators.build_calls"] += 1
        if dim and name.startswith("annealgap.operators."):
            m["operators.matrix_bytes"] += 8 * dim * dim
        if name == "annealgap.eltip.transform":
            m["eltip.transform_calls"] += 1
        if name == CELL:
            m["cli.cells"] += 1
            m["cli.cells_failed"] += 0 if ok else 1
            m["cli.cell_busy_s"] += end - start
        if name == "annealgap.cli.cmd_sweep":
            sweep_wall += end - start
    m["trace.spans"] += len(spans)
    if sweep_wall > 0:
        m["cli.sweep_capacity_s"] += sweep_wall * workers
    return dict(m)


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for part in parts:
        for key, value in part.items():
            out[key] += value
    return dict(out)
