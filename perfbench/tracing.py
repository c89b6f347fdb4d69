"""Span tracer that wraps saucer's public functions from outside the package.

`Tracer.installed()` replaces each function in `LAYER_FUNCTIONS`, in every
saucer module namespace that binds it (including names bound by
`from ... import`), with a wrapper. A span wrapper records
(id, name, start, end, parent, op, agg) in memory; leaf functions called
about 1e4 times per op only bump a call counter and a summed self time, so
tracing them stays cheap. `agg` is the time a span spent inside such counted
calls made directly under it.

Self time is a span's duration minus the part of it covered by its child
spans (children may run on pool threads, so overlap is merged) minus `agg`.
Untraced runs never call `installed()` and execute the program unchanged.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, Iterable

SPAN = "span"
COUNTED = "counted"


def _n_points(args, kwargs) -> int:
    points = kwargs["points"] if "points" in kwargs else args[-1]
    return len(points) if getattr(points, "ndim", 1) > 1 else 1


def _suite_seconds(args, kwargs, result, dur):
    return {f"{kwargs.get('name', args[0])}.s": dur}


SUITES = ("config", "structure", "gl2", "symmetry", "fibration", "planner")

#: (module, function, kind, reported metrics, quantities). Quantities map the
#: call's (args, kwargs, result, duration) to extra totals named
#: "<module>.<function>.<key>"; every reported metric is printed, 0 if unseen.
LAYER_FUNCTIONS: tuple = (
    ("kernels", "rk4_constant", SPAN, ("calls", "steps", "self_s"),
     lambda a, k, r, d: {"steps": len(r) - 1}),
    ("kernels", "velocity", COUNTED, ("calls", "self_s"), None),
    ("maneuvers", "integrate_trajectory", SPAN, ("calls", "samples", "self_s"),
     lambda a, k, r, d: {"samples": len(r)}),
    ("maneuvers", "constraint_residuals", SPAN, ("calls", "samples", "self_s"),
     lambda a, k, r, d: {"samples": len(r.contact)}),
    ("forms", "lie_derivative_symtensor", SPAN, ("calls", "self_s"), None),
    ("forms", "bracket", COUNTED, ("calls", "self_s"), None),
    ("symmetry", "legendrean_symmetry_residual", SPAN, ("calls", "points", "self_s"),
     lambda a, k, r, d: {"points": _n_points(a, k)}),
    ("symmetry", "g2_symmetry_residual", SPAN, ("calls", "points", "self_s"),
     lambda a, k, r, d: {"points": _n_points(a, k)}),
    ("symmetry", "extract_structure_constants", SPAN, ("calls", "self_s"), None),
    ("symmetry", "catalog_rank", SPAN, ("self_s",), None),
    ("symmetry", "killing_diagnostics", SPAN, ("self_s",), None),
    ("planner", "plan_path", SPAN, ("calls", "iterations", "legs", "failed", "self_s"),
     lambda a, k, r, d: {"iterations": r.iterations, "legs": len(r.legs),
                         "failed": int(not r.success)}),
    ("planner", "flow", SPAN, ("calls", "self_s"), None),
    ("planner", "replay", SPAN, ("samples", "self_s"),
     lambda a, k, r, d: {"samples": len(r)}),
    ("planner", "bracket_generating_report", SPAN, ("self_s",), None),
    ("planner", "landing_nested_bracket_norm", SPAN, ("self_s",), None),
    ("fibration", "integrate_d2_curve", SPAN, ("samples", "self_s"),
     lambda a, k, r, d: {"samples": len(r.times)}),
    ("fibration", "lift_curve", SPAN, ("samples", "self_s"),
     lambda a, k, r, d: {"samples": len(r.times)}),
    ("fibration", "project_to_contact", SPAN, ("samples", "self_s"),
     lambda a, k, r, d: {"samples": len(r.times)}),
    ("fibration", "certify_twisted_cubic_tangency", SPAN, ("samples", "self_s"),
     lambda a, k, r, d: {"samples": len(r.angular) + r.skipped}),
    ("fibration", "run_joystick", SPAN, ("calls",), None),
    ("suites", "run_suite", SPAN, tuple(f"{name}.s" for name in SUITES), _suite_seconds),
    ("reports", "run_checks", SPAN, ("busy_s", "wall_s"), None),
    ("cli", "main", SPAN, ("self_s",), None),
)

#: Every per-layer metric the traced run reports, in layer order.
REPORTED = tuple(f"{module}.{func}.{metric}"
                 for module, func, _kind, metrics, _q in LAYER_FUNCTIONS
                 for metric in metrics)

CHECK_SPAN = "reports.check"


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus child-covered time minus counted-call time."""
    children = collections.defaultdict(list)
    for sid, _name, start, end, parent, _op, _agg in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - union_length(children[sid], start, end) - agg
            for sid, _name, start, end, _parent, _op, agg in spans}


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = collections.defaultdict(float)
        self.op = 0
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call_span(self, name: str, fn: Callable, args=(), kwargs=None,
                  quantities=None, parent: int | None = None):
        """Run fn inside a recorded span; frames are [agg_s, span_id]."""
        kwargs = kwargs or {}
        stack = self._stack()
        if stack and stack[-1][1] is None:
            raise RuntimeError(f"span {name} opened inside a counted call")
        if parent is None and stack:
            parent = stack[-1][1]
        frame = [0.0, next(self._ids)]
        stack.append(frame)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = {}
            if quantities is not None and result is not None:
                try:
                    extra = quantities(args, kwargs, result, end - start)
                except (TypeError, AttributeError, IndexError, KeyError):
                    extra = {}
            with self._lock:
                self.spans.append((frame[1], name, start, end, parent,
                                   self.op, frame[0]))
                self.counts[f"{name}.calls"] += 1
                for key, value in extra.items():
                    self.counts[f"{name}.{key}"] += value

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls_key, self_key = f"{name}.calls", f"{name}.self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0, None]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                with self._lock:
                    self.counts[calls_key] += 1
                    self.counts[self_key] += dur - frame[0]
        return wrapper

    def _spanned(self, name: str, fn: Callable, quantities) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call_span(name, fn, args, kwargs, quantities)
        return wrapper

    def _run_checks(self, name: str, fn: Callable) -> Callable:
        """Time each check thunk as a child span, on whichever pool thread runs it."""
        @functools.wraps(fn)
        def wrapper(checks, *args, **kwargs):
            def body(checks, *args, **kwargs):
                parent = self._stack()[-1][1]
                timed = [(label, functools.partial(self.call_span, CHECK_SPAN, thunk,
                                                   parent=parent))
                         for label, thunk in checks]
                return fn(timed, *args, **kwargs)
            return self.call_span(name, body, (checks,) + args, kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every saucer namespace binding a listed function; undo on exit."""
        patched = []
        self.missing = []
        try:
            for module_name, func_name, kind, _metrics, quantities in LAYER_FUNCTIONS:
                name = f"{module_name}.{func_name}"
                try:
                    home = importlib.import_module(f"saucer.{module_name}")
                except ModuleNotFoundError:
                    home = None
                original = getattr(home, func_name, None)
                if original is None:
                    self.missing.append(name)
                    continue
                if kind == COUNTED:
                    wrapper = self._counted(name, original)
                elif name == "reports.run_checks":
                    wrapper = self._run_checks(name, original)
                else:
                    wrapper = self._spanned(name, original, quantities)
                modules = [m for key, m in list(sys.modules.items())
                           if m is not None and (key == "saucer" or key.startswith("saucer."))]
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """Counters plus summed self time per span name, and run_checks busy/wall."""
        totals = dict(self.counts)
        selfs = self_times(self.spans)
        for sid, name, start, end, _parent, _op, _agg in self.spans:
            totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + selfs[sid]
            if name == CHECK_SPAN:
                totals["reports.run_checks.busy_s"] = \
                    totals.get("reports.run_checks.busy_s", 0.0) + (end - start)
            elif name == "reports.run_checks":
                totals["reports.run_checks.wall_s"] = \
                    totals.get("reports.run_checks.wall_s", 0.0) + (end - start)
        return totals

    def write_spans(self, path) -> None:
        """All spans as gzipped JSON lines: [id, name, start, end, parent, op, agg]."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
