"""Span recorder that wraps the package's public functions from outside.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper, in every module namespace that holds it (the defining module,
each module that imported the name, and the package ``__init__``), so calls
between modules and calls within one module are both recorded.  Spans stay
in memory until ``Tracer.dump`` writes them out; ``Tracer.remove`` restores
the originals.

A span holds its name (``<module>.<function>``), start, end, parent span,
op id and thread id.  A span opened on a pool worker thread with no open
span of its own takes as parent the innermost open span of the thread that
installed the tracer, i.e. the call that is waiting on the pool.  Self time
is a span's duration minus the part of it covered by its children.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import threading
import time
from collections import defaultdict

import gausshom
from gausshom import cli, core, detection, elements, experiments, jsa, series

# ``fock`` is the test oracle and sits on no user path, so it is not a layer.
LAYERS = (cli, experiments, jsa, elements, core, detection, series)
LAYER_NAMES = tuple(m.__name__.rsplit(".", 1)[1] for m in LAYERS)


def _pnr_key(state, spatial_modes, *args, **kwargs):
    """Distinct expansions: (sigma digest, detector set), counts ignored."""
    return (hashlib.sha1(state.sigma.tobytes()).hexdigest(), repr(tuple(spatial_modes)))


def _hhom_key(config, *args, **kwargs):
    return config.config_hash()


KEYS = {"detection.p_pnr": _pnr_key, "experiments.build_hhom": _hhom_key}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread", "key")

    def __init__(self, name, parent, op, thread, key):
        self.name, self.parent, self.op = name, parent, op
        self.thread, self.key = thread, key
        self.start = self.end = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._local = threading.local()
        self._owner_stack: list[Span] = []
        self._restore: list[tuple] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def _current_parent(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        owner = self._owner_stack
        return owner[-1] if owner else None

    def span(self, name: str, fn, *args, key=None, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        s = Span(name, self._current_parent, self.op, threading.get_ident(), key)
        self.spans.append(s)
        stack = self._stack()
        stack.append(s)
        s.start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            s.end = time.perf_counter_ns()
            stack.pop()

    def _wrap(self, fn, name: str):
        keyfn = KEYS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = keyfn(*args, **kwargs) if keyfn else None
            return tracer.span(name, fn, *args, key=key, **kwargs)
        return wrapper

    def install(self) -> None:
        self._local.stack = self._owner_stack
        wrappers = {}
        for module in LAYERS:
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ in {m.__name__ for m in LAYERS}):
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(obj, name)
        for namespace in LAYERS + (gausshom,):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])
        # CSV output is a method, not a module function
        to_csv = experiments.SweepResult.to_csv
        self._restore.append((experiments.SweepResult, "to_csv", to_csv))
        experiments.SweepResult.to_csv = self._wrap(to_csv, "experiments.SweepResult.to_csv")

    def remove(self) -> None:
        for namespace, attr, obj in reversed(self._restore):
            setattr(namespace, attr, obj)
        self._restore.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start and end (ns), parent line, op, thread."""
        index = {id(s): k for k, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = index.get(id(s.parent)) if s.parent is not None else None
                fh.write(json.dumps([s.name, s.start, s.end, parent, s.op, s.thread]) + "\n")


def _covered(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


# Helpers that do the work of their public caller (``apply``, ``p_pnr``,
# ``pnr_distribution``): their self time is charged to the enclosing span
# of the same module.
HELPERS = frozenset({"core.apply_symplectic", "core.apply_passive_channel",
                     "detection.series_inv_sqrt_det"})


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time in seconds of each span, keyed by id(span)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return {id(s): (s.end - s.start - _covered(children[id(s)])) / 1e9 for s in spans}


def _owner(s: Span) -> str:
    """The span name that a span's self time is charged to."""
    while s.name in HELPERS and s.parent is not None \
            and s.parent.name.split(".")[0] == s.name.split(".")[0]:
        s = s.parent
    return s.name


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-op self times, call counts and reuse ratios from traced ops."""
    own = self_times(spans)
    by_owner = defaultdict(float)
    by_layer = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        layer = s.name.split(".")[0]
        by_layer[layer] += own[id(s)]
        by_owner[_owner(s)] += own[id(s)]
        calls[s.name] += 1
        if layer in LAYER_NAMES:
            calls[layer] += 1

    def distinct_ratio(name):
        keys = defaultdict(set)
        for s in spans:
            if s.name == name:
                keys[s.op].add(s.key)
        n = calls[name]
        return sum(len(k) for k in keys.values()) / n if n else 0.0

    execute = [s for s in spans if s.name == "cli.execute"]
    execute_wall = sum(s.end - s.start for s in execute)
    row_time = sum(s.end - s.start for s in spans
                   if s.name == "experiments.sweep_row" and s.parent in execute)
    per_op = 1.0 / n_ops
    return {
        "series.self_s": by_layer["series"] * per_op,
        "series.calls": calls["series"] * per_op,
        "detection.self_s": by_layer["detection"] * per_op,
        "detection.p_pnr.self_s": by_owner["detection.p_pnr"] * per_op,
        "detection.p_pnr.calls": calls["detection.p_pnr"] * per_op,
        "detection.p_pnr.distinct_ratio": distinct_ratio("detection.p_pnr"),
        "detection.pnr_distribution.self_s": by_owner["detection.pnr_distribution"] * per_op,
        "detection.p_threshold.self_s": by_owner["detection.p_threshold"] * per_op,
        "detection.p_vacuum.self_s": by_owner["detection.p_vacuum"] * per_op,
        "detection.p_vacuum.calls": calls["detection.p_vacuum"] * per_op,
        "core.self_s": by_layer["core"] * per_op,
        "core.apply.self_s": by_owner["core.apply"] * per_op,
        "core.apply.calls": calls["core.apply"] * per_op,
        "core.reduce.self_s": by_owner["core.reduce"] * per_op,
        "core.reduce.calls": calls["core.reduce"] * per_op,
        "elements.self_s": by_layer["elements"] * per_op,
        "elements.calls": calls["elements"] * per_op,
        "jsa.self_s": by_layer["jsa"] * per_op,
        "jsa.build_jsa.calls": calls["jsa.build_jsa"] * per_op,
        "jsa.schmidt_decompose.calls": calls["jsa.schmidt_decompose"] * per_op,
        "experiments.self_s": by_layer["experiments"] * per_op,
        "experiments.build_hhom.calls": calls["experiments.build_hhom"] * per_op,
        "experiments.build_hhom.distinct_ratio": distinct_ratio("experiments.build_hhom"),
        "cli.self_s": by_layer["cli"] * per_op,
        "cli.parse.self_s": sum(v for k, v in by_owner.items()
                                if k == "cli.load_run_config"
                                or k.startswith("cli.parse_")) * per_op,
        "cli.output.self_s": (by_owner["cli.svg_plot"]
                              + by_owner["experiments.SweepResult.to_csv"]) * per_op,
        "cli.pool.parallelism": row_time / execute_wall if execute_wall else 0.0,
        "trace.spans": len(spans) * per_op,
    }


def _unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith((".calls", ".spans")):
        return "count"
    if name == "src.lines":
        return "lines"
    return "ratio"


PER_LAYER = (
    "series.self_s", "series.calls", "detection.self_s", "detection.p_pnr.self_s",
    "detection.p_pnr.calls", "detection.p_pnr.distinct_ratio",
    "detection.pnr_distribution.self_s", "detection.p_threshold.self_s",
    "detection.p_vacuum.self_s", "detection.p_vacuum.calls", "core.self_s",
    "core.apply.self_s", "core.apply.calls", "core.reduce.self_s", "core.reduce.calls",
    "elements.self_s", "elements.calls", "jsa.self_s", "jsa.build_jsa.calls",
    "jsa.schmidt_decompose.calls", "experiments.self_s", "experiments.build_hhom.calls",
    "experiments.build_hhom.distinct_ratio", "cli.self_s", "cli.parse.self_s",
    "cli.output.self_s", "cli.pool.parallelism", "cli.pool.speedup",
    "trace.overhead_frac", "trace.spans", "src.lines",
)
UNITS = {name: _unit(name) for name in PER_LAYER}
