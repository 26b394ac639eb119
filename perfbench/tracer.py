"""Span tracer that lives in the benchmark, not in the library.

``Tracer.install`` replaces each public function named in ``LAYERS`` with a
wrapper that records one span per call: name, start, end and parent span.
The wrapper is bound under every name that refers to the function inside
the package, so ``from .diagram import zones`` in ``engine`` is traced as
well as ``diagram.zones``.  ``Tracer.restore`` puts every original back.
Spans stay in memory until ``write_spans``.

Self time is a span's duration minus the time covered by its child spans.
Calls run on one thread and children nest inside their parent, so the
covered time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

#: The traced layers: (module, attribute path) of each wrapped function.
LAYERS = (
    ("cli", "main"),
    ("diagram", "has_projection_property"),
    ("diagram", "zones"),
    ("diagram", "reduce_points"),
    ("minors", "is_normal_in"),
    ("minors", "leading_edges"),
    ("engine", "Engine.invariants"),
    ("engine", "Engine.suffix_invariants"),
    ("engine", "Engine.link_state"),
    ("engine", "canonical_key"),
    ("engine", "realized_set"),
    ("kernels", "maximal_independent_sets"),
    ("kernels", "count_independent_sets_by_size"),
    ("oracle", "complex_summary"),
    ("oracle", "hilbert_function"),
    ("oracle", "toric_gb_check"),
)

#: Root span around each benchmark operation; not a library layer.
OP_SPAN = "bench.op"
LINK_STATE = "engine.Engine.link_state"
LEADING_EDGES = "minors.leading_edges"


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    end: float = 0.0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._open_names: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._engines: dict[int, object] = {}

    # -- recording ---------------------------------------------------------------

    def traced(self, name: str, fn: Callable, before: Callable | None = None,
               after: Callable | None = None) -> Callable:
        """Wrap ``fn`` so that each call records a span called ``name``.

        ``before(args)`` may return replacement positional arguments;
        ``after(args, result, exc, span)`` runs when the call ends.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            index = tracer._enter(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span = tracer._exit(index)
                if after is not None:
                    after(args, result, exc, span)

        return functools.wraps(fn)(wrapper)

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        index = len(self.spans) - 1
        self._open.append(index)
        self._open_names[name] += 1
        return index

    def _exit(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        self._open_names[span.name] -= 1
        if span.parent >= 0:
            self.spans[span.parent].children_s += span.duration
        if span.name == LEADING_EDGES and self._open_names[LINK_STATE]:
            self.counters[f"{LEADING_EDGES}.under_link_state_s"] += span.self_s
        return span

    # -- installing ----------------------------------------------------------------

    def install(self, lib) -> None:
        """Wrap every function in ``LAYERS`` wherever the package binds it."""
        package = [m for name, m in sorted(sys.modules.items())
                   if (name == "ferrers3d" or name.startswith("ferrers3d.")) and m is not None]
        for module_name, path in LAYERS:
            owner = getattr(lib, module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            name = f"{module_name}.{path}"
            hooks = _HOOKS.get(name)
            wrapper = self.traced(name, original, *(hooks(self) if hooks else (None, None)))
            if outer:  # a method: the class attribute is the only binding
                self._patch(owner, attr, wrapper)
                continue
            for module in package:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every original binding, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and counters; see README.md."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for span in self.spans:
            calls[span.name] += 1
            self_s[span.name] += span.self_s
        out: dict[str, float] = {}
        for module_name, path in LAYERS:
            name = f"{module_name}.{path}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        c = self.counters
        out[f"{LINK_STATE}.total_s"] = c[f"{LINK_STATE}.total_s"]
        out[f"{LEADING_EDGES}.under_link_state_s"] = c[f"{LEADING_EDGES}.under_link_state_s"]
        out[f"{LEADING_EDGES}.vertices"] = c[f"{LEADING_EDGES}.vertices"]
        stats: dict[str, int] = defaultdict(int)
        memo_entries = 0
        for engine in self._engines.values():
            for key, value in engine.stats.items():
                stats[key] += value
            memo_entries += len(engine._memo)
        for key in ("states", "cache_hits", "link_checks", "fallbacks"):
            out[f"engine.{key}"] = stats[key]
        out["engine.memo_entries"] = memo_entries
        key_calls = calls["engine.canonical_key"]
        out["engine.cache_hit_ratio"] = stats["cache_hits"] / key_calls if key_calls else 0.0
        out["kernels.vertices"] = c["kernels.vertices"]
        out["kernels.facets"] = c["kernels.facets"]
        hilbert = "oracle.hilbert_function"
        out[f"{hilbert}.refused"] = c[f"{hilbert}.refused"]
        out[f"{hilbert}.refused_s"] = c[f"{hilbert}.refused_s"]
        total = c[f"{hilbert}.returned_s"] + c[f"{hilbert}.refused_s"]
        out[f"{hilbert}.useful_ratio"] = c[f"{hilbert}.returned_s"] / total if total else 0.0
        out[f"{hilbert}.products"] = c[f"{hilbert}.products"]
        out["oracle.toric_gb_check.pairs_checked"] = c["oracle.toric_gb_check.pairs_checked"]
        return out

    def write_spans(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\tself_s\n")
            for index, s in enumerate(self.spans):
                fh.write(f"{index}\t{s.parent}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.self_s!r}\n")


# ---------------------------------------------------------------------------
# per-function counters, read from arguments and return values
# ---------------------------------------------------------------------------


def _engine_hooks(tracer: Tracer):
    def after(args, result, exc, span):
        engine = args[0]
        tracer._engines[id(engine)] = engine  # held, so ids stay unique
    return None, after


def _link_state_hooks(tracer: Tracer):
    def after(args, result, exc, span):
        if not tracer._open_names[LINK_STATE]:  # outermost call only
            tracer.counters[f"{LINK_STATE}.total_s"] += span.duration
    return None, after


def _leading_edges_hooks(tracer: Tracer):
    def before(args):
        points = args[0]
        if not hasattr(points, "__len__"):
            points = list(points)  # the function iterates its input once
        tracer.counters[f"{LEADING_EDGES}.vertices"] += len(points)
        return (points, *args[1:])
    return before, None


def _mis_hooks(tracer: Tracer):
    def after(args, result, exc, span):
        tracer.counters["kernels.vertices"] += len(args[0])
        if result is not None:
            tracer.counters["kernels.facets"] += len(result)
    return None, after


def _count_hooks(tracer: Tracer):
    def after(args, result, exc, span):
        tracer.counters["kernels.vertices"] += len(args[0])
    return None, after


def _hilbert_hooks(tracer: Tracer):
    prefix = "oracle.hilbert_function"

    def after(args, result, exc, span):
        if exc is not None:
            tracer.counters[f"{prefix}.refused"] += 1
            tracer.counters[f"{prefix}.refused_s"] += span.duration
            return
        tracer.counters[f"{prefix}.returned_s"] += span.duration
        # Level l costs len(level) * len(generators) products, for l < degree.
        tracer.counters[f"{prefix}.products"] += args[0].size * sum(result.values[:-1])
    return None, after


def _gb_hooks(tracer: Tracer):
    def after(args, result, exc, span):
        if result is not None:
            tracer.counters["oracle.toric_gb_check.pairs_checked"] += result.pairs_checked
    return None, after


_HOOKS = {
    "engine.Engine.invariants": _engine_hooks,
    LINK_STATE: _link_state_hooks,
    LEADING_EDGES: _leading_edges_hooks,
    "kernels.maximal_independent_sets": _mis_hooks,
    "kernels.count_independent_sets_by_size": _count_hooks,
    "oracle.hilbert_function": _hilbert_hooks,
    "oracle.toric_gb_check": _gb_hooks,
}
