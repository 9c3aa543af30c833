"""Spans around pfsensor's layer functions, recorded from outside the package.

`Tracer.installed()` rebinds every public function that `pfsensor.pipeline`,
`pfsensor.pde` and `pfsensor.cli` take from a layer module to a wrapper that
records a span (name, start, end, parent) plus the counts below, and puts the
originals back on exit. Calls a module makes to its own private helpers are
not seen. Spans are kept in memory; the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = (
    "config",
    "uncertainty",
    "flowfield",
    "markov",
    "tracking",
    "placement",
    "pde",
    "pipeline",
)
NAMESPACES = ("pfsensor.pipeline", "pfsensor.pde", "pfsensor.cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


def _tracking_matrix(counts, result, args):
    counts["tracking.q_nnz"] += int(result.matrix.nnz)


def _threshold(counts, result, args):
    # entries within rounding of the cutoff: reordering the float sums that
    # build Q could move them to the other side
    q = args["tracking"]
    steps = q.horizon_steps
    eps = args["spec"].epsilon_acc
    cutoff = eps if args["raw"] else eps * (steps + 1)
    near = np.abs(q.matrix.data - cutoff) <= 1e-12 * (steps + 1)
    counts["tracking.borderline_pairs"] += int(np.count_nonzero(near))
    counts["tracking.pairs"] += int(result.matrix.nnz)


def _apply_constraints(counts, result, args):
    counts["tracking.kept_pairs"] += int(result.matrix.nnz)


def _place_sensors(counts, result, args):
    counts["placement.sensors"] += len(result.sensors)


def _build_markov(counts, result, args):
    counts["markov.nnz"] += int(result.matrix.nnz)


COUNTERS = {
    "tracking.tracking_matrix": _tracking_matrix,
    "tracking.threshold": _threshold,
    "tracking.apply_constraints": _apply_constraints,
    "placement.place_sensors": _place_sensors,
    "markov.build_markov": _build_markov,
}


def layer_name(obj) -> str | None:
    """'<layer>.<function>' for a public function defined in a layer module."""
    if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
        return None
    package, _, layer = obj.__module__.partition(".")
    if package != "pfsensor" or layer not in LAYERS:
        return None
    return f"{layer}.{obj.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        span = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, result, bound.arguments)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace the layer functions for the duration of the block."""
        saved = []
        try:
            for module_name in NAMESPACES:
                module = importlib.import_module(module_name)
                for attr, obj in list(vars(module).items()):
                    name = layer_name(obj)
                    if name is not None:
                        saved.append((module, attr, obj))
                        setattr(module, attr, self.wrap(name, obj))
            yield self
        finally:
            for module, attr, obj in saved:
                setattr(module, attr, obj)

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: total time, self time and call count. Self time is
        the span's duration minus that of its direct children; with one
        worker, children never overlap."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, tuple[float, float, int]] = {}
        for span, children in zip(self.spans, child_time):
            total, own, calls = out.get(span.name, (0.0, 0.0, 0))
            duration = span.end - span.start
            out[span.name] = (total + duration, own + duration - children, calls + 1)
        return out
