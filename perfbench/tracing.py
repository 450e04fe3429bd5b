"""In-memory span tracer that wraps the public functions of the qlimits modules.

The library itself is never edited.  ``Tracer.install`` replaces every
public function of each layer (the names in a module's ``__all__`` that
are defined there), ``DensityOperator.__post_init__`` (state validation)
and ``numpy.linalg.eigh`` with recording wrappers, in every ``qlimits``
module that holds a reference to them, so calls made through
``from .core import partial_trace`` style imports are seen too.
``Tracer.uninstall`` puts the originals back.

A span is ``[name, parent, start, end, eigh_calls, eigh_s, work]``.
Spans are kept in a list and summarised when the traced pass ends.
``eigh`` calls are counted, not recorded as spans: an REE solve makes
thousands of them.  Counts and eigh time are added to the innermost
open span and rolled up into its ancestors when a span closes, so a
span's counts are inclusive of everything it called.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("core", "jc", "feasibility", "catswap", "entanglement")

NAME, PARENT, START, END, EIGH_CALLS, EIGH_S, WORK = range(7)

# Spans of these functions record the length of their result (grid
# points, outcomes) as work done, for the per-layer rate metrics.
COUNTS_RESULT = ("jc.population_lower", "catswap.enumerate_outcomes")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, time.perf_counter(), 0.0, 0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[PARENT] >= 0:
            parent = self.spans[span[PARENT]]
            parent[EIGH_CALLS] += span[EIGH_CALLS]
            parent[EIGH_S] += span[EIGH_S]

    @contextmanager
    def op(self, label):
        """Span for one benchmark op; library spans below it inherit ``label``."""
        span = self._open("op:" + label)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        counts_result = name in COUNTS_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts_result:
                span[WORK] = len(result)
            return result

        return traced

    def _wrap_eigh(self, fn):
        @functools.wraps(fn)
        def traced_eigh(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = self.spans[self._stack[-1]]
                span[EIGH_CALLS] += 1
                span[EIGH_S] += time.perf_counter() - t0

        return traced_eigh

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import numpy

        modules = [importlib.import_module(f"qlimits.{layer}") for layer in LAYERS]
        holders = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qlimits" or name.startswith("qlimits."))]
        for layer, module in zip(LAYERS, modules):
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, key, traced)
        density = modules[0].DensityOperator
        self._set(density, "__post_init__",
                  self._wrap("core.DensityOperator.__post_init__", density.__post_init__))
        self._set(numpy.linalg, "eigh", self._wrap_eigh(numpy.linalg.eigh))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


class SpanIndex:
    """Derived views of a finished trace: op kind, self time, outermost spans."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.op_kind = [None] * n
        # time covered by direct children, and the children's (inclusive) eigh time
        child_s = [0.0] * n
        child_eigh_s = [0.0] * n
        for i, span in enumerate(spans):
            parent = span[PARENT]
            if span[NAME].startswith("op:"):
                self.op_kind[i] = span[NAME][3:]
            elif parent >= 0:
                self.op_kind[i] = self.op_kind[parent]
            if parent >= 0:
                child_s[parent] += span[END] - span[START]
                child_eigh_s[parent] += span[EIGH_S]
        # self time excludes child spans and the eigh calls made directly in the span
        self.self_s = [
            span[END] - span[START] - child_s[i] - (span[EIGH_S] - child_eigh_s[i])
            for i, span in enumerate(spans)
        ]

    def outermost(self, names):
        """Spans named in ``names`` that sit under an op and not under another of ``names``."""
        names = set(names)
        out = []
        for i, span in enumerate(self.spans):
            if span[NAME] not in names or self.op_kind[i] is None:
                continue
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] not in names:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                out.append(i)
        return out

    def duration(self, i):
        return self.spans[i][END] - self.spans[i][START]

    def busy_s(self, names):
        return float(sum(self.duration(i) for i in self.outermost(names)))


def median_or_zero(values):
    return float(statistics.median(values)) if values else 0.0
