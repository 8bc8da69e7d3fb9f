"""Per-layer timing from outside the program.

The benchmark never edits the program to time it.  Instead a
:class:`Recorder` wraps the public layer functions named in
:data:`TARGETS` (module attributes and class methods are swapped for
timing wrappers, and every ``from x import f`` copy held by another
``repro`` module is swapped too), and collects the spans the program
already emits through a sink on its public tracer.

Self time is the time a layer spends outside every other measured
layer:

* wrapped functions nest on a per-thread stack, so a wrapper's self
  time excludes the wrapped calls beneath it (``merge_exploration_results``
  excludes the ``pareto_front`` it calls);
* program spans and the outermost wrapper frames are then laid out per
  thread, and each instant is charged to the innermost interval that
  covers it (so a ``generation`` span keeps only the GA glue that no
  wrapped kernel covers).

A target that no longer exists (a later change renamed it) is listed in
:attr:`Recorder.missing` and its metrics are reported as missing; the
run goes on.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: (layer, "module:attribute.path", what the call contributes).
#: ``timed`` layers are timed wrappers; ``count`` layers only count.
#: The unit extractor turns (args, result) into the layer's unit count.
TARGETS = (
    ("pareto.filter", "repro.core.pareto:pareto_front", "timed"),
    ("explore.exhaustive", "repro.dse.explorer:DesignSpaceExplorer.explore_exhaustive", "count"),
    ("explore.ga", "repro.dse.explorer:DesignSpaceExplorer.explore", "count"),
    ("ga.requested", "repro.dse.kernels:novel_genomes", "count"),
    ("ga.breed", "repro.dse.kernels:breed_offspring", "timed"),
    ("ga.sort", "repro.dse.kernels:GAKernels.nondominated_sort", "timed"),
    ("ga.sort", "repro.dse.kernels:GAKernels.pareto_filter", "timed"),
    ("ga.crowding", "repro.dse.kernels:GAKernels.crowding", "timed"),
    ("genome.repair", "repro.dse.problem:DcimProblem.repair", "timed"),
    ("genome.repair", "repro.problems.mapping:MappingProblem.repair", "timed"),
    ("eval.batch", "repro.dse.problem:DcimProblem.evaluate_batch", "timed"),
    ("eval.batch", "repro.problems.mapping:MappingProblem.evaluate_batch", "timed"),
    ("campaign.merge", "repro.dse.explorer:merge_exploration_results", "timed"),
    ("distill", "repro.dse.distill:distill", "timed"),
    ("rtl.generate", "repro.rtl.generator:generate_rtl", "timed"),
    ("rtl.lint", "repro.rtl.lint:lint_bundle", "timed"),
    ("layout.pnr", "repro.layout.pnr:PnrFlow.run", "timed"),
    ("verify", "repro.core.compiler:SegaDcim.verify", "timed"),
    ("store.record", "repro.store.runstore:RunStore.record_response", "timed"),
)

#: Modules imported before the reference scan, so that every
#: ``from x import f`` copy of a target already exists when it is swapped.
PRELOAD = (
    "repro.core.compiler",
    "repro.service",
    "repro.store",
    "repro.problems",
)

#: Program spans that belong to a layer.  Everything else the program
#: emits (``campaign``, ``spec``, ``generation``...) is a container: its
#: self time is glue that no layer accounts for.
LAYER_SPANS = (
    "http.request",
    "job.queue_wait",
    "job.run",
    "cache.get_many",
    "cache.put_many",
    "cache.flush",
    "executor.chunk",
)

#: Spans that measure waiting rather than work on one thread.
_WAIT_SPANS = ("job.queue_wait",)


def _units(layer: str, args: tuple, result) -> int:
    """Unit count one call of ``layer`` contributes."""
    if layer == "pareto.filter":
        return len(args[0])
    if layer == "eval.batch":
        return len(args[1])
    if layer == "ga.requested":
        return len(args[0])
    if layer == "explore.exhaustive":
        return int(getattr(result, "evaluations", 0))
    if layer == "verify":
        return int(getattr(result, "trials", 0))
    return 0


def _resolve(target: str):
    """(owner, attribute name, original) for ``module:attr.path``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, getattr(owner, name)


class Recorder:
    """Wraps the layer functions and joins them with program spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        self.spans_enabled = False
        #: layer -> [self seconds, calls, units]
        self.totals: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])
        #: (thread, epoch start, seconds) of outermost wrapped calls.
        self.frames: list[tuple[str, float, float]] = []
        self.spans: list[dict] = []

    # Installation ------------------------------------------------------
    def prepare(self) -> None:
        """Resolve every target and every reference site (once).

        Missing targets are remembered in :attr:`missing`; the patch
        list is what :meth:`install` swaps in and :meth:`uninstall`
        swaps back.
        """
        for module_name in PRELOAD:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        for layer, target, kind in TARGETS:
            try:
                owner, name, original = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            wrapper = self._wrap(layer, original, kind == "timed")
            self._patches.append((owner, name, original, wrapper))
            if isinstance(owner, type):
                continue
            # Module-level function: also swap the copies that other
            # modules bound with ``from owner import name``.
            for module_name, module in list(sys.modules.items()):
                if not module_name.startswith("repro") or module is owner:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def install(self) -> None:
        for owner, name, _original, wrapper in self._patches:
            setattr(owner, name, wrapper)
        self.spans_enabled = True

    def uninstall(self) -> None:
        for owner, name, original, _wrapper in self._patches:
            setattr(owner, name, original)
        self.spans_enabled = False

    # Wrappers ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn, timed: bool):
        recorder = self

        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                units = _units(layer, args, result)
                with recorder._lock:
                    entry = recorder.totals[layer]
                    entry[1] += 1
                    entry[2] += units
                return result

            return counted

        @functools.wraps(fn)
        def timed_call(*args, **kwargs):
            stack = recorder._stack()
            outermost = not stack
            wall = time.time() if outermost else 0.0
            stack.append(0.0)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                units = _units(layer, args, result) if result is not None else 0
                with recorder._lock:
                    entry = recorder.totals[layer]
                    entry[0] += elapsed - children
                    entry[1] += 1
                    entry[2] += units
                    if outermost:
                        recorder.frames.append(
                            (threading.current_thread().name, wall, elapsed)
                        )

        return timed_call

    # Program spans -------------------------------------------------------
    def span_sink(self, record) -> None:
        """Tracer sink: keep the finished trace's spans while enabled."""
        if not self.spans_enabled:
            return
        rows = [span.to_dict() for span in record.spans]
        with self._lock:
            self.spans.extend(rows)

    def attach(self, tracer) -> None:
        """Receive every trace ``tracer`` keeps from now on."""
        tracer.add_sink(self.span_sink)

    # Summary ---------------------------------------------------------------
    def summary(self) -> dict:
        """Totals per layer and per program span, self time in ms."""
        with self._lock:
            totals = {k: list(v) for k, v in self.totals.items()}
            frames = list(self.frames)
            spans = list(self.spans)
        by_thread: dict[str, list] = defaultdict(list)
        for thread, start, seconds in frames:
            by_thread[thread].append((start, start + seconds, None))
        job_windows: dict[str, list] = defaultdict(list)
        for span in spans:
            start = float(span["start_time"])
            end = start + float(span["duration_s"])
            if span["name"] in ("job.queue_wait", "job.run"):
                job_windows[span["trace_id"]].append((start, end))
            if span["name"] in _WAIT_SPANS:
                continue
            by_thread[span.get("thread") or ""].append((start, end, span))
        span_self: dict[str, list] = defaultdict(lambda: [0.0, 0])
        cache_keys = cache_misses = 0
        for intervals in by_thread.values():
            selfs = innermost_self_times([(s, e) for s, e, _ in intervals])
            for (start, end, span), seconds in zip(intervals, selfs):
                if span is None:
                    continue
                if span["name"] == "http.request":
                    # Time a request spends open while its own trace's
                    # job waits or runs is the job's, not HTTP's (the
                    # events long-poll mostly waits on the job).
                    seconds -= overlap((start, end), job_windows.get(span["trace_id"], ()))
                entry = span_self[span["name"]]
                entry[0] += max(seconds, 0.0)
                entry[1] += 1
        for span in spans:
            if span["name"] in _WAIT_SPANS:
                entry = span_self[span["name"]]
                entry[0] += float(span["duration_s"])
                entry[1] += 1
            elif span["name"] == "cache.get_many":
                attrs = span.get("attributes") or {}
                cache_keys += int(attrs.get("keys", 0))
                cache_misses += int(attrs.get("misses", 0))
        covered = sum(v[0] for v in totals.values())
        covered += sum(span_self[name][0] for name in LAYER_SPANS if name in span_self)
        return {
            "layers": {
                layer: {"self_ms": v[0] * 1e3, "calls": v[1], "units": v[2]}
                for layer, v in totals.items()
            },
            "spans": {
                name: {"self_ms": v[0] * 1e3, "count": v[1]}
                for name, v in span_self.items()
            },
            "cache_keys": cache_keys,
            "cache_misses": cache_misses,
            "covered_ms": covered * 1e3,
            "missing": list(self.missing),
        }


def innermost_self_times(intervals: list[tuple[float, float]]) -> list[float]:
    """Charge each instant to the innermost (latest-started) open interval.

    Intervals that nest get classic self times (a parent minus its
    children); intervals that overlap without nesting — clocks read a
    few microseconds apart — still split their time exactly once.
    """
    events = []
    for index, (start, end) in enumerate(intervals):
        if end > start:
            events.append((start, 1, index))
            events.append((end, 0, index))
    events.sort()
    selfs = [0.0] * len(intervals)
    active: list[int] = []
    last = 0.0
    for when, is_start, index in events:
        if active:
            selfs[active[-1]] += when - last
        last = when
        if is_start:
            active.append(index)
        else:
            active.remove(index)
    return selfs


def overlap(window: tuple[float, float], others) -> float:
    """Length of ``window`` covered by the union of ``others``."""
    lo, hi = window
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in others if e > lo and s < hi)
    covered = 0.0
    cursor = lo
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered
