"""Span recording for the traced benchmark run, from outside ``src/``.

A span is one call into a layer: its name, start, end, the span that
caused it (the innermost open span on the same thread) and the request
it belongs to. Spans stay in memory and are written out once, when the
run ends. A layer's *self time* is its span's duration minus the part of
that interval its child spans cover.

The benchmark does not edit the program to trace it. :func:`instrument_engine`
and :func:`patch_kernels` wrap the public entry points of each layer on
the objects the benchmark built (instance attributes) or on the module
namespace the pipeline stages call through, and the traced pipeline is
handed to the engine as ``Quest(..., pipeline=traced_pipeline(...))``.
The untraced run installs none of this.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "SpanRecorder",
    "TracedStage",
    "count_trace",
    "instrument_engine",
    "patch_kernels",
    "traced_pipeline",
]


class SpanRecorder:
    """In-memory spans plus exact event counts, for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: ``[name, start, end, parent index or -1, request id]`` per span.
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Any = None) -> Iterator[None]:
        """Record one span; nested spans on this thread become children.

        A root span takes *request* as its request id; a child inherits
        its parent's.
        """
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if parent >= 0:
            request = self.spans[parent][4]
        record = [name, self._clock(), 0.0, parent, request]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = self._clock()
            stack.pop()

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """*fn* with every call recorded as a span named *name*."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every span named *name*, in start order."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> dict[str, list[float]]:
        """Self seconds per span, grouped by span name."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _name, start, end, parent, _request in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        result: dict[str, list[float]] = {}
        for index, (name, start, end, _parent, _request) in enumerate(self.spans):
            covered = _covered(children.get(index, ()))
            result.setdefault(name, []).append((end - start) - covered)
        return result

    def export(self) -> dict[str, Any]:
        """A JSON-ready dump of every span and count."""
        return {"spans": self.spans, "counts": dict(self.counts)}

    @classmethod
    def from_export(cls, data: dict[str, Any]) -> "SpanRecorder":
        recorder = cls()
        recorder.spans = [list(span) for span in data["spans"]]
        recorder.counts = Counter(data["counts"])
        return recorder

    def absorb(self, other: "SpanRecorder", tag: Any) -> None:
        """Append *other*'s spans and counts; its request ids become
        ``[tag, id]`` so requests of different rounds stay distinct."""
        offset = len(self.spans)
        for name, start, end, parent, request in other.spans:
            parent = parent + offset if parent >= 0 else -1
            self.spans.append([name, start, end, parent, [tag, request]])
        self.counts.update(other.counts)


def _covered(intervals: Any) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class TracedStage:
    """A pipeline stage proxy: runs the real stage inside a span."""

    def __init__(self, inner: Any, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.name = inner.name
        self._recorder = recorder
        self._span = f"pipeline.{inner.name}"

    def run(self, engine: Any, context: Any) -> None:
        with self._recorder.span(self._span):
            self.inner.run(engine, context)

    def candidates(self, context: Any) -> int:
        return self.inner.candidates(context)


def traced_pipeline(recorder: SpanRecorder) -> Any:
    """The canonical four-stage pipeline, each stage behind a span."""
    from repro.pipeline import SearchPipeline

    return SearchPipeline(
        [TracedStage(stage, recorder) for stage in SearchPipeline().stages]
    )


#: Trace fields -> count names, summed over engine runs.
_TRACE_CACHES = {
    "emission_cache": "wrapper.emission_cache",
    "steiner_cache": "steiner.cache",
    "steiner_subset_cache": "steiner.plan_cache",
}
_STAGE_COUNTS = {
    "forward": "pipeline.configurations",
    "backward": "pipeline.interpretations",
    "combine": "pipeline.ranked",
    "explain": "pipeline.explanations",
}


def count_trace(counts: Counter, trace: Any) -> None:
    """Add one engine run's exact work counts from its ``SearchTrace``."""
    counts["pipeline.runs"] += 1
    for report in trace.stages:
        name = _STAGE_COUNTS.get(report.stage)
        if name is not None:
            counts[name] += report.candidates
    for field, name in _TRACE_CACHES.items():
        stats = getattr(trace, field)
        counts[f"{name}_hits"] += stats.hits
        counts[f"{name}_misses"] += stats.misses


def instrument_engine(recorder: SpanRecorder, engine: Any) -> None:
    """Wrap the per-engine layer entry points of one built engine.

    Covers ``wrapper.emission_matrix`` (forward emissions, cache
    included), ``Quest.decode`` (HMM List-Viterbi; its self time excludes
    the emission span), the storage backend's ``emission_block`` and
    ``result_count``, and ``Quest.search_context`` (one span per engine
    run, whose trace adds the exact stage and cache counts).
    """
    wrapper = engine.wrapper
    backend = wrapper.backend
    wrapper.emission_matrix = recorder.wrap(wrapper.emission_matrix, "wrapper.emission")
    engine.decode = recorder.wrap(engine.decode, "hmm.decode")
    backend.emission_block = recorder.wrap(backend.emission_block, "storage.emission_block")
    backend.result_count = recorder.wrap(backend.result_count, "storage.result_count")
    search_context = engine.search_context

    @functools.wraps(search_context)
    def traced_search_context(*args: Any, **kwargs: Any) -> Any:
        with recorder.span("engine.search"):
            context = search_context(*args, **kwargs)
        count_trace(recorder.counts, context.trace)
        return context

    engine.search_context = traced_search_context


def patch_kernels(recorder: SpanRecorder) -> None:
    """Wrap the kernels the pipeline stages call by module-level name.

    Top-k Steiner search (backward), Dempster combination (forward mode
    combination and the combine stage) and explain's SQL builder (one
    call per ranked interpretation examined). For the rest of the
    process: only traced runs call this.
    """
    from repro.pipeline import stages

    stages.top_k_steiner_trees = recorder.wrap(stages.top_k_steiner_trees, "steiner.topk")
    stages.dempster_combine = recorder.wrap(stages.dempster_combine, "dst.combine")
    build_query = stages.build_query

    @functools.wraps(build_query)
    def counted_build_query(*args: Any, **kwargs: Any) -> Any:
        recorder.counts["pipeline.explain_examined"] += 1
        return build_query(*args, **kwargs)

    stages.build_query = counted_build_query
