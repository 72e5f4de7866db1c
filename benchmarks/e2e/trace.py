"""Per-layer spans taken from outside the program.

A :class:`Tracer` replaces a fixed table of *public* callables — class or
module attributes of ``repro`` — by timing shims and puts the originals back
on exit; nothing under ``src/`` knows it is being traced.  The shims share
one span stack, so every span records its name, start, end, parent span and
the number of the batch being processed; a layer's self time is its span's
duration minus the part its children cover.  Callables entered thousands of
times per batch (``extend_intersect``, the per-event batcher and broker
calls) are aggregated to a count and a total instead of one span each, but
still count as children of the span that called them.

A target that no longer resolves is listed in ``Tracer.missing`` and never
raises: a refactor that renames a layer boundary shows up as
``bench.missing_targets`` in the results, not as a broken benchmark.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter

#: span name, "module:attribute path", kind.  Kinds: "span" (one record per
#: call), "leaf" (aggregated), "iter" (a generator function: one span per
#: item it produces), "read" (only read by the benchmark; checked to exist).
TARGETS: tuple[tuple[str, str, str], ...] = (
    # streams.generator
    ("generator.next", "repro.streams.generator:SnapshotGenerator.__iter__", "iter"),
    ("batcher.offer", "repro.streams.generator:SnapshotBatcher.offer", "leaf"),
    ("batcher.flush", "repro.streams.generator:SnapshotBatcher.flush", "leaf"),
    # streams.events
    ("events.from_events", "repro.streams.events:EventColumns.from_events", "span"),
    ("events.insert_columns", "repro.streams.generator:Snapshot.insert_columns", "span"),
    ("events.delete_columns", "repro.streams.generator:Snapshot.delete_columns", "span"),
    # streams.broker
    ("broker.put", "repro.streams.broker:StreamBroker.put", "leaf"),
    ("broker.poll", "repro.streams.broker:StreamBroker.poll", "leaf"),
    ("broker.stats", "repro.streams.broker:StreamBroker.stats", "read"),
    # graph.adjacency
    ("graph.insert", "repro.graph.adjacency:DynamicGraph.apply_insert_columns", "span"),
    ("graph.delete", "repro.graph.adjacency:DynamicGraph.apply_delete_columns", "span"),
    ("graph.resolve", "repro.core.registry:resolve_deletions", "span"),
    ("graph.num_edges", "repro.graph.adjacency:DynamicGraph.num_edges", "read"),
    ("graph.num_placeholders", "repro.graph.adjacency:DynamicGraph.num_placeholders", "read"),
    # core.filtering + core.debi
    ("filtering.insert", "repro.core.filtering:IndexManager.handle_insert_columns", "span"),
    ("filtering.delete", "repro.core.filtering:IndexManager.handle_deletions", "span"),
    ("debi.popcount", "repro.core.debi:DEBI.total_bits_set", "span"),
    ("debi.nbytes", "repro.core.debi:DEBI.nbytes", "read"),
    # core.enumeration
    ("enum.decompose", "repro.core.enumeration:decompose_batch", "span"),
    ("enum.kernel", "repro.core.enumeration:columnar_enumerate", "span"),
    ("enum.kernel_packed", "repro.core.enumeration:columnar_enumerate_packed", "span"),
    ("enum.extend", "repro.core.enumeration:extend_intersect", "leaf"),
    # core.registry
    ("registry.context", "repro.core.registry:QueryRuntime.make_context", "span"),
    # core.pipeline + core.engine
    ("pipeline.batch", "repro.core.pipeline:BatchPipeline.process_batch", "span"),
    ("engine.snapshot", "repro.core.engine:MnemonicEngine.process_snapshot", "span"),
    ("engine.run", "repro.core.engine:MnemonicEngine.run", "span"),
    ("multi.snapshot", "repro.core.registry:MultiQueryEngine.process_snapshot", "span"),
    ("multi.run", "repro.core.registry:MultiQueryEngine.run", "span"),
    # core.parallel
    ("pool.start", "repro.core.parallel:SharedMemoryPool.__init__", "span"),
    ("pool.dispatch", "repro.core.parallel:SharedMemoryPool.dispatch", "span"),
    ("pool.drain", "repro.core.parallel:SharedMemoryPool.drain", "span"),
    ("pool.publish_stats", "repro.core.parallel:SharedMemoryPool.publish_stats", "read"),
    ("pool.worker_stats", "repro.core.parallel:EnumerationOutcome.worker_stats", "read"),
    # core.shared_snapshot
    ("snapshot.publish", "repro.core.shared_snapshot:SharedSnapshotWriter.publish", "span"),
    # core.service
    ("service.submit", "repro.core.service:MnemonicService.submit", "span"),
    ("service.poll", "repro.core.service:MnemonicService.poll", "span"),
    ("service.pending", "repro.core.service:MnemonicService.pending", "read"),
)

#: spans that only frame the work of other layers: their self time is what
#: no layer explains
FRAME_SPANS = frozenset(
    {"pipeline.batch", "engine.snapshot", "engine.run", "multi.snapshot", "multi.run"}
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    batch: int
    #: seconds of this span covered by child spans and aggregated leaves
    covered: float = 0.0

    @property
    def self_seconds(self) -> float:
        return (self.end - self.start) - self.covered


class Tracer:
    """Installs the shims of :data:`TARGETS`; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: leaf name -> [calls, total seconds]
        self.leaves: dict[str, list] = {}
        self.missing: list[str] = []
        #: the pool most recently dispatched to — the engines keep theirs
        #: private, and the benchmark reads its public ``publish_stats``
        self.pool = None
        self.batch = -1
        self._first = 0
        self._leaf_base: dict[str, tuple] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------ install
    def __enter__(self) -> "Tracer":
        for name, target, kind in TARGETS:
            try:
                owner, attr, original = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            if kind == "read":
                continue
            make = {"span": self._span_shim, "leaf": self._leaf_shim, "iter": self._iter_shim}[
                kind
            ]
            if isinstance(original, (classmethod, staticmethod)):
                shim = type(original)(make(name, original.__func__))
            else:
                shim = make(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, shim)
            else:
                # A module-level function may have been imported by name
                # elsewhere: replace every repro module's reference to it.
                for module in list(sys.modules.values()):
                    if (
                        getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is original
                    ):
                        self._patch(module, attr, shim)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, owned in reversed(self._restore):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def _patch(self, owner, attr: str, shim) -> None:
        owned = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, shim)

    # ------------------------------------------------------------------ shims
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.batch))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].covered += span.end - span.start

    def _span_shim(self, name: str, original):
        tracer = self
        takes_snapshot = name.endswith(".snapshot")
        on_pool = name == "pool.dispatch"

        def shim(*args, **kwargs):
            if on_pool:
                tracer.pool = args[0]
            if takes_snapshot:  # process_snapshot(self, snapshot): the service path
                tracer.batch = args[1].number
            index = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        shim.__wrapped__ = original
        return shim

    def _leaf_shim(self, name: str, original):
        tracer = self
        cell = self.leaves.setdefault(name, [0, 0.0])

        def shim(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                cell[0] += 1
                cell[1] += elapsed
                if tracer._stack:
                    tracer.spans[tracer._stack[-1]].covered += elapsed

        shim.__wrapped__ = original
        return shim

    def _iter_shim(self, name: str, original):
        tracer = self

        def shim(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                index = tracer._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                tracer.batch = getattr(item, "number", tracer.batch)
                yield item

        shim.__wrapped__ = original
        return shim

    # ------------------------------------------------------------------ reading
    def begin(self) -> None:
        """Everything recorded so far was set-up; the readers look at what follows."""
        self._first = len(self.spans)
        self._leaf_base = {name: tuple(cell) for name, cell in self.leaves.items()}

    def self_seconds(self, *names: str) -> float:
        return sum(s.self_seconds for s in self.spans[self._first:] if s.name in names)

    def total_seconds(self, *names: str, setup: bool = False) -> float:
        spans = self.spans[: self._first] if setup else self.spans[self._first:]
        return sum(s.end - s.start for s in spans if s.name in names)

    def leaf(self, name: str) -> tuple[int, float]:
        """(calls, seconds) of an aggregated callable."""
        calls, seconds = self.leaves.get(name, (0, 0.0))
        base_calls, base_seconds = self._leaf_base.get(name, (0, 0.0))
        return calls - base_calls, seconds - base_seconds

    def explained_seconds(self) -> float:
        """Self time of every layer span plus every leaf: what the layers explain."""
        spans = sum(
            s.self_seconds for s in self.spans[self._first:] if s.name not in FRAME_SPANS
        )
        return spans + sum(self.leaf(name)[1] for name in self.leaves)

    def dump(self, fold_below: float = 100e-6) -> dict:
        """JSON-ready record: spans as rows, leaves and folded spans as aggregates.

        Childless spans shorter than ``fold_below`` seconds (an idle ``poll``,
        a five-event ``submit``) are folded into per-name count + total, which
        keeps an open-loop trace an order of magnitude smaller and drops
        nothing a reader would look at.
        """
        first = self._first
        spans = self.spans[first:]
        origin = spans[0].start if spans else 0.0
        parents = {s.parent for s in spans}
        folded: dict[str, list] = {}
        row_of: dict[int, int] = {}
        rows = []
        for index, span in enumerate(spans, start=first):
            if index not in parents and span.end - span.start < fold_below:
                cell = folded.setdefault(span.name, [0, 0.0])
                cell[0] += 1
                cell[1] += span.end - span.start
                continue
            row_of[index] = len(rows)
            rows.append([
                span.name, round(span.start - origin, 7), round(span.end - origin, 7),
                row_of.get(span.parent, -1), span.batch, round(span.self_seconds, 7),
            ])

        def aggregate(calls: int, seconds: float) -> dict:
            return {"calls": calls, "total_s": round(seconds, 7)}

        return {
            "columns": ["name", "start_s", "end_s", "parent", "batch", "self_s"],
            "spans": rows,
            "leaves": {name: aggregate(*self.leaf(name)) for name in self.leaves},
            "folded_short_spans": {name: aggregate(*cell) for name, cell in folded.items()},
            "missing_targets": list(self.missing),
        }


def _resolve(target: str):
    """``(owner, attribute name, current value)`` of a ``module:path`` target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr in getattr(owner, "__dataclass_fields__", {}):
        return owner, attr, None
    # vars() first: getattr would unwrap classmethods and staticmethods.
    for klass in getattr(owner, "__mro__", (owner,)):
        if attr in vars(klass):
            return owner, attr, vars(klass)[attr]
    return owner, attr, getattr(owner, attr)
