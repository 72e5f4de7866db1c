"""Runner helpers that execute each system on a workload and time it.

Every helper returns a :class:`BenchRun` so the benchmark scripts can
build paper-shaped tables without caring which engine produced the
numbers.  All helpers accept pre-built streams (lists of
:class:`~repro.streams.StreamEvent`) so dataset generation cost never
pollutes the measured runtime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.baselines.bigjoin import BigJoinMatcher
from repro.baselines.ceci import CECIMatcher
from repro.baselines.li_tcs import LiTCSMatcher
from repro.baselines.turboflux import TurboFluxMatcher
from repro.core.api import MatchDefinition
from repro.core.engine import EngineConfig, MnemonicEngine, RunResult
from repro.core.parallel import ParallelConfig
from repro.core.registry import MultiQueryEngine, MultiRunResult
from repro.core.service import MnemonicService
from repro.datasets.queries import graph_from_events
from repro.query.query_graph import QueryGraph
from repro.storage.config import StorageConfig
from repro.streams.clock import Clock
from repro.streams.config import StreamConfig, StreamType
from repro.streams.events import EventKind, StreamEvent


#: floor for the timed section when computing rates: perf_counter deltas on
#: coarse-clock platforms can round a tiny measured section to exactly 0.0
MIN_TIMED_SECONDS = 1e-9


@dataclass
class BenchRun:
    """Outcome of running one system on one (query, stream) pair."""

    system: str
    query_name: str
    seconds: float
    embeddings: int
    #: negative (destroyed) embeddings for insert/delete workloads
    negative_embeddings: int = 0
    #: auxiliary metrics (traversals, stored partials, index entries, ...)
    extra: dict = field(default_factory=dict)
    #: ingest-to-result latency rollup (count/mean/p50/p95/p99/max) for
    #: service runs; empty for replays, which carry no arrival stamps
    latency: dict = field(default_factory=dict)
    #: the engine RunResult when the system is Mnemonic (None otherwise)
    run_result: RunResult | None = None

    @property
    def throughput(self) -> float:
        """Embeddings per second (0 when nothing was found).

        The timed section is clamped to :data:`MIN_TIMED_SECONDS`: a tiny
        run whose wall-clock rounded to <= 0 seconds used to report 0.0
        and silently drop the embeddings it did find.
        """
        found = self.embeddings + self.negative_embeddings
        if found == 0:
            return 0.0
        return found / max(self.seconds, MIN_TIMED_SECONDS)


# ---------------------------------------------------------------------- Mnemonic
def worker_split(result: RunResult) -> dict:
    """A run's ``WorkerStats`` totals: what the enumerating side spent where."""
    stats = [
        w for s in result.snapshots for o in s.enumeration_outcomes for w in o.worker_stats
    ]
    names = ("kernel_calls", "busy_seconds", "attach_seconds", "kernel_seconds", "result_bytes")
    return {name: sum(getattr(w, name) for w in stats) for name in names}


def run_mnemonic_stream(
    query: QueryGraph,
    stream: Sequence[StreamEvent],
    match_def: MatchDefinition | None = None,
    initial_prefix: int = 0,
    batch_size: int = 1024,
    stream_type: StreamType = StreamType.INSERT_ONLY,
    window: float | None = None,
    stride: float | None = None,
    parallel: ParallelConfig | None = None,
    collect_embeddings: bool = False,
    recycle_edge_ids: bool = True,
    pipeline: str = "serial",
    storage: "StorageConfig | None" = None,
    query_name: str = "query",
) -> BenchRun:
    """Run the Mnemonic engine over ``stream`` and time the streaming part.

    The first ``initial_prefix`` events are loaded (and indexed) before the
    clock starts, mirroring the paper's setup where the remainder of the
    trace forms the initial graph snapshot.  ``pipeline="pipelined"``
    overlaps batch k+1's mutation/publish work with batch k's pool
    enumeration (results are bit-identical to serial).  Passing a
    ``storage`` config runs the engine durably (journal + checkpoints +
    on-disk DEBI) and folds the storage counters into
    ``extra`` so tables can report disk footprint next to throughput.
    The engine's pool-fault counters are in ``extra["fault_stats"]``.
    """
    config = EngineConfig(
        stream=StreamConfig(
            stream_type=stream_type,
            batch_size=batch_size,
            window=window,
            stride=stride,
        ),
        parallel=parallel or ParallelConfig(),
        collect_embeddings=collect_embeddings,
        recycle_edge_ids=recycle_edge_ids,
        pipeline=pipeline,
        storage=storage,
    )
    # Engine construction spawns the persistent worker pool (process
    # backend), so pool start-up is part of setup — not of the measured
    # streaming section, matching the paper's per-query measurement.
    engine = MnemonicEngine(query, match_def=match_def, config=config)
    try:
        prefix = stream[:initial_prefix]
        suffix = stream[initial_prefix:]
        if prefix:
            engine.load_initial([e for e in prefix if e.kind is EventKind.INSERT])
        start = time.perf_counter()
        result = engine.run(list(suffix))
        elapsed = time.perf_counter() - start
        extra = {
            "filter_traversals": result.total_filter_traversals,
            "candidates_scanned": result.total_candidates_scanned,
            "snapshots": len(result.snapshots),
            "placeholders": engine.graph.num_placeholders,
            "live_edges": engine.graph.num_edges,
            "debi_bits": engine.debi.total_bits_set(),
            "debi_bytes": engine.debi.nbytes(),
            "snapshot_exports": engine.snapshot_exports,
            "enumeration_phases": engine.enumeration_phases_with_units,
            "pool_phases": engine.pool_enumeration_phases,
            "fault_stats": engine.fault_stats(),
            "phase_split": result.phase_split(),
            "worker_split": worker_split(result),
        }
        pool = engine._pool
        if pool is not None:
            extra["publish_stats"] = pool.publish_stats
        if storage is not None:
            extra.update(engine.storage_counters())
        return BenchRun(
            system="Mnemonic",
            query_name=query_name,
            seconds=elapsed,
            embeddings=result.total_positive,
            negative_embeddings=result.total_negative,
            extra=extra,
            latency=result.latency_summary() or {},
            run_result=result,
        )
    finally:
        engine.close()


# ---------------------------------------------------------------------- Mnemonic, service layer
def run_service_stream(
    query: QueryGraph,
    stream: Sequence[StreamEvent],
    match_def: MatchDefinition | None = None,
    initial_prefix: int = 0,
    batch_size: int = 1024,
    max_batch_delay: float | None = None,
    stream_type: StreamType = StreamType.INSERT_ONLY,
    events_per_second: float | None = None,
    collect_embeddings: bool = False,
    clock: Clock | None = None,
    query_name: str = "query",
) -> BenchRun:
    """Drive the streamed suffix through :class:`~repro.core.service.MnemonicService`.

    This is the service-shaped counterpart of :func:`run_mnemonic_stream`,
    an open loop on ``clock``: event ``i`` is due ``i / events_per_second``
    seconds after the loop starts (every event at once without a rate),
    whatever the engine is doing.  Each turn submits every due event, but
    never more than the broker holds (so a submit never blocks), then
    polls; when nothing is due it sleeps to the next due time, and
    ``drain()`` flushes the tail.  Adaptive batching (``max_batch_delay``)
    seals on the same clock.  The returned :class:`BenchRun` carries the
    ingest-to-result latency rollup next to the throughput metrics, plus
    the broker's counters.
    """
    config = EngineConfig(
        stream=StreamConfig(
            stream_type=stream_type,
            batch_size=batch_size,
            max_batch_delay=max_batch_delay,
        ),
        collect_embeddings=collect_embeddings,
    )
    engine = MnemonicEngine(query, match_def=match_def, config=config)
    try:
        prefix = stream[:initial_prefix]
        suffix = list(stream[initial_prefix:])
        if prefix:
            engine.load_initial([e for e in prefix if e.kind is EventKind.INSERT])
        service = MnemonicService(engine, clock=clock)
        clock = service.clock
        results = []
        submitted = 0
        start_wall = time.perf_counter()
        start = clock.now()
        while submitted < len(suffix):
            now = clock.now()
            due = submitted
            limit = min(len(suffix), submitted + service.broker.capacity)
            while due < limit and (
                events_per_second is None or start + due / events_per_second <= now
            ):
                due += 1
            if due > submitted:
                service.submit(suffix[submitted:due])
                submitted = due
            results.extend(service.poll())
            if events_per_second is not None and submitted < len(suffix):
                clock.sleep(start + submitted / events_per_second - clock.now())
        results.extend(service.drain())
        elapsed = time.perf_counter() - start_wall
        result = RunResult(results)
        return BenchRun(
            system="Mnemonic-service",
            query_name=query_name,
            seconds=elapsed,
            embeddings=result.total_positive,
            negative_embeddings=result.total_negative,
            extra={
                "filter_traversals": result.total_filter_traversals,
                "candidates_scanned": result.total_candidates_scanned,
                "snapshots": len(result.snapshots),
                "broker": service.broker.stats(),
            },
            latency=result.latency_summary() or {},
            run_result=result,
        )
    finally:
        engine.close()


# ---------------------------------------------------------------------- Mnemonic, multi-query
@dataclass
class MultiQueryBenchRun:
    """Outcome of one shared multi-query run: per-query rows + shared totals."""

    per_query: dict[str, BenchRun]
    seconds: float
    #: total adjacency-pool entries charged across all queries (shared scans
    #: are charged once; compare against the sum over independent engines)
    candidates_scanned: int
    #: shared-memory snapshot publications (process backend; 0 for serial)
    snapshot_exports: int
    #: enumeration phases that had work (== upper bound on exports)
    enumeration_phases: int
    #: phases dispatched to the pool — each must publish exactly one snapshot
    pool_phases: int = 0
    run_result: MultiRunResult | None = None


def run_multi_query_stream(
    queries: Sequence[tuple[str, QueryGraph]],
    stream: Sequence[StreamEvent],
    initial_prefix: int = 0,
    batch_size: int = 1024,
    stream_type: StreamType = StreamType.INSERT_ONLY,
    parallel: ParallelConfig | None = None,
    collect_embeddings: bool = False,
    pipeline: str = "serial",
    query_names_unique: bool = True,
) -> MultiQueryBenchRun:
    """Run every query as a standing query of one shared multi-query engine.

    The per-query ``BenchRun`` rows carry the same metric names as
    :func:`run_mnemonic_stream`, so the benchmark tables can mix shared
    and independent rows; the shared run additionally reports the
    snapshot-export count (one per batch, not one per query per batch).
    """
    if query_names_unique and len({name for name, _ in queries}) != len(queries):
        raise ValueError("query names must be unique (they key the result rows)")
    config = EngineConfig(
        stream=StreamConfig(stream_type=stream_type, batch_size=batch_size),
        parallel=parallel or ParallelConfig(),
        collect_embeddings=collect_embeddings,
        pipeline=pipeline,
    )
    with MultiQueryEngine(config=config) as engine:
        name_by_id = {
            engine.register(query, name=name): name for name, query in queries
        }
        prefix = stream[:initial_prefix]
        suffix = stream[initial_prefix:]
        if prefix:
            engine.load_initial([e for e in prefix if e.kind is EventKind.INSERT])
        start = time.perf_counter()
        result = engine.run(list(suffix))
        elapsed = time.perf_counter() - start
        per_query: dict[str, BenchRun] = {}
        for qid, run_result in result.per_query.items():
            per_query[name_by_id[qid]] = BenchRun(
                system="Mnemonic-multi",
                query_name=name_by_id[qid],
                seconds=elapsed,
                embeddings=run_result.total_positive,
                negative_embeddings=run_result.total_negative,
                extra={
                    "filter_traversals": run_result.total_filter_traversals,
                    "candidates_scanned": run_result.total_candidates_scanned,
                    "snapshots": len(run_result.snapshots),
                },
                run_result=run_result,
            )
        return MultiQueryBenchRun(
            per_query=per_query,
            seconds=elapsed,
            candidates_scanned=result.total_candidates_scanned,
            snapshot_exports=engine.snapshot_exports,
            enumeration_phases=engine.enumeration_phases_with_units,
            pool_phases=engine.pool_enumeration_phases,
            run_result=result,
        )


# ---------------------------------------------------------------------- TurboFlux
def run_turboflux_stream(
    query: QueryGraph,
    stream: Sequence[StreamEvent],
    match_def: MatchDefinition | None = None,
    initial_prefix: int = 0,
    query_name: str = "query",
) -> BenchRun:
    """Run the TurboFlux-style baseline edge-by-edge over the stream."""
    matcher = TurboFluxMatcher(query, match_def=match_def)
    prefix = stream[:initial_prefix]
    suffix = stream[initial_prefix:]
    for event in prefix:
        if event.kind is EventKind.INSERT:
            matcher.load_edge(event.src, event.dst, event.label,
                              event.src_label, event.dst_label)
        else:
            matcher.delete_edge(event.src, event.dst, event.label)
    positives = 0
    negatives = 0
    start = time.perf_counter()
    for event in suffix:
        if event.kind is EventKind.INSERT:
            positives += len(matcher.insert_edge(event.src, event.dst, event.label,
                                                 event.src_label, event.dst_label))
        else:
            negatives += len(matcher.delete_edge(event.src, event.dst, event.label))
    elapsed = time.perf_counter() - start
    return BenchRun(
        system="TurboFlux",
        query_name=query_name,
        seconds=elapsed,
        embeddings=positives,
        negative_embeddings=negatives,
        extra={
            "traversed_edges": matcher.stats.traversed_edges,
            "state_recomputations": matcher.stats.state_recomputations,
            "suppressed_duplicates": matcher.stats.suppressed_duplicates,
        },
    )


# ---------------------------------------------------------------------- BigJoin
def run_bigjoin_inserts(
    query: QueryGraph,
    stream: Sequence[StreamEvent],
    match_def: MatchDefinition | None = None,
    initial_prefix: int = 0,
    batch_size: int = 1024,
    query_name: str = "query",
) -> BenchRun:
    """Run the BigJoin-style delta join over an insert-only stream."""
    matcher = BigJoinMatcher(query, match_def=match_def)
    to_tuple = lambda e: (e.src, e.dst, e.label, e.timestamp, e.src_label, e.dst_label)  # noqa: E731
    prefix = [to_tuple(e) for e in stream[:initial_prefix]]
    suffix = [to_tuple(e) for e in stream[initial_prefix:]]
    if prefix:
        matcher.insert_batch(prefix)
        matcher.stats.embeddings = 0
    embeddings = 0
    start = time.perf_counter()
    for i in range(0, len(suffix), batch_size):
        embeddings += len(matcher.insert_batch(suffix[i : i + batch_size]))
    elapsed = time.perf_counter() - start
    return BenchRun(
        system="BigJoin",
        query_name=query_name,
        seconds=elapsed,
        embeddings=embeddings,
        extra={
            "intermediate_results": matcher.stats.intermediate_results,
            "intersections": matcher.stats.intersections,
        },
    )


# ---------------------------------------------------------------------- CECI
def run_ceci_per_snapshot(
    query: QueryGraph,
    stream: Sequence[StreamEvent],
    snapshot_points: Sequence[int],
    match_def: MatchDefinition | None = None,
    query_name: str = "query",
) -> BenchRun:
    """Re-run CECI from scratch at each snapshot point; report the mean per-snapshot time."""
    total = 0.0
    embeddings = 0
    for point in snapshot_points:
        graph = graph_from_events(stream[:point])
        matcher = CECIMatcher(query, match_def=match_def)
        start = time.perf_counter()
        found = matcher.match(graph)
        total += time.perf_counter() - start
        embeddings += len(found)
    mean = total / max(len(snapshot_points), 1)
    return BenchRun(
        system="CECI",
        query_name=query_name,
        seconds=mean,
        embeddings=embeddings,
        extra={"snapshots": len(snapshot_points), "total_seconds": total},
    )


# ---------------------------------------------------------------------- Li et al.
def run_litcs_stream(
    query: QueryGraph,
    stream: Sequence[StreamEvent],
    initial_prefix: int = 0,
    query_name: str = "query",
    strict: bool = False,
) -> BenchRun:
    """Run the Li et al.-style time-constrained matcher over the stream."""
    matcher = LiTCSMatcher(query, strict=strict)
    to_tuple = lambda e: (e.src, e.dst, e.label, e.timestamp, e.src_label, e.dst_label)  # noqa: E731
    for event in stream[:initial_prefix]:
        matcher.insert_edge(*to_tuple(event))
    embeddings = 0
    negatives = 0
    start = time.perf_counter()
    for event in stream[initial_prefix:]:
        if event.kind is EventKind.INSERT:
            embeddings += len(matcher.insert_edge(*to_tuple(event)))
        else:
            negatives += matcher.delete_edge(event.src, event.dst, event.label)
    elapsed = time.perf_counter() - start
    return BenchRun(
        system="Li et al.",
        query_name=query_name,
        seconds=elapsed,
        embeddings=embeddings,
        negative_embeddings=0,
        extra={
            "peak_stored_partials": matcher.stats.peak_stored_partials,
            "evicted_partials": negatives,
        },
    )
