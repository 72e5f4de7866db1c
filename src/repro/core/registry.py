"""Standing-query registry: many concurrent queries over one dynamic graph.

The paper's engine answers a single continuous query per stream.  A
matching *service*, however, evaluates many standing queries against the
same evolving graph, and running one engine per query multiplies every
per-batch cost by the number of queries: the graph is mutated N times, N
graph snapshots are published for the worker pools, and the same adjacency
pools are re-scanned once per query.

This module holds the per-query half of an engine, :class:`QueryRuntime`
(tree, matching orders, masks, DEBI, index manager), and the one engine
built on it — :class:`MultiQueryEngine`, the only host of
:class:`~repro.core.pipeline.BatchPipeline`
(:class:`~repro.core.engine.MnemonicEngine` is the subclass that registers
one query, id 0, when it is built) — with the configuration and result
shapes both share:

* :class:`QueryRegistry` tracks the standing queries — each with its own
  :class:`~repro.core.api.MatchDefinition`, matching order and result
  sink — registered against one shared :class:`~repro.graph.adjacency.DynamicGraph`.
* :class:`MultiQueryEngine` drives the paper's Algorithm 1 loop once per
  batch for *all* registered queries: one graph mutation pass, one DEBI
  update sweep (each query's index is refreshed from the same already-
  applied edge list), and — with the ``process`` backend — exactly one
  shared-memory snapshot export per enumeration phase, shared by every
  query's work units (see :meth:`~repro.core.parallel.SharedMemoryPool.dispatch`).
* Candidate scans are shared across queries: every enumeration context
  of a batch hands the same *shared pool cache* to
  :meth:`~repro.core.enumeration.EnumerationContext.get_candidate_pools`,
  so an adjacency partition scanned for one query is not re-charged
  (``candidates_scanned``) to any other query that anchors at the same
  ``(vertex, direction, edge label)``.

Per-query results are byte-identical to what N independent engines
would produce: DEBI filtering, duplicate elimination and acceptance all
stay per-query; only the raw adjacency fetch is shared.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass, field
from typing import Callable, Generic, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from repro.core import native
from repro.core.api import DefaultMatchDefinition, MatchDefinition
from repro.core.debi import DEBI
from repro.core.enumeration import EmbeddingArena, EnumerationContext, QueryState
from repro.core.filtering import IndexManager
from repro.core.parallel import EnumerationOutcome, ParallelConfig, SharedMemoryPool
from repro.core.pipeline import (
    BatchPipeline,
    CompletedBatch,
    PhaseOutcome,
    apply_deletions,
    apply_insertions,
)
from repro.core.results import Embeddings, ResultSet
from repro.graph.adjacency import DynamicGraph, ranks_in_runs, stable_runs
from repro.query.masking import MaskTable
from repro.query.matching_order import MatchingOrder, build_matching_orders
from repro.query.query_graph import QueryGraph
from repro.query.query_tree import QueryTree
from repro.storage.config import StorageConfig
from repro.storage.journal import RecordKind
from repro.storage.runtime import EngineStorage, StorageError
from repro.streams.broker import StreamBroker
from repro.streams.config import StreamConfig
from repro.streams.events import EventColumns, EventKind, StreamEvent, coerce_insert
from repro.streams.generator import Snapshot, SnapshotGenerator, initialize_stream
from repro.streams.sources import StreamSource
from repro.utils.stats import latency_summary
from repro.utils.validation import ConfigurationError

#: a result sink: called with ``(query_id, SnapshotResult)`` after every snapshot
ResultSink = Callable[[int, "SnapshotResult"], None]


# ---------------------------------------------------------------------- per-query runtime
@dataclass
class QueryRuntime:
    """The per-query half of an engine: precomputation plus index state.

    Built once per (query, match definition) pair by
    :func:`build_query_runtime`; owned by one registry slot of a
    :class:`MultiQueryEngine`.
    """

    query: QueryGraph
    match_def: MatchDefinition
    tree: QueryTree
    orders: dict[int, MatchingOrder]
    masks: MaskTable
    debi: DEBI
    index_manager: IndexManager
    query_state: QueryState
    #: reusable embedding arena for the kernel's serial path
    arena: EmbeddingArena = field(default_factory=EmbeddingArena)

    def make_context(
        self,
        graph: DynamicGraph,
        batch_edge_ids: set[int],
        positive: bool,
        shared_pool_cache: dict | None = None,
    ) -> EnumerationContext:
        """Build an enumeration context over the live graph for one batch."""
        return self.query_state.make_context(
            graph, self.debi, batch_edge_ids, positive, shared_pool_cache, self.arena
        )


def build_query_runtime(
    query: QueryGraph,
    match_def: MatchDefinition | None,
    graph: DynamicGraph,
    use_degree_filter: bool = True,
    root: int | None = None,
    rebuild_index: bool = True,
) -> QueryRuntime:
    """InitializeIndex for one query over ``graph`` (tree, orders, masks, DEBI).

    When the graph is non-empty the index is rebuilt immediately, so a
    query registered mid-stream starts consistent with the live graph.
    ``rebuild_index=False`` skips that pass; checkpoint recovery uses it
    because the DEBI content is about to be overwritten from the
    checkpointed word buffers anyway.
    """
    query.validate()
    match_def = match_def or DefaultMatchDefinition()
    data_label_freq: dict[int, int] = {}
    for vertex in graph.vertices():
        label = graph.vertex_label(vertex)
        data_label_freq[label] = data_label_freq.get(label, 0) + 1
    tree = QueryTree(query, root=root, data_label_frequencies=data_label_freq or None)
    orders = build_matching_orders(query, tree)
    masks = MaskTable(query, tree)
    debi = DEBI(tree)
    index_manager = IndexManager(query, tree, graph, debi, match_def)
    if rebuild_index and graph.num_edges:
        index_manager.rebuild()
    query_state = QueryState(
        query=query,
        tree=tree,
        orders=orders,
        masks=masks,
        match_def=match_def,
        use_degree_filter=use_degree_filter,
    )
    return QueryRuntime(
        query=query,
        match_def=match_def,
        tree=tree,
        orders=orders,
        masks=masks,
        debi=debi,
        index_manager=index_manager,
        query_state=query_state,
    )


# ---------------------------------------------------------------------- registry
@dataclass
class RegisteredQuery:
    """One standing query: its runtime, sink, and accumulated results."""

    query_id: int
    name: str
    runtime: QueryRuntime
    sink: ResultSink | None
    run_result: RunResult


def _resolve_in_turn(instances: list[tuple[int, float]], stamps: list[float]) -> list[int]:
    """:func:`resolve_deletions`' rule for one triple, event by event: ``instances`` are
    its live ``(edge id, timestamp)`` in insertion order, ``stamps`` the events'; -1 = none left."""
    doomed = []
    for stamp in stamps:
        at = next((i for i, (_, held) in enumerate(instances) if held == stamp), -1)
        doomed.append(instances.pop(at)[0] if instances else -1)
    return doomed


def resolve_deletions(
    graph: DynamicGraph, deletions: "EventColumns | Sequence[StreamEvent]"
) -> np.ndarray:
    """Resolve a batch of deletion events to concrete live edge ids (int64, event order).

    An event names a ``(src, dst, label)`` triple.  Of the triple's live
    parallel instances that no earlier event of the batch took, it takes
    the oldest one carrying the event's timestamp (what a sliding window
    expires), else the most recently inserted one; an event left without
    an instance refuses the whole batch (nothing is written here).  Shared
    by the batch pipeline and journal replay so they can never diverge on
    which edge a deletion hits.

    ``find_instances`` lists every distinct triple's instances once.  Within
    a triple the ``r``-th event with some timestamp takes the ``r``-th
    instance with it; a triple none of whose events finds its timestamp is
    taken from the latest instance backwards; only a triple mixing the two
    is walked event by event.
    """
    if not isinstance(deletions, EventColumns):
        deletions = EventColumns.from_events(EventKind.DELETE, deletions)
    src, dst, label, stamp = deletions.src, deletions.dst, deletions.label, deletions.timestamp
    n = src.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    lib = native.library()
    if lib is not None and type(graph) is DynamicGraph:
        doomed = native.resolve_deletes(lib, graph, src, dst, label, stamp)
    else:
        doomed = _resolve_columns(graph, src, dst, label, stamp)
    unmatched = (doomed < 0).nonzero()[0]
    if unmatched.size:
        at = unmatched[0]
        raise ConfigurationError(
            f"deletion of ({src[at]}, {dst[at]}, {label[at]}) does not match a live edge"
        )
    return doomed


def _resolve_columns(graph, src, dst, label, stamp) -> np.ndarray:
    """The numpy body of :func:`resolve_deletions`: -1 for an event left without an instance."""
    n = src.shape[0]
    group, ids, sizes = graph.find_instances(src, dst, label)
    held = graph.edge_timestamps(ids)

    # (triple, timestamp) classes over the instances carrying some event's
    # timestamp (oldest first within a class) and over the events
    stamps, stamp_rank = np.unique(stamp, return_inverse=True)
    width = stamps.shape[0]
    slot = np.minimum(stamps.searchsorted(held), width - 1)
    stamped = (stamps[slot] == held).nonzero()[0]
    instance_class = np.repeat(np.arange(sizes.shape[0]), sizes)[stamped] * width + slot[stamped]
    oldest_first = instance_class.argsort(kind="stable")
    instance_class = instance_class[oldest_first]
    event_class = group * width + stamp_rank
    order, _, first, counts = stable_runs(event_class)
    at = instance_class.searchsorted(event_class) + ranks_in_runs(order, first, counts)
    found = at < instance_class.searchsorted(event_class, side="right")
    doomed = np.full(n, -1, dtype=np.int64)
    doomed[found] = ids[stamped[oldest_first[at[found]]]]

    if not found.all():
        ends = np.cumsum(sizes)
        order, _, first, counts = stable_runs(group)
        turn = ranks_in_runs(order, first, counts)
        found_in_group = np.bincount(group, weights=found, minlength=sizes.shape[0])
        backwards = (found_in_group == 0)[group] & (turn < sizes[group])
        doomed[backwards] = ids[(ends[group] - 1 - turn)[backwards]]
        for triple in ((found_in_group > 0) & (found_in_group < counts)).nonzero()[0].tolist():
            events = order[first[triple] : first[triple] + counts[triple]]
            mine = slice(ends[triple] - sizes[triple], ends[triple])
            doomed[events] = _resolve_in_turn(
                list(zip(ids[mine].tolist(), held[mine].tolist())), stamp[events].tolist()
            )
    return doomed


class QueryRegistry:
    """The set of standing queries registered against one shared graph.

    Registration order is preserved (it fixes the deterministic order in
    which shared candidate scans are charged on the serial path; pool
    workers each pay for their own first touch instead).  ``version``
    increments on every membership change so pool owners know when their
    worker-side query states are stale.
    """

    def __init__(self, graph: DynamicGraph, use_degree_filter: bool = True) -> None:
        self.graph = graph
        self.use_degree_filter = use_degree_filter
        self._queries: dict[int, RegisteredQuery] = {}
        self._next_id = 0
        #: bumped on register/unregister; consumed by the pool owner
        self.version = 0

    def register(
        self,
        query: QueryGraph,
        match_def: MatchDefinition | None = None,
        name: str | None = None,
        root: int | None = None,
        sink: ResultSink | None = None,
        rebuild_index: bool = True,
    ) -> int:
        """Add a standing query; returns its query id."""
        runtime = build_query_runtime(
            query, match_def, self.graph,
            use_degree_filter=self.use_degree_filter, root=root,
            rebuild_index=rebuild_index,
        )
        query_id = self._next_id
        self._next_id += 1
        self._queries[query_id] = RegisteredQuery(
            query_id=query_id,
            name=name or f"q{query_id}",
            runtime=runtime,
            sink=sink,
            run_result=RunResult(),
        )
        self.version += 1
        return query_id

    def unregister(self, query_id: int) -> RunResult:
        """Remove a standing query; returns everything it produced while registered."""
        try:
            registered = self._queries.pop(query_id)
        except KeyError:
            raise ConfigurationError(f"unknown query id {query_id}") from None
        self.version += 1
        return registered.run_result

    # ------------------------------------------------------------------ lookup
    def __len__(self) -> int:
        return len(self._queries)

    def __contains__(self, query_id: int) -> bool:
        return query_id in self._queries

    def ids(self) -> list[int]:
        return list(self._queries)

    def get(self, query_id: int) -> RegisteredQuery:
        try:
            return self._queries[query_id]
        except KeyError:
            raise ConfigurationError(f"unknown query id {query_id}") from None

    def items(self) -> Iterator[tuple[int, RegisteredQuery]]:
        return iter(list(self._queries.items()))

    def query_states(self) -> dict[int, QueryState]:
        """The picklable per-query state shipped to pool workers at spawn."""
        return {qid: rq.runtime.query_state for qid, rq in self._queries.items()}


# ---------------------------------------------------------------------- configuration
@dataclass
class EngineConfig:
    """Engine-level knobs (stream behaviour, parallelism, pruning)."""

    stream: StreamConfig = field(default_factory=StreamConfig)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    #: batch execution mode: "serial" runs every phase to completion before
    #: the next mutation; "pipelined" overlaps batch k+1's mutation/DEBI/
    #: publish work with batch k's pool enumeration (process backend; other
    #: configurations degenerate to serial).  Results are bit-identical.
    pipeline: str = "serial"
    #: apply the f2/f3 label-degree pruning during enumeration
    use_degree_filter: bool = True
    #: recycle edge ids / DEBI rows of deleted edges (Figure 17 "with reclaiming")
    recycle_edge_ids: bool = True
    #: keep embeddings in the per-snapshot results (disable to only count)
    collect_embeddings: bool = True
    #: durable state: journal, checkpoints and an on-disk DEBI (None = volatile)
    storage: StorageConfig | None = None

    def to_json(self) -> dict:
        """Every field as JSON values except the storage directory: what a
        state directory's ``meta.json`` records of the engine that wrote it."""
        data = asdict(self)
        data["stream"]["stream_type"] = self.stream.stream_type.value
        if data["storage"] is not None:
            del data["storage"]["directory"]
        return data

    @classmethod
    def from_json(cls, data: dict, directory) -> EngineConfig:
        """Inverse of :meth:`to_json`, storing in ``directory``."""
        data = dict(data)
        return cls(
            stream=StreamConfig(**data.pop("stream")),
            parallel=ParallelConfig(**data.pop("parallel")),
            storage=StorageConfig(directory=directory, **data.pop("storage")),
            **data,
        )


# ---------------------------------------------------------------------- result shapes
@dataclass
class SnapshotResult:
    """What the engine produced for one snapshot (one query's row)."""

    number: int
    num_insertions: int
    num_deletions: int
    positive_embeddings: Embeddings = field(default_factory=Embeddings)
    negative_embeddings: Embeddings = field(default_factory=Embeddings)
    num_positive: int = 0
    num_negative: int = 0
    #: (edge, column) evaluations spent updating DEBI for this snapshot
    filter_traversals: int = 0
    #: candidate edges inspected by enumeration (regression-tracked metric)
    candidates_scanned: int = 0
    #: work units enumerated
    work_units: int = 0
    graph_update_seconds: float = 0.0
    filter_seconds: float = 0.0
    enumerate_seconds: float = 0.0
    #: worker statistics of the enumeration phase (Figure 7 / 13)
    enumeration_outcomes: list[EnumerationOutcome] = field(default_factory=list)
    #: graph / index footprint after the snapshot
    live_edges: int = 0
    edge_placeholders: int = 0
    debi_bits: int = 0
    #: end-to-end latency (service clock): first event arrival -> results
    #: available.  Only :class:`~repro.core.service.MnemonicService` fills
    #: it; ``engine.run`` replays have no arrival stamps and leave None.
    ingest_latency_seconds: float | None = None

    def record(self, positive: bool, count: int, embeddings: Embeddings) -> None:
        """Book one enumeration phase's ``count`` matches (``embeddings``: the collected ones)."""
        if positive:
            self.num_positive += count
            self.positive_embeddings.extend(embeddings)
        else:
            self.num_negative += count
            self.negative_embeddings.extend(embeddings)

    @property
    def total_seconds(self) -> float:
        return self.graph_update_seconds + self.filter_seconds + self.enumerate_seconds

    @property
    def total_embeddings(self) -> int:
        return self.num_positive + self.num_negative


@dataclass
class MultiSnapshotResult:
    """What the multi-query engine produced for one snapshot, per query."""

    number: int
    num_insertions: int
    num_deletions: int
    #: shared graph-mutation time for the batch (paid once, not per query)
    graph_update_seconds: float = 0.0
    #: shared enumeration wall-clock for the batch; the per-query
    #: ``enumerate_seconds`` carry attributable busy time instead, so they
    #: do not sum to N times the wall on the pool backend
    enumerate_wall_seconds: float = 0.0
    #: end-to-end latency (service clock): first event arrival -> results
    #: available for *all* queries (service results only)
    ingest_latency_seconds: float | None = None
    per_query: dict[int, SnapshotResult] = field(default_factory=dict)

    @property
    def candidates_scanned(self) -> int:
        return sum(r.candidates_scanned for r in self.per_query.values())

    @property
    def num_positive(self) -> int:
        return sum(r.num_positive for r in self.per_query.values())

    @property
    def num_negative(self) -> int:
        return sum(r.num_negative for r in self.per_query.values())

    @property
    def total_embeddings(self) -> int:
        return sum(r.total_embeddings for r in self.per_query.values())


_Row = TypeVar("_Row", SnapshotResult, MultiSnapshotResult)


@dataclass
class _StreamRollup(Generic[_Row]):
    """Totals and latency rollup over a run's snapshots: one query's rows
    (:class:`RunResult`) or whole batches (:class:`MultiRunResult`)."""

    snapshots: list[_Row] = field(default_factory=list)

    def add(self, snapshot: _Row) -> None:
        self.snapshots.append(snapshot)

    @property
    def total_positive(self) -> int:
        return sum(s.num_positive for s in self.snapshots)

    @property
    def total_negative(self) -> int:
        return sum(s.num_negative for s in self.snapshots)

    @property
    def total_candidates_scanned(self) -> int:
        return sum(s.candidates_scanned for s in self.snapshots)

    def snapshot_latencies(self) -> list[float]:
        """Per-snapshot ingest-to-result latencies, where known (stream order)."""
        return [
            s.ingest_latency_seconds
            for s in self.snapshots
            if s.ingest_latency_seconds is not None
        ]

    def latency_summary(self) -> dict[str, float] | None:
        """count/mean/p50/p95/p99/max rollup of the snapshot latencies.

        None when no snapshot carried latency data (plain list replays
        have no arrival stamps to measure from).
        """
        return latency_summary(self.snapshot_latencies())


@dataclass
class RunResult(_StreamRollup[SnapshotResult]):
    """Aggregated output of a full streaming run (one query)."""

    @property
    def total_seconds(self) -> float:
        return sum(s.total_seconds for s in self.snapshots)

    @property
    def total_filter_traversals(self) -> int:
        return sum(s.filter_traversals for s in self.snapshots)

    @property
    def total_graph_update_seconds(self) -> float:
        return sum(s.graph_update_seconds for s in self.snapshots)

    @property
    def total_filter_seconds(self) -> float:
        return sum(s.filter_seconds for s in self.snapshots)

    @property
    def total_enumerate_seconds(self) -> float:
        return sum(s.enumerate_seconds for s in self.snapshots)

    def phase_split(self) -> dict[str, float]:
        """CPU split of the run by pipeline phase (the Figure 7 breakdown).

        ``update`` is graph mutation + deletion resolution, ``filter`` the
        DEBI/index maintenance, ``enumerate`` the embedding search wall
        time (which, on the pool backend, includes snapshot publication —
        see the pool's ``publish_stats`` for that share).
        """
        return {
            "update_seconds": self.total_graph_update_seconds,
            "filter_seconds": self.total_filter_seconds,
            "enumerate_seconds": self.total_enumerate_seconds,
        }

    def all_positive(self) -> Embeddings:
        return Embeddings(b for s in self.snapshots for b in s.positive_embeddings.blocks)

    def all_negative(self) -> Embeddings:
        return Embeddings(b for s in self.snapshots for b in s.negative_embeddings.blocks)

    def net_result_set(self) -> ResultSet:
        """Positive embeddings minus the ones later destroyed (by node/edge identity)."""
        net = ResultSet()
        net.extend(self.all_positive().minus(self.all_negative()))
        return net


@dataclass
class MultiRunResult(_StreamRollup[MultiSnapshotResult]):
    """Aggregated output of one multi-query streaming run."""

    per_query: dict[int, RunResult] = field(default_factory=dict)

    def add(self, snapshot: MultiSnapshotResult) -> None:
        super().add(snapshot)
        for qid, result in snapshot.per_query.items():
            self.per_query.setdefault(qid, RunResult()).add(result)


# ---------------------------------------------------------------------- the engine
class MultiQueryEngine:
    """A shared-everything engine evaluating many standing queries per batch.

    The one :class:`~repro.core.pipeline.BatchPipeline` host: it owns the
    graph, the query registry, the worker pool and the durable
    state.  Compared with one engine per query, a batch costs:

    * **one** graph mutation pass instead of N,
    * **one** DEBI update sweep (per-query index refresh over the same
      already-applied edge batch — no repeated graph work),
    * **one** shared-memory snapshot export instead of N (``process``
      backend; all queries' work units are scheduled onto one worker
      pool with per-query result routing),
    * shared candidate scans: adjacency pools fetched once per batch and
      reused by every query anchoring at the same vertex/label.

    Use :meth:`register` / :meth:`unregister` at any point, including
    mid-stream; a freshly registered query is indexed against the live
    graph before its first batch.  The engine is a context manager.
    """

    #: what a durable engine stamps into its state directory's ``meta.json``;
    #: :meth:`open` builds the class that stamped it
    _kind = "multi"
    _pool: SharedMemoryPool | None = None
    _pool_finalizer = None

    def __init__(
        self,
        config: EngineConfig | None = None,
        graph: DynamicGraph | None = None,
        _recovered=None,
    ) -> None:
        self.config = config or EngineConfig()
        self.graph = graph or DynamicGraph(recycle_edge_ids=self.config.recycle_edge_ids)
        self.registry = QueryRegistry(
            self.graph, use_degree_filter=self.config.use_degree_filter
        )
        self._storage = None
        self.recovery_info: dict | None = None
        if self.config.storage is not None:
            if _recovered is not None:
                self._storage = _recovered.storage
            else:
                self._storage = EngineStorage.create(
                    self.config.storage, self._kind, self.config.to_json()
                )
        self._snapshot_counter = 0
        self._adopt_pool(None)
        self._pool_version = -1
        self._exports_before_pool = 0
        self._closed = False
        #: pool breaks (at most one: a broken pool is never replaced) and the
        #: in-flight epochs recovered parent-side after it
        self._faults = 0
        self._recovered_epochs = 0
        #: per-batch footprints captured at mutation time
        self._footprints: dict[int, tuple[int, int, dict[int, int]]] = {}
        self._pipeline = BatchPipeline(self, mode=self.config.pipeline)
        # A fresh durable engine writes "checkpoint 0" (empty registry);
        # REGISTER/UNREGISTER journal records track membership from there.
        if self._storage is not None and _recovered is None:
            self._storage.checkpoint_now(self._checkpoint_state)

    # ------------------------------------------------------------------ pipeline counters
    @property
    def enumeration_phases_with_units(self) -> int:
        """Enumeration phases (insert or delete half of a batch) with >= 1 unit."""
        return self._pipeline.enumeration_phases_with_units

    @property
    def pool_enumeration_phases(self) -> int:
        """Phases dispatched to the shared pool — each publishes exactly one
        snapshot, which is what the perf_smoke sharing gate checks."""
        return self._pipeline.pool_enumeration_phases

    # ------------------------------------------------------------------ registration
    def register(
        self,
        query: QueryGraph,
        match_def: MatchDefinition | None = None,
        name: str | None = None,
        root: int | None = None,
        sink: ResultSink | None = None,
    ) -> int:
        """Register a standing query against the live graph; returns its id."""
        query_id = self.registry.register(
            query, match_def=match_def, name=name, root=root, sink=sink
        )
        self._attach_storage_to_query(query_id)
        if self._storage is not None:
            registered = self.registry.get(query_id)
            self._storage.append_register(query_id, {
                "query_id": query_id,
                "name": registered.name,
                "query": query,
                "match_def": registered.runtime.match_def,
                # the *resolved* root, so a replayed registration builds the
                # identical query tree regardless of label frequencies
                "root": registered.runtime.tree.root,
            })
        return query_id

    def _attach_storage_to_query(self, query_id: int) -> None:
        """Move a freshly built runtime's DEBI into its file (durable engines)."""
        if self._storage is None:
            return
        self.registry.get(query_id).runtime.debi.move_to_disk(self._storage.debi_path(query_id))

    def unregister(self, query_id: int) -> RunResult:
        """Drop a standing query; returns its accumulated results."""
        result = self.registry.unregister(query_id)
        if self._storage is not None:
            self._storage.append_unregister(query_id)
        return result

    def attach_sink(self, query_id: int, sink: ResultSink | None) -> None:
        """(Re)attach a result sink — sinks are not persisted across recovery."""
        self.registry.get(query_id).sink = sink

    # ------------------------------------------------------------------ lifecycle
    @property
    def snapshot_exports(self) -> int:
        """Total shared-memory snapshot publications over the engine lifetime."""
        current = self._pool.publish_count if self._pool is not None else 0
        return self._exports_before_pool + current

    def _adopt_pool(self, pool: SharedMemoryPool | None) -> SharedMemoryPool | None:
        """Track ``pool`` (may be None) and arm a close-on-GC finalizer.

        Collecting the engine then closes a forgotten pool, but never one
        that :meth:`_detach_pool` already handed out.
        """
        self._pool = pool
        self._pool_finalizer = (
            weakref.finalize(self, SharedMemoryPool.close, pool)
            if pool is not None
            else None
        )
        return pool

    def _detach_pool(self) -> SharedMemoryPool | None:
        """Detach and return the pool (not yet closed); the engine keeps no reference.

        The caller closes the returned pool (after harvesting whatever it
        still needs, e.g. the publish count).  Returns None when no pool
        was tracked.  Exception-safe by construction: the reference and
        finalizer are gone before the caller runs any teardown that might
        raise, so a retry or garbage collection never double-closes it.
        """
        pool, self._pool = self._pool, None
        finalizer, self._pool_finalizer = self._pool_finalizer, None
        if finalizer is not None:
            finalizer.detach()
        return pool

    def close(self) -> None:
        """Release the worker pool (exception-safe and idempotent)."""
        self._closed = True
        if self._pool is not None and self._pool.usable:
            # A run abandoned mid-stream may still have dispatched epochs;
            # join them before the segments are unlinked.
            self._pipeline.flush()
        self._release_pool()
        if self._storage is not None:
            self._storage.close()

    def _release_pool(self) -> None:
        pool = self._detach_pool()
        if pool is not None:
            self._exports_before_pool += pool.publish_count
            pool.close()

    def __enter__(self) -> MultiQueryEngine:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except Exception:
            # A teardown failure must not mask the in-flight exception.
            if exc_type is None:
                raise

    def _ensure_pool(self) -> SharedMemoryPool | None:
        """(Re)spawn the shared pool when the registry changed since the last batch.

        Workers receive every query's :class:`QueryState` at spawn, so a
        register/unregister makes the running pool stale; it is closed
        and replaced before the next enumeration phase.
        """
        parallel = self.config.parallel
        if self._closed or parallel.backend != "process" or parallel.num_workers <= 1:
            return None
        if len(self.registry) == 0 or self._faults:
            # A broken pool is never replaced, not even across registry
            # churn: the engine enumerates serially for the rest of its life.
            return None
        if self._pool_version == self.registry.version:
            # Same membership as the last attempt: reuse the pool, or stay on
            # the fallback path if that attempt failed — retrying the full
            # worker spawn every phase would pay the spawn cost (and emit the
            # failure warning) once per batch.
            return self._pool
        self._release_pool()
        pool = SharedMemoryPool.create_multi(self.registry.query_states(), parallel)
        self._adopt_pool(pool)
        self._pool_version = self.registry.version
        return pool

    # ------------------------------------------------------------------ stream API
    def initialize_stream(self, source: StreamSource | Sequence[StreamEvent]) -> SnapshotGenerator:
        """Wrap ``source`` in a snapshot generator using the engine's stream config."""
        return initialize_stream(source, self.config.stream)

    def load_initial(self, events: Iterable[StreamEvent | tuple]) -> int:
        """Load an initial graph (insertions only) and index every query for it.

        The paper's NetFlow experiments load all but the streamed suffix of
        the trace as the initial snapshot; this is the corresponding API.
        Returns the number of edges loaded.
        """
        coerced = [coerce_insert(event) for event in events]
        columns = EventColumns.from_events(EventKind.INSERT, coerced) if coerced else None
        self._apply_mutations(columns, None)
        if self._storage is not None:
            self._storage.note_initial(columns)
        return len(coerced)

    def run(self, source: StreamSource | Sequence[StreamEvent]) -> MultiRunResult:
        """Process the whole stream for every registered query (Algorithm 1, shared).

        With ``config.pipeline == "pipelined"`` the shared
        :class:`~repro.core.pipeline.BatchPipeline` overlaps batch k+1's
        mutation/DEBI/publish work with batch k's pool enumeration;
        per-query results are identical to the serial mode either way.

        ``source`` is replayed to completion; live traffic goes through
        :class:`~repro.core.service.MnemonicService`.
        """
        if isinstance(source, StreamBroker):
            raise ConfigurationError(
                "engine.run replays finite sources; live events go through "
                "MnemonicService (submit/poll), which owns its StreamBroker"
            )
        generator = self.initialize_stream(source)
        result = MultiRunResult()
        for batch in self._pipeline.run_stream(generator):
            result.add(self._deliver(self._result_from_batch(batch)))
        return result

    def process_snapshot(self, snapshot: Snapshot) -> MultiSnapshotResult:
        """Apply one snapshot for all queries: insert batch first, then delete batch."""
        batch = self._pipeline.process_batch(
            snapshot.number, snapshot.insert_columns(), snapshot.delete_columns()
        )
        self.pipeline_batch_applied(batch)
        return self._deliver(self._result_from_batch(batch))

    def batch_inserts(self, events: Iterable[StreamEvent | tuple]) -> MultiSnapshotResult:
        """Insert a batch of edges; returns the newly formed embeddings per query."""
        events = [coerce_insert(e) for e in events]
        return self.process_snapshot(Snapshot(self._snapshot_counter, insertions=events))

    def batch_deletes(self, events: Iterable[StreamEvent | tuple]) -> MultiSnapshotResult:
        """Delete a batch of edges; returns the destroyed embeddings per query."""
        coerced = [e if isinstance(e, StreamEvent) else StreamEvent.delete(*e) for e in events]
        return self.process_snapshot(Snapshot(self._snapshot_counter, deletions=coerced))

    # ------------------------------------------------------------------ pipeline hooks
    # What BatchPipeline calls back into; the pipeline owns the batch-loop
    # sequencing, these supply the engine's primitives and hold no loop logic.
    def pipeline_slots(self) -> dict[int, QueryRuntime]:
        """The per-query runtimes to evaluate this batch (id -> runtime)."""
        return {qid: registered.runtime for qid, registered in self.registry.items()}

    def pipeline_acquire_pool(self, pipeline: BatchPipeline) -> SharedMemoryPool | None:
        """The shared-memory pool to enumerate on, or None to run in-process.

        A registry change replaces the pool.  ``pipeline`` is flushed
        before the old pool closes, so no in-flight epoch is orphaned.
        """
        if self._pool is not None and self._pool_version != self.registry.version:
            pipeline.flush()
        return self._ensure_pool()

    def pipeline_pool_broken(self, recovered: int) -> None:
        """The pool broke and ``recovered`` in-flight epochs were re-run
        parent-side from its frozen segments: close it and go serial."""
        self._faults += 1
        self._recovered_epochs += recovered
        self._release_pool()

    def fault_stats(self) -> dict[str, object]:
        """Pool breaks, epochs recovered after them, and the backend
        enumerating now (``"serial"`` once the pool broke)."""
        return {
            "faults": self._faults,
            "recovered_epochs": self._recovered_epochs,
            "level": "serial" if self._faults else "process",
        }

    def pipeline_batch_applied(self, batch: CompletedBatch) -> None:
        """All of a batch's mutations are applied (enumeration may still run).

        Called in stream order, at mutation time, which is where the
        end-of-batch footprints (graph size, per-query DEBI bits) must be
        captured: a pipelined batch completes only after later batches'
        mutations, so reading the live state at delivery time would
        misreport.
        """
        self._footprints[batch.number] = (
            self.graph.num_edges,
            self.graph.num_placeholders,
            {
                qid: registered.runtime.debi.total_bits_set()
                for qid, registered in self.registry.items()
            },
        )
        self.graph.stats.sample_snapshot(
            batch.number, self.graph.num_placeholders, self.graph.num_edges
        )
        self._snapshot_counter += 1
        if self._storage is not None:
            self._storage.note_applied()

    # ------------------------------------------------------------------ result assembly
    def _result_from_batch(self, batch: CompletedBatch) -> MultiSnapshotResult:
        """Map a completed pipeline batch onto the multi-query result shape."""
        multi = MultiSnapshotResult(
            number=batch.number,
            num_insertions=batch.num_insertions,
            num_deletions=batch.num_deletions,
        )
        footprint = self._footprints.pop(batch.number, None)
        # Row membership is decided at *batch* time, not delivery time: in
        # pipelined mode a query registered by a sink while this batch was
        # in flight must not receive a spurious empty row for it.  The
        # footprint's DEBI-bits map records exactly the queries registered
        # when the batch's mutations were applied.
        qids = set(footprint[2]) if footprint is not None else set(self.registry.ids())
        for phase in batch.phases():
            qids.update(phase.per_query)
        for qid in sorted(qids):
            multi.per_query[qid] = SnapshotResult(
                number=batch.number,
                num_insertions=batch.num_insertions,
                num_deletions=batch.num_deletions,
            )
        for phase in batch.phases():
            multi.graph_update_seconds += phase.graph_update_seconds
            multi.enumerate_wall_seconds += phase.enumerate_wall_seconds
            for qid, query_phase in phase.per_query.items():
                result = multi.per_query[qid]
                outcome = query_phase.outcome
                result.filter_seconds += query_phase.filter_seconds
                result.filter_traversals += query_phase.filter_traversals
                result.work_units += query_phase.work_units
                result.candidates_scanned += query_phase.candidates_scanned
                result.enumerate_seconds += self._attributable_seconds(outcome)
                result.enumeration_outcomes.append(outcome)
                result.record(phase.positive, outcome.num_embeddings, outcome.embeddings)
        if footprint is not None:
            live_edges, placeholders, debi_bits = footprint
            for qid, result in multi.per_query.items():
                result.live_edges = live_edges
                result.edge_placeholders = placeholders
                result.debi_bits = debi_bits.get(qid, 0)
        if self._storage is not None:
            # Seal at *delivery*, in stream order: an epoch enters the journal
            # only once its results reached the client, so recovery replays
            # exactly the delivered prefix and the client refeeds the rest.
            self._storage.seal_epoch(
                batch.number,
                batch.insert_columns,
                batch.delete_columns,
                self._checkpoint_state,
            )
        return multi

    def _deliver(self, multi: MultiSnapshotResult) -> MultiSnapshotResult:
        """Record per-query results and fire sinks (still-registered queries only)."""
        for qid, result in multi.per_query.items():
            if qid not in self.registry:  # unregistered by a sink mid-batch
                continue
            registered = self.registry.get(qid)
            registered.run_result.add(result)
            if registered.sink is not None:
                registered.sink(qid, result)
        return multi

    @staticmethod
    def _attributable_seconds(outcome: EnumerationOutcome) -> float:
        """Per-query enumeration time: worker busy time, not the shared wall.

        On the pool backend every query's outcome shares one phase wall;
        charging it to each query would make the per-query timings sum to
        N times the actual elapsed time.  Busy time is attributable on
        every backend (for serial outcomes it is the per-unit time sum).
        """
        return sum(stats.busy_seconds for stats in outcome.worker_stats)

    # ------------------------------------------------------------------ durability
    @classmethod
    def open(cls, directory) -> MultiQueryEngine:
        """Recover the durable engine in ``directory``, as the class and config that
        wrote it.

        ``meta.json`` records the writer's kind and its whole
        :class:`EngineConfig`; the engine is rebuilt with exactly that
        config, its storage directory set to ``directory``.  Loads the
        newest usable checkpoint, replays the journal tail up to the last
        sealed epoch (mutations only — no results are re-emitted),
        truncates any corrupt tail and reopens the journal for appends.
        Registered queries are rebuilt from the checkpoint with their
        original query ids; REGISTER/UNREGISTER journal records replay
        membership changes made after the checkpoint.  Result sinks are
        *not* persisted — reattach them with :meth:`attach_sink`.
        ``engine.recovery_info`` reports what happened; clients refeed the
        stream from ``recovery_info["last_sealed_number"] + 1``.

        ``MultiQueryEngine.open`` of a single-query directory returns a
        :class:`~repro.core.engine.MnemonicEngine`, while
        ``MnemonicEngine.open`` of a multi-query one raises
        :class:`~repro.utils.validation.ConfigurationError`.  A directory
        of an older format records no config and raises
        :class:`~repro.storage.runtime.StorageError`.
        """
        recovered = EngineStorage.open_existing(directory)
        kind = recovered.storage.kind
        built = next((c for c in (cls, *cls.__subclasses__()) if c._kind == kind), None)
        if built is None:
            raise ConfigurationError(
                f"durable state at {directory} belongs to a {kind!r} engine, "
                f"not {cls._kind!r}; MultiQueryEngine.open recovers either kind"
            )
        config = EngineConfig.from_json(recovered.config, directory)
        state = recovered.checkpoint_state
        # The queries come from the checkpoint, not from constructor arguments.
        engine = built.__new__(built)
        MultiQueryEngine.__init__(
            engine, config=config, graph=state["graph"], _recovered=recovered
        )
        for entry in state["queries"]:
            engine._restore_query(entry)
        engine.registry._next_id = state["next_id"]
        engine._snapshot_counter = state["snapshot_counter"]
        engine._replay_journal(recovered)
        recovered.storage.finish_recovery(recovered.info["journal_valid_bytes"])
        # Re-checkpoint the recovered state so the next restart starts here.
        recovered.storage.checkpoint_now(engine._checkpoint_state)
        engine.recovery_info = recovered.info
        if kind == "single":
            found = engine.registry.ids()
            if found != [0]:
                engine.close()
                raise StorageError(
                    f"single-query state at {directory} must hold exactly query 0, "
                    f"found query ids {found}"
                )
            # As at construction, a single-query engine's pool is set-up cost.
            engine._ensure_pool()
        return engine

    def _restore_query(self, entry: dict) -> None:
        """Re-register one checkpointed query under its original id."""
        self.registry._next_id = entry["query_id"]
        query_id = self.registry.register(
            entry["query"], match_def=entry["match_def"], name=entry["name"],
            root=entry["root"], rebuild_index=False,
        )
        assert query_id == entry["query_id"]
        self._attach_storage_to_query(query_id)
        self.registry.get(query_id).runtime.debi.restore_buffers(**entry["debi"])

    def _apply_mutations(
        self, insertions: EventColumns | None, deletions: EventColumns | None
    ) -> None:
        """A batch's graph and index mutations without enumeration: the
        pipeline's own steps, for ``load_initial`` and journal replay."""
        slots = self.pipeline_slots()
        if insertions:
            apply_insertions(self.graph, slots, insertions, PhaseOutcome(True, len(insertions)))
        if deletions:
            doomed = resolve_deletions(self.graph, deletions)
            apply_deletions(self.graph, slots, doomed, PhaseOutcome(False, len(deletions)))

    def _replay_journal(self, recovered) -> None:
        for record in recovered.records:
            if record.kind is RecordKind.INITIAL:
                self._apply_mutations(record.data(), None)
            elif record.kind is RecordKind.EPOCH:
                self._apply_mutations(*record.data())
            elif record.kind is RecordKind.REGISTER:
                entry = record.data()
                # A replayed registration rebuilds its index against the
                # replayed graph — the same state the original saw (the
                # incremental-equals-rebuild invariant covers any batches
                # sealed after the registration).
                self.registry._next_id = entry["query_id"]
                query_id = self.register(
                    entry["query"], match_def=entry["match_def"],
                    name=entry["name"], root=entry["root"],
                )
                assert query_id == entry["query_id"]
            elif record.kind is RecordKind.UNREGISTER:
                self.registry.unregister(record.data())

    def _checkpoint_state(self) -> dict:
        """Snapshot graph + registry metadata + every query's DEBI buffers."""
        queries = []
        for query_id, registered in self.registry.items():
            buffers = registered.runtime.debi.export_buffers()
            queries.append({
                "query_id": query_id,
                "name": registered.name,
                "query": registered.runtime.query,
                "match_def": registered.runtime.match_def,
                "root": registered.runtime.tree.root,
                "debi": {
                    "rows": np.array(buffers["rows"], copy=True),
                    "num_rows": buffers["num_rows"],
                    "width": buffers["width"],
                    "roots": np.array(buffers["roots"], copy=True),
                    "root_bits": buffers["root_bits"],
                },
            })
        return {
            "graph": self.graph,
            "next_id": self.registry._next_id,
            "snapshot_counter": self._snapshot_counter,
            "queries": queries,
        }

    def checkpoint(self) -> None:
        """Force a checkpoint now (requires a quiescent engine)."""
        if self._storage is None:
            raise ConfigurationError("engine has no storage attached")
        self._pipeline.flush()
        if not self._storage.quiescent():
            raise ConfigurationError(
                "checkpoint requires a quiescent engine (every applied batch "
                "delivered); mid-run checkpoints are taken automatically at "
                "sealed epoch boundaries"
            )
        self._storage.checkpoint_now(self._checkpoint_state)

    def storage_counters(self) -> dict:
        """Journal/checkpoint counters plus DEBI file totals over every query
        (empty without storage)."""
        if self._storage is None:
            return {}
        counters = self._storage.counters()
        for _, registered in self.registry.items():
            for key, value in (registered.runtime.debi.spill_stats() or {}).items():
                counters[key] = counters.get(key, 0) + value
        return counters
