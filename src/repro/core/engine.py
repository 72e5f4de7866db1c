"""The Mnemonic engine: Algorithm 1 of the paper.

:class:`MnemonicEngine` answers one continuous query over an edge stream:
snapshots from a :class:`~repro.streams.SnapshotGenerator` are applied as
batched insertions and deletions, DEBI is kept consistent through the
:class:`~repro.core.filtering.IndexManager`, and the newly formed /
destroyed embeddings are enumerated through the user's
:class:`~repro.core.api.MatchDefinition` in parallel.

The machinery itself — batch loop, worker pool, fault supervision,
journal and checkpoints — lives in
:class:`~repro.core.registry.MultiQueryEngine`; :class:`MnemonicEngine`
is a one-query view over it.  This module also defines the configuration
and result shapes both engines share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.api import MatchDefinition
from repro.core.parallel import EnumerationOutcome, ParallelConfig
from repro.core.registry import MultiQueryEngine, MultiSnapshotResult
from repro.core.results import Embeddings, ResultSet
from repro.core.supervisor import FaultPolicy
from repro.graph.adjacency import DynamicGraph
from repro.query.query_graph import QueryGraph
from repro.storage.config import StorageConfig
from repro.storage.runtime import StorageError
from repro.streams.config import StreamConfig
from repro.streams.events import StreamEvent
from repro.streams.generator import Snapshot, SnapshotGenerator
from repro.streams.sources import StreamSource
from repro.utils.stats import latency_summary


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
    #: durable state: journal + checkpoints + spillable DEBI (None = volatile)
    storage: StorageConfig | None = None
    #: how pool faults are handled: respawn budget, backoff, epoch deadline
    #: (the default policy performs no respawns — a broken pool degrades
    #: straight to serial enumeration)
    fault: FaultPolicy = field(default_factory=FaultPolicy)


@dataclass
class SnapshotResult:
    """What the engine produced for one snapshot."""

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
    #: end-to-end latency (stream clock): first event arrival -> results
    #: available.  None when the stream carried no arrival stamps (plain
    #: list replays); only broker-fed runs and the service facade fill it.
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
class RunResult:
    """Aggregated output of a full streaming run."""

    snapshots: list[SnapshotResult] = field(default_factory=list)

    def add(self, snapshot: SnapshotResult) -> None:
        self.snapshots.append(snapshot)

    @property
    def total_positive(self) -> int:
        return sum(s.num_positive for s in self.snapshots)

    @property
    def total_negative(self) -> int:
        return sum(s.num_negative for s in self.snapshots)

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

    def all_positive(self) -> Embeddings:
        return Embeddings(b for s in self.snapshots for b in s.positive_embeddings.blocks)

    def all_negative(self) -> Embeddings:
        return Embeddings(b for s in self.snapshots for b in s.negative_embeddings.blocks)

    def net_result_set(self) -> ResultSet:
        """Positive embeddings minus the ones later destroyed (by node/edge identity)."""
        net = ResultSet()
        net.extend(self.all_positive().minus(self.all_negative()))
        return net


class MnemonicEngine:
    """A programmable, incremental subgraph matching engine for streaming graphs.

    A one-query view over :class:`~repro.core.registry.MultiQueryEngine`,
    which hosts the batch loop, the worker pool, fault supervision and
    durable state for any number of standing queries.  This class owns one
    such engine (``multi``), registers its query there as id 0, exposes
    that query's precomputation (tree, matching orders, masks, DEBI, index
    manager) and maps every per-batch result onto the single-query
    :class:`SnapshotResult` shape.
    """

    def __init__(
        self,
        query: QueryGraph,
        match_def: MatchDefinition | None = None,
        config: EngineConfig | None = None,
        graph: DynamicGraph | None = None,
        root: int | None = None,
    ) -> None:
        # Reject a malformed query before the inner engine creates durable state.
        query.validate()
        multi = MultiQueryEngine(config, graph=graph, _kind="single")
        try:
            # InitializeIndex: a pre-populated graph is indexed right here.
            multi.register(query, match_def=match_def, root=root)
            # The persistent pool (process backend) is spawned now, once per
            # engine lifetime, so worker start-up is set-up cost and not part
            # of the first batch.
            multi._ensure_pool()
        except BaseException:
            multi.close()
            raise
        self._bind(multi)

    def _bind(self, multi: MultiQueryEngine) -> None:
        self.multi = multi
        self.config = multi.config
        self.graph = multi.graph
        self.recovery_info = multi.recovery_info
        self._registered = multi.registry.get(0)
        self.runtime = runtime = self._registered.runtime
        self.query = runtime.query
        self.match_def = runtime.match_def
        self.tree = runtime.tree
        self.orders = runtime.orders
        self.masks = runtime.masks
        self.debi = runtime.debi
        self.index_manager = runtime.index_manager
        self.query_state = runtime.query_state

    # ------------------------------------------------------------------ recovery
    @classmethod
    def open(cls, directory, config: EngineConfig | None = None) -> "MnemonicEngine":
        """Recover a durable engine from ``directory``.

        Loads the newest usable checkpoint, replays the journal tail up to
        the last sealed epoch (mutations only — no results are re-emitted),
        truncates any corrupt tail and reopens the journal for appends.
        ``engine.recovery_info`` reports what happened; clients refeed the
        stream from ``recovery_info["last_sealed_number"] + 1``.
        """
        multi = MultiQueryEngine.open(directory, config=config, _kind="single")
        found = multi.registry.ids()
        if found != [0]:
            multi.close()
            raise StorageError(
                f"single-query state at {directory} must hold exactly query 0, "
                f"found query ids {found}"
            )
        multi._ensure_pool()
        engine = cls.__new__(cls)
        engine._bind(multi)
        return engine

    def checkpoint(self) -> None:
        """Force a checkpoint now (outside a run, or between serial batches)."""
        self.multi.checkpoint()

    def storage_counters(self) -> dict:
        """Journal/checkpoint/spill counters (empty without storage)."""
        return self.multi.storage_counters()

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release engine resources (the parallel worker pool, if any).

        Idempotent and exception-safe.  Engines are also cleaned up on
        garbage collection, but long-lived applications should close
        explicitly (or use the engine as a context manager) so worker
        processes do not outlive their usefulness.
        """
        self.multi.close()

    def __enter__(self) -> "MnemonicEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.multi.__exit__(exc_type, exc, tb)

    # ------------------------------------------------------------------ initialisation API
    def initialize_stream(self, source: StreamSource | Sequence[StreamEvent]) -> SnapshotGenerator:
        """Wrap ``source`` in a snapshot generator using the engine's stream config."""
        return self.multi.initialize_stream(source)

    def load_initial(self, events: Iterable[StreamEvent | tuple]) -> int:
        """Load an initial graph (insertions only) and index it without enumeration.

        The paper's NetFlow experiments load all but the streamed suffix of
        the trace as the initial snapshot; this is the corresponding API.
        Returns the number of edges loaded.
        """
        return self.multi.load_initial(events)

    # ------------------------------------------------------------------ main loop
    def run(self, source: StreamSource | Sequence[StreamEvent]) -> RunResult:
        """Process the whole stream and return per-snapshot results (Algorithm 1).

        With ``config.pipeline == "pipelined"`` batch k+1's
        mutation/DEBI/publish work overlaps batch k's pool enumeration;
        results are identical to the serial mode either way.  A
        :class:`~repro.streams.broker.StreamBroker` source is driven end
        to end (see :meth:`~repro.core.registry.MultiQueryEngine.run`).
        """
        result = RunResult()
        for multi in self.multi.run(source).snapshots:
            result.add(self._view(multi))
        return result

    def process_snapshot(self, snapshot: Snapshot) -> SnapshotResult:
        """Apply one snapshot: insert batch first, then delete batch (serially)."""
        return self._view(self.multi.process_snapshot(snapshot))

    # ------------------------------------------------------------------ one-shot batches
    def batch_inserts(self, events: Iterable[StreamEvent | tuple]) -> SnapshotResult:
        """Insert a batch of edges and return the newly formed embeddings."""
        return self._view(self.multi.batch_inserts(events))

    def batch_deletes(self, events: Iterable[StreamEvent | tuple]) -> SnapshotResult:
        """Delete a batch of edges and return the destroyed (negative) embeddings."""
        return self._view(self.multi.batch_deletes(events))

    def _view(self, multi: MultiSnapshotResult) -> SnapshotResult:
        """Query 0's row of a batch result, carrying the batch-level wall clocks.

        The registry's per-query rows report attributable busy time; a
        single-query engine's ``enumerate_seconds`` has always been the
        phase wall, and its ``graph_update_seconds`` the shared mutation
        time, so the figures built on them keep their meaning.
        """
        result = multi.per_query[0]
        result.graph_update_seconds = multi.graph_update_seconds
        result.enumerate_seconds = multi.enumerate_wall_seconds
        # The registry keeps each standing query's history for unregister()
        # to return; this view never unregisters, so it must not let that
        # history grow with the stream.
        self._registered.run_result.snapshots.clear()
        return result

    # ------------------------------------------------------------------ pipeline metrics
    @property
    def snapshot_exports(self) -> int:
        """Shared-memory snapshot publications (epochs) over the engine lifetime."""
        return self.multi.snapshot_exports

    @property
    def enumeration_phases_with_units(self) -> int:
        """Enumeration phases (insert or delete half of a batch) with >= 1 unit."""
        return self.multi.enumeration_phases_with_units

    @property
    def pool_enumeration_phases(self) -> int:
        """Phases dispatched to the shared pool — each publishes exactly one epoch."""
        return self.multi.pool_enumeration_phases

    def fault_stats(self) -> dict[str, object]:
        """Supervision counters: faults, respawns, degradations, level."""
        return self.multi.fault_stats()

    # ------------------------------------------------------------------ maintenance / metrics
    def reset_index(self) -> None:
        """Periodic reset: rebuild DEBI from the current live graph."""
        self.index_manager.rebuild()

    def index_size_bits(self) -> int:
        """Size of DEBI in bits: |E| x (|V_Q| - 1) + |V| (the paper's formula)."""
        return (
            self.graph.num_placeholders * max(self.tree.num_columns, 1)
            + self.graph.num_vertices
        )

    def memory_report(self) -> dict[str, int]:
        """Footprint summary used by the memory experiments."""
        report = {
            "live_edges": self.graph.num_edges,
            "edge_placeholders": self.graph.num_placeholders,
            "debi_bits_set": self.debi.total_bits_set(),
            "debi_bytes": self.debi.nbytes(),
            "recycled_inserts": self.graph.stats.recycled,
        }
        report.update(self.storage_counters())
        return report


# ---------------------------------------------------------------------- convenience
def enumerate_static(
    query: QueryGraph,
    edges: Iterable[StreamEvent | tuple],
    match_def: MatchDefinition | None = None,
    config: EngineConfig | None = None,
) -> Embeddings:
    """From-scratch enumeration of a static edge set (reference implementation).

    Inserting every edge as a single batch into a fresh engine enumerates
    every embedding exactly once; tests use this as the ground truth that
    incremental runs are compared against.
    """
    with MnemonicEngine(query, match_def=match_def, config=config) as engine:
        result = engine.batch_inserts(list(edges))
    return result.positive_embeddings
