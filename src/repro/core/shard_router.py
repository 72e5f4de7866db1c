"""Partition-parallel engine shards: router, scatter-gather, facade.

One coordinator owning the whole graph caps Mnemonic's capacity at a
single heap and a single mutation pass.  :class:`ShardedEngine` splits
the data graph over N :class:`EngineShard`\\ s — each with its own
adjacency, DEBI, snapshot writer, and worker pool — behind the exact
result contract of :class:`~repro.core.engine.MnemonicEngine`:

* **Placement.**  Vertices are assigned to shards by a pluggable
  :class:`~repro.core.sharding.PartitionStrategy` (hash by default).  A
  shard stores every edge *incident to a vertex it owns*: adjacency,
  per-label degrees and ``find_edges`` at a vertex are therefore
  complete exactly at the vertex's owner, and a boundary edge (endpoints
  owned by different shards) is replicated on both — the *primary*
  replica at ``owner(src)``, the *secondary* at ``owner(dst)``.
* **Global ids.**  A router-level :class:`~repro.core.sharding.EdgeIdAllocator`
  hands out edge ids in exactly the order the single engine would, and
  shards store them under those forced ids
  (``DynamicGraph.add_edge(..., edge_id=...)``), so DEBI rows and
  embedding identities are bit-identical across shard counts.
* **Index maintenance.**  One :class:`~repro.core.filtering.IndexManager`
  per query runs unchanged over :class:`RoutedGraph` /
  :class:`RoutedDEBI` composite views: reads route to the owner /
  primary, DEBI writes fan out to every replica (bits are mirrored), and
  root bits are broadcast to all shards.
* **Enumeration.**  Work units are decomposed once (identical to the
  single engine) and grouped by *home shard* — the primary replica of
  the pinned edge.  Each group enumerates against the shard's own data
  through :class:`ShardScopeGraph`: local reads stay local, and when a
  partial embedding's next matching-order step anchors at a foreign
  vertex, the candidate frontier is *scatter-gathered* — the owning
  shard packs the frontier column as one flat int64 array and forwards
  it, with the traffic accounted in :class:`FrontierStats`.  Merged
  per-shard result blocks are deduplicated by embedding identity (node
  map + bound edge-id set) through one
  :class:`~repro.core.results.ResultSet`.
* **Pools.**  With the ``process`` backend every shard owns a
  supervised :class:`~repro.core.parallel.SharedMemoryPool`; a batch
  dispatches one ``DispatchedEpoch`` per shard and drains them
  independently (completion order across shards is unconstrained).
  Workers hold only their shard's snapshot, so a unit whose enumeration
  crosses the partition boundary *escapes* (see
  :class:`~repro.core.sharding.ShardGuardView`) and is re-run by the
  router with frontier forwarding.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.api import MatchDefinition
from repro.core.debi import DEBI
from repro.core.engine import EngineConfig, RunResult, SnapshotResult
from repro.core.enumeration import (
    EmbeddingArena,
    EnumerationContext,
    WorkUnits,
    decompose_batch,
)
from repro.core.filtering import IndexManager
from repro.core.parallel import (
    EnumerationOutcome,
    EpochDeadlineError,
    PoolBrokenError,
    PoolOwnerMixin,
    SharedMemoryPool,
    run_serial,
)
from repro.core.registry import build_query_runtime, resolve_deletions
from repro.core.results import ResultSet
from repro.core.sharding import (
    EdgeIdAllocator,
    HashPartitionStrategy,
    PartitionMap,
    PartitionStrategy,
)
from repro.core.supervisor import PoolSupervisor
from repro.graph.adjacency import (
    DynamicGraph,
    GraphError,
    check_edge_columns,
    concat_candidate_pools,
    concat_find_edges,
    concat_label_degrees,
)
from repro.graph.edge import EdgeColumns
from repro.graph.stats import PlaceholderStats
from repro.query.query_graph import QueryGraph
from repro.streams.broker import producing
from repro.streams.events import EventColumns, EventKind, StreamEvent, coerce_insert
from repro.streams.generator import Snapshot, SnapshotGenerator, initialize_stream
from repro.streams.sources import StreamSource
from repro.utils.validation import ConfigurationError

_EMPTY_IDS = np.empty(0, dtype=np.int64)


@dataclass
class FrontierStats:
    """Cross-shard scatter-gather traffic counters (router lifetime)."""

    #: packed frontier-column forwards (one per foreign candidate-pool read)
    forwards: int = 0
    #: candidate rows carried by those forwards
    rows: int = 0
    #: packed payload bytes forwarded
    bytes: int = 0
    #: scalar cross-shard reads (degree probes, witness ``find_edges``)
    lookups: int = 0
    #: endpoint rows gathered from foreign replicas
    gather_rows: int = 0
    #: pool work units bounced back by the worker-side ownership guard
    escaped_units: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "frontier_forwards": self.forwards,
            "frontier_rows": self.rows,
            "frontier_bytes": self.bytes,
            "frontier_lookups": self.lookups,
            "frontier_gather_rows": self.gather_rows,
            "escaped_units": self.escaped_units,
        }


class EngineShard(PoolOwnerMixin):
    """One engine shard: its own adjacency, DEBI, snapshot writer, pool.

    The snapshot writer lives inside the shard's
    :class:`~repro.core.parallel.SharedMemoryPool` (one writer per pool,
    as in the single engine); serial-backend shards simply never spawn
    one.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        # Recycling is off on purpose: the *router's* allocator owns the
        # global id space and passes forced ids down, so a shard-local
        # free list could only hand out conflicting ids.
        self.graph = DynamicGraph(recycle_edge_ids=False)
        self.debi: DEBI | None = None
        self.arena: EmbeddingArena | None = None
        #: edge mutations (inserts + deletes, replicas included) applied here
        self.mutations_applied = 0
        self._supervisor: PoolSupervisor | None = None
        self._exports_before_pool = 0

    # ------------------------------------------------------------------ pool lifecycle
    def spawn_pool(self, supervisor: PoolSupervisor) -> None:
        self._supervisor = supervisor
        self._adopt_pool(supervisor.spawn())

    def pool_broken(self) -> SharedMemoryPool | None:
        """Retire the broken pool and adopt the supervisor's replacement."""
        assert self._supervisor is not None
        return self._adopt_pool(self._supervisor.replace(self._detach_pool()))

    @property
    def pool(self) -> SharedMemoryPool | None:
        pool = self._pool
        return pool if pool is not None and pool.usable else None

    @property
    def snapshot_exports(self) -> int:
        current = self._pool.publish_count if self._pool is not None else 0
        retired = (
            self._supervisor.retired_publish_count if self._supervisor is not None else 0
        )
        return self._exports_before_pool + retired + current

    def close(self) -> None:
        pool = self._detach_pool()
        if pool is not None:
            self._exports_before_pool += getattr(pool, "publish_count", 0)
            pool.close()
        if self._supervisor is not None:
            self._exports_before_pool += self._supervisor.release_retired()


# ---------------------------------------------------------------------- composite views
class RoutedGraph:
    """The whole-graph facade stitched from the shard set.

    Implements the read surface of :class:`~repro.graph.DynamicGraph`
    by routing every vertex-keyed call to the vertex's owner (where the
    adjacency is complete) and every edge-id call to the edge's primary
    replica.  The index manager and the deletion resolver run over this
    view unchanged, which is what keeps DEBI maintenance bit-identical
    to the single engine.
    """

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router
        self.stats: PlaceholderStats = router.stats

    # --- edge-id keyed ------------------------------------------------
    def edge(self, edge_id: int):
        return self._router.primary_graph(edge_id).edge(edge_id)

    def is_alive(self, edge_id: int) -> bool:
        return self._router.edge_is_alive(edge_id)

    def endpoint_array(self, edge_ids, take_dst: bool) -> np.ndarray:
        return self._router.gather_endpoints(-1, edge_ids, take_dst)

    def edge_labels(self, edge_ids) -> np.ndarray:
        return self._router.gather(-1, edge_ids, DynamicGraph.edge_labels)

    # --- vertex keyed -------------------------------------------------
    def candidate_pool(self, vertex: int, out: bool, label: int | None = None):
        return self._router.owner_graph(vertex).candidate_pool(vertex, out, label)

    def candidate_pools(self, anchors, out: bool, label: int | None = None):
        return concat_candidate_pools(self, anchors, out, label)

    def label_degrees(self, vertices, out: bool, label: int | None = None):
        return concat_label_degrees(self, vertices, out, label)

    def find_edges(self, src: int, dst: int, label: int | None = None) -> list[int]:
        return self._router.owner_graph(src).find_edges(src, dst, label)

    def out_degree(self, vertex: int) -> int:
        return self._router.owner_graph(vertex).out_degree(vertex)

    def in_degree(self, vertex: int) -> int:
        return self._router.owner_graph(vertex).in_degree(vertex)

    def out_label_degree(self, vertex: int, label: int) -> int:
        return self._router.owner_graph(vertex).out_label_degree(vertex, label)

    def in_label_degree(self, vertex: int, label: int) -> int:
        return self._router.owner_graph(vertex).in_label_degree(vertex, label)

    def vertex_label(self, vertex: int) -> int:
        return self._router.owner_graph(vertex).vertex_label(vertex)

    def vertex_labels(self, vertices) -> np.ndarray:
        return np.fromiter(
            map(self.vertex_label, vertices.tolist()), dtype=np.int64, count=len(vertices)
        )

    def has_vertex(self, vertex: int) -> bool:
        return self._router.owner_graph(vertex).has_vertex(vertex)

    # --- aggregates ---------------------------------------------------
    def vertices(self) -> Iterator[int]:
        return self._router.partition.vertices()

    @property
    def num_vertices(self) -> int:
        return len(self._router.partition)

    @property
    def num_edges(self) -> int:
        return self._router.num_edges

    @property
    def num_placeholders(self) -> int:
        return self._router.allocator.num_placeholders

    def edges(self):
        """All live edges, each yielded once (from its primary replica)."""
        for edge_id in self._router.live_edge_ids():
            yield self._router.primary_graph(edge_id).edge(edge_id)


class RoutedDEBI:
    """Write-fanout / read-by-primary view over the per-shard DEBIs.

    Edge bits are **mirrored**: a set/clear lands on every replica of
    the edge, so each shard can answer DEBI reads for any edge it
    stores without a round trip.  Root bits are vertex-keyed and
    broadcast to every shard for the same reason.  Reads route to the
    primary replica.
    """

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router

    def clear(self, edge_id: int, column: int) -> None:
        for shard in self._router.replica_shards(edge_id):
            shard.debi.clear(edge_id, column)  # type: ignore[union-attr]

    def get(self, edge_id: int, column: int) -> bool:
        return self._router.primary_debi(edge_id).get(edge_id, column)

    # -------------------------------------------------------------- bulk (columnar ingest)
    def _replica_groups(self, ids: np.ndarray):
        """Yield ``(shard, ids_subset)`` covering every replica of ``ids``."""
        primary = self._router._primary[ids]
        secondary = self._router._secondary[ids]
        for index, shard in enumerate(self._router.shards):
            member = (primary == index) | (secondary == index)
            if member.any():
                yield shard, ids[member]

    def set_edges(self, edge_ids, column: int) -> None:
        ids = np.asarray(edge_ids, dtype=np.int64)
        if ids.shape[0] == 0:
            return
        for shard, subset in self._replica_groups(ids):
            shard.debi.set_edges(subset, column)  # type: ignore[union-attr]

    def clear_edges(self, edge_ids) -> None:
        ids = np.asarray(edge_ids, dtype=np.int64)
        if ids.shape[0] == 0:
            return
        for shard, subset in self._replica_groups(ids):
            shard.debi.clear_edges(subset)  # type: ignore[union-attr]

    def column_mask(self, edge_ids, column: int) -> np.ndarray:
        ids = np.asarray(edge_ids, dtype=np.int64)
        mask = np.zeros(ids.shape[0], dtype=bool)
        primary = self._router._primary[ids]
        for index, shard in enumerate(self._router.shards):
            member = primary == index
            if member.any():
                mask[member] = shard.debi.column_mask(ids[member], column)  # type: ignore[union-attr]
        return mask

    def roots_mask(self, vertices) -> np.ndarray:
        """Root bits are broadcast, so any shard's vector answers the batch."""
        return self._router.shards[0].debi.roots_mask(vertices)  # type: ignore[union-attr]

    def set_root(self, vertex: int) -> None:
        for shard in self._router.shards:
            shard.debi.set_root(vertex)  # type: ignore[union-attr]

    def clear_root(self, vertex: int) -> None:
        for shard in self._router.shards:
            shard.debi.clear_root(vertex)  # type: ignore[union-attr]

    def is_root(self, vertex: int) -> bool:
        return self._router.shards[0].debi.is_root(vertex)  # type: ignore[union-attr]

    def reset(self) -> None:
        for shard in self._router.shards:
            shard.debi.reset()  # type: ignore[union-attr]

    def total_bits_set(self) -> int:
        """Bits physically stored across all shards (mirrors included)."""
        return sum(shard.debi.total_bits_set() for shard in self._router.shards)  # type: ignore[union-attr]

    def nbytes(self) -> int:
        return sum(shard.debi.nbytes() for shard in self._router.shards)  # type: ignore[union-attr]


class ShardScopeGraph:
    """One shard's view of the graph, with cross-shard frontier forwarding.

    Shard-local enumeration reads through this: anything keyed by an
    owned vertex (or a locally stored edge) is served from the shard's
    own adjacency; a read that crosses the partition boundary goes
    through the router's scatter-gather (packed frontier columns,
    accounted in :class:`FrontierStats`).
    """

    def __init__(self, router: "ShardRouter", shard: EngineShard) -> None:
        self._router = router
        self._shard = shard
        self._local = shard.graph
        self._index = shard.index
        self._forwarded: dict[tuple, np.ndarray] = {}
        self._degrees: dict[tuple, dict[int, int]] = {}

    # --- vertex keyed: local or forwarded -----------------------------
    def candidate_pool(self, vertex: int, out: bool, label: int | None = None):
        if self._router.partition.owner(vertex) == self._index:
            return self._local.candidate_pool(vertex, out, label)
        # One forward per foreign pool per scope: the graph is frozen for
        # the scope's lifetime, and the step-batched kernel re-reads a
        # pool at every step that anchors there.
        key = (vertex, out, label)
        pool = self._forwarded.get(key)
        if pool is None:
            packet = self._router.forward_frontier(self._index, vertex, out, label)
            pool = self._forwarded[key] = packet[4 : 4 + int(packet[3])]
        return pool

    def candidate_pools(self, anchors, out: bool, label: int | None = None):
        return concat_candidate_pools(self, anchors, out, label)

    def label_degrees(self, vertices, out: bool, label: int | None = None):
        # One probe per vertex per scope, for the reason pools are forwarded
        # once: the degree filter re-tests a vertex at every step reaching it.
        known = self._degrees.setdefault((out, label), {})
        asked = vertices.tolist()
        fresh = [vertex for vertex in dict.fromkeys(asked) if vertex not in known]
        if fresh:
            probed = concat_label_degrees(self, np.array(fresh, dtype=np.int64), out, label)
            known.update(zip(fresh, probed.tolist()))
        return np.fromiter(map(known.__getitem__, asked), dtype=np.int64, count=len(asked))

    def find_edges(self, src: int, dst: int, label: int | None = None) -> list[int]:
        owner = self._router.partition.owner(src)
        if owner == self._index:
            return self._local.find_edges(src, dst, label)
        self._router.frontier.lookups += 1
        return self._router.shards[owner].graph.find_edges(src, dst, label)

    def find_edges_batch(self, srcs, dsts):
        return concat_find_edges(self, srcs, dsts)

    def _owner_graph(self, vertex: int) -> DynamicGraph:
        owner = self._router.partition.owner(vertex)
        if owner == self._index:
            return self._local
        self._router.frontier.lookups += 1
        return self._router.shards[owner].graph

    def out_degree(self, vertex: int) -> int:
        return self._owner_graph(vertex).out_degree(vertex)

    def in_degree(self, vertex: int) -> int:
        return self._owner_graph(vertex).in_degree(vertex)

    def out_label_degree(self, vertex: int, label: int) -> int:
        return self._owner_graph(vertex).out_label_degree(vertex, label)

    def in_label_degree(self, vertex: int, label: int) -> int:
        return self._owner_graph(vertex).in_label_degree(vertex, label)

    def vertex_label(self, vertex: int) -> int:
        return self._owner_graph(vertex).vertex_label(vertex)

    def vertex_labels(self, vertices) -> np.ndarray:
        return np.fromiter(
            map(self.vertex_label, vertices.tolist()), dtype=np.int64, count=len(vertices)
        )

    # --- edge-id keyed: local replica or primary ----------------------
    def edge(self, edge_id: int):
        if self._local.is_alive(edge_id):
            return self._local.edge(edge_id)
        return self._router.primary_graph(edge_id).edge(edge_id)

    def is_alive(self, edge_id: int) -> bool:
        return self._local.is_alive(edge_id) or self._router.edge_is_alive(edge_id)

    def endpoint_array(self, edge_ids, take_dst: bool) -> np.ndarray:
        return self._router.gather_endpoints(self._index, edge_ids, take_dst)

    def edge_labels(self, edge_ids) -> np.ndarray:
        ids = edge_ids.tolist() if hasattr(edge_ids, "tolist") else list(edge_ids)
        return np.fromiter(
            (self.edge(e).label for e in ids), dtype=np.int64, count=len(ids)
        )

    # --- aggregates / publish seam ------------------------------------
    @property
    def num_edges(self) -> int:
        return self._router.num_edges

    @property
    def num_placeholders(self) -> int:
        return self._router.allocator.num_placeholders

    def export_csr(self):
        return self._local.export_csr()

    def export_csr_delta(self):
        return self._local.export_csr_delta()

    def __getattr__(self, name: str):
        return getattr(self._local, name)


class ShardScopeDEBI:
    """One shard's DEBI view: local bits for stored edges, primary otherwise.

    Because edge bits are mirrored on every replica, any pool fetched
    from a shard can be mask-tested against that shard's own DEBI; the
    grouped fallback only fires for frontier columns forwarded from
    other shards.  Root bits are broadcast, so root tests are always
    local.  Everything else (buffer export for the snapshot writer,
    geometry) delegates to the local DEBI.
    """

    def __init__(self, router: "ShardRouter", shard: EngineShard) -> None:
        self._router = router
        self._shard = shard
        self._local = shard.debi
        self._index = shard.index

    def column_mask(self, edge_ids, column: int) -> np.ndarray:
        return self._router.debi_column_mask(self._index, edge_ids, column)

    def get(self, edge_id: int, column: int) -> bool:
        if self._shard.graph.is_alive(edge_id):
            return self._local.get(edge_id, column)  # type: ignore[union-attr]
        return self._router.primary_debi(edge_id).get(edge_id, column)

    def is_root(self, vertex: int) -> bool:
        return self._local.is_root(vertex)  # type: ignore[union-attr]

    def roots_mask(self, vertices) -> np.ndarray:
        return self._local.roots_mask(vertices)  # type: ignore[union-attr]

    def __getattr__(self, name: str):
        return getattr(self._local, name)


# ---------------------------------------------------------------------- the router
class ShardRouter:
    """Owns placement, the global id space, and cross-shard scatter-gather."""

    def __init__(
        self,
        num_shards: int,
        strategy: PartitionStrategy,
        recycle_edge_ids: bool,
    ) -> None:
        self.partition = PartitionMap(strategy, num_shards)
        self.allocator = EdgeIdAllocator(recycle_edge_ids)
        self.shards: list[EngineShard] = [EngineShard(i) for i in range(num_shards)]
        self.frontier = FrontierStats()
        self.stats = PlaceholderStats()
        self.num_edges = 0
        #: per edge id: shard index of the primary replica (owner(src)), -1 = dead
        self._primary = np.full(1024, -1, dtype=np.int64)
        #: per edge id: shard index of the secondary replica, -1 = none/dead
        self._secondary = np.full(1024, -1, dtype=np.int64)

    # ------------------------------------------------------------------ id-space bookkeeping
    def _ensure_capacity(self, edge_id: int) -> None:
        if edge_id >= self._primary.shape[0]:
            size = max(edge_id + 1, 2 * self._primary.shape[0])
            for name in ("_primary", "_secondary"):
                grown = np.full(size, -1, dtype=np.int64)
                old = getattr(self, name)
                grown[: old.shape[0]] = old
                setattr(self, name, grown)

    def edge_is_alive(self, edge_id: int) -> bool:
        return 0 <= edge_id < self._primary.shape[0] and self._primary[edge_id] >= 0

    def primary_graph(self, edge_id: int) -> DynamicGraph:
        if not self.edge_is_alive(edge_id):
            raise GraphError(f"edge id {edge_id} is not a live edge")
        return self.shards[int(self._primary[edge_id])].graph

    def primary_debi(self, edge_id: int) -> DEBI:
        if not self.edge_is_alive(edge_id):
            raise GraphError(f"edge id {edge_id} is not a live edge")
        return self.shards[int(self._primary[edge_id])].debi  # type: ignore[return-value]

    def replica_shards(self, edge_id: int) -> list[EngineShard]:
        replicas = [self.shards[int(self._primary[edge_id])]]
        secondary = int(self._secondary[edge_id])
        if secondary >= 0:
            replicas.append(self.shards[secondary])
        return replicas

    def owner_graph(self, vertex: int) -> DynamicGraph:
        return self.shards[self.partition.owner(vertex)].graph

    def live_edge_ids(self) -> Iterator[int]:
        for edge_id in range(self.allocator.num_placeholders):
            if self._primary[edge_id] >= 0:
                yield edge_id

    # ------------------------------------------------------------------ mutations
    def insert_columns(self, columns) -> list[int]:
        """Route one insert batch to the shards owning its endpoints; returns the edge ids.

        Placement runs event by event (ownership is first-touch
        order-sensitive) and the allocator serves the batch in event order,
        so the ids are the ones a single engine would hand out.  Each shard
        then receives its events as one pre-split
        column batch — the primary rows plus the boundary rows it stores
        as secondary replica, in event order — applied with one
        :meth:`DynamicGraph.apply_insert_columns` call under forced edge
        ids.  A batch a shard graph would refuse is refused here, before
        it has moved ownership or the allocator.
        """
        n = len(columns)
        if n == 0:
            return []
        check_edge_columns(columns.src, columns.dst, columns.label)
        touch = self.partition.touch
        allocator = self.allocator
        # one interleaved pass: a vertex is placed at its first mention, src before dst
        owners = np.fromiter(
            map(
                touch,
                np.stack([columns.src, columns.dst], axis=1).ravel().tolist(),
                np.stack([columns.src_label, columns.dst_label], axis=1).ravel().tolist(),
            ),
            dtype=np.int64, count=2 * n,
        )
        src_owners, dst_owners = owners[0::2], owners[1::2]
        recycled_before = allocator.recycled
        ids_arr = allocator.allocate_columns(columns.src)
        self.stats.recycled += allocator.recycled - recycled_before
        self._ensure_capacity(int(ids_arr.max()))
        secondary = np.where(dst_owners != src_owners, dst_owners, -1)

        for index, shard in enumerate(self.shards):
            member = (src_owners == index) | (secondary == index)
            if not member.any():
                continue
            rows = np.nonzero(member)[0]
            sub = columns.take(rows)
            shard.graph.apply_insert_columns(
                sub.src, sub.dst, sub.label, sub.timestamp,
                sub.src_label, sub.dst_label, edge_ids=ids_arr[rows],
            )
            shard.mutations_applied += int(rows.shape[0])

        self._primary[ids_arr] = src_owners
        self._secondary[ids_arr] = secondary
        self.num_edges += n
        # Bulk equivalence of n record_insert calls: placeholders and live
        # are monotone within an insert batch, so the final values realise
        # both peaks.
        self.stats.inserts += n
        self.stats.peak_placeholders = max(
            self.stats.peak_placeholders, allocator.num_placeholders
        )
        self.stats.peak_live = max(self.stats.peak_live, self.num_edges)
        return ids_arr.tolist()

    def resolve_deletions(self, deletions: EventColumns) -> np.ndarray:
        """:func:`~repro.core.registry.resolve_deletions` over the shard set.

        A triple's instances all live at the shard owning its source, so
        events of different owners never compete for an instance: each
        owner resolves its own events on its own graph.
        """
        owners = np.fromiter(map(self.partition.owner, deletions.src.tolist()), np.int64)
        doomed = np.empty(owners.shape[0], dtype=np.int64)
        for index in np.unique(owners).tolist():
            mine = np.flatnonzero(owners == index)
            doomed[mine] = resolve_deletions(self.shards[index].graph, deletions.take(mine))
        return doomed

    def delete_columns(self, edge_ids: np.ndarray) -> EdgeColumns:
        """Delete ``edge_ids`` from every replica; return their last columns, in batch order.

        The ids go back to the allocator in batch order, so the free-id
        stacks replay the single engine's.
        """
        deleted = EdgeColumns(
            edge_ids,
            self.gather_endpoints(-1, edge_ids, take_dst=False),
            self.gather_endpoints(-1, edge_ids, take_dst=True),
            self.gather(-1, edge_ids, DynamicGraph.edge_labels),
            self.gather(-1, edge_ids, DynamicGraph.edge_timestamps, np.float64),
        )
        primary, secondary = self._primary[edge_ids], self._secondary[edge_ids]
        for index, shard in enumerate(self.shards):
            mine = edge_ids[(primary == index) | (secondary == index)]
            if mine.size:
                shard.graph.apply_delete_columns(mine)
                shard.mutations_applied += int(mine.size)
        self._primary[edge_ids] = -1
        self._secondary[edge_ids] = -1
        self.allocator.release_columns(deleted.src, edge_ids)
        self.num_edges -= edge_ids.shape[0]
        self.stats.deletes += edge_ids.shape[0]
        self.stats.peak_placeholders = max(
            self.stats.peak_placeholders, self.allocator.num_placeholders
        )
        return deleted

    # ------------------------------------------------------------------ scatter-gather
    def forward_frontier(
        self, dest: int, vertex: int, out: bool, label: int | None
    ) -> np.ndarray:
        """Serve a foreign candidate-pool read as one packed int64 column.

        Layout: ``[vertex, direction, label(-1=wildcard), n, ids...]``.
        The in-process hop stands in for the wire; the packet is what a
        networked deployment would ship, so its size is what we account.
        """
        owner = self.partition.owner(vertex)
        pool = self.shards[owner].graph.candidate_pool(vertex, out, label)
        ids = np.asarray(pool, dtype=np.int64)
        packet = np.empty(ids.size + 4, dtype=np.int64)
        packet[0] = vertex
        packet[1] = int(out)
        packet[2] = -1 if label is None else label
        packet[3] = ids.size
        packet[4:] = ids
        self.frontier.forwards += 1
        self.frontier.rows += int(ids.size)
        self.frontier.bytes += int(packet.nbytes)
        return packet

    def gather(self, dest: int, edge_ids, read, dtype=np.int64) -> np.ndarray:
        """``read(graph, ids)`` per edge id across replicas: local rows free, foreign grouped.

        ``dest`` is the asking shard (-1 for the routed whole-graph view:
        everything routes by primary).
        """
        ids = np.asarray(edge_ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty(0, dtype=dtype)
        prim = self._primary[ids]
        if dest >= 0:
            local = (prim == dest) | (self._secondary[ids] == dest)
            if bool(local.all()):
                return read(self.shards[dest].graph, ids)
        else:
            local = np.zeros(ids.shape, dtype=bool)
        out = np.empty(ids.size, dtype=dtype)
        if local.any():
            out[local] = read(self.shards[dest].graph, ids[local])
        foreign = ~local
        for shard_index in np.unique(prim[foreign]).tolist():
            sel = foreign & (prim == shard_index)
            out[sel] = read(self.shards[int(shard_index)].graph, ids[sel])
            if dest >= 0:
                self.frontier.gather_rows += int(sel.sum())
        return out

    def gather_endpoints(self, dest: int, edge_ids, take_dst: bool) -> np.ndarray:
        return self.gather(dest, edge_ids, lambda graph, ids: graph.endpoint_array(ids, take_dst))

    def debi_column_mask(self, dest: int, edge_ids, column: int) -> np.ndarray:
        """Vectorized DEBI bit test across replicas (bits are mirrored)."""
        ids = np.asarray(edge_ids, dtype=np.int64)
        if ids.size == 0:
            return np.zeros(0, dtype=bool)
        prim = self._primary[ids]
        local = (prim == dest) | (self._secondary[ids] == dest)
        if bool(local.all()):
            return self.shards[dest].debi.column_mask(ids, column)  # type: ignore[union-attr]
        mask = np.zeros(ids.size, dtype=bool)
        if local.any():
            mask[local] = self.shards[dest].debi.column_mask(ids[local], column)  # type: ignore[union-attr]
        foreign = ~local
        for shard_index in np.unique(prim[foreign]).tolist():
            if shard_index < 0:  # dead ids test as 0, like a cleared row
                continue
            sel = foreign & (prim == shard_index)
            mask[sel] = self.shards[int(shard_index)].debi.column_mask(ids[sel], column)  # type: ignore[union-attr]
        return mask


# ---------------------------------------------------------------------- the facade
class ShardedEngine:
    """Partition-parallel Mnemonic: N engine shards behind one facade.

    Drop-in for the single-query :class:`~repro.core.engine.MnemonicEngine`
    result contract: same ``load_initial`` / ``run`` / ``batch_inserts``
    / ``batch_deletes`` surface, bit-identical positive and negative
    embedding identity sets for any shard count (gated in CI by
    ``shard_parity``), with mutation, DEBI maintenance, snapshot export,
    and enumeration work split across the shards.

    Not yet sharded: durable storage (raises) and the pipelined batch
    mode (runs serial; per-shard pools still overlap *within* each phase).
    """

    def __init__(
        self,
        query: QueryGraph,
        match_def: MatchDefinition | None = None,
        config: EngineConfig | None = None,
        root: int | None = None,
        strategy: PartitionStrategy | None = None,
    ) -> None:
        self.config = config or EngineConfig()
        if self.config.storage is not None:
            raise ConfigurationError(
                "ShardedEngine does not support durable storage yet; "
                "run MnemonicEngine with config.storage instead"
            )
        num_shards = self.config.shards
        self.router = ShardRouter(
            num_shards,
            strategy or HashPartitionStrategy(),
            recycle_edge_ids=self.config.recycle_edge_ids,
        )
        self.shards = self.router.shards

        # Harvest the per-query precomputation (tree, orders, masks,
        # picklable query state) from the shared builder, then discard its
        # single-graph DEBI/index pair: the sharded engine maintains one
        # DEBI per shard behind the routed composite views instead.
        scratch = build_query_runtime(
            query, match_def, DynamicGraph(recycle_edge_ids=False),
            use_degree_filter=self.config.use_degree_filter, root=root,
            rebuild_index=False,
        )
        self.query = query
        self.match_def = scratch.match_def
        self.tree = scratch.tree
        self.orders = scratch.orders
        self.masks = scratch.masks
        self.query_state = scratch.query_state

        for shard in self.shards:
            shard.debi = DEBI(self.tree)
            shard.arena = EmbeddingArena()
        self.routed_graph = RoutedGraph(self.router)
        self.routed_debi = RoutedDEBI(self.router)
        self.index_manager = IndexManager(
            query, self.tree, self.routed_graph, self.routed_debi,  # type: ignore[arg-type]
            self.match_def,
        )

        # Per-shard supervised pools (process backend only): one
        # DispatchedEpoch per shard per phase, drained independently.
        if self.config.parallel.backend == "process":
            for shard in self.shards:
                supervisor = PoolSupervisor(
                    self.config.fault,
                    lambda: SharedMemoryPool.create_multi(
                        {0: self.query_state}, self.config.parallel
                    ),
                )
                shard.spawn_pool(supervisor)

        self._snapshot_counter = 0
        self._filter_traversals = 0

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except Exception:
            if exc_type is None:
                raise

    # ------------------------------------------------------------------ initialisation
    def initialize_stream(
        self, source: StreamSource | Sequence[StreamEvent]
    ) -> SnapshotGenerator:
        return initialize_stream(source, self.config.stream)

    def load_initial(self, events: Iterable[StreamEvent | tuple]) -> int:
        """Load and index an initial graph (insertions only), no enumeration."""
        coerced = [coerce_insert(event) for event in events]
        if not coerced:
            return 0
        columns = EventColumns.from_events(EventKind.INSERT, coerced)
        new_ids = self.router.insert_columns(columns)
        self.index_manager.handle_insert_columns(new_ids, columns.src, columns.dst, columns.label)
        return len(new_ids)

    # ------------------------------------------------------------------ main loop
    def run(self, source: StreamSource | Sequence[StreamEvent]) -> RunResult:
        """Process the whole stream, one serial batch at a time, all shards."""
        generator = self.initialize_stream(source)
        with producing(source):
            result = RunResult()
            for snapshot in generator:
                result.add(self.process_snapshot(snapshot))
            return result

    def process_snapshot(self, snapshot: Snapshot) -> SnapshotResult:
        # Sealed batches cache their columnar decode; reuse it so the
        # fan-out tier and the engine never decode the same batch twice.
        return self._process_batch(
            snapshot.number, snapshot.insert_columns(), snapshot.delete_columns()
        )

    def batch_inserts(self, events: Iterable[StreamEvent | tuple]) -> SnapshotResult:
        coerced = [coerce_insert(e) for e in events]
        return self.process_snapshot(Snapshot(self._snapshot_counter, insertions=coerced))

    def batch_deletes(self, events: Iterable[StreamEvent | tuple]) -> SnapshotResult:
        coerced = [e if isinstance(e, StreamEvent) else StreamEvent.delete(*e) for e in events]
        return self.process_snapshot(Snapshot(self._snapshot_counter, deletions=coerced))

    # ------------------------------------------------------------------ batch execution
    def _process_batch(
        self, number: int, columns: EventColumns | None, deletions: EventColumns | None
    ) -> SnapshotResult:
        """One batch, single-engine serial semantics: inserts then deletes."""
        result = SnapshotResult(
            number=number,
            num_insertions=len(columns) if columns else 0,
            num_deletions=len(deletions) if deletions else 0,
        )
        if columns:
            start = time.perf_counter()
            new_ids = self.router.insert_columns(columns)
            result.graph_update_seconds += time.perf_counter() - start

            start = time.perf_counter()
            self.index_manager.handle_insert_columns(
                np.asarray(new_ids, dtype=np.int64),
                columns.src, columns.dst, columns.label,
            )
            result.filter_seconds += time.perf_counter() - start
            result.filter_traversals += self.index_manager.last_batch_traversals

            self._enumerate_phase(set(new_ids), positive=True, result=result)

        if deletions:
            start = time.perf_counter()
            doomed = self.router.resolve_deletions(deletions)
            result.graph_update_seconds += time.perf_counter() - start

            # Negative embeddings are enumerated *before* the deletion is
            # applied — they exist only in the pre-batch graph.
            self._enumerate_phase(set(doomed.tolist()), positive=False, result=result)

            start = time.perf_counter()
            # Note which doomed edges hold which bit and clear the mirrored
            # rows while the router still knows each replica set
            # (delete_columns retires the ids from the shard map, after which
            # a recycled id would inherit stale bits), then retire the ids.
            held = self.index_manager.held_bits(doomed)
            self.routed_debi.clear_edges(doomed)
            deleted = self.router.delete_columns(doomed)
            result.graph_update_seconds += time.perf_counter() - start

            start = time.perf_counter()
            self.index_manager.handle_deletions(deleted, held)
            result.filter_seconds += time.perf_counter() - start
            result.filter_traversals += self.index_manager.last_batch_traversals

        result.live_edges = self.router.num_edges
        result.edge_placeholders = self.router.allocator.num_placeholders
        result.debi_bits = self.routed_debi.total_bits_set()
        self.router.stats.sample_snapshot(
            number, self.router.allocator.num_placeholders, self.router.num_edges
        )
        self._snapshot_counter += 1
        return result

    # ------------------------------------------------------------------ enumeration
    def _make_scope_context(
        self, shard: EngineShard, batch_edge_ids: set[int], positive: bool
    ) -> EnumerationContext:
        return self.query_state.make_context(
            ShardScopeGraph(self.router, shard),
            ShardScopeDEBI(self.router, shard),  # type: ignore[arg-type]
            batch_edge_ids,
            positive,
            arena=shard.arena,
        )

    def _decompose(self, batch_edge_ids: set[int], positive: bool) -> WorkUnits:
        """Work decomposition over the routed views — identical units to
        the single engine's, since the composite views present the same
        graph and the same (mirrored) DEBI bits."""
        context = self.query_state.make_context(
            self.routed_graph, self.routed_debi, batch_edge_ids, positive  # type: ignore[arg-type]
        )
        return decompose_batch(context, sorted(batch_edge_ids))

    def _enumerate_phase(
        self, batch_edge_ids: set[int], positive: bool, result: SnapshotResult
    ) -> None:
        collect = self.config.collect_embeddings
        units = self._decompose(batch_edge_ids, positive)
        result.work_units += len(units)
        if not len(units):
            return

        # Group by home shard: the primary replica of the pinned edge.
        home = self.router._primary[units.edge_ids]
        by_shard = {shard: units[home == shard] for shard in np.unique(home).tolist()}

        start = time.perf_counter()
        contexts: dict[int, EnumerationContext] = {}
        outcomes: dict[int, list[EnumerationOutcome]] = defaultdict(list)
        dispatched: list[tuple[int, object]] = []
        # Scatter: dispatch every shard's epoch before draining any, so
        # the per-shard pools chew concurrently and completion order
        # across shards is unconstrained.
        for shard_index, shard_units in sorted(by_shard.items()):
            shard = self.shards[shard_index]
            context = contexts[shard_index] = self._make_scope_context(
                shard, batch_edge_ids, positive
            )
            pool = shard.pool
            if pool is not None and len(shard_units) >= 2 * pool.num_workers:
                try:
                    handle = pool.dispatch(
                        {0: context}, {0: shard_units}, collect=collect,
                        descriptor_extra={"shard": {
                            "strategy": self.router.partition.strategy,
                            "num_shards": self.router.partition.num_shards,
                            "shard": shard_index,
                        }},
                    )
                    dispatched.append((shard_index, handle))
                    continue
                except PoolBrokenError:
                    shard.pool_broken()
            outcomes[shard_index].append(run_serial(context, shard_units, collect))

        # Gather: drain each shard's epoch; units the workers escaped
        # (cross-shard frontier) re-run here with forwarding.
        for shard_index, handle in dispatched:
            shard = self.shards[shard_index]
            pool = shard.pool
            try:
                assert pool is not None
                drained = pool.drain(
                    handle, self.config.fault.epoch_deadline_seconds
                )
                outcomes[shard_index].append(drained.outcomes[0])
                escaped = drained.escaped.get(0)
            except (PoolBrokenError, EpochDeadlineError):
                shard.pool_broken()
                escaped = by_shard[shard_index]
            if escaped is not None:
                self.router.frontier.escaped_units += len(escaped)
                outcomes[shard_index].append(run_serial(contexts[shard_index], escaped, collect))

        # Merge, deduplicating by embedding identity (node map + bound
        # edge-id set).  Home-shard grouping partitions the units, so
        # duplicates should not arise; the dedup is the contract's safety
        # net, and duplicates are counted if a strategy ever violates it.
        distinct = ResultSet()
        total = 0
        stats_all = []
        wall = time.perf_counter() - start
        for shard_index in sorted(outcomes):
            for outcome in outcomes[shard_index]:
                total += outcome.num_embeddings
                stats_all.extend(outcome.worker_stats)
                distinct.extend(outcome.embeddings)
            result.candidates_scanned += contexts[shard_index].candidates_scanned
        merged = distinct.embeddings
        if collect and len(merged) != total:
            total = len(merged)

        result.enumerate_seconds += wall
        result.enumeration_outcomes.append(
            EnumerationOutcome(merged, stats_all, wall, num_embeddings=total)
        )
        result.record(positive, total, merged)

    # ------------------------------------------------------------------ metrics
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def snapshot_exports(self) -> int:
        return sum(shard.snapshot_exports for shard in self.shards)

    def frontier_stats(self) -> dict[str, int]:
        """Cross-shard scatter-gather traffic over the engine lifetime."""
        return self.router.frontier.as_dict()

    def shard_stats(self) -> list[dict[str, int]]:
        """Per-shard work report: the fig13 shard-scaling row set."""
        return [
            {
                "shard": shard.index,
                "owned_vertices": sum(
                    1 for v in self.router.partition.vertices()
                    if self.router.partition.owner(v) == shard.index
                ),
                "stored_edges": shard.graph.num_edges,
                "mutations_applied": shard.mutations_applied,
                "debi_bits_set": shard.debi.total_bits_set() if shard.debi else 0,
                "snapshot_exports": shard.snapshot_exports,
            }
            for shard in self.shards
        ]

    def memory_report(self) -> dict[str, int]:
        return {
            "live_edges": self.router.num_edges,
            "edge_placeholders": self.router.allocator.num_placeholders,
            "debi_bits_set": self.routed_debi.total_bits_set(),
            "debi_bytes": self.routed_debi.nbytes(),
            "recycled_inserts": self.router.allocator.recycled,
            "stored_edge_replicas": sum(s.graph.num_edges for s in self.shards),
        }
