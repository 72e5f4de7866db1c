"""Vertex partitioning for the sharded engine.

The sharded engine (:mod:`repro.core.shard_router`) splits the data
graph over N *engine shards*, each owning its own adjacency, DEBI,
snapshot writer, and worker pool.  This module holds the pieces that
decide *where* things live:

* :class:`PartitionStrategy` — the pluggable placement protocol: a pure
  function from ``(vertex, label, num_shards)`` to a shard index.  Pure
  and picklable on purpose: worker processes re-derive ownership from
  the strategy alone, without shipping the partition map.
* :class:`HashPartitionStrategy` — the default: a splitmix64 bit mix of
  the vertex id, modulo the shard count.
* :class:`LabelRangePartitionStrategy` — co-locates vertices whose
  labels fall in configured ranges (queries that anchor on one label
  class then enumerate mostly shard-locally), hash fallback otherwise.
* :class:`PartitionMap` — caches the first-sight assignment per vertex.
  Vertex labels are final at first sight (``DynamicGraph.add_vertex``
  forbids relabeling), so the cached owner never moves.
* :class:`EdgeIdAllocator` — the *global* edge-id allocator.  It runs on
  the :class:`~repro.graph.adjacency.FreeIdStacks` ``DynamicGraph`` itself
  allocates from, so a sharded run hands out the same edge ids, in the
  same order, as a single engine consuming the same stream — the property
  the bit-identity gates rest on.
* :class:`ShardGuardView` / :class:`CrossShardAccess` — the worker-side
  ownership guard for per-shard pool dispatch (see the router module).
"""

from __future__ import annotations

from typing import Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.graph.adjacency import (
    FreeIdStacks,
    concat_candidate_pools,
    concat_find_edges,
    concat_label_degrees,
    intern_ids,
)
from repro.utils.validation import ConfigurationError

_MASK64 = (1 << 64) - 1


def splitmix64(value: int) -> int:
    """The splitmix64 finalizer: a cheap, well-mixed 64-bit bijection."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@runtime_checkable
class PartitionStrategy(Protocol):
    """Placement protocol: assign a vertex to one of ``num_shards`` shards.

    Implementations must be *pure* (same inputs, same answer — the map
    caches first-sight assignments and workers re-derive them) and
    picklable (shipped to pool workers inside the snapshot descriptor).
    """

    def shard_of(self, vertex: int, label: int, num_shards: int) -> int:
        """The shard index owning ``vertex`` (``label`` is its first-sight label)."""
        ...  # pragma: no cover - protocol


class HashPartitionStrategy:
    """Default placement: splitmix64 hash of the vertex id, modulo N."""

    def shard_of(self, vertex: int, label: int, num_shards: int) -> int:
        return splitmix64(vertex) % num_shards

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "HashPartitionStrategy()"


class LabelRangePartitionStrategy:
    """Placement by vertex-label range, hash fallback for uncovered labels.

    ``ranges`` is a sequence of inclusive ``(lo, hi)`` label intervals;
    vertices whose first-sight label falls in interval ``i`` land on
    shard ``i % num_shards``.  Labels outside every interval fall back
    to the hash strategy, so the assignment is total regardless of the
    configured ranges.
    """

    def __init__(self, ranges: Sequence[tuple[int, int]]) -> None:
        for lo, hi in ranges:
            if lo > hi:
                raise ConfigurationError(f"label range ({lo}, {hi}) is inverted")
        self.ranges = tuple((int(lo), int(hi)) for lo, hi in ranges)
        self._fallback = HashPartitionStrategy()

    def shard_of(self, vertex: int, label: int, num_shards: int) -> int:
        for index, (lo, hi) in enumerate(self.ranges):
            if lo <= label <= hi:
                return index % num_shards
        return self._fallback.shard_of(vertex, label, num_shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LabelRangePartitionStrategy(ranges={self.ranges!r})"


class PartitionMap:
    """First-sight vertex-to-shard assignment over a pure strategy.

    ``touch`` records a vertex at mutation time with its (final) label;
    ``owner`` answers read-side routing.  Reads of vertices the engine
    has never stored (possible only through user probing, never through
    enumeration — every enumerated vertex is an endpoint of a stored
    edge) fall back to the strategy with the unlabelled default, which
    matches ``DynamicGraph.vertex_label``'s behaviour for unknown ids.
    """

    def __init__(self, strategy: PartitionStrategy, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        self.strategy = strategy
        self.num_shards = num_shards
        self._owner: dict[int, int] = {}

    def touch(self, vertex: int, label: int) -> int:
        """Record ``vertex`` (idempotent) and return its owning shard."""
        owner = self._owner.get(vertex)
        if owner is None:
            owner = self.strategy.shard_of(vertex, label, self.num_shards)
            self._owner[vertex] = owner
        return owner

    def owner(self, vertex: int) -> int:
        """The shard owning ``vertex`` (strategy fallback for unseen ids)."""
        owner = self._owner.get(vertex)
        if owner is None:
            return self.strategy.shard_of(vertex, 0, self.num_shards)
        return owner

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._owner

    def __len__(self) -> int:
        return len(self._owner)

    def vertices(self) -> Iterator[int]:
        return iter(self._owner)


class EdgeIdAllocator:
    """Global edge-id allocator shared by every shard.

    The recycling rule is :class:`~repro.graph.adjacency.FreeIdStacks`',
    the class ``DynamicGraph`` allocates from — so the id sequence (and
    with it every DEBI row index and embedding identity) is bit-identical
    between sharded and single-engine runs of the same stream.
    """

    def __init__(self, recycle_edge_ids: bool = True) -> None:
        self.recycle_edge_ids = recycle_edge_ids
        #: source vertex -> its stack's row
        self._rows: dict[int, int] = {}
        #: recyclable edge ids, stacked per source vertex
        self.free_ids = FreeIdStacks(self._rows)
        self._next_id = 0
        self.recycled = 0

    def allocate(self, src: int) -> int:
        return int(self.allocate_columns(np.array([src]))[0])

    def allocate_columns(self, srcs: np.ndarray) -> np.ndarray:
        """One id per insertion at ``srcs``, in event order."""
        rows, _ = intern_ids(self._rows, srcs.tolist())
        ids, recycled = self.free_ids.allocate(rows, self._next_id)
        self._next_id += rows.shape[0] - recycled
        self.recycled += recycled
        return ids

    def release_columns(self, srcs: np.ndarray, edge_ids: np.ndarray) -> None:
        """Return the ids of deleted edges, in deletion order."""
        if self.recycle_edge_ids:
            self.free_ids.push_batch(intern_ids(self._rows, srcs.tolist())[0], edge_ids)

    def release(self, src: int, edge_id: int) -> None:
        self.release_columns(np.array([src]), np.array([edge_id]))

    @property
    def num_placeholders(self) -> int:
        """Edge slots ever allocated (live + dead) — the global DEBI row count."""
        return self._next_id


class CrossShardAccess(Exception):
    """A shard-local reader touched a vertex another shard owns.

    Raised by :class:`ShardGuardView` inside pool workers: the worker
    only holds its own shard's snapshot, so the unit cannot be finished
    locally and is bounced back to the router for a scatter-gather run.
    """

    def __init__(self, vertex: int, owner: int, shard: int) -> None:
        super().__init__(
            f"vertex {vertex} is owned by shard {owner}, not local shard {shard}"
        )
        self.vertex = vertex
        self.owner = owner
        self.shard = shard


class ShardGuardView:
    """A graph view that refuses vertex-keyed reads at non-owned vertices.

    Wraps one shard's snapshot view inside a pool worker.  Adjacency at
    a vertex is complete only at the vertex's owner (a shard stores the
    edges incident to *its* vertices); reading a foreign vertex's pool
    locally would silently return a partial frontier, so the guard turns
    it into :class:`CrossShardAccess` and the chunk escapes to the
    router, which re-runs it with cross-shard forwarding.
    Edge-id-keyed reads (endpoint gathers of locally stored edges) pass
    through untouched.
    """

    def __init__(self, graph, strategy: PartitionStrategy, num_shards: int, shard: int) -> None:
        self._graph = graph
        self._strategy = strategy
        self._num_shards = num_shards
        self._shard = shard

    def _check(self, vertex: int) -> None:
        owner = self._strategy.shard_of(
            vertex, self._graph.vertex_label(vertex), self._num_shards
        )
        if owner != self._shard:
            raise CrossShardAccess(vertex, owner, self._shard)

    # --- vertex-keyed reads: guarded ---------------------------------
    def candidate_pool(self, vertex: int, out: bool, label: int | None = None):
        self._check(vertex)
        return self._graph.candidate_pool(vertex, out, label)

    def candidate_pools(self, anchors, out: bool, label: int | None = None):
        return concat_candidate_pools(self, anchors, out, label)

    def label_degrees(self, vertices, out: bool, label: int | None = None):
        return concat_label_degrees(self, vertices, out, label)

    def find_edges(self, src: int, dst: int, label: int | None = None) -> list[int]:
        self._check(src)
        return self._graph.find_edges(src, dst, label)

    def find_edges_batch(self, srcs, dsts):
        return concat_find_edges(self, srcs, dsts)

    def out_degree(self, vertex: int) -> int:
        self._check(vertex)
        return self._graph.out_degree(vertex)

    def in_degree(self, vertex: int) -> int:
        self._check(vertex)
        return self._graph.in_degree(vertex)

    def out_label_degree(self, vertex: int, label: int) -> int:
        self._check(vertex)
        return self._graph.out_label_degree(vertex, label)

    def in_label_degree(self, vertex: int, label: int) -> int:
        self._check(vertex)
        return self._graph.in_label_degree(vertex, label)

    # --- everything else: pass-through -------------------------------
    def __getattr__(self, name: str):
        return getattr(self._graph, name)
