"""Dynamic labelled multigraph on one columnar edge store.

This is the data-graph storage layer of Section II-A and the "Memory
recycling" paragraph of Section IV-A of the paper.  Every edge is stored
once, and every index over it is a flat numpy column:

**Edge columns.**  Growable ``src / dst / label / timestamp / alive``
arrays indexed by ``edge_id`` are the only copy of an edge.  An id that
was allocated but holds no live edge (a deleted edge, or a gap below a
forced id on a shard) is simply a row with ``alive == False``; the number
of rows is the number of *edge placeholders*, i.e. of DEBI rows.

**Adjacency.**  Per direction, all ``(vertex, label)`` partitions live in
one pooled int64 *arena*; a partition table (``start / size / capacity``
columns, one row per partition) says where.  A partition id is found
through one ``(vertex, label) -> id`` dict and remembered per edge, so
deletions never search for their partition.

* A labelled candidate pool is the zero-copy slice
  ``arena[start : start + size]`` — O(matching edges), not O(degree).
* A wildcard pool is *defined* as the vertex's partitions concatenated in
  partition creation order; a :class:`CSRGraphView` of an export returns
  every pool in exactly the same order as the live graph.
* Degrees (the ``f2``/``f3`` label-degree filters) are ``size`` reads.

**Insertion** groups a batch by partition with one stable argsort; a
partition that would overflow moves to the arena tail with at least
doubled capacity (one gather/scatter for all of them), then the new ids
are scattered behind the old ones.

**Deletion is order-preserving**: the affected partitions are compacted
in one vectorized pass, so a pool is always *its live edges in insertion
order*.  The paper words deletion as swap-with-last; that makes the pool
order depend on the order of the deletes, which a batch would have to
replay one by one.  Keeping the order makes removals commute — a batch
result is independent of the order of its ids and ``delete_edge`` is the
batch of one — and pool-internal order is not part of the engine
contract (identity sets, edge ids and scan counters are).

**Arena space.**  A moved partition abandons its old range.  Capacities
double, so the ranges one partition ever abandoned sum to less than its
current capacity; when the arena is full it is *repacked* — every
partition laid out afresh, abandoned ranges dropped — into a buffer of
twice the summed capacity.  Between repacks the arena therefore never
exceeds that, and a capacity never exceeds ``max(4, 2 * peak size)``.

**Recycling.**  The id of a deleted edge goes on the free list of its
source vertex and is handed to the next insertion at that vertex, newest
first, which keeps the number of placeholders — and the DEBI size — from
growing monotonically (Figure 17).  Stream deletions name a
``(src, dst, label)`` triple; the triple index resolves it to the live
parallel instances.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from itertools import chain, repeat
from typing import Iterator

import numpy as np

from repro.graph.edge import EdgeRecord
from repro.graph.stats import PlaceholderStats
from repro.utils.validation import GraphError

_EMPTY_IDS: list[int] = []
_EMPTY_ARRAY = np.empty(0, dtype=np.int64)
#: rows a growable column starts with — small, so constructing a graph allocates next to nothing
_INITIAL_ROWS = 16
#: smallest capacity a non-empty partition is given
_MIN_CAPACITY = 4
_EDGE_COLUMNS = (
    "_src", "_dst", "_label", "_timestamp", "_alive", "_out_part", "_in_part", "_edge_touched"
)
_PARTITION_COLUMNS = ("start", "size", "capacity", "vertex_pos", "label")


def expand_ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Indices of the half-open ranges ``[starts[i], starts[i] + sizes[i])``, concatenated.

    The one-gather replacement for a per-range slice-and-concatenate
    loop: ``array[expand_ranges(starts, sizes)]`` equals
    ``np.concatenate([array[s:s + n] for s, n in zip(starts, sizes)])``.
    """
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) - np.repeat(ends - sizes - starts, sizes)


def segment_counts(keep: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sum of ``keep`` (a mask or weights) over each of the back-to-back segments of ``sizes``."""
    running = np.zeros(keep.shape[0] + 1, dtype=np.int64)
    np.cumsum(keep, out=running[1:])
    ends = np.cumsum(sizes)
    return running[ends] - running[ends - sizes]


def concat_candidate_pools(graph, anchors: np.ndarray, out: bool, label: int | None):
    """``candidate_pools`` for a graph facade that only answers per vertex.

    Calls ``graph.candidate_pool`` once per anchor, so per-vertex routing
    and ownership checks of the facade still run for every anchor.
    """
    pools = [
        np.asarray(graph.candidate_pool(vertex, out, label), dtype=np.int64)
        for vertex in anchors.tolist()
    ]
    sizes = np.fromiter(map(len, pools), dtype=np.int64, count=len(pools))
    return (np.concatenate(pools) if pools else _EMPTY_ARRAY), sizes


def concat_label_degrees(graph, vertices: np.ndarray, out: bool, label: int | None) -> np.ndarray:
    """``label_degrees`` for a graph facade that only answers per vertex.

    Calls the facade's scalar degree read once per vertex, so per-vertex
    routing and ownership checks of the facade still run for every one.
    """
    if label is None:
        degrees = map(graph.out_degree if out else graph.in_degree, vertices.tolist())
    else:
        scalar = graph.out_label_degree if out else graph.in_label_degree
        degrees = map(scalar, vertices.tolist(), repeat(label))
    return np.fromiter(degrees, dtype=np.int64, count=vertices.shape[0])


def edges_between(graph, srcs: np.ndarray, dsts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``find_edges_batch`` from a graph's ``candidate_pools`` and ``endpoint_array``.

    Each distinct source's wildcard out-pool is gathered once and sorted by
    ``(source, destination, edge id)``; a pair's edges are then one
    contiguous, ascending run found by binary search, so the work follows
    the sources' out-degrees, not pairs times out-degree.
    """
    sources, src_rank = np.unique(srcs, return_inverse=True)
    pool_ids, pool_sizes = graph.candidate_pools(sources, True, None)
    pool_dsts = graph.endpoint_array(pool_ids, True)
    targets, dst_rank = np.unique(np.concatenate([dsts, pool_dsts]), return_inverse=True)
    width = targets.shape[0]
    pool_keys = np.repeat(np.arange(sources.shape[0]), pool_sizes) * width + dst_rank[dsts.shape[0] :]
    order = np.lexsort((pool_ids, pool_keys))
    pool_keys = pool_keys[order]
    pair_keys = src_rank * width + dst_rank[: dsts.shape[0]]
    first = np.searchsorted(pool_keys, pair_keys, side="left")
    sizes = np.searchsorted(pool_keys, pair_keys, side="right") - first
    return pool_ids[order[expand_ranges(first, sizes)]], sizes


def concat_find_edges(graph, srcs: np.ndarray, dsts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``find_edges_batch`` for a graph facade that only answers per pair.

    Calls ``graph.find_edges`` once per pair, so per-vertex routing and
    ownership checks of the facade still run for every pair.
    """
    runs = list(map(graph.find_edges, srcs.tolist(), dsts.tolist()))
    sizes = np.fromiter(map(len, runs), dtype=np.int64, count=len(runs))
    return np.fromiter(chain.from_iterable(runs), dtype=np.int64, count=int(sizes.sum())), sizes


def _coalesce_ranges(ordered: np.ndarray) -> list[tuple[int, int]]:
    """Turn an ascending index array into half-open ``(start, stop)`` runs."""
    if ordered.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(ordered) != 1)
    starts = np.concatenate([ordered[:1], ordered[breaks + 1]])
    stops = np.concatenate([ordered[breaks], ordered[-1:]]) + 1
    return list(zip(starts.tolist(), stops.tolist()))


def _grown(column: np.ndarray, used: int, needed: int) -> np.ndarray:
    """A copy of ``column`` with at least doubled room for ``needed`` rows; unused rows are zero."""
    grown = np.zeros(max(needed, 2 * column.shape[0]), dtype=column.dtype)
    grown[:used] = column[:used]
    return grown


def _first_duplicate(ids: np.ndarray) -> int | None:
    ordered = np.sort(ids)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    return int(repeated[0]) if repeated.size else None


class _Adjacency:
    """One direction's adjacency: every ``(vertex, label)`` partition in one int64 arena."""

    def __init__(self, position: dict[int, int]) -> None:
        #: the graph's vertex -> insertion rank table (shared, not owned)
        self.position = position
        self.arena = np.empty(_INITIAL_ROWS, dtype=np.int64)
        #: arena slots handed out so far: live ranges, their slack, abandoned ranges
        self.tail = 0
        #: (vertex, label) -> partition id; ids are dense, in creation order, never reused
        self.index: dict[tuple[int, int], int] = {}
        # The partition table, one row per partition id; ``vertex_pos`` is the
        # owner's position in vertex insertion order (the CSR export's row).
        self.start = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self.size = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self.capacity = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self.vertex_pos = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self.label = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        # Derived from ``vertex_pos`` on demand (wildcard reads only): vertex
        # position -> its partition ids in creation order, over the first
        # ``_grouped`` partitions.
        self._by_position: dict[int, list[int]] = {}
        self._grouped = 0

    def copy(self, position: dict[int, int]) -> "_Adjacency":
        clone = _Adjacency(position)
        clone.arena = self.arena.copy()
        clone.tail = self.tail
        clone.index = dict(self.index)
        for name in _PARTITION_COLUMNS:
            setattr(clone, name, getattr(self, name).copy())
        return clone

    # ------------------------------------------------------------------ partitions
    def _create(self, keys: list[tuple[int, int]]) -> None:
        """Append one empty partition per key; ``keys`` are new and distinct."""
        first = len(self.index)
        count = first + len(keys)
        if count > self.start.shape[0]:
            for name in _PARTITION_COLUMNS:
                setattr(self, name, _grown(getattr(self, name), first, count))
        vertices, labels = zip(*keys)
        self.vertex_pos[first:count] = list(map(self.position.__getitem__, vertices))
        self.label[first:count] = labels
        self.index.update(zip(keys, range(first, count)))

    def partition_id(self, vertex: int, label: int) -> int:
        part = self.index.get((vertex, label))
        if part is None:
            part = len(self.index)
            self._create([(vertex, label)])
        return part

    def partition_ids(self, vertices: list[int], labels: list[int]) -> np.ndarray:
        """The partition of every ``(vertex, label)`` pair, created in pair order if new."""
        keys = list(zip(vertices, labels))
        index = self.index
        parts = list(map(index.get, keys))
        if None in parts:
            self._create([key for key in dict.fromkeys(keys) if key not in index])
            parts = list(map(index.__getitem__, keys))
        return np.array(parts, dtype=np.int64)

    def _group_by_vertex(self) -> dict[int, list[int]]:
        """``_by_position``, brought up to date with the partitions created since last asked."""
        count = len(self.index)
        if self._grouped < count:
            grouped = self._by_position
            created = self.vertex_pos[self._grouped : count].tolist()
            for part, position in enumerate(created, self._grouped):
                grouped.setdefault(position, []).append(part)
            self._grouped = count
        return self._by_position

    def parts_of(self, vertex: int) -> list[int]:
        """The partition ids of ``vertex`` in creation order (do not mutate)."""
        return self._group_by_vertex().get(self.position.get(vertex), _EMPTY_IDS)

    def _relocate(self, parts: np.ndarray, need: np.ndarray) -> None:
        """Move ``parts`` to the arena tail with room for ``need`` entries, at least doubled."""
        capacity = np.maximum(np.maximum(need, 2 * self.capacity[parts]), _MIN_CAPACITY)
        room = int(capacity.sum())
        if self.tail + room > self.arena.shape[0]:
            self.capacity[parts] = capacity
            self._repack()
            return
        size = self.size[parts]
        start = self.tail + np.cumsum(capacity) - capacity
        self.arena[expand_ranges(start, size)] = self.arena[
            expand_ranges(self.start[parts], size)
        ]
        self.start[parts] = start
        self.capacity[parts] = capacity
        self.tail += room

    def _repack(self) -> None:
        """Lay every partition out afresh in a new arena, dropping abandoned ranges."""
        count = len(self.index)
        capacity = self.capacity[:count]
        size = self.size[:count]
        start = np.cumsum(capacity) - capacity
        self.tail = int(capacity.sum())
        arena = np.empty(max(2 * self.tail, _INITIAL_ROWS), dtype=np.int64)
        arena[expand_ranges(start, size)] = self.arena[expand_ranges(self.start[:count], size)]
        self.arena = arena
        self.start[:count] = start

    # ------------------------------------------------------------------ mutation
    def append_one(self, part: int, edge_id: int) -> None:
        """:meth:`append` of one edge, on scalars."""
        size = self.size.item(part)
        start = self.start.item(part)
        if size == self.capacity.item(part):
            capacity = max(2 * size, _MIN_CAPACITY)
            self.capacity[part] = capacity
            if self.tail + capacity > self.arena.shape[0]:
                self._repack()
                start = self.start.item(part)
            else:
                self.arena[self.tail : self.tail + size] = self.arena[start : start + size]
                self.start[part] = start = self.tail
                self.tail += capacity
        self.arena[start + size] = edge_id
        self.size[part] = size + 1

    def append(self, edge_parts: np.ndarray, edge_ids: np.ndarray) -> None:
        """Append ``edge_ids[i]`` to partition ``edge_parts[i]``, batch order kept per partition."""
        order = np.argsort(edge_parts, kind="stable")
        grouped = edge_parts[order]
        first = np.flatnonzero(np.concatenate([[True], grouped[1:] != grouped[:-1]]))
        parts = grouped[first]
        counts = np.diff(first, append=grouped.shape[0])
        size = self.size[parts]
        need = size + counts
        overflow = need > self.capacity[parts]
        if overflow.any():
            self._relocate(parts[overflow], need[overflow])
        self.arena[expand_ranges(self.start[parts] + size, counts)] = edge_ids[order]
        self.size[parts] = need

    def remove_dead(self, edge_parts: np.ndarray, alive: np.ndarray) -> None:
        """Compact the partitions in ``edge_parts`` down to their live members, order kept."""
        parts = np.unique(edge_parts)
        start = self.start[parts]
        size = self.size[parts]
        members = self.arena[expand_ranges(start, size)]
        keep = alive[members]
        kept = segment_counts(keep, size)
        self.arena[expand_ranges(start, kept)] = members[keep]
        self.size[parts] = kept

    def remove_one(self, part: int, edge_id: int) -> None:
        """:meth:`remove_dead` of one edge, on scalars."""
        members = self._slice(part)
        at = int((members == edge_id).argmax())
        members[at:-1] = members[at + 1 :]
        self.size[part] = members.shape[0] - 1

    # ------------------------------------------------------------------ reads
    def _slice(self, part: int) -> np.ndarray:
        start = self.start.item(part)
        return self.arena[start : start + self.size.item(part)]

    def pool(self, vertex: int, label: int | None) -> np.ndarray:
        """The candidate pool of ``vertex``: one partition, or all of them for ``label=None``."""
        if label is not None:
            part = self.index.get((vertex, label))
            return _EMPTY_ARRAY if part is None else self._slice(part)
        parts = self.parts_of(vertex)
        if len(parts) == 1:
            return self._slice(parts[0])
        return np.concatenate(list(map(self._slice, parts))) if parts else _EMPTY_ARRAY

    def locate(
        self, vertices: list[int], label: int | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where the pools of ``vertices`` lie: ``(partitions, their sizes, pool size per vertex)``.

        ``label=None`` lists all of a vertex's partitions in creation order;
        a label lists exactly one per vertex, a missing one with size 0.
        """
        n = len(vertices)
        if label is None:
            positions = map(self.position.get, vertices)
            owned = list(map(self._group_by_vertex().get, positions, repeat(_EMPTY_IDS)))
            counts = np.fromiter(map(len, owned), dtype=np.int64, count=n)
            parts = np.fromiter(
                chain.from_iterable(owned), dtype=np.int64, count=int(counts.sum())
            )
            part_sizes = self.size[parts]
            return parts, part_sizes, segment_counts(part_sizes, counts)
        parts = np.fromiter(
            map(self.index.get, zip(vertices, repeat(label)), repeat(-1)),
            dtype=np.int64,
            count=n,
        )
        sizes = np.where(parts >= 0, self.size[parts], 0)
        return parts, sizes, sizes

    def pools(self, vertices: list[int], label: int | None) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`pool` of every vertex: ``(pools concatenated, size per vertex)``."""
        parts, part_sizes, sizes = self.locate(vertices, label)
        return self.arena[expand_ranges(self.start[parts], part_sizes)], sizes

    def degree(self, vertex: int) -> int:
        return sum(map(self.size.item, self.parts_of(vertex)))

    def export(self, num_vertices: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(group_vptr, group_labels, group_indptr, indices)`` over the non-empty partitions.

        Groups are ordered by vertex position, then by partition creation —
        the order :meth:`pool` concatenates a wildcard pool in.
        """
        live = np.flatnonzero(self.size[: len(self.index)])
        live = live[np.argsort(self.vertex_pos[live], kind="stable")]
        sizes = self.size[live]
        group_vptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.vertex_pos[live], minlength=num_vertices), out=group_vptr[1:])
        group_indptr = np.zeros(live.shape[0] + 1, dtype=np.int64)
        np.cumsum(sizes, out=group_indptr[1:])
        indices = self.arena[expand_ranges(self.start[live], sizes)]
        return group_vptr, self.label[live], group_indptr, indices

    def violation(
        self, live_ids: np.ndarray, edge_part: np.ndarray, endpoint: np.ndarray,
        edge_label: np.ndarray,
    ) -> str | None:
        """The first inconsistency with the edge columns, or None (``check_invariants``)."""
        count = len(self.index)
        start, size, capacity = self.start[:count], self.size[:count], self.capacity[:count]
        if (size > capacity).any():
            return f"partition {int((size > capacity).argmax())} is larger than its capacity"
        placed = np.flatnonzero(capacity)
        placed = placed[np.argsort(start[placed])]
        stops = start[placed] + capacity[placed]
        if (start[placed][1:] < stops[:-1]).any():
            return "two partitions overlap in the arena"
        if placed.size and not int(stops[-1]) <= self.tail <= self.arena.shape[0]:
            return "a partition lies beyond the arena tail"
        keys = list(self.index)
        if list(self.index.values()) != list(range(count)):
            return "partition ids are not dense in creation order"
        owners = [vertex for vertex, _ in keys]
        if self.vertex_pos[:count].tolist() != [self.position.get(vertex) for vertex in owners]:
            return "a partition's vertex position disagrees with the vertex table"
        if self.label[:count].tolist() != [label for _, label in keys]:
            return "a partition's label column disagrees with its key"
        members = self.arena[expand_ranges(start, size)]
        if not np.array_equal(np.sort(members), live_ids):
            return "the partitions do not hold exactly the live edges"
        holder = np.repeat(np.arange(count), size)
        wrong = np.flatnonzero(
            (edge_part[members] != holder)
            | (endpoint[members] != np.asarray(owners, dtype=np.int64)[holder])
            | (edge_label[members] != self.label[:count][holder])
        )
        if wrong.size:
            edge_id, part = int(members[wrong[0]]), int(holder[wrong[0]])
            return f"edge {edge_id} sits in partition {part}, not its own"
        return None


def check_vertex_ids(src: np.ndarray, dst: np.ndarray) -> None:
    """Refuse a (non-empty) insert batch naming a negative vertex, before the graph
    or a shard router writes anything for it: DEBI roots are indexed by vertex id."""
    lowest = min(int(src.min()), int(dst.min()))
    if lowest < 0:
        raise GraphError(f"vertex id {lowest} is negative")


class DynamicGraph:
    """A directed labelled multigraph supporting streaming updates.

    Parameters
    ----------
    recycle_edge_ids:
        When True (default, the paper's design) edge ids of deleted edges
        are reused for later insertions at the same source vertex.  When
        False every insertion allocates a fresh id; this mode exists to
        reproduce the "without reclaiming" curve of Figure 17.
    """

    def __init__(self, recycle_edge_ids: bool = True) -> None:
        self.recycle_edge_ids = recycle_edge_ids

        # Edge columns indexed by edge id — the only copy of every edge.
        # ``_rows`` ids have been allocated so far (live or dead); rows that
        # were never assigned (beyond ``_rows``, or a gap below a forced id)
        # are all-zero, i.e. dead.  The ``_*_part`` columns remember each
        # live edge's partition ids.
        self._rows = 0
        self._src = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self._dst = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self._label = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self._timestamp = np.zeros(_INITIAL_ROWS, dtype=np.float64)
        self._alive = np.zeros(_INITIAL_ROWS, dtype=bool)
        self._out_part = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self._in_part = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        # Vertices are append-only; a vertex's position is its insertion rank.
        self._vertex_labels: dict[int, int] = {}
        self._vertex_position: dict[int, int] = {}
        self._out = _Adjacency(self._vertex_position)
        self._in = _Adjacency(self._vertex_position)

        # Edge-id recycling: free ids keyed by the source vertex that owned
        # them; the total lets an insert batch skip the recycling replay
        # when nothing is recyclable.
        self._free_ids: dict[int, list[int]] = defaultdict(list)
        self._num_free_ids = 0

        # Resolution of (src, dst, label) triples to live edge ids (multi-edge aware).
        self._triple_index: dict[tuple[int, int, int], list[int]] = defaultdict(list)

        self._num_live_edges = 0
        self.stats = PlaceholderStats()

        # The delta journal: which edge ids and which vertices (by position)
        # were touched since the last CSR export, and the (vertices,
        # placeholders) that export covered — what export_csr_delta needs to
        # say which element ranges of the new export may differ from it.
        self._edge_touched = np.zeros(_INITIAL_ROWS, dtype=bool)
        self._vertex_touched = np.zeros(_INITIAL_ROWS, dtype=bool)
        self._exported: tuple[int, int] | None = None
        # Monotone export counter: the shared-snapshot writer uses it to
        # detect interloping exports (anything that consumed the journal
        # between two publishes) before trusting a dirty-slice copy.
        self._export_count = 0

    def __getstate__(self) -> dict:
        """Drop the export bookkeeping when pickling (checkpoints).

        A restored graph starts from a clean full-export state.  Everything
        else — including the edge-id free lists, which make replayed
        insertions allocate the same ids the original run used — survives
        the round trip.
        """
        state = self.__dict__.copy()
        state["_exported"] = None
        state["_edge_touched"] = np.zeros_like(self._edge_touched)
        state["_vertex_touched"] = np.zeros_like(self._vertex_touched)
        return state

    # ------------------------------------------------------------------ vertices
    def add_vertex(self, vertex: int, label: int = 0) -> None:
        """Register ``vertex`` with ``label``; later calls may not change the label."""
        existing = self._vertex_labels.get(vertex)
        if existing is None:
            self._vertex_position[vertex] = len(self._vertex_labels)
            self._vertex_labels[vertex] = label
        elif existing != label and label != 0:
            raise GraphError(
                f"vertex {vertex} already has label {existing}, cannot relabel to {label}"
            )

    def has_vertex(self, vertex: int) -> bool:
        return vertex in self._vertex_labels

    def vertex_label(self, vertex: int) -> int:
        """Return the label of ``vertex`` (0 for unlabelled/unknown vertices)."""
        return self._vertex_labels.get(vertex, 0)

    def vertex_labels(self, vertices) -> np.ndarray:
        """:meth:`vertex_label` of every entry of a vertex-id array, as int64."""
        ids = vertices.tolist() if hasattr(vertices, "tolist") else vertices
        return np.fromiter(
            map(self._vertex_labels.get, ids, repeat(0)), dtype=np.int64, count=len(ids)
        )

    def vertices(self) -> Iterator[int]:
        return iter(self._vertex_labels)

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_labels)

    # ------------------------------------------------------------------ edges
    def add_edge(
        self,
        src: int,
        dst: int,
        label: int = 0,
        timestamp: float = 0.0,
        src_label: int | None = None,
        dst_label: int | None = None,
        edge_id: int | None = None,
    ) -> int:
        """Insert a new edge instance and return its ``edge_id``.

        Parallel edges (same ``src``/``dst``/``label``) are distinct
        instances with distinct ids — this is the multigraph property the
        paper relies on for context-aware matching.

        ``edge_id`` forces the id instead of allocating one: the
        partitioned mutation API.  Engine shards share one global id
        space (a router-level allocator hands out ids, so DEBI rows and
        embedding identities agree across shards); a shard storing only
        part of that space leaves the skipped ids as dead placeholder
        rows, exactly like deleted-but-unrecycled edges.
        """
        if src < 0 or dst < 0:
            raise GraphError(f"vertex id {min(src, dst)} is negative")
        if edge_id is not None:
            self._check_forced_ids(np.array([edge_id]))
        self.add_vertex(src, src_label if src_label is not None else self.vertex_label(src))
        self.add_vertex(dst, dst_label if dst_label is not None else self.vertex_label(dst))
        if edge_id is None:
            edge_id = self._rows
            free = self._free_ids.get(src) if self.recycle_edge_ids else None
            if free:
                edge_id = free.pop()
                self._num_free_ids -= 1
                self.stats.record_recycle()
        self._extend_rows(edge_id + 1)
        self._src[edge_id] = src
        self._dst[edge_id] = dst
        self._label[edge_id] = label
        self._timestamp[edge_id] = timestamp
        self._alive[edge_id] = True
        out_part = self._out_part[edge_id] = self._out.partition_id(src, label)
        self._out.append_one(out_part, edge_id)
        in_part = self._in_part[edge_id] = self._in.partition_id(dst, label)
        self._in.append_one(in_part, edge_id)
        self._triple_index[(src, dst, label)].append(edge_id)
        self._num_live_edges += 1
        self._touch(edge_id, out_part, in_part)
        self.stats.record_insert(placeholders=self._rows, live=self._num_live_edges)
        return edge_id

    def _touch(self, edge_ids, out_parts, in_parts) -> None:
        """Journal edges (ids and their partitions, scalars or arrays) as changed."""
        if len(self._vertex_labels) > self._vertex_touched.shape[0]:
            self._vertex_touched = _grown(
                self._vertex_touched, self._vertex_touched.shape[0], len(self._vertex_labels)
            )
        self._edge_touched[edge_ids] = True
        self._vertex_touched[self._out.vertex_pos[out_parts]] = True
        self._vertex_touched[self._in.vertex_pos[in_parts]] = True

    def _extend_rows(self, rows: int) -> None:
        """Make every id below ``rows`` a placeholder (dead and zeroed until assigned)."""
        if rows > self._src.shape[0]:
            for name in _EDGE_COLUMNS:
                setattr(self, name, _grown(getattr(self, name), self._rows, rows))
        self._rows = max(rows, self._rows)

    def delete_edge(self, edge_id: int) -> EdgeRecord:
        """Delete the edge instance ``edge_id`` and return its last record."""
        record = self.edge(edge_id)
        self._alive[edge_id] = False
        out_part, in_part = self._out_part.item(edge_id), self._in_part.item(edge_id)
        self._out.remove_one(out_part, edge_id)
        self._in.remove_one(in_part, edge_id)
        self._touch(edge_id, out_part, in_part)
        self._forget([record])
        return record

    def delete_edge_instance(self, src: int, dst: int, label: int = 0) -> EdgeRecord:
        """Delete the most recently inserted live edge matching the triple.

        Stream deletions are expressed as triples (the paper negates the
        endpoints on the wire); this resolves the triple to a concrete
        edge instance.
        """
        ids = self._triple_index.get((src, dst, label))
        if not ids:
            raise GraphError(f"no live edge ({src}, {dst}, {label}) to delete")
        return self.delete_edge(ids[-1])

    # ------------------------------------------------------------------ accessors
    def edge(self, edge_id: int) -> EdgeRecord:
        """Return the :class:`EdgeRecord` for a *live* ``edge_id``."""
        if not self.is_alive(edge_id):
            raise GraphError(f"edge id {edge_id} is not a live edge")
        return EdgeRecord(
            edge_id,
            self._src.item(edge_id),
            self._dst.item(edge_id),
            self._label.item(edge_id),
            self._timestamp.item(edge_id),
        )

    def is_alive(self, edge_id: int) -> bool:
        return 0 <= edge_id < self._rows and self._alive.item(edge_id)

    def out_edges(self, vertex: int) -> list[int]:
        """Edge ids of live edges leaving ``vertex``, in wildcard-pool order."""
        return self._out.pool(vertex, None).tolist()

    def in_edges(self, vertex: int) -> list[int]:
        """Edge ids of live edges entering ``vertex``, in wildcard-pool order."""
        return self._in.pool(vertex, None).tolist()

    def out_edges_with_label(self, vertex: int, label: int) -> np.ndarray:
        """Live out-edges of ``vertex`` carrying ``label`` (zero-copy int64 view)."""
        return self._out.pool(vertex, label)

    def in_edges_with_label(self, vertex: int, label: int) -> np.ndarray:
        """Live in-edges of ``vertex`` carrying ``label`` (zero-copy int64 view)."""
        return self._in.pool(vertex, label)

    def candidate_pool(self, vertex: int, out: bool, label: int | None = None) -> np.ndarray:
        """The candidate edge pool for one extension step (do not mutate).

        A concrete label returns the zero-copy partition view, so a
        labelled step touches O(matching edges) instead of O(degree);
        ``label=None`` (wildcard) returns the vertex's partitions
        concatenated in creation order.
        """
        return (self._out if out else self._in).pool(vertex, label)

    def candidate_pools(self, anchors: np.ndarray, out: bool, label: int | None = None):
        """Batched :meth:`candidate_pool`: ``(flat_ids, sizes)`` for an anchor array.

        ``flat_ids`` is the anchors' pools concatenated in anchor order
        (each in :meth:`candidate_pool` order) and ``sizes[i]`` the length
        of anchor ``i``'s pool; unknown vertices and empty partitions
        contribute nothing.  One partition-table gather per matching-order
        step replaces one :meth:`candidate_pool` call per distinct anchor.
        """
        return (self._out if out else self._in).pools(anchors.tolist(), label)

    def label_degrees(self, vertices: np.ndarray, out: bool, label: int | None = None):
        """Batched label degree: the :meth:`candidate_pools` sizes, without the pools.

        ``label=None`` is the total out- (or in-) degree; an unknown vertex
        has degree 0.  One partition-table ``size`` gather.
        """
        return (self._out if out else self._in).locate(vertices.tolist(), label)[2]

    def endpoint_array(self, edge_ids: np.ndarray, take_dst: bool) -> np.ndarray:
        """Vectorized endpoint gather: dst (or src) vertex per edge id."""
        return (self._dst if take_dst else self._src)[edge_ids]

    def edge_labels(self, edge_ids) -> np.ndarray:
        """Edge-label gather for an id array, without building records."""
        return self._label[np.asarray(edge_ids, dtype=np.int64)]

    def edge_timestamps(self, edge_ids) -> np.ndarray:
        """Timestamp gather for an id array, without building records."""
        return self._timestamp[np.asarray(edge_ids, dtype=np.int64)]

    def incident_edges(self, vertex: int) -> Iterator[int]:
        """All live edge ids touching ``vertex`` (out first, then in)."""
        yield from self.out_edges(vertex)
        yield from self.in_edges(vertex)

    def out_degree(self, vertex: int) -> int:
        return self._out.degree(vertex)

    def in_degree(self, vertex: int) -> int:
        return self._in.degree(vertex)

    def degree(self, vertex: int) -> int:
        return self.out_degree(vertex) + self.in_degree(vertex)

    def out_label_degree(self, vertex: int, label: int) -> int:
        """Number of live out-edges of ``vertex`` carrying ``label`` (O(1))."""
        part = self._out.index.get((vertex, label))
        return 0 if part is None else self._out.size.item(part)

    def in_label_degree(self, vertex: int, label: int) -> int:
        """Number of live in-edges of ``vertex`` carrying ``label`` (O(1))."""
        part = self._in.index.get((vertex, label))
        return 0 if part is None else self._in.size.item(part)

    def _records(self, ids: np.ndarray) -> Iterator[EdgeRecord]:
        return map(
            EdgeRecord,
            ids.tolist(),
            self._src[ids].tolist(),
            self._dst[ids].tolist(),
            self._label[ids].tolist(),
            self._timestamp[ids].tolist(),
        )

    def edges(self) -> Iterator[EdgeRecord]:
        """Iterate over all live edge records."""
        return self._records(np.flatnonzero(self._alive[: self._rows]))

    def find_edges(self, src: int, dst: int, label: int | None = None) -> list[int]:
        """Return live edge ids from ``src`` to ``dst`` (optionally with ``label``).

        Without a label the ids come in ascending order: witness checks stop
        at the first match, so their scan counts must not depend on how the
        store happens to lay a pool out.
        """
        triples = self._triple_index
        if label is not None:
            return list(triples.get((src, dst, label), ()))
        labels = map(self._out.label.item, self._out.parts_of(src))
        return sorted(chain.from_iterable(triples.get((src, dst, lb), ()) for lb in labels))

    def find_edges_batch(self, srcs: np.ndarray, dsts: np.ndarray):
        """Batched :meth:`find_edges` without a label: ``(flat_ids, sizes)`` for pair arrays.

        ``flat_ids`` is the live edge ids from ``srcs[i]`` to ``dsts[i]``,
        ascending, concatenated in pair order, and ``sizes[i]`` their number.
        """
        return edges_between(self, srcs, dsts)

    @property
    def num_edges(self) -> int:
        """Number of currently live edge instances."""
        return self._num_live_edges

    @property
    def num_placeholders(self) -> int:
        """Number of edge slots ever allocated (live + dead, i.e. DEBI rows)."""
        return self._rows

    # ------------------------------------------------------------------ bulk mutation
    def apply_insert_columns(
        self,
        src,
        dst,
        label=None,
        timestamp=None,
        src_label=None,
        dst_label=None,
        edge_ids=None,
    ) -> list[int]:
        """Insert a whole batch from contiguous columns; returns the edge ids.

        The columnar counterpart of calling :meth:`add_edge` per event.
        Columns are int64 (``timestamp`` float64) arrays of equal length;
        missing columns default to zeros.  The resulting graph state —
        including the **edge-id sequence** — is identical to the per-edge
        path: the per-source LIFO free-list replay below hands out exactly
        the ids :meth:`add_edge` would, fresh ids are consecutive, and
        partitions are created in event order.

        ``edge_ids`` forces the ids (the sharded path, where a router-level
        allocator owns the id space).  A negative vertex id, or a forced
        id that is negative, already live or repeated in the batch, is
        rejected with :class:`GraphError` before anything is mutated.
        """
        src_arr = np.asarray(src, dtype=np.int64)
        n = int(src_arr.shape[0])
        if n == 0:
            return []
        dst_arr = np.asarray(dst, dtype=np.int64)
        check_vertex_ids(src_arr, dst_arr)
        zeros = np.zeros(n, dtype=np.int64)
        label_arr = zeros if label is None else np.asarray(label, dtype=np.int64)
        ts_arr = (
            np.zeros(n, dtype=np.float64) if timestamp is None
            else np.asarray(timestamp, dtype=np.float64)
        )
        slab_arr = zeros if src_label is None else np.asarray(src_label, dtype=np.int64)
        dlab_arr = zeros if dst_label is None else np.asarray(dst_label, dtype=np.int64)
        if edge_ids is not None:
            ids_arr = np.asarray(edge_ids, dtype=np.int64)
            self._check_forced_ids(ids_arr)
        src_list = src_arr.tolist()
        dst_list = dst_arr.tolist()
        label_list = label_arr.tolist()
        # vertices are mentioned in per-event src-then-dst order
        self._register_vertices(
            list(chain.from_iterable(zip(src_list, dst_list))),
            np.stack([slab_arr, dlab_arr], axis=1).ravel().tolist(),
        )

        # -- edge ids: replay add_edge's allocation exactly — per-source LIFO
        #    recycling first, then consecutive fresh ids from the current end
        if edge_ids is None:
            fresh = np.arange(self._rows, self._rows + n, dtype=np.int64)
            if self.recycle_edge_ids and self._num_free_ids:
                recycled = [
                    free.pop() if free else -1
                    for free in map(self._free_ids.get, src_list)
                ]
                ids_arr = np.array(recycled, dtype=np.int64)
                reused = ids_arr >= 0
                num_recycled = int(reused.sum())
                ids_arr[~reused] = fresh[: n - num_recycled]
                self._num_free_ids -= num_recycled
                self.stats.recycled += num_recycled
            else:
                ids_arr = fresh
        ids_list = ids_arr.tolist()

        # -- edge columns: one scatter each
        self._extend_rows(int(ids_arr.max()) + 1)
        self._src[ids_arr] = src_arr
        self._dst[ids_arr] = dst_arr
        self._label[ids_arr] = label_arr
        self._timestamp[ids_arr] = ts_arr
        self._alive[ids_arr] = True

        # -- adjacency: group by partition, grow what overflows, scatter the ids
        out_parts = self._out.partition_ids(src_list, label_list)
        self._out_part[ids_arr] = out_parts
        self._out.append(out_parts, ids_arr)
        in_parts = self._in.partition_ids(dst_list, label_list)
        self._in_part[ids_arr] = in_parts
        self._in.append(in_parts, ids_arr)
        triple_index = self._triple_index
        for key, edge_id in zip(zip(src_list, dst_list, label_list), ids_list):
            triple_index[key].append(edge_id)

        # -- accounting (bulk-equivalent to the per-event record_insert calls:
        #    placeholders and live counts grow monotonically within an insert
        #    batch, so the running peak maxes equal the final-value maxes)
        self._num_live_edges += n
        self._touch(ids_arr, out_parts, in_parts)
        stats = self.stats
        stats.inserts += n
        stats.peak_placeholders = max(stats.peak_placeholders, self._rows)
        stats.peak_live = max(stats.peak_live, self._num_live_edges)
        return ids_list

    def _check_forced_ids(self, ids: np.ndarray) -> None:
        if (ids < 0).any():
            raise GraphError(f"edge id {int(ids.min())} is negative")
        taken = ids[ids < self._rows]
        live = taken[self._alive[taken]]
        if live.size:
            raise GraphError(f"edge id {int(live[0])} is already a live edge")
        repeated = _first_duplicate(ids)
        if repeated is not None:
            raise GraphError(f"edge id {repeated} is forced twice in one batch")

    def _register_vertices(self, vertices: list[int], given: list[int]) -> None:
        """:meth:`add_vertex` over an event-ordered sequence of (vertex, label) mentions."""
        labels = self._vertex_labels
        known = list(map(labels.get, vertices))
        if None in known:
            first_given = dict(zip(reversed(vertices), reversed(given)))  # earliest mention wins
            for vertex in dict.fromkeys(vertices):
                if vertex not in labels:
                    self._vertex_position[vertex] = len(labels)
                    labels[vertex] = first_given[vertex]
            known = list(map(labels.__getitem__, vertices))
        given_arr = np.array(given, dtype=np.int64)
        if given_arr.any():
            conflict = (given_arr != 0) & (given_arr != np.array(known, dtype=np.int64))
            if conflict.any():
                at = int(conflict.argmax())
                raise GraphError(
                    f"vertex {vertices[at]} already has label {known[at]}, "
                    f"cannot relabel to {given[at]}"
                )

    def apply_delete_columns(self, edge_ids) -> list[EdgeRecord]:
        """Delete a batch of edge ids and return their records, in batch order.

        An id that is negative, out of range, dead or repeated in the batch
        is rejected with :class:`GraphError` before anything is mutated.
        Every affected partition is compacted in one order-preserving pass,
        so the resulting pools do not depend on the order of ``edge_ids``;
        the per-source free lists and the triple index are updated in batch
        order, exactly as per-id :meth:`delete_edge` calls would.
        """
        ids = np.asarray(edge_ids, dtype=np.int64)
        n = int(ids.shape[0])
        if n == 0:
            return []
        dead = (ids < 0) | (ids >= self._rows)
        if not dead.any():
            dead = ~self._alive[ids]
        if dead.any():
            raise GraphError(f"edge id {int(ids[dead][0])} is not a live edge")
        repeated = _first_duplicate(ids)
        if repeated is not None:
            raise GraphError(f"edge id {repeated} is deleted twice in one batch")

        records = list(self._records(ids))
        self._alive[ids] = False
        out_parts, in_parts = self._out_part[ids], self._in_part[ids]
        self._out.remove_dead(out_parts, self._alive)
        self._in.remove_dead(in_parts, self._alive)
        self._touch(ids, out_parts, in_parts)
        self._forget(records)
        return records

    def _forget(self, records: list[EdgeRecord]) -> None:
        """Everything a delete does besides the columns and partitions, in record order."""
        triple_index = self._triple_index
        for edge_id, src, dst, label, _ in records:
            instances = triple_index[(src, dst, label)]
            if len(instances) == 1:
                del triple_index[(src, dst, label)]
            else:  # swap-with-last: later deletes of the triple resolve against this order
                instances[instances.index(edge_id)] = instances[-1]
                instances.pop()
        if self.recycle_edge_ids:
            free_ids = self._free_ids
            for edge_id, src, _, _, _ in records:
                free_ids[src].append(edge_id)
            self._num_free_ids += len(records)
        self._num_live_edges -= len(records)
        self.stats.deletes += len(records)
        self.stats.peak_placeholders = max(self.stats.peak_placeholders, self._rows)

    def copy(self) -> "DynamicGraph":
        """Deep copy of the live graph (dead placeholders are preserved)."""
        clone = DynamicGraph(recycle_edge_ids=self.recycle_edge_ids)
        for name in _EDGE_COLUMNS:
            setattr(clone, name, getattr(self, name).copy())
        clone._edge_touched[:] = False  # the copy starts with an empty journal
        clone._rows = self._rows
        clone._vertex_labels = dict(self._vertex_labels)
        clone._vertex_position.update(self._vertex_position)
        clone._out = self._out.copy(clone._vertex_position)
        clone._in = self._in.copy(clone._vertex_position)
        clone._free_ids = defaultdict(list, {k: list(v) for k, v in self._free_ids.items()})
        clone._num_free_ids = self._num_free_ids
        clone._triple_index = defaultdict(list, {k: list(v) for k, v in self._triple_index.items()})
        clone._num_live_edges = self._num_live_edges
        return clone

    def check_invariants(self) -> None:
        """Raise :class:`GraphError` naming the first place the structures disagree.

        Cross-checks the edge columns, both partition arenas, the triple
        index, the free lists and the live-edge count against each other.
        """
        rows = self._rows
        live = np.flatnonzero(self._alive[:rows])
        if live.shape[0] != self._num_live_edges:
            raise GraphError(f"{live.shape[0]} alive rows but num_edges is {self._num_live_edges}")
        for name, adjacency, parts, endpoint in (
            ("out", self._out, self._out_part, self._src),
            ("in", self._in, self._in_part, self._dst),
        ):
            problem = adjacency.violation(live, parts, endpoint, self._label)
            if problem is not None:
                raise GraphError(f"{name}-adjacency: {problem}")
        if list(self._vertex_position.items()) != list(
            zip(self._vertex_labels, range(len(self._vertex_labels)))
        ):
            raise GraphError("vertex positions are not the vertex insertion ranks")
        for key, instances in self._triple_index.items():
            for edge_id in instances:
                if (self._src[edge_id], self._dst[edge_id], self._label[edge_id]) != key:
                    raise GraphError(f"triple index entry {key} lists edge {edge_id}")
        indexed = sorted(chain.from_iterable(self._triple_index.values()))
        if indexed != live.tolist():
            raise GraphError("the triple index does not list exactly the live edges")
        free = list(chain.from_iterable(self._free_ids.values()))
        if len(free) != self._num_free_ids or len(set(free)) != len(free):
            raise GraphError(f"free-list count {self._num_free_ids} but {len(free)} ids listed")
        for src, ids in self._free_ids.items():
            for edge_id in ids:
                if not 0 <= edge_id < rows or self._alive[edge_id] or self._src[edge_id] != src:
                    raise GraphError(f"free id {edge_id} of vertex {src} is live or not its own")

    # ------------------------------------------------------------------ flat-array export
    def export_csr(self) -> "CSRSnapshot":
        """Export the live graph as flat CSR numpy arrays.

        The arrays are the transport format of the shared-memory parallel
        backend (see :mod:`repro.core.shared_snapshot`): they can be copied
        into a ``multiprocessing.shared_memory`` segment with one memcpy
        each and re-attached zero-copy in worker processes, where
        :class:`CSRGraphView` turns them back into the read API of this
        class.  Two layouts ship side by side:

        * the label-partitioned CSR lists each vertex's non-empty
          partitions in creation order: ``*_group_vptr`` maps a vertex to
          its range of ``(label, slice)`` groups, ``*_group_labels`` /
          ``*_group_indptr`` describe each group, and ``*_label_indices``
          holds the edge ids (labelled pools);
        * the combined CSR (``out_indptr``/``out_indices`` and the ``in_``
          pair) spans a vertex's groups — the wildcard pool — so it shares
          the edge-id array of the partitioned one.

        One vectorized pass over the partition tables and one arena gather
        per direction; a view enumerates every pool in exactly the order
        of the live graph.  The delta journal is reset.
        """
        return self._export(delta=False)

    def export_csr_delta(self) -> "CSRSnapshot":
        """:meth:`export_csr`, plus which element ranges may differ from the last export.

        The arrays are rebuilt in full (and are element-identical to
        :meth:`export_csr`); the delta journal — every edge id and endpoint
        vertex touched since the last export — only yields the snapshot's
        ``dirty`` spec, so the shared-snapshot writer can copy just those
        ranges.  Nothing before the first dirty vertex changes, so each
        adjacency array is dirty from that vertex's offset to its end;
        edge columns are dirty at the touched old ids and the new tail.
        Without a previous export ``dirty`` is None (everything is new).
        """
        return self._export(delta=True)

    @property
    def export_count(self) -> int:
        """Number of CSR exports performed over this graph's life."""
        return self._export_count

    def _export(self, delta: bool) -> "CSRSnapshot":
        rows = self._rows
        num_vertices = len(self._vertex_labels)
        arrays = {
            "vertex_ids": np.fromiter(self._vertex_labels, dtype=np.int64, count=num_vertices),
            "vertex_labels": np.fromiter(
                self._vertex_labels.values(), dtype=np.int64, count=num_vertices
            ),
            "edge_src": self._src[:rows].copy(),
            "edge_dst": self._dst[:rows].copy(),
            "edge_label": self._label[:rows].copy(),
            "edge_timestamp": self._timestamp[:rows].copy(),
            "edge_alive": self._alive[:rows].astype(np.uint8),
        }
        for side, adjacency in (("out", self._out), ("in", self._in)):
            group_vptr, group_labels, group_indptr, indices = adjacency.export(num_vertices)
            arrays[f"{side}_group_vptr"] = group_vptr
            arrays[f"{side}_group_labels"] = group_labels
            arrays[f"{side}_group_indptr"] = group_indptr
            arrays[f"{side}_label_indices"] = arrays[f"{side}_indices"] = indices
            arrays[f"{side}_indptr"] = group_indptr[group_vptr]
        dirty = self._dirty_spec(arrays) if delta and self._exported is not None else None
        self._exported = (num_vertices, rows)
        self._export_count += 1
        self._edge_touched[:rows] = False
        self._vertex_touched[:num_vertices] = False
        return CSRSnapshot(**arrays, num_live_edges=self._num_live_edges, dirty=dirty)

    def _dirty_spec(self, arrays: dict[str, np.ndarray]) -> dict[str, list[tuple[int, int]]]:
        """Per array, the element ranges that may differ from the previous export."""
        assert self._exported is not None
        prev_vertices, prev_rows = self._exported
        num_vertices = len(self._vertex_labels)
        touched_vertices = np.flatnonzero(self._vertex_touched[:prev_vertices])
        first_dirty = int(touched_vertices[0]) if touched_vertices.size else prev_vertices

        def suffix(start, stop) -> list[tuple[int, int]]:
            start, stop = int(start), int(stop)
            return [(start, stop)] if start < stop else []

        touched_edges = np.flatnonzero(self._edge_touched[:prev_rows])
        edge_ranges = _coalesce_ranges(touched_edges) + suffix(prev_rows, self._rows)
        spec = {
            "vertex_ids": suffix(prev_vertices, num_vertices),
            "vertex_labels": suffix(prev_vertices, num_vertices),
            **{name: edge_ranges for name in arrays if name.startswith("edge_")},
        }
        for side in ("out", "in"):
            group_indptr = arrays[f"{side}_group_indptr"]
            first_group = int(arrays[f"{side}_group_vptr"][first_dirty])
            first_index = group_indptr[first_group]
            spec[f"{side}_indptr"] = suffix(first_dirty, num_vertices + 1)
            spec[f"{side}_group_vptr"] = suffix(first_dirty, num_vertices + 1)
            spec[f"{side}_group_labels"] = suffix(first_group, group_indptr.shape[0] - 1)
            spec[f"{side}_group_indptr"] = suffix(first_group, group_indptr.shape[0])
            spec[f"{side}_indices"] = suffix(first_index, group_indptr[-1])
            spec[f"{side}_label_indices"] = suffix(first_index, group_indptr[-1])
        return spec

    @property
    def journal_size(self) -> tuple[int, int]:
        """(dirty vertices, dirty edges) accumulated since the last CSR export."""
        return (
            int(self._vertex_touched[: len(self._vertex_labels)].sum()),
            int(self._edge_touched[: self._rows].sum()),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"placeholders={self.num_placeholders})"
        )

@dataclass(frozen=True)
class CSRSnapshot:
    """A :class:`DynamicGraph` frozen into flat numpy arrays.

    ``out_indptr``/``out_indices`` (and the ``in_`` pair) are standard CSR:
    the live out-edge ids of the ``i``-th vertex of ``vertex_ids`` are
    ``out_indices[out_indptr[i]:out_indptr[i + 1]]``.  The label-partitioned
    mirror keys the same edge ids by ``(vertex, label)`` group: vertex ``i``
    owns groups ``out_group_vptr[i]:out_group_vptr[i + 1]``; group ``g``
    carries label ``out_group_labels[g]`` and edge ids
    ``out_label_indices[out_group_indptr[g]:out_group_indptr[g + 1]]``.
    The ``edge_*`` columns are indexed by edge id and cover every
    placeholder (live or dead); ``edge_alive`` disambiguates.
    """

    vertex_ids: np.ndarray  #: int64 [V] — vertex ids in insertion order
    vertex_labels: np.ndarray  #: int64 [V]
    out_indptr: np.ndarray  #: int64 [V + 1]
    out_indices: np.ndarray  #: int64 [live out-edges]
    in_indptr: np.ndarray  #: int64 [V + 1]
    in_indices: np.ndarray  #: int64 [live in-edges]
    out_group_vptr: np.ndarray  #: int64 [V + 1] — (vertex, label) group ranges
    out_group_labels: np.ndarray  #: int64 [G_out]
    out_group_indptr: np.ndarray  #: int64 [G_out + 1]
    out_label_indices: np.ndarray  #: int64 [live out-edges]
    in_group_vptr: np.ndarray  #: int64 [V + 1]
    in_group_labels: np.ndarray  #: int64 [G_in]
    in_group_indptr: np.ndarray  #: int64 [G_in + 1]
    in_label_indices: np.ndarray  #: int64 [live in-edges]
    edge_src: np.ndarray  #: int64 [placeholders]
    edge_dst: np.ndarray  #: int64 [placeholders]
    edge_label: np.ndarray  #: int64 [placeholders]
    edge_timestamp: np.ndarray  #: float64 [placeholders]
    edge_alive: np.ndarray  #: uint8 [placeholders]
    num_live_edges: int
    #: dirty-slice spec for the shared-snapshot writer: per array name, the
    #: half-open element ranges that may differ from the *previous* export
    #: (a conservative superset), or ``None`` per-name / for the whole dict
    #: meaning "treat as fully dirty".  Only the incremental splice path
    #: produces ranges; a full rebuild publishes with ``dirty=None``.
    dirty: "dict[str, list[tuple[int, int]] | None] | None" = field(
        default=None, repr=False, compare=False
    )

    def arrays(self) -> dict[str, np.ndarray]:
        """The array fields keyed by name, in field order (the shared-memory publication set)."""
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in ("num_live_edges", "dirty")
        }


class _CSRSide:
    """One direction of a :class:`CSRSnapshot`; ``<array>_list`` is the array as a Python list."""

    def __init__(self, snapshot: CSRSnapshot, side: str) -> None:
        self.indptr = getattr(snapshot, f"{side}_indptr")
        self.indices = getattr(snapshot, f"{side}_indices")
        self.group_vptr = getattr(snapshot, f"{side}_group_vptr")
        self.group_labels = getattr(snapshot, f"{side}_group_labels")
        self.group_indptr = getattr(snapshot, f"{side}_group_indptr")
        self.label_indices = getattr(snapshot, f"{side}_label_indices")
        #: vertex position -> its combined pool as a Python list, converted on first use
        self.pools: dict[int, list[int]] = {}

    def __getattr__(self, name: str) -> list[int]:
        # Only the scalar reads want lists; each is converted on first use.
        if not name.endswith("_list"):
            raise AttributeError(name)
        values = self.__dict__[name] = getattr(self, name[:-5]).tolist()
        return values

    def pool(self, pos: int) -> list[int]:
        edges = self.pools.get(pos)
        if edges is None:
            edges = self.pools[pos] = self.indices[
                self.indptr_list[pos] : self.indptr_list[pos + 1]
            ].tolist()
        return edges

    def label_range(self, pos: int, label: int) -> tuple[int, int]:
        """``(start, stop)`` of the ``(vertex, label)`` group in ``label_indices``."""
        for group in range(self.group_vptr_list[pos], self.group_vptr_list[pos + 1]):
            if self.group_labels_list[group] == label:
                return self.group_indptr_list[group], self.group_indptr_list[group + 1]
        return 0, 0


class CSRGraphView:
    """Read-only :class:`DynamicGraph` lookalike over :class:`CSRSnapshot` arrays.

    Worker processes build one per published snapshot.  The snapshot
    arrays are zero-copy views into the shared-memory segment, and the
    batched reads the kernel uses (``candidate_pools``, ``endpoint_array``,
    ``find_edges_batch``, the label gathers) are index arithmetic over
    them; attaching builds only the vertex position table they share.  The
    scalar API answers from plain Python ints (numpy scalars are ~3x slower
    to index, hash and compare): each array it reads is converted to a list
    on first use, adjacency slices per vertex.  Mutating methods are
    intentionally absent.
    """

    #: scalar-API attribute -> the snapshot array it is the Python list of
    _LISTS = {
        "_vertex_ids": "vertex_ids", "_vertex_label_list": "vertex_labels",
        "_src": "edge_src", "_dst": "edge_dst", "_label": "edge_label",
        "_timestamp": "edge_timestamp", "_alive": "edge_alive",
    }

    def __init__(self, snapshot: CSRSnapshot) -> None:
        self._snapshot = snapshot
        vertex_ids = snapshot.vertex_ids
        self._position = dict(zip(vertex_ids.tolist(), range(vertex_ids.shape[0])))
        self._out = _CSRSide(snapshot, "out")
        self._in = _CSRSide(snapshot, "in")

    def __getattr__(self, name: str) -> list:
        # Only the scalar reads want lists; each is converted on first use.
        source = self._LISTS.get(name)
        if source is None:
            raise AttributeError(name)
        values = self.__dict__[name] = getattr(self._snapshot, source).tolist()
        return values

    # ------------------------------------------------------------------ vertices
    def has_vertex(self, vertex: int) -> bool:
        return vertex in self._position

    def vertex_label(self, vertex: int) -> int:
        pos = self._position.get(vertex)
        return 0 if pos is None else self._vertex_label_list[pos]

    def _positions(self, vertices) -> np.ndarray:
        """Position of every vertex of an id array (-1 for unknown vertices)."""
        ids = vertices.tolist() if hasattr(vertices, "tolist") else vertices
        return np.fromiter(
            map(self._position.get, ids, repeat(-1)), dtype=np.int64, count=len(ids)
        )

    def vertex_labels(self, vertices) -> np.ndarray:
        """:meth:`vertex_label` of every entry of a vertex-id array, as int64."""
        position = self._positions(vertices)
        return np.where(position >= 0, self._snapshot.vertex_labels[position], 0)

    def vertices(self) -> Iterator[int]:
        return iter(self._vertex_ids)

    @property
    def num_vertices(self) -> int:
        return self._snapshot.vertex_ids.shape[0]

    # ------------------------------------------------------------------ edges
    def edge(self, edge_id: int) -> EdgeRecord:
        if not self.is_alive(edge_id):
            raise GraphError(f"edge id {edge_id} is not a live edge")
        return EdgeRecord(
            edge_id,
            self._src[edge_id],
            self._dst[edge_id],
            self._label[edge_id],
            self._timestamp[edge_id],
        )

    def is_alive(self, edge_id: int) -> bool:
        return 0 <= edge_id < self.num_placeholders and bool(self._alive[edge_id])

    def out_edges(self, vertex: int) -> list[int]:
        """Edge ids of live edges leaving ``vertex`` (do not mutate)."""
        pos = self._position.get(vertex)
        return _EMPTY_IDS if pos is None else self._out.pool(pos)

    def in_edges(self, vertex: int) -> list[int]:
        """Edge ids of live edges entering ``vertex`` (do not mutate)."""
        pos = self._position.get(vertex)
        return _EMPTY_IDS if pos is None else self._in.pool(pos)

    def _label_pool(self, side: _CSRSide, vertex: int, label: int) -> np.ndarray:
        pos = self._position.get(vertex)
        if pos is None:
            return _EMPTY_ARRAY
        start, stop = side.label_range(pos, label)
        return side.label_indices[start:stop]

    def out_edges_with_label(self, vertex: int, label: int) -> np.ndarray:
        """Live out-edges of ``vertex`` carrying ``label`` (zero-copy int64 view)."""
        return self._label_pool(self._out, vertex, label)

    def in_edges_with_label(self, vertex: int, label: int) -> np.ndarray:
        """Live in-edges of ``vertex`` carrying ``label`` (zero-copy int64 view)."""
        return self._label_pool(self._in, vertex, label)

    def candidate_pool(self, vertex: int, out: bool, label: int | None = None):
        """Candidate pool for one extension step (see :meth:`DynamicGraph.candidate_pool`)."""
        if label is None:
            return self.out_edges(vertex) if out else self.in_edges(vertex)
        return self._label_pool(self._out if out else self._in, vertex, label)

    def _ranges(self, side: _CSRSide, vertices: np.ndarray, label: int | None):
        """``(starts, sizes)`` of every vertex's pool in ``indices`` / ``label_indices``.

        Index arithmetic over the snapshot arrays only: the CSR ranges
        (wildcard) or the ``(vertex, label)`` group ranges are located with
        gathers, so no per-vertex slice is ever taken.
        """
        n = vertices.shape[0]
        starts = np.zeros(n, dtype=np.int64)
        sizes = np.zeros(n, dtype=np.int64)
        position = self._positions(vertices)
        known = np.nonzero(position >= 0)[0]
        position = position[known]
        if label is None:
            starts[known] = side.indptr[position]
            sizes[known] = side.indptr[position + 1] - starts[known]
            return starts, sizes
        # Every group of every known vertex, then the (at most one per
        # vertex) group carrying the label.
        group_counts = side.group_vptr[position + 1] - side.group_vptr[position]
        groups = expand_ranges(side.group_vptr[position], group_counts)
        hit = side.group_labels[groups] == label
        owner = np.repeat(known, group_counts)[hit]
        group = groups[hit]
        starts[owner] = side.group_indptr[group]
        sizes[owner] = side.group_indptr[group + 1] - starts[owner]
        return starts, sizes

    def candidate_pools(self, anchors: np.ndarray, out: bool, label: int | None = None):
        """Batched :meth:`candidate_pool` (see :meth:`DynamicGraph.candidate_pools`)."""
        side = self._out if out else self._in
        starts, sizes = self._ranges(side, anchors, label)
        indices = side.indices if label is None else side.label_indices
        return indices[expand_ranges(starts, sizes)], sizes

    def label_degrees(self, vertices: np.ndarray, out: bool, label: int | None = None):
        """Batched label degree (see :meth:`DynamicGraph.label_degrees`)."""
        return self._ranges(self._out if out else self._in, vertices, label)[1]

    def endpoint_array(self, edge_ids: np.ndarray, take_dst: bool) -> np.ndarray:
        """Vectorized endpoint gather: dst (or src) vertex per edge id."""
        snapshot = self._snapshot
        return (snapshot.edge_dst if take_dst else snapshot.edge_src)[edge_ids]

    def edge_labels(self, edge_ids) -> np.ndarray:
        """Edge-label gather for an id array, without building records."""
        return self._snapshot.edge_label[edge_ids]

    def incident_edges(self, vertex: int) -> Iterator[int]:
        yield from self.out_edges(vertex)
        yield from self.in_edges(vertex)

    def _degree(self, side: _CSRSide, vertex: int, label: int | None) -> int:
        pos = self._position.get(vertex)
        if pos is None:
            return 0
        if label is None:
            return side.indptr_list[pos + 1] - side.indptr_list[pos]
        start, stop = side.label_range(pos, label)
        return stop - start

    def out_degree(self, vertex: int) -> int:
        return self._degree(self._out, vertex, None)

    def in_degree(self, vertex: int) -> int:
        return self._degree(self._in, vertex, None)

    def degree(self, vertex: int) -> int:
        return self.out_degree(vertex) + self.in_degree(vertex)

    def out_label_degree(self, vertex: int, label: int) -> int:
        """Number of live out-edges with ``label`` (O(labels at vertex))."""
        return self._degree(self._out, vertex, label)

    def in_label_degree(self, vertex: int, label: int) -> int:
        """Number of live in-edges with ``label`` (O(labels at vertex))."""
        return self._degree(self._in, vertex, label)

    def edges(self) -> Iterator[EdgeRecord]:
        for edge_id, alive in enumerate(self._alive):
            if alive:
                yield self.edge(edge_id)

    def find_edges(self, src: int, dst: int, label: int | None = None) -> list[int]:
        dsts = self._dst
        if label is None:  # ascending, like the live graph
            return sorted(e for e in self.out_edges(src) if dsts[e] == dst)
        labels = self._label
        return [e for e in self.out_edges(src) if dsts[e] == dst and labels[e] == label]

    def find_edges_batch(self, srcs: np.ndarray, dsts: np.ndarray):
        """Batched :meth:`find_edges` (see :meth:`DynamicGraph.find_edges_batch`)."""
        return edges_between(self, srcs, dsts)

    @property
    def num_edges(self) -> int:
        return self._snapshot.num_live_edges

    @property
    def num_placeholders(self) -> int:
        return self._snapshot.edge_src.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRGraphView(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"placeholders={self.num_placeholders})"
        )
