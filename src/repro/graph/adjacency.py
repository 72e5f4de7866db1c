"""Dynamic labelled multigraph on one columnar edge store.

The data-graph storage layer of Section II-A and the "Memory recycling"
paragraph of Section IV-A of the paper; ``docs/architecture.md``
("Adjacency layout & candidate pipeline") has the long account.  Every edge
is stored once, every index over it is a flat numpy column, and a batch
mutation is one vertex-interning pass followed by array operations only.

* **Vertices** are interned once: ``raw id -> position`` (insertion rank) is
  the store's only dict; labels are a column by position.
* **Edge columns** ``src / dst / label / timestamp / alive`` indexed by edge
  id are the only copy of an edge; a row with ``alive == False`` is a dead
  *placeholder* (a deleted edge, or a gap below a forced id), and the row
  count is the DEBI row count.
* **Adjacency**, per direction: every ``(vertex, label)`` partition is a row
  of one pooled int64 arena (:class:`_Arena`: moved to the tail with doubled
  capacity when full, the arena repacked when the tail runs out), found
  through a sorted directory of packed ``(position, label)`` keys and
  remembered per edge.  A labelled pool is a zero-copy arena slice, a
  wildcard pool the vertex's partitions in creation order, a degree a
  ``size`` read.
* **Deletion is order-preserving** (one compaction pass per batch), so a pool
  is its live edges in insertion order and the ``(src, label)`` out-partition
  lists a triple's parallel instances oldest first: labelled ``find_edges``
  and stream-deletion resolution read it, there is no triple index.
* **Recycling**: a deleted edge's id goes on its source's stack in
  :class:`FreeIdStacks` and is handed to the next insertion there, newest
  first, which keeps the placeholders from growing monotonically (Figure 17).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from itertools import chain, count, repeat
from typing import Iterator

import numpy as np

from repro.graph.edge import EdgeColumns, EdgeRecord
from repro.graph.stats import PlaceholderStats
from repro.utils.validation import GraphError

_EMPTY_IDS: list[int] = []
_EMPTY_ARRAY = np.empty(0, dtype=np.int64)
#: rows a growable column starts with — small, so constructing a graph allocates next to nothing
_INITIAL_ROWS = 16
#: smallest capacity a non-empty arena row is given
_MIN_CAPACITY = 4
_EDGE_COLUMNS = (
    "_src", "_dst", "_label", "_timestamp", "_alive", "_out_part", "_in_part", "_edge_touched"
)
#: a directory key is ``position * _LABEL_SPAN + label + _LABEL_BIAS``: edge
#: labels are signed 32-bit values, positions take the upper half
_LABEL_SPAN = 1 << 32
_LABEL_BIAS = 1 << 31
_LAST_KEY = (1 << 63) - 1
#: partitions created one at a time wait in a dict this long at most before
#: they are filed into the sorted directory (one O(partitions) insert)
_RECENT_LIMIT = 256


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


def stable_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group equal ``keys`` (non-empty), each group in original order: ``(order, distinct,
    first, counts)`` with group ``g`` = ``order[first[g] : first[g] + counts[g]]``."""
    order = keys.argsort(kind="stable")
    grouped = keys[order]
    starts = np.empty(grouped.shape[0], dtype=bool)
    starts[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=starts[1:])
    first = starts.nonzero()[0]
    counts = np.empty_like(first)
    counts[:-1] = first[1:] - first[:-1]
    counts[-1] = grouped.shape[0] - first[-1]
    return order, grouped[first], first, counts


def ranks_in_runs(order: np.ndarray, first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per entry of a :func:`stable_runs` grouping, its rank within its group (0 = first)."""
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0]) - np.repeat(first, counts)
    return rank


def positions_of(position: dict[int, int], ids: list[int]) -> np.ndarray:
    """``position[id]`` of every id, -1 for an unknown one: one C-level hash pass."""
    return np.fromiter(map(position.get, ids, repeat(-1)), dtype=np.int64, count=len(ids))


def intern_ids(position: dict[int, int], ids: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Dense positions of ``ids`` in ``position``, unseen ids appended in first-mention order.

    The work beyond :func:`positions_of` follows the mentions of unseen ids only.
    Returns ``(positions, which mention introduced each new id, in position order)``.
    """
    positions = positions_of(position, ids)
    unseen = np.flatnonzero(positions < 0).tolist()
    if not unseen:
        return positions, _EMPTY_ARRAY
    mentioned = list(map(ids.__getitem__, unseen))
    first_at = dict(zip(reversed(mentioned), reversed(unseen)))  # earliest mention wins
    introduced = sorted(first_at.values())
    position.update(zip(map(ids.__getitem__, introduced), count(len(position))))
    positions[unseen] = list(map(position.__getitem__, mentioned))
    return positions, np.array(introduced, dtype=np.int64)


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

    Each distinct source's wildcard out-pool is gathered once and only
    scanned: the entries ending at some asked destination are sorted by
    ``(source, destination, edge id)``, so a pair's edges are one contiguous,
    ascending run found by binary search.  The work follows the sources'
    out-degrees, not pairs times out-degree.
    """
    if srcs.shape[0] == 0:
        return _EMPTY_ARRAY, np.zeros(0, dtype=np.int64)
    sources, src_rank = np.unique(srcs, return_inverse=True)
    pool_ids, pool_sizes = graph.candidate_pools(sources, True, None)
    pool_dsts = graph.endpoint_array(pool_ids, True)
    targets, dst_rank = np.unique(dsts, return_inverse=True)
    width = targets.shape[0]
    slot = np.minimum(targets.searchsorted(pool_dsts), width - 1)
    wanted = np.flatnonzero(targets[slot] == pool_dsts)
    ids = pool_ids[wanted]
    keys = np.repeat(np.arange(sources.shape[0]), pool_sizes)[wanted] * width + slot[wanted]
    order = np.lexsort((ids, keys))
    keys = keys[order]
    pair_keys = src_rank * width + dst_rank
    first = keys.searchsorted(pair_keys, side="left")
    sizes = keys.searchsorted(pair_keys, side="right") - first
    return ids[order[expand_ranges(first, sizes)]], sizes


def concat_find_edges(graph, srcs: np.ndarray, dsts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``find_edges_batch`` for a graph facade that only answers per pair.

    Calls ``graph.find_edges`` once per pair, so per-vertex routing and
    ownership checks of the facade still run for every pair.
    """
    runs = list(map(graph.find_edges, srcs.tolist(), dsts.tolist()))
    sizes = np.fromiter(map(len, runs), dtype=np.int64, count=len(runs))
    return np.fromiter(chain.from_iterable(runs), dtype=np.int64, count=int(sizes.sum())), sizes


def coalesce_ranges(ordered: np.ndarray) -> list[tuple[int, int]]:
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


class _Arena:
    """Rows of int64 entries pooled in one buffer: row ``r`` is ``arena[start[r]:][:size[r]]``.

    ``position`` is the owner's vertex interning table (shared, not owned).
    """

    _COLUMNS: tuple[str, ...] = ("start", "size", "capacity")

    def __init__(self, position: dict[int, int]) -> None:
        self.position = position
        self.arena = np.empty(_INITIAL_ROWS, dtype=np.int64)
        #: arena slots handed out so far: live ranges, their slack, abandoned ranges
        self.tail = 0
        #: rows in use; ids are dense and never reused
        self.rows = 0
        self.start = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self.size = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self.capacity = np.zeros(_INITIAL_ROWS, dtype=np.int64)

    def _extend(self, rows: int) -> None:
        """Make every row below ``rows`` exist (empty until appended to)."""
        if rows > self.start.shape[0]:
            for name in self._COLUMNS:
                setattr(self, name, _grown(getattr(self, name), self.rows, rows))
        self.rows = max(rows, self.rows)

    def _relocate(self, rows: np.ndarray, need: np.ndarray) -> None:
        """Move ``rows`` to the arena tail with room for ``need`` entries, at least doubled."""
        capacity = np.maximum(np.maximum(need, 2 * self.capacity[rows]), _MIN_CAPACITY)
        room = int(capacity.sum())
        if self.tail + room > self.arena.shape[0]:
            self.capacity[rows] = capacity
            self._repack()
            return
        size = self.size[rows]
        start = self.tail + np.cumsum(capacity) - capacity
        self.arena[expand_ranges(start, size)] = self.arena[expand_ranges(self.start[rows], size)]
        self.start[rows] = start
        self.capacity[rows] = capacity
        self.tail += room

    def _repack(self) -> None:
        """Lay every row out afresh in a new arena, dropping abandoned ranges."""
        count = self.rows
        capacity = self.capacity[:count]
        size = self.size[:count]
        start = np.cumsum(capacity) - capacity
        self.tail = int(capacity.sum())
        arena = np.empty(max(2 * self.tail, _INITIAL_ROWS), dtype=np.int64)
        arena[expand_ranges(start, size)] = self.arena[expand_ranges(self.start[:count], size)]
        self.arena = arena
        self.start[:count] = start

    def append_one(self, row: int, value: int) -> None:
        """:meth:`append` of one entry, on scalars."""
        size = self.size.item(row)
        start = self.start.item(row)
        if size == self.capacity.item(row):
            capacity = max(2 * size, _MIN_CAPACITY)
            self.capacity[row] = capacity
            if self.tail + capacity > self.arena.shape[0]:
                self._repack()
                start = self.start.item(row)
            else:
                self.arena[self.tail : self.tail + size] = self.arena[start : start + size]
                self.start[row] = start = self.tail
                self.tail += capacity
        self.arena[start + size] = value
        self.size[row] = size + 1

    def append(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Append ``values[i]`` to row ``rows[i]``, batch order kept per row."""
        order, touched, _, counts = stable_runs(rows)
        size = self.size[touched]
        need = size + counts
        overflow = need > self.capacity[touched]
        if overflow.any():
            self._relocate(touched[overflow], need[overflow])
        self.arena[expand_ranges(self.start[touched] + size, counts)] = values[order]
        self.size[touched] = need

    def _slice(self, row: int) -> np.ndarray:
        start = self.start.item(row)
        return self.arena[start : start + self.size.item(row)]

    def layout_violation(self) -> str | None:
        """The first inconsistency of the row table with the arena, or None."""
        count = self.rows
        start, size, capacity = self.start[:count], self.size[:count], self.capacity[:count]
        if (size > capacity).any():
            return f"row {int((size > capacity).argmax())} is larger than its capacity"
        placed = np.flatnonzero(capacity)
        placed = placed[np.argsort(start[placed])]
        stops = start[placed] + capacity[placed]
        if (start[placed][1:] < stops[:-1]).any():
            return "two rows overlap in the arena"
        if placed.size and not int(stops[-1]) <= self.tail <= self.arena.shape[0]:
            return "a row lies beyond the arena tail"
        return None


class FreeIdStacks(_Arena):
    """Per-source LIFO stacks of reusable edge ids, pooled in one arena.

    The one statement of the recycling rule (:class:`DynamicGraph` and the
    shard router's ``EdgeIdAllocator`` share it): a deleted edge's id goes on
    top of its source's stack, an insertion takes its source's top id, or a
    fresh one.  A batch is that rule in event order, so its ids are those of
    per-edge calls.  Rows are the sources' positions in ``position``.
    """

    def __init__(self, position: dict[int, int]) -> None:
        super().__init__(position)
        #: ids on all stacks together
        self.count = 0

    def stack(self, src: int) -> list[int]:
        """The free ids of source vertex ``src``, top last."""
        row = self.position.get(src)
        return [] if row is None or row >= self.rows else self._slice(row).tolist()

    def push(self, row: int, edge_id: int) -> None:
        self._extend(row + 1)
        self.append_one(row, edge_id)
        self.count += 1

    def push_batch(self, rows: np.ndarray, edge_ids: np.ndarray) -> None:
        self._extend(len(self.position))
        self.append(rows, edge_ids)
        self.count += edge_ids.shape[0]

    def pop(self, row: int) -> int:
        """The top id of ``row``'s stack, or -1 when it is empty."""
        size = self.size.item(row) if row < self.rows else 0
        if not size:
            return -1
        self.size[row] = size - 1
        self.count -= 1
        return self.arena.item(self.start.item(row) + size - 1)

    def allocate(self, rows: np.ndarray, first_fresh: int) -> tuple[np.ndarray, int]:
        """``(ids, how many were recycled)`` for one insertion per entry of ``rows``, in
        event order; fresh ids count up from ``first_fresh`` over the events no stack served."""
        n = rows.shape[0]
        ids = np.full(n, -1, dtype=np.int64)
        self._extend(len(self.position))
        if self.count and self.size[rows].any():
            order, touched, first, counts = stable_runs(rows)
            row_of = rows[order]
            depth = np.arange(n) - np.repeat(first, counts)  # 0: the row's first event
            held = self.size[row_of]
            served = depth < held
            ids[order[served]] = self.arena[(self.start[row_of] + held - 1 - depth)[served]]
            self.size[touched] -= np.minimum(counts, self.size[touched])
            self.count -= int(served.sum())
        fresh = ids < 0
        num_fresh = int(fresh.sum())
        ids[fresh] = np.arange(first_fresh, first_fresh + num_fresh, dtype=np.int64)
        return ids, n - num_fresh

    def violation(self, vertex_ids, rows: int, alive: np.ndarray, src: np.ndarray) -> str | None:
        """The first inconsistency with the edge columns, or None (``check_invariants``)."""
        problem = self.layout_violation()
        if problem is not None:
            return problem
        listed = self.arena[expand_ranges(self.start[: self.rows], self.size[: self.rows])]
        if listed.shape[0] != self.count or np.unique(listed).shape[0] != self.count:
            return f"count is {self.count} but {listed.shape[0]} ids are listed, or one twice"
        if listed.size and (listed.min() < 0 or listed.max() >= rows or alive[listed].any()):
            return "a free id is live or was never allocated"
        owner = vertex_ids[np.repeat(np.arange(self.rows), self.size[: self.rows])]
        wrong = np.flatnonzero(src[listed] != owner)
        if wrong.size:
            return f"free id {int(listed[wrong[0]])} is not on the stack of its last source"
        return None


class _Adjacency(_Arena):
    """One direction's adjacency: every ``(vertex, label)`` partition a row of one arena."""

    #: ``vertex_pos`` is the owner's position in vertex insertion order (the
    #: CSR export's row), ``label`` the edge label the partition holds
    _COLUMNS = (*_Arena._COLUMNS, "vertex_pos", "label")

    def __init__(self, position: dict[int, int]) -> None:
        super().__init__(position)
        self.vertex_pos = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self.label = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        # The directory: packed (position, label) keys, sorted, and the
        # partition of each; the last key is a sentinel above every real one,
        # so a search never runs off the end.  Filing replaces both arrays.
        self._keys = np.array([_LAST_KEY])
        self._parts = np.array([-1])
        #: key -> id of the partitions created one at a time and not yet filed
        self._recent: dict[int, int] = {}

    # ------------------------------------------------------------------ directory
    @staticmethod
    def keys_of(positions: np.ndarray, labels) -> np.ndarray:
        """Directory keys of ``(position, label)`` pairs; negative (never a key) for
        an unknown vertex (position -1) or a label outside the 32-bit range."""
        keys = positions * _LABEL_SPAN + (labels + _LABEL_BIAS)
        return np.where((labels >= -_LABEL_BIAS) & (labels < _LABEL_BIAS), keys, -1)

    def _file(self, keys: np.ndarray, parts: np.ndarray) -> None:
        """Enter ``keys`` (ascending, all new) into the sorted directory."""
        at = np.searchsorted(self._keys, keys)
        self._keys = np.insert(self._keys, at, keys)
        self._parts = np.insert(self._parts, at, parts)

    def _directory(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, parts)`` with every partition filed."""
        recent = self._recent
        if recent:
            keys = np.fromiter(recent, dtype=np.int64, count=len(recent))
            parts = np.fromiter(recent.values(), dtype=np.int64, count=len(recent))
            order = np.argsort(keys)
            self._file(keys[order], parts[order])
            recent.clear()
        return self._keys, self._parts

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The partition of every key, -1 where there is none."""
        filed, parts = self._directory()
        at = filed.searchsorted(keys)
        return np.where(filed[at] == keys, parts[at], -1)

    def partition_ids(self, positions: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """The partition of every ``(position, label)`` pair, created in pair order if new."""
        keys = positions * _LABEL_SPAN + (labels + _LABEL_BIAS)
        parts = self.find(keys)
        missing = np.flatnonzero(parts < 0)
        if missing.size:
            new_keys, mention, inverse = np.unique(
                keys[missing], return_index=True, return_inverse=True
            )
            first = self.rows
            self._extend(first + new_keys.shape[0])
            created = np.empty_like(mention)
            created[np.argsort(mention)] = np.arange(first, self.rows)  # first mention first
            self.vertex_pos[created] = positions[missing[mention]]
            self.label[created] = labels[missing[mention]]
            self._file(new_keys, created)
            parts[missing] = created[inverse]
        return parts

    def partition_id(self, position: int, label: int, create: bool = False) -> int:
        """:meth:`partition_ids` of one pair, on scalars; -1 when absent and not created."""
        if not -_LABEL_BIAS <= label < _LABEL_BIAS:
            return -1
        key = position * _LABEL_SPAN + label + _LABEL_BIAS
        at = self._keys.searchsorted(key)
        if self._keys.item(at) == key:
            return self._parts.item(at)
        part = self._recent.get(key, -1)
        if part < 0 and create:
            part = self.rows
            self._extend(part + 1)
            self.vertex_pos[part] = position
            self.label[part] = label
            self._recent[key] = part
            if len(self._recent) >= _RECENT_LIMIT:
                self._directory()
        return part

    def parts_of(self, vertex: int) -> np.ndarray:
        """The partition ids of ``vertex`` in creation order."""
        position = self.position.get(vertex)
        if position is None:
            return _EMPTY_ARRAY
        filed, parts = self._directory()
        low, high = filed.searchsorted((position * _LABEL_SPAN, (position + 1) * _LABEL_SPAN))
        return np.sort(parts[low:high])

    # ------------------------------------------------------------------ mutation
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
    def pool(self, vertex: int, label: int | None) -> np.ndarray:
        """The candidate pool of ``vertex``: one partition, or all of them for ``label=None``."""
        if label is not None:
            position = self.position.get(vertex)
            part = -1 if position is None else self.partition_id(position, label)
            return _EMPTY_ARRAY if part < 0 else self._slice(part)
        parts = self.parts_of(vertex).tolist()
        if len(parts) == 1:
            return self._slice(parts[0])
        return np.concatenate(list(map(self._slice, parts))) if parts else _EMPTY_ARRAY

    def locate(self, vertices: list[int], label: int | None):
        """Where the pools of ``vertices`` lie: ``(partitions, their sizes, pool size per vertex)``.

        ``label=None`` lists all of a vertex's partitions in creation order;
        a label lists exactly one per vertex, a missing one with size 0.
        """
        n = len(vertices)
        positions = positions_of(self.position, vertices)
        filed, parts = self._directory()
        if label is not None:
            if not -_LABEL_BIAS <= label < _LABEL_BIAS:
                return positions, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
            # An unknown vertex (-1) asks for a negative key, which none is;
            # a miss lands on some other key's partition and is sized 0.
            positions *= _LABEL_SPAN
            positions += label + _LABEL_BIAS
            at = filed.searchsorted(positions)
            parts = parts[at]
            sizes = self.size[parts] * (filed[at] == positions)
            return parts, sizes, sizes
        # A vertex's partitions are one key range, an unknown vertex's an
        # empty one below every key; ascending ids are creation order.
        low = filed.searchsorted(positions * _LABEL_SPAN)
        counts = filed.searchsorted((positions + 1) * _LABEL_SPAN) - low
        parts = parts[expand_ranges(low, counts)]
        if parts.shape[0] > 1:
            vertex_of = np.repeat(np.arange(n) * self.rows, counts)
            parts = np.sort(parts + vertex_of) - vertex_of
        part_sizes = self.size[parts]
        return parts, part_sizes, segment_counts(part_sizes, counts)

    def pools(self, vertices: list[int], label: int | None) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`pool` of every vertex: ``(pools concatenated, size per vertex)``."""
        parts, part_sizes, sizes = self.locate(vertices, label)
        return self.arena[expand_ranges(self.start[parts], part_sizes)], sizes

    def members(self, parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The partitions ``parts`` back to back: ``(edge ids, size per partition)``."""
        sizes = self.size[parts]
        return self.arena[expand_ranges(self.start[parts], sizes)], sizes

    def degree(self, vertex: int) -> int:
        return int(self.size[self.parts_of(vertex)].sum())

    def export(self, num_vertices: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(group_vptr, group_labels, group_indptr, indices)`` over the non-empty partitions.

        Groups are ordered by vertex position, then by partition creation —
        the order :meth:`pool` concatenates a wildcard pool in.
        """
        live = np.flatnonzero(self.size[: self.rows])
        live = live[np.argsort(self.vertex_pos[live], kind="stable")]
        group_vptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.vertex_pos[live], minlength=num_vertices), out=group_vptr[1:])
        indices, sizes = self.members(live)
        group_indptr = np.zeros(live.shape[0] + 1, dtype=np.int64)
        np.cumsum(sizes, out=group_indptr[1:])
        return group_vptr, self.label[live], group_indptr, indices

    def violation(
        self, live_ids: np.ndarray, edge_part: np.ndarray, endpoint: np.ndarray,
        edge_label: np.ndarray, vertex_ids: np.ndarray,
    ) -> str | None:
        """The first inconsistency with the edge columns, or None (``check_invariants``)."""
        problem = self.layout_violation()
        if problem is not None:
            return problem
        count = self.rows
        filed, parts = self._directory()
        if not np.array_equal(np.sort(parts[:-1]), np.arange(count)):
            return "the directory does not list every partition exactly once"
        if (np.diff(filed) <= 0).any():
            return "the directory keys are not strictly ascending"
        owners, labels = self.vertex_pos[:count], self.label[:count]
        if (owners < 0).any() or (owners >= vertex_ids.shape[0]).any():
            return "a partition's vertex position is not in the vertex table"
        if not np.array_equal(filed[:-1], self.keys_of(owners, labels)[parts[:-1]]):
            return "a directory key disagrees with its partition's vertex position and label"
        members, sizes = self.members(np.arange(count))
        if not np.array_equal(np.sort(members), live_ids):
            return "the partitions do not hold exactly the live edges"
        holder = np.repeat(np.arange(count), sizes)
        wrong = np.flatnonzero(
            (edge_part[members] != holder)
            | (endpoint[members] != vertex_ids[owners[holder]])
            | (edge_label[members] != labels[holder])
        )
        if wrong.size:
            edge_id, part = int(members[wrong[0]]), int(holder[wrong[0]])
            return f"edge {edge_id} sits in partition {part}, not its own"
        return None


def check_edge_columns(src: np.ndarray, dst: np.ndarray, label: np.ndarray) -> None:
    """Refuse a (non-empty) insert batch naming a negative vertex (DEBI roots are
    indexed by vertex id) or an edge label outside the signed 32-bit range (the
    partition directory packs it), before the graph or a shard router writes
    anything for it."""
    lowest = min(int(src.min()), int(dst.min()))
    if lowest < 0:
        raise GraphError(f"vertex id {lowest} is negative")
    if int(label.min()) < -_LABEL_BIAS or int(label.max()) >= _LABEL_BIAS:
        raise GraphError("edge labels must fit a signed 32-bit integer")


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
        # Vertices are append-only and interned once: raw id -> position
        # (insertion rank) is the only dict of the store.  Labels are a
        # column by position with at least one unused (zero) slot behind the
        # last vertex, so position -1 — an unknown vertex — reads label 0.
        self._vertex_position: dict[int, int] = {}
        self._vertex_label = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        #: position -> raw vertex id, the inverse of ``_vertex_position``
        self._vertex_ids = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self._out = _Adjacency(self._vertex_position)
        self._in = _Adjacency(self._vertex_position)
        #: recyclable edge ids, stacked per source vertex
        self.free_ids = FreeIdStacks(self._vertex_position)

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
        else — including the free-id stacks, which make replayed insertions
        allocate the same ids the original run used — survives the round
        trip.
        """
        state = self.__dict__.copy()
        state["_exported"] = None
        state["_edge_touched"] = np.zeros_like(self._edge_touched)
        state["_vertex_touched"] = np.zeros_like(self._vertex_touched)
        return state

    # ------------------------------------------------------------------ vertices
    def add_vertex(self, vertex: int, label: int = 0) -> int:
        """Register ``vertex`` with ``label`` (which later calls may not change); its position."""
        position = self._vertex_position.get(vertex)
        if position is None:
            position = self._vertex_position[vertex] = len(self._vertex_position)
            self._grow_vertex_columns()
            self._vertex_label[position] = label
            self._vertex_ids[position] = vertex
        elif label != 0 and self._vertex_label.item(position) != label:
            raise GraphError(
                f"vertex {vertex} already has label {self._vertex_label.item(position)}, "
                f"cannot relabel to {label}"
            )
        return position

    def _grow_vertex_columns(self) -> None:
        count, room = len(self._vertex_position), self._vertex_label.shape[0]
        if count >= room:  # keeps the zero slot behind the last vertex
            self._vertex_label = _grown(self._vertex_label, room, count + 1)
            self._vertex_ids = _grown(self._vertex_ids, room, count + 1)
            self._vertex_touched = _grown(self._vertex_touched, room, count + 1)

    def _register_vertices(
        self, src: np.ndarray, dst: np.ndarray, src_label: np.ndarray, dst_label: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`add_vertex` over a batch's endpoints; returns their positions.

        The one hash pass of a batch mutation.  Vertices are mentioned in
        per-event src-then-dst order, and a new vertex takes the label of
        its first mention.
        """
        mentions = np.stack([src, dst], axis=1).ravel()
        given = np.stack([src_label, dst_label], axis=1).ravel()
        positions, introduced = intern_ids(self._vertex_position, mentions.tolist())
        if introduced.size:
            self._grow_vertex_columns()
            self._vertex_label[positions[introduced]] = given[introduced]
            self._vertex_ids[positions[introduced]] = mentions[introduced]
        if given.any():
            known = self._vertex_label[positions]
            conflict = (given != 0) & (given != known)
            if conflict.any():
                at = int(conflict.argmax())
                raise GraphError(
                    f"vertex {mentions[at]} already has label {known[at]}, "
                    f"cannot relabel to {given[at]}"
                )
        return positions[0::2], positions[1::2]

    def has_vertex(self, vertex: int) -> bool:
        return vertex in self._vertex_position

    def vertex_label(self, vertex: int) -> int:
        """Return the label of ``vertex`` (0 for unlabelled/unknown vertices)."""
        return self._vertex_label.item(self._vertex_position.get(vertex, -1))

    def vertex_labels(self, vertices) -> np.ndarray:
        """:meth:`vertex_label` of every entry of a vertex-id array, as int64."""
        ids = vertices.tolist() if hasattr(vertices, "tolist") else vertices
        return self._vertex_label[positions_of(self._vertex_position, ids)]

    def vertices(self) -> Iterator[int]:
        return iter(self._vertex_position)

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_position)

    # ------------------------------------------------------------------ edges
    def add_edge(
        self, src: int, dst: int, label: int = 0, timestamp: float = 0.0,
        src_label: int | None = None, dst_label: int | None = None, edge_id: int | None = None,
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
        if not -_LABEL_BIAS <= label < _LABEL_BIAS:
            raise GraphError("edge labels must fit a signed 32-bit integer")
        if edge_id is not None:
            self._check_forced_ids(np.array([edge_id]))
        src_pos = self.add_vertex(src, src_label or 0)
        dst_pos = self.add_vertex(dst, dst_label or 0)
        if edge_id is None:
            edge_id = self.free_ids.pop(src_pos) if self.recycle_edge_ids else -1
            if edge_id < 0:
                edge_id = self._rows
            else:
                self.stats.record_recycle()
        self._extend_rows(edge_id + 1)
        self._src[edge_id] = src
        self._dst[edge_id] = dst
        self._label[edge_id] = label
        self._timestamp[edge_id] = timestamp
        self._alive[edge_id] = True
        out_part = self._out_part[edge_id] = self._out.partition_id(src_pos, label, create=True)
        self._out.append_one(out_part, edge_id)
        in_part = self._in_part[edge_id] = self._in.partition_id(dst_pos, label, create=True)
        self._in.append_one(in_part, edge_id)
        self._num_live_edges += 1
        self._touch(edge_id, src_pos, dst_pos)
        self.stats.record_insert(placeholders=self._rows, live=self._num_live_edges)
        return edge_id

    def _touch(self, edge_ids, src_positions, dst_positions) -> None:
        """Journal edges (ids and their endpoints' positions, scalars or arrays) as changed."""
        self._edge_touched[edge_ids] = True
        self._vertex_touched[src_positions] = True
        self._vertex_touched[dst_positions] = True

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
        src_pos = self._out.vertex_pos.item(out_part)
        self._touch(edge_id, src_pos, self._in.vertex_pos.item(in_part))
        if self.recycle_edge_ids:
            self.free_ids.push(src_pos, edge_id)
        self._forget(1)
        return record

    def _forget(self, count: int) -> None:
        self._num_live_edges -= count
        self.stats.deletes += count
        self.stats.peak_placeholders = max(self.stats.peak_placeholders, self._rows)

    def delete_edge_instance(self, src: int, dst: int, label: int = 0) -> EdgeRecord:
        """Delete the most recently inserted live edge matching the triple.

        Stream deletions are expressed as triples (the paper negates the
        endpoints on the wire); this resolves the triple to a concrete
        edge instance.
        """
        ids = self.find_edges(src, dst, label)
        if not ids:
            raise GraphError(f"no live edge ({src}, {dst}, {label}) to delete")
        return self.delete_edge(ids[-1])

    # ------------------------------------------------------------------ accessors
    def edge(self, edge_id: int) -> EdgeRecord:
        """Return the :class:`EdgeRecord` for a *live* ``edge_id``."""
        if not self.is_alive(edge_id):
            raise GraphError(f"edge id {edge_id} is not a live edge")
        return EdgeRecord(
            edge_id, self._src.item(edge_id), self._dst.item(edge_id),
            self._label.item(edge_id), self._timestamp.item(edge_id),
        )

    def is_alive(self, edge_id: int) -> bool:
        return 0 <= edge_id < self._rows and self._alive.item(edge_id)

    def out_edges(self, vertex: int) -> list[int]:
        """Edge ids of live edges leaving ``vertex``, in wildcard-pool order."""
        return self._out.pool(vertex, None).tolist()

    def in_edges(self, vertex: int) -> list[int]:
        """Edge ids of live edges entering ``vertex``, in wildcard-pool order."""
        return self._in.pool(vertex, None).tolist()

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
        """Number of live out-edges of ``vertex`` carrying ``label`` (O(log partitions))."""
        return self._out.pool(vertex, label).shape[0]

    def in_label_degree(self, vertex: int, label: int) -> int:
        """Number of live in-edges of ``vertex`` carrying ``label`` (O(log partitions))."""
        return self._in.pool(vertex, label).shape[0]

    def _columns(self, ids: np.ndarray) -> EdgeColumns:
        return EdgeColumns(
            ids, self._src[ids], self._dst[ids], self._label[ids], self._timestamp[ids]
        )

    def edges(self) -> Iterator[EdgeRecord]:
        """Iterate over all live edge records."""
        return self._columns(np.flatnonzero(self._alive[: self._rows])).records()

    def find_edges(self, src: int, dst: int, label: int | None = None) -> list[int]:
        """Return live edge ids from ``src`` to ``dst`` (optionally with ``label``).

        With a label they come in insertion order (the ``(src, label)``
        out-partition's entries ending at ``dst``; a stream deletion picks its
        instance by it); without, ascending: witness checks stop at the first
        match, so their scan counts must not depend on how a pool is laid out.
        """
        pool = self._out.pool(src, label)
        found = pool[self._dst[pool] == dst]
        return (np.sort(found) if label is None else found).tolist()

    def find_edges_batch(self, srcs: np.ndarray, dsts: np.ndarray):
        """Batched :meth:`find_edges` without a label: ``(flat_ids, sizes)`` for pair arrays.

        ``flat_ids`` is the live edge ids from ``srcs[i]`` to ``dsts[i]``,
        ascending, concatenated in pair order, and ``sizes[i]`` their number.
        """
        return edges_between(self, srcs, dsts)

    def find_instances(self, srcs: np.ndarray, dsts: np.ndarray, labels: np.ndarray):
        """The live parallel instances of a (non-empty) batch of ``(src, dst, label)`` triples.

        Returns ``(group, flat_ids, sizes)``: equal triples share a group
        (``group[i]`` is triple ``i``'s) and ``flat_ids`` is the groups'
        instances back to back, ``sizes[g]`` of group ``g``, in insertion
        order.  A triple is the pair of its ``(src, label)`` out- and ``(dst,
        label)`` in-partition, which every edge remembers: each distinct
        out-partition is gathered once, its members told apart by in-partition.
        """
        n = srcs.shape[0]
        positions = positions_of(self._vertex_position, srcs.tolist() + dsts.tolist())
        out_part = self._out.find(_Adjacency.keys_of(positions[:n], labels))
        in_part = self._in.find(_Adjacency.keys_of(positions[n:], labels))
        span = max(self._in.rows, 1)
        triples, group = np.unique(  # -1: no such partitions, so no such edge
            np.where((out_part >= 0) & (in_part >= 0), out_part * span + in_part, -1),
            return_inverse=True,
        )
        owners = np.unique(np.maximum(triples, 0) // span)
        members, sizes = self._out.members(owners)
        member_triple = np.repeat(owners, sizes) * span + self._in_part[members]
        slot = np.minimum(triples.searchsorted(member_triple), triples.shape[0] - 1)
        named = (triples[slot] == member_triple).nonzero()[0]
        slot = slot[named]
        by_group = slot.argsort(kind="stable")
        return group, members[named[by_group]], np.bincount(slot, minlength=triples.shape[0])

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
        self, src, dst, label=None, timestamp=None, src_label=None, dst_label=None, edge_ids=None
    ) -> list[int]:
        """Insert a whole batch from contiguous columns; returns the edge ids.

        The columnar counterpart of calling :meth:`add_edge` per event, with
        the same resulting state, **edge-id sequence** included (see
        :meth:`FreeIdStacks.allocate`; partitions are created in event order).
        Columns are int64 (``timestamp`` float64) arrays of equal length;
        missing columns default to zeros.  ``edge_ids`` forces the ids (the
        sharded path, where a router-level allocator owns the id space).  A
        negative vertex id, an edge label outside 32 bits, or a forced id that
        is negative, already live or repeated in the batch, is rejected with
        :class:`GraphError` before anything is mutated.
        """
        src_arr = np.asarray(src, dtype=np.int64)
        n = int(src_arr.shape[0])
        if n == 0:
            return []
        dst_arr = np.asarray(dst, dtype=np.int64)
        zeros = np.zeros(n, dtype=np.int64)
        label_arr = zeros if label is None else np.asarray(label, dtype=np.int64)
        check_edge_columns(src_arr, dst_arr, label_arr)
        ts_arr = (
            np.zeros(n, dtype=np.float64) if timestamp is None
            else np.asarray(timestamp, dtype=np.float64)
        )
        if edge_ids is not None:
            ids_arr = np.asarray(edge_ids, dtype=np.int64)
            self._check_forced_ids(ids_arr)
        src_pos, dst_pos = self._register_vertices(
            src_arr, dst_arr,
            zeros if src_label is None else np.asarray(src_label, dtype=np.int64),
            zeros if dst_label is None else np.asarray(dst_label, dtype=np.int64),
        )
        if edge_ids is None:
            if self.recycle_edge_ids:
                ids_arr, recycled = self.free_ids.allocate(src_pos, self._rows)
                self.stats.recycled += recycled
            else:
                ids_arr = np.arange(self._rows, self._rows + n, dtype=np.int64)

        # -- edge columns: one scatter each
        self._extend_rows(int(ids_arr.max()) + 1)
        self._src[ids_arr] = src_arr
        self._dst[ids_arr] = dst_arr
        self._label[ids_arr] = label_arr
        self._timestamp[ids_arr] = ts_arr
        self._alive[ids_arr] = True

        # -- adjacency: group by partition, grow what overflows, scatter the ids
        out_parts = self._out_part[ids_arr] = self._out.partition_ids(src_pos, label_arr)
        self._out.append(out_parts, ids_arr)
        in_parts = self._in_part[ids_arr] = self._in.partition_ids(dst_pos, label_arr)
        self._in.append(in_parts, ids_arr)

        # -- accounting (bulk-equivalent to the per-event record_insert calls:
        #    placeholders and live counts grow monotonically within an insert
        #    batch, so the running peak maxes equal the final-value maxes)
        self._num_live_edges += n
        self._touch(ids_arr, src_pos, dst_pos)
        stats = self.stats
        stats.inserts += n
        stats.peak_placeholders = max(stats.peak_placeholders, self._rows)
        stats.peak_live = max(stats.peak_live, self._num_live_edges)
        return ids_arr.tolist()

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

    def apply_delete_columns(self, edge_ids) -> EdgeColumns:
        """Delete a batch of edge ids and return their last columns, in batch order.

        An id that is negative, out of range, dead or repeated in the batch
        is rejected with :class:`GraphError` before anything is mutated.
        Every affected partition is compacted in one order-preserving pass;
        the ids go on their sources' free-id stacks in batch order, exactly
        as per-id :meth:`delete_edge` calls would push them.
        """
        ids = np.asarray(edge_ids, dtype=np.int64)
        if ids.shape[0] == 0:
            return self._columns(ids)
        dead = (ids < 0) | (ids >= self._rows)
        if not dead.any():
            dead = ~self._alive[ids]
        if dead.any():
            raise GraphError(f"edge id {int(ids[dead][0])} is not a live edge")
        repeated = _first_duplicate(ids)
        if repeated is not None:
            raise GraphError(f"edge id {repeated} is deleted twice in one batch")

        deleted = self._columns(ids)
        self._alive[ids] = False
        out_parts, in_parts = self._out_part[ids], self._in_part[ids]
        self._out.remove_dead(out_parts, self._alive)
        self._in.remove_dead(in_parts, self._alive)
        src_pos = self._out.vertex_pos[out_parts]
        self._touch(ids, src_pos, self._in.vertex_pos[in_parts])
        if self.recycle_edge_ids:
            self.free_ids.push_batch(src_pos, ids)
        self._forget(ids.shape[0])
        return deleted

    def copy(self) -> "DynamicGraph":
        """Deep copy of the live graph (dead placeholders are preserved), its export
        journal and counters starting afresh."""
        clone = copy.deepcopy(self)  # through __getstate__: the journal is already empty
        clone.stats = PlaceholderStats()
        clone._export_count = 0
        return clone

    def check_invariants(self) -> None:
        """Raise :class:`GraphError` naming the first place the structures disagree.

        Cross-checks the edge columns, the vertex table, both partition
        arenas with their directories, the free-id stacks and the live-edge
        count against each other.
        """
        rows = self._rows
        live = np.flatnonzero(self._alive[:rows])
        if live.shape[0] != self._num_live_edges:
            raise GraphError(f"{live.shape[0]} alive rows but num_edges is {self._num_live_edges}")
        num_vertices = len(self._vertex_position)
        if list(self._vertex_position.values()) != list(range(num_vertices)):
            raise GraphError("vertex positions are not the vertex insertion ranks")
        if num_vertices >= self._vertex_label.shape[0] or self._vertex_label[num_vertices:].any():
            raise GraphError("the vertex label column has no zero slot behind the last vertex")
        vertex_ids = self._vertex_ids[:num_vertices]
        if vertex_ids.tolist() != list(self._vertex_position):
            raise GraphError("the vertex id column disagrees with the vertex positions")
        for name, adjacency, parts, endpoint in (
            ("out", self._out, self._out_part, self._src),
            ("in", self._in, self._in_part, self._dst),
        ):
            problem = adjacency.violation(live, parts, endpoint, self._label, vertex_ids)
            if problem is not None:
                raise GraphError(f"{name}-adjacency: {problem}")
        problem = self.free_ids.violation(vertex_ids, rows, self._alive, self._src)
        if problem is not None:
            raise GraphError(f"free-id stacks: {problem}")
        if self.free_ids.count and not self.recycle_edge_ids:
            raise GraphError("free ids are kept although recycling is off")

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
        num_vertices = len(self._vertex_position)
        arrays = {
            "vertex_ids": self._vertex_ids[:num_vertices].copy(),
            "vertex_labels": self._vertex_label[:num_vertices].copy(),
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
        num_vertices = len(self._vertex_position)
        touched_vertices = np.flatnonzero(self._vertex_touched[:prev_vertices])
        first_dirty = int(touched_vertices[0]) if touched_vertices.size else prev_vertices

        def suffix(start, stop) -> list[tuple[int, int]]:
            start, stop = int(start), int(stop)
            return [(start, stop)] if start < stop else []

        touched_edges = np.flatnonzero(self._edge_touched[:prev_rows])
        edge_ranges = coalesce_ranges(touched_edges) + suffix(prev_rows, self._rows)
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
            int(self._vertex_touched[: len(self._vertex_position)].sum()),
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
        return positions_of(self._position, ids)

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
            edge_id, self._src[edge_id], self._dst[edge_id],
            self._label[edge_id], self._timestamp[edge_id],
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

    def candidate_pool(self, vertex: int, out: bool, label: int | None = None):
        """Candidate pool for one extension step (see :meth:`DynamicGraph.candidate_pool`)."""
        if label is None:
            return self.out_edges(vertex) if out else self.in_edges(vertex)
        side, pos = self._out if out else self._in, self._position.get(vertex)
        if pos is None:
            return _EMPTY_ARRAY
        start, stop = side.label_range(pos, label)
        return side.label_indices[start:stop]

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
