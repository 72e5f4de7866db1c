"""Dynamic labelled multigraph on one columnar edge store.

The data-graph storage layer of Section II-A and the "Memory recycling"
paragraph of Section IV-A of the paper; ``docs/architecture.md``
("Adjacency layout & candidate pipeline") has the long account.  Every edge
is stored once, every index over it is a flat numpy column (the store holds
no dict), and a batch mutation is one vertex-interning pass followed by
array operations only — or, where the native kernel loads, one ``kernel.c``
call on the same columns (``core/native.py``), with this numpy code kept as
the fallback and as its oracle.

* **Vertices** are interned once: a sorted directory of raw ids maps each to
  its position (insertion rank); labels are a column by position.
* **Edge columns** ``src / dst / label / timestamp / alive`` indexed by edge
  id are the only copy of an edge; a row with ``alive == False`` is a dead
  *placeholder* (a deleted edge), and the row count is the DEBI row count.
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
from typing import Iterator

import numpy as np

from repro.graph.edge import EdgeColumns, EdgeRecord
from repro.graph.stats import PlaceholderStats
from repro.utils.validation import GraphError

_EMPTY_ARRAY = np.empty(0, dtype=np.int64)
#: rows a growable column starts with — small, so constructing a graph allocates next to nothing
_INITIAL_ROWS = 16
#: smallest capacity a non-empty arena row is given
_MIN_CAPACITY = 4
_EDGE_COLUMNS = ("_src", "_dst", "_label", "_timestamp", "_alive", "_out_part", "_in_part")
#: a directory key is ``position * _LABEL_SPAN + label + _LABEL_BIAS``: edge
#: labels are signed 32-bit values, positions take the upper half
_LABEL_SPAN = 1 << 32
_LABEL_BIAS = 1 << 31
_LAST_KEY = (1 << 63) - 1
#: every empty :class:`_Directory`'s columns: shared, read-only, replaced on the first filing
_NO_KEYS, _NO_VALUES = np.full(1, _LAST_KEY), np.full(1, -1)
_NO_KEYS.flags.writeable = _NO_VALUES.flags.writeable = False


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


def _grown(column: np.ndarray, used: int, needed: int) -> np.ndarray:
    """A copy of ``column`` with at least doubled room for ``needed`` rows; unused rows are zero."""
    grown = np.zeros(max(needed, 2 * column.shape[0]), dtype=column.dtype)
    grown[:used] = column[:used]
    return grown


def _native():
    """:mod:`repro.core.native`, imported on first use (``repro.core`` imports this module)."""
    from repro.core import native

    return native


def _relabelled(vertex, held, label) -> GraphError:
    return GraphError(f"vertex {vertex} already has label {held}, cannot relabel to {label}")


def _first_duplicate(ids: np.ndarray) -> int | None:
    ordered = np.sort(ids)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    return int(repeated[0]) if repeated.size else None


class _Directory:
    """Sorted int64 keys with an int64 value each, in capacity-backed columns.

    Every slot past the last key holds the sentinel ``_LAST_KEY`` (value -1), so
    the whole column is sorted and no search runs off its end; numpy and
    ``kernel.c`` search the same columns and file new keys into reserved room.
    """

    def __init__(self) -> None:
        self.count = 0
        self.keys, self.values = _NO_KEYS, _NO_VALUES

    def reserve(self, more: int) -> None:
        """Room for ``more`` new keys and the sentinel behind them."""
        needed = self.count + more + 1
        if needed > self.keys.shape[0]:
            size = max(needed, 2 * self.keys.shape[0])
            for name, fill in (("keys", _LAST_KEY), ("values", -1)):
                column = np.full(size, fill, dtype=np.int64)
                column[: self.count] = getattr(self, name)[: self.count]
                setattr(self, name, column)

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The value of every key, -1 where there is none."""
        at = self.keys.searchsorted(keys)
        return np.where(self.keys[at] == keys, self.values[at], -1)

    def find_one(self, key: int) -> int:
        """:meth:`find` of one key, on scalars."""
        at = self.keys.searchsorted(key)
        return self.values.item(at) if self.keys.item(at) == key else -1

    def file(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Enter ``keys`` (ascending, none present yet) with their ``values``."""
        count, more = self.count, keys.shape[0]
        self.reserve(more)
        at = self.keys[:count].searchsorted(keys)
        low = int(at[0])
        for column, new in ((self.keys, keys), (self.values, values)):
            column[low : count + more] = np.insert(column[low:count], at - low, new)
        self.count = count + more

    def _used(self) -> dict:
        count = self.count
        return {"count": count, "keys": self.keys[: count + 1], "values": self.values[: count + 1]}

    def violation(self) -> str | None:
        """The first inconsistency of the columns, or None (``check_invariants``)."""
        count = self.count
        if (np.diff(self.keys[:count]) <= 0).any():
            return "the directory keys are not strictly ascending"
        if (self.keys[count:] != _LAST_KEY).any() or (self.values[count:] != -1).any():
            return "a slot past the last key does not hold the sentinel"
        return None


class _Arena:
    """Rows of int64 entries pooled in one buffer: row ``r`` is ``arena[start[r]:][:size[r]]``.

    ``vertices`` is the owner's vertex directory, raw id -> position (shared,
    not owned).
    """

    _COLUMNS: tuple[str, ...] = ("start", "size", "capacity")

    def __init__(self, vertices: _Directory) -> None:
        self.vertices = vertices
        self.arena = np.empty(_INITIAL_ROWS, dtype=np.int64)
        #: arena slots handed out so far: live ranges, their slack, abandoned ranges
        self.tail = 0
        #: rows in use; ids are dense and never reused
        self.rows = 0
        self.start = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self.size = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self.capacity = np.zeros(_INITIAL_ROWS, dtype=np.int64)

    def reserve(self, rows: int) -> None:
        """Room in the row table for ``rows`` rows; rows past ``self.rows`` are zero."""
        if rows > self.start.shape[0]:
            for name in self._COLUMNS:
                setattr(self, name, _grown(getattr(self, name), self.rows, rows))

    def _extend(self, rows: int) -> None:
        """Make every row below ``rows`` exist (empty until appended to)."""
        self.reserve(rows)
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

    def _repack(self, room: int = 0) -> None:
        """Lay every row out afresh in a new arena, dropping abandoned ranges, with
        at least ``room`` slots free behind the tail."""
        count = self.rows
        capacity = self.capacity[:count]
        size = self.size[:count]
        start = np.cumsum(capacity) - capacity
        self.tail = int(capacity.sum())
        arena = np.empty(max(2 * (self.tail + room), _INITIAL_ROWS), dtype=np.int64)
        arena[expand_ranges(start, size)] = self.arena[expand_ranges(self.start[:count], size)]
        self.arena = arena
        self.start[:count] = start

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

    def _used(self) -> dict:
        rows = max(self.rows, 1)
        return {"tail": self.tail, "rows": self.rows, "arena": self.arena[: self.tail],
                **{name: getattr(self, name)[:rows] for name in self._COLUMNS}}

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

    The one statement of the recycling rule: a deleted edge's id goes on
    top of its source's stack, an insertion takes its source's top id, or a
    fresh one.  A batch is that rule in event order, so its ids are those of
    per-edge calls.  Rows are the sources' vertex positions.
    """

    def __init__(self, vertices: _Directory) -> None:
        super().__init__(vertices)
        #: ids on all stacks together
        self.count = 0

    def _used(self) -> dict:
        return {**super()._used(), "count": self.count}

    def stack(self, src: int) -> list[int]:
        """The free ids of source vertex ``src``, top last."""
        row = self.vertices.find_one(src)
        return [] if not 0 <= row < self.rows else self._slice(row).tolist()

    def push_batch(self, rows: np.ndarray, edge_ids: np.ndarray) -> None:
        self._extend(self.vertices.count)
        self.append(rows, edge_ids)
        self.count += edge_ids.shape[0]

    def allocate(self, rows: np.ndarray, first_fresh: int) -> tuple[np.ndarray, int]:
        """``(ids, how many were recycled)`` for one insertion per entry of ``rows``, in
        event order; fresh ids count up from ``first_fresh`` over the events no stack served."""
        n = rows.shape[0]
        ids = np.full(n, -1, dtype=np.int64)
        self._extend(self.vertices.count)
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

    #: ``vertex_pos`` is the owner's position in vertex insertion order,
    #: ``label`` the edge label the partition holds
    _COLUMNS = (*_Arena._COLUMNS, "vertex_pos", "label")

    def __init__(self, vertices: _Directory) -> None:
        super().__init__(vertices)
        self.vertex_pos = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self.label = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        #: packed (position, label) key -> partition id
        self.directory = _Directory()

    # ------------------------------------------------------------------ directory
    @staticmethod
    def keys_of(positions: np.ndarray, labels) -> np.ndarray:
        """Directory keys of ``(position, label)`` pairs; negative (never a key) for
        an unknown vertex (position -1) or a label outside the 32-bit range."""
        keys = positions * _LABEL_SPAN + (labels + _LABEL_BIAS)
        return np.where((labels >= -_LABEL_BIAS) & (labels < _LABEL_BIAS), keys, -1)

    def partition_ids(self, positions: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """The partition of every ``(position, label)`` pair, created in pair order if new."""
        keys = positions * _LABEL_SPAN + (labels + _LABEL_BIAS)
        parts = self.directory.find(keys)
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
            self.directory.file(new_keys, created)
            parts[missing] = created[inverse]
        return parts

    def parts_of(self, vertex: int) -> np.ndarray:
        """The partition ids of ``vertex`` in creation order."""
        position = self.vertices.find_one(vertex)
        if position < 0:
            return _EMPTY_ARRAY
        low, high = self.directory.keys.searchsorted(
            (position * _LABEL_SPAN, (position + 1) * _LABEL_SPAN)
        )
        return np.sort(self.directory.values[low:high])

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

    # ------------------------------------------------------------------ reads
    def pool(self, vertex: int, label: int | None) -> np.ndarray:
        """The candidate pool of ``vertex``: one partition, or all of them for ``label=None``."""
        if label is not None:
            key = self.keys_of(np.array([self.vertices.find_one(vertex)]), label)
            part = self.directory.find_one(int(key[0]))
            return _EMPTY_ARRAY if part < 0 else self._slice(part)
        parts = self.parts_of(vertex).tolist()
        if len(parts) == 1:
            return self._slice(parts[0])
        return np.concatenate(list(map(self._slice, parts))) if parts else _EMPTY_ARRAY

    def locate(self, vertices: np.ndarray, label: int | None):
        """Where the pools of ``vertices`` lie: ``(partitions, their sizes, pool size per vertex)``.

        ``label=None`` lists all of a vertex's partitions in creation order;
        a label lists exactly one per vertex, a missing one with size 0.
        """
        n = vertices.shape[0]
        positions = self.vertices.find(vertices)
        filed, parts = self.directory.keys, self.directory.values
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

    def pools(self, vertices: np.ndarray, label: int | None) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`pool` of every vertex: ``(pools concatenated, size per vertex)``."""
        parts, part_sizes, sizes = self.locate(vertices, label)
        return self.arena[expand_ranges(self.start[parts], part_sizes)], sizes

    def members(self, parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The partitions ``parts`` back to back: ``(edge ids, size per partition)``."""
        sizes = self.size[parts]
        return self.arena[expand_ranges(self.start[parts], sizes)], sizes

    def degree(self, vertex: int) -> int:
        return int(self.size[self.parts_of(vertex)].sum())

    def violation(
        self, live_ids: np.ndarray, edge_part: np.ndarray, endpoint: np.ndarray,
        edge_label: np.ndarray, vertex_ids: np.ndarray,
    ) -> str | None:
        """The first inconsistency with the edge columns, or None (``check_invariants``)."""
        problem = self.layout_violation()
        if problem is not None:
            return problem
        count = self.rows
        problem = self.directory.violation()
        if problem is not None:
            return problem
        filed = self.directory.keys[: self.directory.count]
        parts = self.directory.values[: self.directory.count]
        if not np.array_equal(np.sort(parts), np.arange(count)):
            return "the directory does not list every partition exactly once"
        owners, labels = self.vertex_pos[:count], self.label[:count]
        if (owners < 0).any() or (owners >= vertex_ids.shape[0]).any():
            return "a partition's vertex position is not in the vertex table"
        if not np.array_equal(filed, self.keys_of(owners, labels)[parts]):
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
    partition directory packs it), before the graph writes anything for it."""
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
        # ``_rows`` ids have been allocated so far (live or dead); rows
        # beyond ``_rows`` are all-zero, i.e. dead.  The ``_*_part`` columns
        # remember each live edge's partition ids.
        self._rows = 0
        self._src = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self._dst = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self._label = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self._timestamp = np.zeros(_INITIAL_ROWS, dtype=np.float64)
        self._alive = np.zeros(_INITIAL_ROWS, dtype=bool)
        self._out_part = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self._in_part = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        # Vertices are append-only and interned once: the vertex directory
        # maps raw id -> position (insertion rank).  Labels are a column by
        # position with at least one unused (zero) slot behind the last
        # vertex, so position -1 — an unknown vertex — reads label 0.
        self._vertices = _Directory()
        self._vertex_label = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        #: position -> raw vertex id, the inverse of the vertex directory
        self._vertex_ids = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self._out = _Adjacency(self._vertices)
        self._in = _Adjacency(self._vertices)
        #: recyclable edge ids, stacked per source vertex
        self.free_ids = FreeIdStacks(self._vertices)

        self._num_live_edges = 0
        self.stats = PlaceholderStats()

    # ------------------------------------------------------------------ vertices
    def add_vertex(self, vertex: int, label: int = 0) -> int:
        """Register ``vertex`` with ``label`` (which later calls may not change); its position."""
        mention, given = np.array([vertex], dtype=np.int64), np.array([label], dtype=np.int64)
        self._check_labels(mention, given)
        return int(self._register_vertices(mention, given)[0])

    def _grow_vertex_columns(self, count: int) -> None:
        """Room for ``count`` vertices in the directory, free-id stacks and columns."""
        room = self._vertex_label.shape[0]
        if count >= room:
            self._vertex_label = _grown(self._vertex_label, room, count + 1)
            self._vertex_ids = _grown(self._vertex_ids, room, count + 1)
        self._vertices.reserve(count - self._vertices.count)
        self.free_ids.reserve(count)

    def _check_labels(self, mentions: np.ndarray, given: np.ndarray) -> None:
        """Refuse vertex labels that disagree with a known vertex's, or with what a
        new vertex's first mention in ``mentions`` gives it; 0 asks for nothing."""
        if not given.any():
            return
        positions = self._vertices.find(mentions)
        held = self._vertex_label[positions]
        unseen = np.flatnonzero(positions < 0)
        if unseen.size:
            order, _, first, counts = stable_runs(mentions[unseen])
            held[unseen[order]] = np.repeat(given[unseen[order[first]]], counts)
        conflict = (given != 0) & (given != held)
        if conflict.any():
            at = int(conflict.argmax())
            raise _relabelled(mentions[at], held[at], given[at])

    def _register_vertices(self, mentions: np.ndarray, given: np.ndarray) -> np.ndarray:
        """:meth:`add_vertex` over a batch's (checked) mentions; returns their positions.

        Unseen vertices are filed into the directory with one merge and take
        the positions after the known ones in first-mention order, each with
        the label of its first mention.
        """
        self.check_writable()
        positions = self._vertices.find(mentions)
        unseen = np.flatnonzero(positions < 0)
        if unseen.size:
            ids, mention, inverse = np.unique(
                mentions[unseen], return_index=True, return_inverse=True
            )
            known = self._vertices.count
            self._grow_vertex_columns(known + ids.shape[0])
            created = np.empty_like(mention)
            created[np.argsort(mention)] = np.arange(known, known + ids.shape[0])
            introduced = unseen[mention]
            self._vertex_label[created] = given[introduced]
            self._vertex_ids[created] = mentions[introduced]
            self._vertices.file(ids, created)
            positions[unseen] = created[inverse]
        return positions

    def has_vertex(self, vertex: int) -> bool:
        return self._vertices.find_one(vertex) >= 0

    def vertex_label(self, vertex: int) -> int:
        """Return the label of ``vertex`` (0 for unlabelled/unknown vertices)."""
        return self._vertex_label.item(self._vertices.find_one(vertex))

    def vertex_labels(self, vertices) -> np.ndarray:
        """:meth:`vertex_label` of every entry of a vertex-id array, as int64."""
        return self._vertex_label[self._vertices.find(np.asarray(vertices, dtype=np.int64))]

    def vertices(self) -> Iterator[int]:
        return iter(self._vertex_ids[: self._vertices.count].tolist())

    @property
    def num_vertices(self) -> int:
        return self._vertices.count

    # ------------------------------------------------------------------ edges
    def add_edge(
        self, src: int, dst: int, label: int = 0, timestamp: float = 0.0,
        src_label: int | None = None, dst_label: int | None = None,
    ) -> int:
        """Insert a new edge instance and return its ``edge_id``.

        Parallel edges (same ``src``/``dst``/``label``) are distinct
        instances with distinct ids — this is the multigraph property the
        paper relies on for context-aware matching.  A batch of one.
        """
        return self.apply_insert_columns(
            [src], [dst], [label], [timestamp], [src_label or 0], [dst_label or 0]
        )[0]

    def _grow_rows(self, rows: int) -> None:
        """Room in the edge columns for ``rows`` ids; those past ``_rows`` are zero (dead)."""
        if rows > self._src.shape[0]:
            for name in _EDGE_COLUMNS:
                setattr(self, name, _grown(getattr(self, name), self._rows, rows))

    def delete_edge(self, edge_id: int) -> EdgeRecord:
        """Delete the edge instance ``edge_id`` and return its last record: a batch of one."""
        return next(self.apply_delete_columns([edge_id]).records())

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
        return (self._out if out else self._in).pools(anchors, label)

    def label_degrees(self, vertices: np.ndarray, out: bool, label: int | None = None):
        """Batched label degree: the :meth:`candidate_pools` sizes, without the pools.

        ``label=None`` is the total out- (or in-) degree; an unknown vertex
        has degree 0.  One partition-table ``size`` gather.
        """
        return (self._out if out else self._in).locate(vertices, label)[2]

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
        positions = self._vertices.find(np.concatenate([srcs, dsts]))
        out_part = self._out.directory.find(_Adjacency.keys_of(positions[:n], labels))
        in_part = self._in.directory.find(_Adjacency.keys_of(positions[n:], labels))
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
        self, src, dst, label=None, timestamp=None, src_label=None, dst_label=None
    ) -> list[int]:
        """Insert a whole batch from contiguous columns; returns the edge ids.

        The columnar counterpart of calling :meth:`add_edge` per event, with
        the same resulting state, **edge-id sequence** included (see
        :meth:`FreeIdStacks.allocate`; partitions are created in event order).
        Columns are int64 (``timestamp`` float64) arrays of equal length;
        missing columns default to zeros.  A negative vertex id, an edge label
        outside 32 bits, a timestamp that is not finite or a vertex label its
        vertex does not hold is rejected with :class:`GraphError` before
        anything is mutated.
        """
        src_arr = np.ascontiguousarray(src, dtype=np.int64)
        n = int(src_arr.shape[0])
        if n == 0:
            return []
        dst_arr = np.ascontiguousarray(dst, dtype=np.int64)
        zeros = np.zeros(n, dtype=np.int64)
        label_arr = zeros if label is None else np.ascontiguousarray(label, dtype=np.int64)
        check_edge_columns(src_arr, dst_arr, label_arr)
        ts_arr = (
            np.zeros(n, dtype=np.float64) if timestamp is None
            else np.ascontiguousarray(timestamp, dtype=np.float64)
        )
        finite = np.isfinite(ts_arr)
        if not finite.all():
            raise GraphError(f"timestamp {ts_arr[~finite][0]} is not finite")
        src_labels = zeros if src_label is None else np.ascontiguousarray(src_label, dtype=np.int64)
        dst_labels = zeros if dst_label is None else np.ascontiguousarray(dst_label, dtype=np.int64)
        native = _native()
        lib = native.library()
        if lib is not None and type(self) is DynamicGraph:
            # the kernel checks the vertex labels in its first pass, before any write
            ids_arr, recycled, conflict = native.insert_columns(
                lib, self, src_arr, dst_arr, label_arr, ts_arr, src_labels, dst_labels
            )
            if conflict is not None:
                at, held = conflict
                given = (dst_labels if at % 2 else src_labels)[at // 2]
                raise _relabelled((dst_arr if at % 2 else src_arr)[at // 2], held, given)
        else:
            mentions = np.stack([src_arr, dst_arr], axis=1).ravel()
            given = np.stack([src_labels, dst_labels], axis=1).ravel()
            self._check_labels(mentions, given)
            ids_arr, recycled = self._insert_columns(src_arr, dst_arr, label_arr, ts_arr,
                                                     mentions, given)

        # -- accounting (bulk-equivalent to the per-event record_insert calls:
        #    placeholders and live counts grow monotonically within an insert
        #    batch, so the running peak maxes equal the final-value maxes)
        self._num_live_edges += n
        stats = self.stats
        stats.recycled += recycled
        stats.inserts += n
        stats.peak_placeholders = max(stats.peak_placeholders, self._rows)
        stats.peak_live = max(stats.peak_live, self._num_live_edges)
        return ids_arr.tolist()

    def _insert_columns(self, src, dst, label, timestamp, mentions, given):
        """The numpy body of :meth:`apply_insert_columns`: ``(edge ids, how many recycled)``."""
        positions = self._register_vertices(mentions, given)
        src_pos, dst_pos = positions[0::2], positions[1::2]
        if self.recycle_edge_ids:
            ids, recycled = self.free_ids.allocate(src_pos, self._rows)
        else:
            ids, recycled = np.arange(self._rows, self._rows + src.shape[0], dtype=np.int64), 0

        # -- edge columns: one scatter each
        self._grow_rows(int(ids.max()) + 1)
        self._rows = max(self._rows, int(ids.max()) + 1)
        self._src[ids] = src
        self._dst[ids] = dst
        self._label[ids] = label
        self._timestamp[ids] = timestamp
        self._alive[ids] = True

        # -- adjacency: group by partition, grow what overflows, scatter the ids
        out_parts = self._out_part[ids] = self._out.partition_ids(src_pos, label)
        self._out.append(out_parts, ids)
        in_parts = self._in_part[ids] = self._in.partition_ids(dst_pos, label)
        self._in.append(in_parts, ids)
        return ids, recycled

    def apply_delete_columns(self, edge_ids) -> EdgeColumns:
        """Delete a batch of edge ids and return their last columns, in batch order.

        An id that is negative, out of range, dead or repeated in the batch
        is rejected with :class:`GraphError` before anything is mutated.
        Every affected partition is compacted in one order-preserving pass;
        the ids go on their sources' free-id stacks in batch order, exactly
        as per-id :meth:`delete_edge` calls would push them.
        """
        ids = np.ascontiguousarray(edge_ids, dtype=np.int64)
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
        native = _native()
        lib = native.library()
        if lib is not None and type(self) is DynamicGraph:
            native.delete_columns(lib, self, ids)
        else:
            self.check_writable()
            self._alive[ids] = False
            out_parts = self._out_part[ids]
            self._out.remove_dead(out_parts, self._alive)
            self._in.remove_dead(self._in_part[ids], self._alive)
            if self.recycle_edge_ids:
                self.free_ids.push_batch(self._out.vertex_pos[out_parts], ids)
        self._forget(ids.shape[0])
        return deleted

    def copy(self) -> "DynamicGraph":
        """Deep copy of the live graph (dead placeholders are preserved), its counters
        starting afresh."""
        clone = copy.deepcopy(self)
        clone.stats = PlaceholderStats()
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
        directory = self._vertices
        num_vertices = directory.count
        problem = directory.violation()
        if problem is not None:
            raise GraphError(f"vertex {problem}")
        positions = directory.values[:num_vertices]
        if not np.array_equal(np.sort(positions), np.arange(num_vertices)):
            raise GraphError("vertex positions are not the vertex insertion ranks")
        if num_vertices >= self._vertex_label.shape[0] or self._vertex_label[num_vertices:].any():
            raise GraphError("the vertex label column has no zero slot behind the last vertex")
        vertex_ids = self._vertex_ids[:num_vertices]
        if not np.array_equal(vertex_ids[positions], directory.keys[:num_vertices]):
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
        if self.recycle_edge_ids and self.free_ids.count != rows - live.shape[0]:
            raise GraphError("a dead row is on no free-id stack although recycling is on")
        if self.free_ids.count and not self.recycle_edge_ids:
            raise GraphError("free ids are kept although recycling is off")

    # ------------------------------------------------------------------ shared-memory export
    def _parts(self) -> dict:
        """The graph and its stores, by the prefix their keys carry in :meth:`export_arrays`."""
        return {"graph": self, "vertices": self._vertices, "out": self._out,
                "out.directory": self._out.directory, "in": self._in,
                "in.directory": self._in.directory, "free": self.free_ids}

    def _used(self) -> dict:
        rows, vertices = self._rows, self._vertices.count + 1
        return {"recycle_edge_ids": self.recycle_edge_ids, "_rows": rows,
                "_num_live_edges": self._num_live_edges,
                **{name: getattr(self, name)[:rows] for name in _EDGE_COLUMNS},
                "_vertex_label": self._vertex_label[:vertices],
                "_vertex_ids": self._vertex_ids[:vertices]}

    def export_arrays(self) -> dict:
        """Every column of the graph cut to what is in use, and the counters that say how
        much that is, keyed ``"<part>.<attribute>"``.

        The arrays alias this graph's storage (no copy); the shared-memory layer copies
        them into a segment and worker processes rebuild a read-only graph with
        :meth:`attach_arrays`.  Edge columns keep ``_rows`` rows, arenas their ``tail``,
        row tables their ``rows`` (at least one, which a missed lookup reads), directories
        and vertex columns their count and the slot behind it (the sentinel, the zero
        label an unknown vertex reads).
        """
        return {f"{prefix}.{name}": value for prefix, part in self._parts().items()
                for name, value in part._used().items()}

    @classmethod
    def attach_arrays(cls, state: dict) -> "DynamicGraph":
        """Rebuild a read-only graph over :meth:`export_arrays`'s arrays (zero-copy).

        It answers every read like the graph exported; every mutation raises
        :class:`GraphError` before it writes.
        """
        graph = cls()
        parts = graph._parts()
        for key, value in state.items():
            prefix, _, name = key.rpartition(".")
            if isinstance(value, np.ndarray):
                value = value.view()
                value.flags.writeable = False
            setattr(parts[prefix], name, value)
        return graph

    def check_writable(self) -> None:
        """Refuse to mutate an attached graph: its columns are read-only views."""
        if not self._src.flags.writeable:
            raise GraphError("an attached graph is read-only")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"placeholders={self.num_placeholders})"
        )
