"""The unified traversal frontier (Section V-A).

When a batch of edges is inserted or deleted, the effect on DEBI
propagates along the query tree.  Instead of traversing the affected
region once per updated edge (the TurboFlux regime), Mnemonic collects,
for every query-tree column, the set of data edges that must be
(re-)evaluated, and for every query node the set of data vertices whose
downward-consistency value may have changed.  Each (edge, column) pair
is evaluated at most once per batch — this sharing is what Figure 8 and
Figure 12 measure.

Storage is columnar: each column/node keeps an append-only int64 arena
(geometric growth, no per-seed set hashing) and deduplicates lazily when
the filtering pass drains it.  Seeding is the hot write path — every
updated edge seeds every label-matching column — while each slot is
drained exactly once per batch, so append-now/unique-later does strictly
less work than a hash set per slot.
"""

from __future__ import annotations

import numpy as np


class _IdArena:
    """A growable int64 append buffer with lazy deduplication."""

    __slots__ = ("_data", "_len")

    def __init__(self, capacity: int = 16) -> None:
        self._data = np.empty(capacity, dtype=np.int64)
        self._len = 0

    def append(self, value: int) -> None:
        if self._len == self._data.shape[0]:
            grown = np.empty(self._data.shape[0] * 2, dtype=np.int64)
            grown[: self._len] = self._data
            self._data = grown
        self._data[self._len] = value
        self._len += 1

    def extend(self, values) -> None:
        arr = np.asarray(values, dtype=np.int64)
        needed = self._len + arr.shape[0]
        if needed > self._data.shape[0]:
            cap = self._data.shape[0]
            while cap < needed:
                cap *= 2
            grown = np.empty(cap, dtype=np.int64)
            grown[: self._len] = self._data[: self._len]
            self._data = grown
        self._data[self._len : needed] = arr
        self._len = needed

    def unique(self) -> np.ndarray:
        """The distinct scheduled ids, sorted ascending."""
        return np.unique(self._data[: self._len])


class UnifiedFrontier:
    """Per-batch propagation state shared by all updated edges."""

    __slots__ = ("_edge_arenas", "_vertex_arenas", "traversed_edges")

    def __init__(self) -> None:
        #: column -> arena of data edge ids waiting to be evaluated there
        self._edge_arenas: dict[int, _IdArena] = {}
        #: query node -> arena of data vertices to re-check down(v, node) at
        self._vertex_arenas: dict[int, _IdArena] = {}
        #: number of (edge, column) evaluations performed for this batch
        self.traversed_edges: int = 0

    _EMPTY = np.empty(0, dtype=np.int64)

    def seed_edge(self, column: int, edge_id: int) -> None:
        """Schedule ``edge_id`` for evaluation at ``column``."""
        arena = self._edge_arenas.get(column)
        if arena is None:
            arena = self._edge_arenas[column] = _IdArena()
        arena.append(edge_id)

    def seed_edges(self, column: int, edge_ids) -> None:
        """Bulk-schedule ``edge_ids`` (any int sequence/array) at ``column``."""
        arena = self._edge_arenas.get(column)
        if arena is None:
            arena = self._edge_arenas[column] = _IdArena()
        arena.extend(edge_ids)

    def seed_vertex(self, query_node: int, vertex: int) -> None:
        """Schedule ``vertex`` for a down-consistency re-check at ``query_node``."""
        arena = self._vertex_arenas.get(query_node)
        if arena is None:
            arena = self._vertex_arenas[query_node] = _IdArena()
        arena.append(vertex)

    def seed_vertices(self, query_node: int, vertices) -> None:
        """Bulk :meth:`seed_vertex` (any int sequence/array)."""
        arena = self._vertex_arenas.get(query_node)
        if arena is None:
            arena = self._vertex_arenas[query_node] = _IdArena()
        arena.extend(vertices)

    def edges_for(self, column: int) -> np.ndarray:
        """Distinct edge ids scheduled at ``column`` so far (sorted array)."""
        arena = self._edge_arenas.get(column)
        return self._EMPTY if arena is None else arena.unique()

    def vertices_for(self, query_node: int) -> np.ndarray:
        """Distinct vertices scheduled at ``query_node`` so far (sorted array)."""
        arena = self._vertex_arenas.get(query_node)
        return self._EMPTY if arena is None else arena.unique()

    def count_traversal(self, n: int = 1) -> None:
        self.traversed_edges += n
