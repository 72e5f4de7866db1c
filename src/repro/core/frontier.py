"""The unified traversal frontier (Section V-A).

When a batch of edges is inserted or deleted, the effect on DEBI
propagates along the query tree.  Instead of traversing the affected
region once per updated edge (the TurboFlux regime), Mnemonic collects,
for every query-tree column, the set of data edges that must be
(re-)evaluated, and for every query node the set of data vertices whose
downward-consistency value may have changed.  Each (edge, column) pair
is evaluated at most once per batch — this sharing is what Figure 8 and
Figure 12 measure.

Seeds arrive as whole id arrays (every updated edge seeds every
label-matching column at once) and each slot is drained exactly once per
batch, so a slot just keeps the seeded chunks and deduplicates when it is
drained — append-now/unique-later does strictly less work than a hash set
per slot.
"""

from __future__ import annotations

import numpy as np


class UnifiedFrontier:
    """Per-batch propagation state shared by all updated edges."""

    __slots__ = ("_edges", "_vertices", "traversed_edges")

    def __init__(self) -> None:
        #: column -> chunks of data edge ids waiting to be evaluated there
        self._edges: dict[int, list[np.ndarray]] = {}
        #: query node -> chunks of data vertices to re-check down(v, node) at
        self._vertices: dict[int, list[np.ndarray]] = {}
        #: number of (edge, column) evaluations performed for this batch
        self.traversed_edges: int = 0

    _EMPTY = np.empty(0, dtype=np.int64)

    def seed_edges(self, column: int, edge_ids) -> None:
        """Schedule ``edge_ids`` (any int sequence/array) for evaluation at ``column``."""
        self._edges.setdefault(column, []).append(np.asarray(edge_ids, dtype=np.int64))

    def seed_vertices(self, query_node: int, vertices) -> None:
        """Schedule ``vertices`` for a down-consistency re-check at ``query_node``."""
        self._vertices.setdefault(query_node, []).append(np.asarray(vertices, dtype=np.int64))

    def edges_for(self, column: int) -> np.ndarray:
        """Distinct edge ids scheduled at ``column`` so far (sorted array)."""
        chunks = self._edges.get(column)
        return np.unique(np.concatenate(chunks)) if chunks else self._EMPTY

    def vertices_for(self, query_node: int) -> np.ndarray:
        """Distinct vertices scheduled at ``query_node`` so far (sorted array)."""
        chunks = self._vertices.get(query_node)
        return np.unique(np.concatenate(chunks)) if chunks else self._EMPTY

    def count_traversal(self, n: int = 1) -> None:
        self.traversed_edges += n
