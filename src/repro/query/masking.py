"""Duplicate-elimination masks (Section VI, "Duplicates Removal").

When a whole batch of insertions is applied to DEBI before enumeration,
an embedding that uses two or more edges of the batch would be emitted
once for every one of those edges.  Mnemonic prevents this with a mask
per starting query edge: when enumeration starts at query-edge position
``i``, query edges at *earlier* canonical positions may not be matched
to edges of the current batch.  An embedding whose batch edges occupy
positions ``S`` is therefore emitted exactly once — from ``min(S)``.

For non-tree start edges one extra condition is required (and encoded in
:attr:`MaskTable.require_no_old_witness`): the pinned non-tree constraint
must have *no* pre-existing witness, otherwise the same node mapping
would also be reachable from a later start position using the old
witness, producing a duplicate.  (The kernel waives this condition for
match definitions that bind witnesses: there the pinned edge is part of
the embedding's identity, so a different witness is a different
embedding, not a duplicate.)

The canonical position of a query edge is simply its index in the query
graph, matching the paper's Table I layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.query_graph import QueryGraph
from repro.query.query_tree import QueryTree


@dataclass(frozen=True)
class Mask:
    """Mask for one starting query edge."""

    start_edge: int
    #: query edge indexes that may NOT use current-batch edges
    masked_edges: frozenset[int]
    #: True when the start edge is a non-tree edge: the pinned constraint
    #: must not have any witness that predates the batch
    require_no_old_witness: bool

    def is_masked(self, query_edge_index: int) -> bool:
        return query_edge_index in self.masked_edges


class MaskTable:
    """All per-start-edge masks for a query (the paper's Table I)."""

    def __init__(self, query: QueryGraph, tree: QueryTree) -> None:
        self.query = query
        self.tree = tree
        self._masks: dict[int, Mask] = {}
        for edge in query.edges():
            masked = frozenset(range(edge.index))
            self._masks[edge.index] = Mask(
                start_edge=edge.index,
                masked_edges=masked,
                require_no_old_witness=not tree.is_tree_edge(edge.index),
            )

    def mask_for(self, start_edge_index: int) -> Mask:
        return self._masks[start_edge_index]

    def as_table(self) -> list[list[str]]:
        """Render the mask table like the paper's Table I (``*`` marks the start edge)."""
        size = self.query.num_edges
        rows = []
        for start in range(size):
            mask = self._masks[start]
            row = []
            for pos in range(size):
                if pos == start:
                    row.append("*")
                elif mask.is_masked(pos):
                    row.append("1")
                else:
                    row.append("0")
            rows.append(row)
        return rows

    def __len__(self) -> int:
        return len(self._masks)
