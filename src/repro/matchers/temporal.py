"""Time-constrained subgraph isomorphism (the Li et al. comparison, Figure 16).

Query edges carry a ``time_rank``; an embedding is accepted only when
the timestamps of its data edges respect the ranks' order — edges with a
smaller rank must not be newer than edges with a larger rank.  Because
the predicate inspects the data edge bound to *every* query edge, the
matcher enables witness binding: a non-tree query edge is bound to each
data edge that can witness it, one embedding per witness, instead of
being a boolean check.  The order test itself is the overridden
``accept``, which the kernel applies to the finished embeddings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.api import MatchDefinition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.enumeration import EnumerationContext
    from repro.core.results import Embedding


class TemporalIsomorphismMatcher(MatchDefinition):
    """Subgraph isomorphism with a temporal-order constraint on query edges.

    Parameters
    ----------
    strict:
        When True, edges with strictly increasing ranks must have strictly
        increasing timestamps; when False (default) ties are allowed.
    """

    name = "temporal-isomorphism"
    injective = True
    bind_witnesses = True

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict

    def accept(self, context: "EnumerationContext", embedding: "Embedding") -> bool:
        ranked: list[tuple[int, float]] = []
        edge_map = embedding.edges()
        for q_edge in context.query.edges():
            if q_edge.time_rank is None:
                continue
            data_edge_id = edge_map.get(q_edge.index)
            if data_edge_id is None:  # a subclass switched bind_witnesses off
                return False
            ranked.append((q_edge.time_rank, context.graph.edge(data_edge_id).timestamp))
        ranked.sort(key=lambda item: item[0])
        for (rank_a, ts_a), (rank_b, ts_b) in zip(ranked, ranked[1:]):
            if rank_a == rank_b:
                continue
            if self.strict and not ts_a < ts_b:
                return False
            if not self.strict and ts_a > ts_b:
                return False
        return True
