"""The programmable surface of Mnemonic.

The paper's key usability claim is that a new subgraph-matching variant
needs only a few application-defined functions on top of one engine
(Figures 3/4, 14-16).  Here they are the overridable members of
:class:`MatchDefinition`:

``edge_matcher(query, graph, q_edge, d_edge)``
    Decides whether a data edge is a candidate match for a query edge,
    based on node/edge labels or any other attribute.  It controls what
    goes into DEBI and which data edges may witness a non-tree query edge.

``root_matcher(query, graph, root, vertex)``
    Decides whether a data vertex may be the image of the root query node.

``accept(context, embedding)``
    A final predicate over each complete embedding (the temporal-order
    check of time-constrained isomorphism).  Overriding it costs one
    :class:`~repro.core.results.Embedding` record per finished candidate.

``injective`` / ``bind_witnesses`` / ``label_partitioned``
    Matching semantics as class attributes: distinct data vertices per
    query node or not (isomorphism vs homomorphism), non-tree query edges
    bound to explicit data edges or merely checked, and whether candidate
    pools may be narrowed to the query edge's label partition.

Enumeration itself is not a hook: every definition runs through the one
columnar kernel of :mod:`repro.core.enumeration`, specialised by the
members above.  The library ships the variants evaluated in the paper
(isomorphism, homomorphism, time-constrained isomorphism) in
:mod:`repro.matchers`, all expressed through this interface; dual and
strong simulation compute a node relation rather than embeddings and are
seeded from the engine's DEBI instead
(:func:`repro.matchers.simulation.dual_simulation_from_debi`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.graph.adjacency import DynamicGraph
from repro.graph.edge import EdgeRecord
from repro.query.query_graph import WILDCARD_LABEL, QueryEdge, QueryGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.enumeration import EnumerationContext
    from repro.core.results import Embedding


def default_edge_matcher(
    query: QueryGraph,
    graph: DynamicGraph,
    q_edge: QueryEdge,
    d_edge: EdgeRecord,
) -> bool:
    """The paper's Figure 4 matcher: endpoint node labels and the edge label must agree.

    Wildcard query labels match anything.  Direction is implicit: the
    data edge's source is compared against the query edge's source.
    """
    q_src_label = query.node_label(q_edge.src)
    q_dst_label = query.node_label(q_edge.dst)
    if q_src_label != WILDCARD_LABEL and q_src_label != graph.vertex_label(d_edge.src):
        return False
    if q_dst_label != WILDCARD_LABEL and q_dst_label != graph.vertex_label(d_edge.dst):
        return False
    if q_edge.label != WILDCARD_LABEL and q_edge.label != d_edge.label:
        return False
    return True


def vertex_label_columns(
    graph: DynamicGraph, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The graph's vertex labels of two aligned endpoint columns.

    One bulk ``vertex_labels`` gather over the distinct vertices.  The
    labels must come from the graph, not from event columns: an event
    carrying label 0 keeps a vertex's existing label.
    """
    uniq, inverse = np.unique(np.concatenate([src, dst]), return_inverse=True)
    labels = graph.vertex_labels(uniq)[inverse]
    return labels[: src.shape[0]], labels[src.shape[0] :]


def default_edge_mask(
    query: QueryGraph,
    q_edge: QueryEdge,
    src_labels: np.ndarray,
    dst_labels: np.ndarray,
    edge_labels: np.ndarray,
) -> np.ndarray:
    """:func:`default_edge_matcher` over aligned label columns: one bool per data edge."""
    mask = np.ones(edge_labels.shape[0], dtype=bool)
    q_src_label = query.node_label(q_edge.src)
    q_dst_label = query.node_label(q_edge.dst)
    if q_src_label != WILDCARD_LABEL:
        mask &= src_labels == q_src_label
    if q_dst_label != WILDCARD_LABEL:
        mask &= dst_labels == q_dst_label
    if q_edge.label != WILDCARD_LABEL:
        mask &= edge_labels == q_edge.label
    return mask


def uses_default_edge_matcher(match_def: MatchDefinition) -> bool:
    """May :func:`default_edge_mask` stand in for ``match_def.edge_matcher``?"""
    return type(match_def).edge_matcher is MatchDefinition.edge_matcher


class MatchDefinition:
    """Base class bundling the user functions plus matching options.

    Subclass and override what the target variant needs:

    * :meth:`edge_matcher` — candidate condition (drives DEBI content);
    * :meth:`root_matcher` — candidate condition for the root query node;
    * :meth:`accept` — final predicate over a complete embedding
      (e.g. the temporal-order check of time-constrained isomorphism);
    * :attr:`injective` — ``True`` enforces distinct data vertices per
      query node (isomorphism), ``False`` allows reuse (homomorphism);
    * :attr:`bind_witnesses` — when ``True`` non-tree constraints are
      bound to explicit witness edges, one embedding per witness (needed
      when :meth:`accept` inspects every query edge's data edge, e.g. the
      temporal variant); when ``False`` they are boolean checks, as in
      the paper's Figure 4.
    * :attr:`label_partitioned` — promise that :meth:`edge_matcher`
      rejects any data edge whose label differs from a non-wildcard
      query edge label (true for anything that delegates to
      :func:`default_edge_matcher`, however much it restricts further).
      The engine then fetches candidates from per-label adjacency
      partitions — O(matching edges) instead of O(vertex degree).  Set
      it to ``False`` for a matcher that can accept a data edge whose
      label differs from the query edge's, or labelled candidates would
      be silently missed.
    """

    #: human-readable name used in logs and benchmark tables
    name: str = "custom"
    injective: bool = True
    bind_witnesses: bool = False
    #: edge_matcher implies data-edge label == non-wildcard query-edge label
    label_partitioned: bool = True

    # ------------------------------------------------------------------ filtering
    def edge_matcher(
        self,
        query: QueryGraph,
        graph: DynamicGraph,
        q_edge: QueryEdge,
        d_edge: EdgeRecord,
    ) -> bool:
        """Return True when ``d_edge`` is a candidate match for ``q_edge``."""
        return default_edge_matcher(query, graph, q_edge, d_edge)

    def root_matcher(self, query: QueryGraph, graph: DynamicGraph, root: int, vertex: int) -> bool:
        """Return True when ``vertex`` may be the image of the root query node."""
        label = query.node_label(root)
        return label == WILDCARD_LABEL or label == graph.vertex_label(vertex)

    # ------------------------------------------------------------------ enumeration
    def accept(self, context: "EnumerationContext", embedding: "Embedding") -> bool:
        """Final filter applied to every complete embedding (default: accept).

        ``context.query`` and ``context.graph`` give read access to the
        query and to the data graph the embedding was found in.
        """
        return True


class DefaultMatchDefinition(MatchDefinition):
    """Plain label-based subgraph isomorphism (the paper's running example)."""

    name = "isomorphism"
    injective = True


def __getattr__(name: str):
    """Lazy facade for the multi-query and streaming service layers.

    ``MultiQueryEngine``, ``QueryRegistry`` and ``MnemonicService`` are
    part of the public API surface but live in modules that import this
    one; resolving them lazily keeps the import graph acyclic while
    letting applications write ``from repro.core.api import MnemonicService``.
    """
    if name in ("MultiQueryEngine", "QueryRegistry"):
        from repro.core import registry

        return getattr(registry, name)
    if name == "MnemonicService":
        from repro.core.service import MnemonicService

        return MnemonicService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
