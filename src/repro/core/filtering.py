"""Incremental DEBI maintenance: batched top-down / bottom-up filtering.

This module implements Section V of the paper.  The DEBI bit of a data
edge ``e = (v_p, v)`` at the column owned by query node ``u`` is kept
equal to

``edge_matcher(tree_edge(parent(u), u), e)  AND  down(v, u)``

where ``down(v, u)`` holds when, for every child ``u_c`` of ``u`` in the
query tree, some data edge leaving ``v`` in the right direction has its
bit set at ``u_c``'s column.  The ``roots`` bit of a data vertex ``v``
is maintained analogously for the root query node.

*Insertions* can only turn bits on; *deletions* can only turn bits off.
Both are propagated bottom-up along the query tree using the
:class:`repro.core.frontier.UnifiedFrontier`, so that every affected
(edge, column) pair is evaluated once per batch regardless of how many
updated edges share the same affected region.

The paper's ``f2/f3`` label-degree rules are *not* part of the bit
definition: they depend on vertex degrees, whose growth the frontier does
not track, so folding them into the index could leave stale zero bits
behind (missed embeddings).  They prune at enumeration time instead
(:meth:`~repro.core.enumeration.EnumerationContext.degree_mask`), where
the current degree is always available.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import (
    MatchDefinition,
    default_edge_mask,
    uses_default_edge_matcher,
    vertex_label_columns,
)
from repro.core.debi import DEBI
from repro.core.frontier import UnifiedFrontier
from repro.graph.adjacency import DynamicGraph, segment_counts
from repro.graph.edge import EdgeColumns, EdgeRecord
from repro.query.query_graph import WILDCARD_LABEL, QueryEdge, QueryGraph
from repro.query.query_tree import QueryTree, TreeEdge


class IndexManager:
    """Maintains DEBI across batches of insertions and deletions."""

    def __init__(
        self,
        query: QueryGraph,
        tree: QueryTree,
        graph: DynamicGraph,
        debi: DEBI,
        match_def: MatchDefinition,
    ) -> None:
        self.query = query
        self.tree = tree
        self.graph = graph
        self.debi = debi
        self.match_def = match_def
        #: cumulative number of (edge, column) evaluations across all batches
        self.total_traversals = 0
        #: evaluations performed by the most recent batch
        self.last_batch_traversals = 0
        # Columns sorted so that deeper query nodes are processed first
        # (bottom-up); contributions always flow towards the root.
        self._columns_bottom_up: list[TreeEdge] = sorted(
            tree.tree_edges, key=lambda te: -tree.depth[te.child]
        )
        # Candidate scans may restrict to the tree edge's label partition
        # when the matcher guarantees label equality: a DEBI bit can only
        # be (or become) set on a label-matching edge, so edges outside
        # the partition evaluate to 0 anyway.
        self._label_partitioned = getattr(match_def, "label_partitioned", True)

    # ------------------------------------------------------------------ geometry helpers
    @staticmethod
    def child_endpoint(record: EdgeRecord, tree_edge: TreeEdge) -> int:
        """The data vertex that plays the role of ``tree_edge.child``."""
        return record.src if tree_edge.query_edge.src == tree_edge.child else record.dst

    def _scan_label(self, tree_edge: TreeEdge) -> int | None:
        """The adjacency partition a filtering pass must evaluate for ``tree_edge``.

        The edge-label partition when the matcher implies label equality —
        edges with a different label can never hold (or gain) the column's
        bit, so skipping them changes no bit — else None, the whole pool.
        """
        label = tree_edge.query_edge.label
        return label if self._label_partitioned and label != WILDCARD_LABEL else None

    def _edge_masks(self, edge_ids: np.ndarray, src: np.ndarray, dst: np.ndarray, label):
        """``query edge -> bool mask``: the edge matcher over edges given as aligned columns.

        The stock matcher is three label-column comparisons per query edge
        over one vertex-label gather; a custom one is asked edge by edge.
        """
        query, graph = self.query, self.graph
        if uses_default_edge_matcher(self.match_def):
            src_vlab, dst_vlab = vertex_label_columns(graph, src, dst)
            return lambda q_edge: default_edge_mask(query, q_edge, src_vlab, dst_vlab, label)
        matcher = self.match_def.edge_matcher
        records = list(map(graph.edge, edge_ids.tolist()))

        def custom(q_edge: QueryEdge) -> np.ndarray:
            verdicts = (matcher(query, graph, q_edge, record) for record in records)
            return np.fromiter(verdicts, dtype=bool, count=len(records))

        return custom

    # ------------------------------------------------------------------ consistency predicates
    def down_ok(self, vertex: int, query_node: int) -> bool:
        """:meth:`down_mask` of one vertex, through the scalar graph and DEBI reads."""
        for child in self.tree.children[query_node]:
            child_te = self.tree.tree_edge_by_child[child]
            pool = self.graph.candidate_pool(
                vertex, child_te.query_edge.src == child_te.parent, self._scan_label(child_te)
            )
            if not any(self.debi.get(int(eid), child_te.column) for eid in pool):
                return False
        return True

    def down_mask(self, vertices: np.ndarray, query_node: int) -> np.ndarray:
        """Which ``vertices`` have a supported candidate edge for every child of ``query_node``?

        Per child column one pool fetch and one DEBI bit test, over the
        vertices no earlier child rejected.
        """
        ok: np.ndarray | None = None
        for child in self.tree.children[query_node]:
            child_te = self.tree.tree_edge_by_child[child]
            ids, sizes = self.graph.candidate_pools(
                vertices if ok is None else vertices[ok],
                child_te.query_edge.src == child_te.parent,
                self._scan_label(child_te),
            )
            supported = segment_counts(self.debi.column_mask(ids, child_te.column), sizes) > 0
            if ok is None:
                ok = supported
            else:
                ok[ok] = supported
        return np.ones(vertices.shape[0], dtype=bool) if ok is None else ok

    # ------------------------------------------------------------------ insertions
    def handle_insertions(self, new_edge_ids) -> UnifiedFrontier:
        """:meth:`handle_insert_columns` of already-inserted edges named by id alone."""
        ids = np.asarray(new_edge_ids, dtype=np.int64)
        graph = self.graph
        return self.handle_insert_columns(
            ids, graph.endpoint_array(ids, False), graph.endpoint_array(ids, True),
            graph.edge_labels(ids),
        )

    def handle_insert_columns(self, new_edge_ids, src, dst, label) -> UnifiedFrontier:
        """Set DEBI bits for a batch of already-inserted edges and propagate upward.

        ``src``/``dst``/``label`` are the decoded int64 event columns
        aligned with ``new_edge_ids``.  Every new edge is scheduled at the
        columns it matches; then, deepest column first, one pass evaluates
        the column's scheduled edges plus the edges whose child endpoint
        just gained downward support: a skip mask for the bits already
        set, the edge matcher and one :meth:`down_mask` over the child
        endpoints.  ``down`` of a column's child reads only strictly deeper
        columns, which are final before the column's pass starts, so the
        whole pass can be decided at once.
        """
        frontier = UnifiedFrontier()
        ids = np.asarray(new_edge_ids, dtype=np.int64)
        if ids.shape[0]:
            matches = self._edge_masks(
                ids, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
                np.asarray(label, dtype=np.int64),
            )
            for tree_edge in self.tree.tree_edges:
                matched = ids[matches(tree_edge.query_edge)]
                if matched.shape[0]:
                    frontier.seed_edges(tree_edge.column, matched)

        debi = self.debi
        graph = self.graph
        for tree_edge in self._columns_bottom_up:
            child_is_src = tree_edge.query_edge.src == tree_edge.child
            candidates = frontier.edges_for(tree_edge.column)
            supported = frontier.vertices_for(tree_edge.child)
            if supported.shape[0]:
                pools, _ = graph.candidate_pools(
                    supported, child_is_src, self._scan_label(tree_edge)
                )
                candidates = np.unique(np.concatenate([candidates, pools]))
            if candidates.shape[0] == 0:
                continue
            # one evaluation per candidate, already set or not
            frontier.count_traversal(int(candidates.shape[0]))
            unset = candidates[~debi.column_mask(candidates, tree_edge.column)]
            if unset.shape[0] == 0:
                continue
            e_src = graph.endpoint_array(unset, take_dst=False)
            e_dst = graph.endpoint_array(unset, take_dst=True)
            matches = self._edge_masks(unset, e_src, e_dst, graph.edge_labels(unset))
            matched = np.flatnonzero(matches(tree_edge.query_edge))
            child_eps, parent_eps = (e_src, e_dst) if child_is_src else (e_dst, e_src)
            if self.tree.children[tree_edge.child]:  # endpoints repeat: decide each once
                child_vertices, inverse = np.unique(child_eps[matched], return_inverse=True)
                matched = matched[self.down_mask(child_vertices, tree_edge.child)[inverse]]
            if matched.shape[0]:
                debi.set_edges(unset[matched], tree_edge.column)
                frontier.seed_vertices(tree_edge.parent, parent_eps[matched])

        self._refresh_roots_after_insert(frontier)
        self.total_traversals += frontier.traversed_edges
        self.last_batch_traversals = frontier.traversed_edges
        return frontier

    def _refresh_roots_after_insert(self, frontier: UnifiedFrontier) -> None:
        root = self.tree.root
        vertices = frontier.vertices_for(root)
        frontier.count_traversal(int(vertices.shape[0]))
        fresh = vertices[~self.debi.roots_mask(vertices)]
        root_matcher = self.match_def.root_matcher
        matched = [v for v in fresh.tolist() if root_matcher(self.query, self.graph, root, v)]
        fresh = np.asarray(matched, dtype=np.int64)
        for vertex in fresh[self.down_mask(fresh, root)].tolist():
            self.debi.set_root(vertex)

    # ------------------------------------------------------------------ deletions
    def held_bits(self, edge_ids: np.ndarray) -> dict[int, np.ndarray]:
        """Per tree-edge column, which of ``edge_ids`` hold its DEBI bit: what
        :meth:`handle_deletions` needs of doomed edges, taken while their rows exist."""
        return {
            tree_edge.column: self.debi.column_mask(edge_ids, tree_edge.column)
            for tree_edge in self.tree.tree_edges
        }

    def handle_deletions(
        self, deleted: EdgeColumns, held: dict[int, np.ndarray]
    ) -> UnifiedFrontier:
        """Clear DEBI bits after a batch of deletions.

        ``deleted`` is the deleted edges as columns and ``held`` their
        :meth:`held_bits`, both captured *before* the edges were removed from
        the graph; call this *after* the graph mutation and the row clears.
        Each tree edge seeds the frontier once: the parent-side endpoints of
        the edges that held its bit.
        """
        frontier = UnifiedFrontier()
        for tree_edge in self.tree.tree_edges:
            child_is_src = tree_edge.query_edge.src == tree_edge.child
            parents = (deleted.dst if child_is_src else deleted.src)[held[tree_edge.column]]
            if parents.shape[0]:
                frontier.seed_vertices(tree_edge.parent, parents)

        # Re-check down-consistency from the deepest affected query node
        # upward.  A level's verdicts read only deeper columns, so they are
        # all taken before any of its bits is cleared.
        debi = self.debi
        graph = self.graph
        nodes_bottom_up = sorted(self.tree.bfs_order, key=lambda u: -self.tree.depth[u])
        for node in nodes_bottom_up:
            vertices = frontier.vertices_for(node)
            if vertices.shape[0] == 0:
                continue
            frontier.count_traversal(int(vertices.shape[0]))
            if node == self.tree.root:
                rooted = vertices[debi.roots_mask(vertices)]
                for vertex in rooted[~self.down_mask(rooted, node)].tolist():
                    debi.clear_root(vertex)
                continue
            # Every edge that maps the node's tree edge onto an unsupported
            # vertex loses its bit, and its parent endpoint is re-checked.
            tree_edge = self.tree.tree_edge_by_child[node]
            child_is_src = tree_edge.query_edge.src == tree_edge.child
            unsupported = vertices[~self.down_mask(vertices, node)]
            if unsupported.shape[0] == 0:
                continue
            pools, _ = graph.candidate_pools(unsupported, child_is_src, self._scan_label(tree_edge))
            frontier.count_traversal(int(pools.shape[0]))
            stale = pools[debi.column_mask(pools, tree_edge.column)]
            for edge_id in stale.tolist():
                debi.clear(edge_id, tree_edge.column)
            frontier.seed_vertices(
                tree_edge.parent, graph.endpoint_array(stale, take_dst=child_is_src)
            )

        self.total_traversals += frontier.traversed_edges
        self.last_batch_traversals = frontier.traversed_edges
        return frontier

    # ------------------------------------------------------------------ bulk rebuild
    def rebuild(self) -> UnifiedFrontier:
        """Recompute DEBI from scratch over the current live graph.

        Used for the initial load and for the paper's "periodic reset"
        capability (discard the cumulative index and rebuild from the
        current snapshot).
        """
        self.debi.reset()
        live_edges = [record.edge_id for record in self.graph.edges()]
        return self.handle_insertions(live_edges)
