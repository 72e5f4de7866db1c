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
updated edges share the same affected region.  The paper's ``f2/f3``
label-degree rules are applied as an optional cheap local pre-filter.
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
from repro.core.enumeration import degree_requirements_ok
from repro.core.frontier import UnifiedFrontier
from repro.graph.adjacency import DynamicGraph
from repro.graph.edge import EdgeRecord
from repro.query.query_graph import WILDCARD_LABEL, QueryGraph
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
        use_degree_filter: bool = True,
    ) -> None:
        self.query = query
        self.tree = tree
        self.graph = graph
        self.debi = debi
        self.match_def = match_def
        self.use_degree_filter = use_degree_filter
        #: cumulative number of (edge, column) evaluations across all batches
        self.total_traversals = 0
        #: evaluations performed by the most recent batch
        self.last_batch_traversals = 0
        # Columns sorted so that deeper query nodes are processed first
        # (bottom-up); contributions always flow towards the root.
        self._columns_bottom_up: list[TreeEdge] = sorted(
            tree.tree_edges, key=lambda te: -tree.depth[te.child]
        )
        # Label-degree requirements of each query node (f2/f3 pre-filter).
        self._out_req = {u: query.out_label_requirement(u) for u in query.nodes()}
        self._in_req = {u: query.in_label_requirement(u) for u in query.nodes()}
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

    @staticmethod
    def parent_endpoint(record: EdgeRecord, tree_edge: TreeEdge) -> int:
        """The data vertex that plays the role of ``tree_edge.parent``."""
        return record.dst if tree_edge.query_edge.src == tree_edge.child else record.src

    def edges_with_child_at(self, vertex: int, tree_edge: TreeEdge):
        """Data edges that could map ``tree_edge`` with child endpoint ``vertex``."""
        return self._candidate_scan(vertex, tree_edge.query_edge.src == tree_edge.child, tree_edge)

    def edges_with_parent_at(self, vertex: int, tree_edge: TreeEdge):
        """Data edges that could map ``tree_edge`` with parent endpoint ``vertex``."""
        return self._candidate_scan(vertex, tree_edge.query_edge.src == tree_edge.parent, tree_edge)

    def _candidate_scan(self, vertex: int, out: bool, tree_edge: TreeEdge):
        """The adjacency pool a filtering pass must evaluate for ``tree_edge``.

        Restricted to the edge-label partition when the matcher implies
        label equality — edges with a different label can never hold (or
        gain) the column's bit, so skipping them changes no bit.
        """
        label = tree_edge.query_edge.label
        if not self._label_partitioned or label == WILDCARD_LABEL:
            label = None
        pool = self.graph.candidate_pool(vertex, out, label)
        return pool if isinstance(pool, list) else pool.tolist()

    def _pool_array(self, vertex: int, out: bool, tree_edge: TreeEdge) -> np.ndarray:
        """:meth:`_candidate_scan` as an int64 array (no list round-trip)."""
        label = tree_edge.query_edge.label
        if not self._label_partitioned or label == WILDCARD_LABEL:
            label = None
        pool = self.graph.candidate_pool(vertex, out, label)
        if isinstance(pool, np.ndarray):
            return pool
        return np.asarray(pool, dtype=np.int64)

    # ------------------------------------------------------------------ consistency predicates
    def down_ok(self, vertex: int, query_node: int) -> bool:
        """Does ``vertex`` have supported candidate edges for every child of ``query_node``?"""
        for child in self.tree.children[query_node]:
            child_te = self.tree.tree_edge_by_child[child]
            column = child_te.column
            supported = False
            for eid in self.edges_with_parent_at(vertex, child_te):
                if self.debi.get(eid, column):
                    supported = True
                    break
            if not supported:
                return False
        return True

    def degree_ok(self, vertex: int, query_node: int) -> bool:
        """The paper's f2/f3 check: per-label degree of the data vertex must cover the query node's."""
        if not self.use_degree_filter:
            return True
        return degree_requirements_ok(
            self.graph, self._out_req, self._in_req, vertex, query_node
        )

    def _bit_should_be_set(self, record: EdgeRecord, tree_edge: TreeEdge) -> bool:
        """Evaluate the DEBI definition for one (edge, column) pair.

        Note that the label-degree rules (``degree_ok``) are *not* part of
        the bit definition: they depend on vertex degrees, whose growth is
        not tracked by the frontier, so folding them into the index could
        leave stale zero bits behind (missed embeddings).  They are applied
        as an enumeration-time pruning check instead, where the current
        degree is always available.
        """
        if not self.match_def.edge_matcher(self.query, self.graph, tree_edge.query_edge, record):
            return False
        child_vertex = self.child_endpoint(record, tree_edge)
        return self.down_ok(child_vertex, tree_edge.child)

    # ------------------------------------------------------------------ insertions
    def handle_insertions(self, new_edge_ids: list[int]) -> UnifiedFrontier:
        """Set DEBI bits for a batch of already-inserted edges and propagate upward."""
        frontier = UnifiedFrontier()
        # Seed: each new edge is scheduled at every column it label-matches.
        for eid in new_edge_ids:
            record = self.graph.edge(eid)
            for tree_edge in self.tree.tree_edges:
                if self.match_def.edge_matcher(self.query, self.graph, tree_edge.query_edge, record):
                    frontier.seed_edge(tree_edge.column, eid)

        for tree_edge in self._columns_bottom_up:
            parts = [frontier.edges_for(tree_edge.column)]
            # Edges whose child endpoint just gained downward support.
            for vertex in frontier.vertices_for(tree_edge.child).tolist():
                pool = self.edges_with_child_at(vertex, tree_edge)
                if pool:
                    parts.append(np.asarray(pool, dtype=np.int64))
            candidates = (
                np.unique(np.concatenate(parts)) if len(parts) > 1 else parts[0]
            )
            for eid in candidates.tolist():
                frontier.count_traversal()
                if self.debi.get(eid, tree_edge.column):
                    continue
                record = self.graph.edge(eid)
                if not self._bit_should_be_set(record, tree_edge):
                    continue
                self.debi.set(eid, tree_edge.column)
                parent_vertex = self.parent_endpoint(record, tree_edge)
                frontier.seed_vertex(tree_edge.parent, parent_vertex)

        self._refresh_roots_after_insert(frontier)
        self.total_traversals += frontier.traversed_edges
        self.last_batch_traversals = frontier.traversed_edges
        return frontier

    def handle_insert_columns(self, new_edge_ids, src, dst, label) -> UnifiedFrontier:
        """Columnar :meth:`handle_insertions`: same final DEBI state and counters.

        ``src``/``dst``/``label`` are the decoded int64 event columns
        aligned with ``new_edge_ids``.  For the default (label-equality)
        matcher the seed step becomes one boolean mask per query-tree
        column instead of ``|batch| x |columns|`` Python matcher calls,
        and the propagation step evaluates whole candidate arrays with a
        vectorized skip mask, a vectorized label matcher and a per-column
        ``down_ok`` memo.  The memo is parity-safe because ``down_ok`` of
        a column's child reads only strictly deeper columns, which are
        final before the column's pass starts.  Custom matchers fall back
        to per-edge evaluation (identical to :meth:`handle_insertions`).
        """
        frontier = UnifiedFrontier()
        ids = np.asarray(new_edge_ids, dtype=np.int64)
        n = int(ids.shape[0])
        default_matcher = uses_default_edge_matcher(self.match_def)

        # -- seed: schedule each new edge at every column it matches
        if n and default_matcher:
            label_arr = np.asarray(label, dtype=np.int64)
            src_vlab, dst_vlab = vertex_label_columns(
                self.graph, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
            )
            for tree_edge in self.tree.tree_edges:
                mask = default_edge_mask(
                    self.query, tree_edge.query_edge, src_vlab, dst_vlab, label_arr
                )
                matched = ids[mask]
                if matched.shape[0]:
                    frontier.seed_edges(tree_edge.column, matched)
        elif n:
            for eid in ids.tolist():
                record = self.graph.edge(eid)
                for tree_edge in self.tree.tree_edges:
                    if self.match_def.edge_matcher(
                        self.query, self.graph, tree_edge.query_edge, record
                    ):
                        frontier.seed_edge(tree_edge.column, eid)

        # -- propagate bottom-up, one batched pass per column
        debi = self.debi
        graph = self.graph
        for tree_edge in self._columns_bottom_up:
            parts = [frontier.edges_for(tree_edge.column)]
            for vertex in frontier.vertices_for(tree_edge.child).tolist():
                pool = self._pool_array(
                    vertex, tree_edge.query_edge.src == tree_edge.child, tree_edge
                )
                if pool.shape[0]:
                    parts.append(pool)
            candidates = (
                np.unique(np.concatenate(parts)) if len(parts) > 1 else parts[0]
            )
            num_candidates = int(candidates.shape[0])
            if num_candidates == 0:
                continue
            # one evaluation per candidate, exactly like the per-edge loop
            frontier.count_traversal(num_candidates)
            unset = candidates[~debi.column_mask(candidates, tree_edge.column)]
            if unset.shape[0] == 0:
                continue
            newly: list[int] = []
            down_memo: dict[int, bool] = {}
            if default_matcher:
                child_is_dst = tree_edge.query_edge.src != tree_edge.child
                e_src = graph.endpoint_array(unset, take_dst=False)
                e_dst = graph.endpoint_array(unset, take_dst=True)
                src_vlab, dst_vlab = vertex_label_columns(graph, e_src, e_dst)
                mask = default_edge_mask(
                    self.query, tree_edge.query_edge, src_vlab, dst_vlab,
                    graph.edge_labels(unset),
                )
                child_eps = (e_dst if child_is_dst else e_src).tolist()
                parent_eps = (e_src if child_is_dst else e_dst).tolist()
                unset_list = unset.tolist()
                seeded_parents: list[int] = []
                down_ok = self.down_ok
                child_node = tree_edge.child
                for i in np.nonzero(mask)[0].tolist():
                    child_vertex = child_eps[i]
                    ok = down_memo.get(child_vertex)
                    if ok is None:
                        ok = down_memo[child_vertex] = down_ok(
                            child_vertex, child_node
                        )
                    if not ok:
                        continue
                    newly.append(unset_list[i])
                    seeded_parents.append(parent_eps[i])
                if seeded_parents:
                    frontier.seed_vertices(tree_edge.parent, seeded_parents)
            else:
                for eid in unset.tolist():
                    record = graph.edge(eid)
                    if not self.match_def.edge_matcher(
                        self.query, graph, tree_edge.query_edge, record
                    ):
                        continue
                    child_vertex = self.child_endpoint(record, tree_edge)
                    ok = down_memo.get(child_vertex)
                    if ok is None:
                        ok = down_memo[child_vertex] = self.down_ok(
                            child_vertex, tree_edge.child
                        )
                    if not ok:
                        continue
                    newly.append(eid)
                    frontier.seed_vertex(
                        tree_edge.parent, self.parent_endpoint(record, tree_edge)
                    )
            if newly:
                debi.set_edges(np.asarray(newly, dtype=np.int64), tree_edge.column)

        self._refresh_roots_after_insert(frontier)
        self.total_traversals += frontier.traversed_edges
        self.last_batch_traversals = frontier.traversed_edges
        return frontier

    def _refresh_roots_after_insert(self, frontier: UnifiedFrontier) -> None:
        root = self.tree.root
        for vertex in frontier.vertices_for(root).tolist():
            frontier.count_traversal()
            if self.debi.is_root(vertex):
                continue
            if not self.match_def.root_matcher(self.query, self.graph, root, vertex):
                continue
            if self.down_ok(vertex, root):
                self.debi.set_root(vertex)

    # ------------------------------------------------------------------ deletions
    def handle_deletions(self, deleted: list[tuple[EdgeRecord, int]]) -> UnifiedFrontier:
        """Clear DEBI bits after a batch of deletions.

        ``deleted`` holds ``(record, debi_row_mask)`` pairs captured *before*
        the edges were removed from the graph; this method must be called
        *after* the graph mutation and after the rows were cleared.
        """
        frontier = UnifiedFrontier()
        for record, row_mask in deleted:
            for tree_edge in self.tree.tree_edges:
                if row_mask >> tree_edge.column & 1:
                    parent_vertex = self.parent_endpoint(record, tree_edge)
                    frontier.seed_vertex(tree_edge.parent, parent_vertex)

        # Re-check down-consistency from the deepest affected query node upward.
        nodes_bottom_up = sorted(self.tree.bfs_order, key=lambda u: -self.tree.depth[u])
        for node in nodes_bottom_up:
            vertices = frontier.vertices_for(node).tolist()
            if not vertices:
                continue
            if node == self.tree.root:
                for vertex in vertices:
                    frontier.count_traversal()
                    if self.debi.is_root(vertex) and not self.down_ok(vertex, node):
                        self.debi.clear_root(vertex)
                continue
            tree_edge = self.tree.tree_edge_by_child[node]
            for vertex in vertices:
                frontier.count_traversal()
                if self.down_ok(vertex, node):
                    continue
                for eid in self.edges_with_child_at(vertex, tree_edge):
                    frontier.count_traversal()
                    if self.debi.get(eid, tree_edge.column):
                        self.debi.clear(eid, tree_edge.column)
                        record = self.graph.edge(eid)
                        frontier.seed_vertex(tree_edge.parent, self.parent_endpoint(record, tree_edge))

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
