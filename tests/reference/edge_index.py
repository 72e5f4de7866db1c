"""The edge-at-a-time reference for DEBI maintenance and the f2/f3 degree rule.

The product decides whole columns of vertices at once
(``IndexManager.down_mask``, ``EnumerationContext.degree_mask``, both over
the batched graph reads ``candidate_pools`` / ``label_degrees``).  This is
what they are checked against: the definitions of Section V evaluated for
one data edge, one data vertex and one query node at a time, through the
scalar graph and DEBI API only (``candidate_pool``, ``edge``,
``out_label_degree``, ``DEBI.get`` / ``set`` / ``clear``).  The product
must leave the same bits, the same roots and the same traversal count.
"""

from __future__ import annotations

import numpy as np

from repro.core.frontier import UnifiedFrontier
from repro.query.query_graph import WILDCARD_LABEL


def degree_requirements_ok(graph, query, vertex: int, query_node: int) -> bool:
    """The paper's f2/f3 rule for one data vertex: its per-label degrees
    must cover the query node's."""
    for label, needed in query.out_label_requirement(query_node).items():
        if label == WILDCARD_LABEL:
            if graph.out_degree(vertex) < needed:
                return False
        elif graph.out_label_degree(vertex, label) < needed:
            return False
    for label, needed in query.in_label_requirement(query_node).items():
        if label == WILDCARD_LABEL:
            if graph.in_degree(vertex) < needed:
                return False
        elif graph.in_label_degree(vertex, label) < needed:
            return False
    return True


class ReferenceIndexManager:
    """Per-edge DEBI maintenance over the same graph, tree and DEBI an ``IndexManager`` has."""

    def __init__(self, query, tree, graph, debi, match_def) -> None:
        self.query = query
        self.tree = tree
        self.graph = graph
        self.debi = debi
        self.match_def = match_def
        self.total_traversals = 0
        self._columns_bottom_up = sorted(tree.tree_edges, key=lambda te: -tree.depth[te.child])

    @classmethod
    def over(cls, manager) -> "ReferenceIndexManager":
        """The reference twin of ``manager``, writing to the same DEBI."""
        return cls(manager.query, manager.tree, manager.graph, manager.debi, manager.match_def)

    # ------------------------------------------------------------------ geometry
    @staticmethod
    def child_endpoint(record, tree_edge) -> int:
        return record.src if tree_edge.query_edge.src == tree_edge.child else record.dst

    @staticmethod
    def parent_endpoint(record, tree_edge) -> int:
        return record.dst if tree_edge.query_edge.src == tree_edge.child else record.src

    def _scan(self, vertex: int, out: bool, tree_edge) -> list[int]:
        label = tree_edge.query_edge.label
        if not self.match_def.label_partitioned or label == WILDCARD_LABEL:
            label = None
        return [int(e) for e in self.graph.candidate_pool(vertex, out, label)]

    def edges_with_child_at(self, vertex: int, tree_edge) -> list[int]:
        return self._scan(vertex, tree_edge.query_edge.src == tree_edge.child, tree_edge)

    def edges_with_parent_at(self, vertex: int, tree_edge) -> list[int]:
        return self._scan(vertex, tree_edge.query_edge.src == tree_edge.parent, tree_edge)

    # ------------------------------------------------------------------ predicates
    def down_ok(self, vertex: int, query_node: int) -> bool:
        """Does ``vertex`` have a supported candidate edge for every child of ``query_node``?"""
        for child in self.tree.children[query_node]:
            child_te = self.tree.tree_edge_by_child[child]
            if not any(
                self.debi.get(eid, child_te.column)
                for eid in self.edges_with_parent_at(vertex, child_te)
            ):
                return False
        return True

    def bit_should_be_set(self, record, tree_edge) -> bool:
        """The DEBI definition for one (edge, column) pair."""
        if not self.match_def.edge_matcher(self.query, self.graph, tree_edge.query_edge, record):
            return False
        return self.down_ok(self.child_endpoint(record, tree_edge), tree_edge.child)

    # ------------------------------------------------------------------ insertions
    def handle_insertions(self, new_edge_ids) -> UnifiedFrontier:
        """Set DEBI bits for a batch of already-inserted edges and propagate upward."""
        frontier = UnifiedFrontier()
        for eid in new_edge_ids:
            record = self.graph.edge(eid)
            for tree_edge in self.tree.tree_edges:
                if self.match_def.edge_matcher(
                    self.query, self.graph, tree_edge.query_edge, record
                ):
                    frontier.seed_edges(tree_edge.column, [eid])

        for tree_edge in self._columns_bottom_up:
            parts = [frontier.edges_for(tree_edge.column)]
            # Edges whose child endpoint just gained downward support.
            for vertex in frontier.vertices_for(tree_edge.child).tolist():
                pool = self.edges_with_child_at(vertex, tree_edge)
                if pool:
                    parts.append(np.asarray(pool, dtype=np.int64))
            candidates = np.unique(np.concatenate(parts)) if len(parts) > 1 else parts[0]
            for eid in candidates.tolist():
                frontier.count_traversal()
                if self.debi.get(eid, tree_edge.column):
                    continue
                record = self.graph.edge(eid)
                if not self.bit_should_be_set(record, tree_edge):
                    continue
                self.debi.set(eid, tree_edge.column)
                frontier.seed_vertices(tree_edge.parent, [self.parent_endpoint(record, tree_edge)])

        root = self.tree.root
        for vertex in frontier.vertices_for(root).tolist():
            frontier.count_traversal()
            if self.debi.is_root(vertex):
                continue
            if not self.match_def.root_matcher(self.query, self.graph, root, vertex):
                continue
            if self.down_ok(vertex, root):
                self.debi.set_root(vertex)
        self.total_traversals += frontier.traversed_edges
        return frontier

    # ------------------------------------------------------------------ deletions
    def handle_deletions(self, deleted) -> UnifiedFrontier:
        """Clear DEBI bits after a batch of deletions (``(record, row mask)`` pairs)."""
        frontier = UnifiedFrontier()
        for record, row_mask in deleted:
            for tree_edge in self.tree.tree_edges:
                if row_mask >> tree_edge.column & 1:
                    frontier.seed_vertices(tree_edge.parent, [self.parent_endpoint(record, tree_edge)])

        nodes_bottom_up = sorted(self.tree.bfs_order, key=lambda u: -self.tree.depth[u])
        for node in nodes_bottom_up:
            vertices = frontier.vertices_for(node).tolist()
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
                        frontier.seed_vertices(tree_edge.parent, [self.parent_endpoint(record, tree_edge)])
        self.total_traversals += frontier.traversed_edges
        return frontier
