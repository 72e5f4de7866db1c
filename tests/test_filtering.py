"""Unit tests for incremental DEBI maintenance (IndexManager), once per kernel:
the native maintainer serves these stock definitions, numpy the forced cells."""

import numpy as np
import pytest

from repro.core.api import DefaultMatchDefinition
from repro.core.debi import DEBI
from repro.core.filtering import IndexManager
from repro.core.registry import build_query_runtime
from repro.graph.adjacency import DynamicGraph
from repro.query.query_graph import QueryGraph
from repro.query.query_tree import QueryTree
from tests.reference.edge_index import ReferenceIndexManager


def make_manager(query, graph):
    tree = QueryTree(query, root=0)
    debi = DEBI(tree)
    manager = IndexManager(query, tree, graph, debi, DefaultMatchDefinition())
    return tree, debi, manager


def debi_matches_definition(manager) -> bool:
    """Check the exact DEBI invariant: bit == edge_match AND down(child, node)."""
    graph, tree, debi = manager.graph, manager.tree, manager.debi
    reference = ReferenceIndexManager.over(manager)
    for record in graph.edges():
        for tree_edge in tree.tree_edges:
            expected = reference.bit_should_be_set(record, tree_edge)
            if debi.get(record.edge_id, tree_edge.column) != expected:
                return False
    for vertex in graph.vertices():
        expected = (
            manager.match_def.root_matcher(manager.query, graph, tree.root, vertex)
            and reference.down_ok(vertex, tree.root)
        )
        if debi.is_root(vertex) != expected:
            return False
    return True


@pytest.fixture
def index_kernel(request, kernel, native_index_calls):
    """Run once per kernel; a native cell must have run the class's native entries
    (``native_entries``), a numpy cell none."""
    yield kernel
    for name in getattr(request.cls, "native_entries", ("filter_insert",)):
        assert (native_index_calls[name] > 0) == (kernel == "native"), name


@pytest.fixture
def path_query():
    # A -> B -> C as labels 0 -> 1 -> 2
    return QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 2})


@pytest.mark.usefixtures("index_kernel")
class TestInsertions:
    def test_bits_set_for_matching_chain(self, path_query):
        graph = DynamicGraph()
        tree, debi, manager = make_manager(path_query, graph)
        e1 = graph.add_edge(10, 11, src_label=0, dst_label=1)
        e2 = graph.add_edge(11, 12, src_label=1, dst_label=2)
        manager.handle_insertions([e1, e2])
        col_u1 = tree.column_of(1)
        col_u2 = tree.column_of(2)
        assert debi.get(e2, col_u2)
        assert debi.get(e1, col_u1)
        assert debi.is_root(10)
        assert debi_matches_definition(manager)

    def test_partial_chain_sets_only_satisfiable_bits(self, path_query):
        graph = DynamicGraph()
        tree, debi, manager = make_manager(path_query, graph)
        e1 = graph.add_edge(10, 11, src_label=0, dst_label=1)
        manager.handle_insertions([e1])
        # Without the (B -> C) edge the (A -> B) edge lacks downward support.
        assert not debi.get(e1, tree.column_of(1))
        assert not debi.is_root(10)
        assert debi_matches_definition(manager)

    def test_late_arrival_completes_earlier_edges(self, path_query):
        graph = DynamicGraph()
        tree, debi, manager = make_manager(path_query, graph)
        e1 = graph.add_edge(10, 11, src_label=0, dst_label=1)
        manager.handle_insertions([e1])
        e2 = graph.add_edge(11, 12, src_label=1, dst_label=2)
        manager.handle_insertions([e2])
        assert debi.get(e1, tree.column_of(1))
        assert debi.is_root(10)
        assert debi_matches_definition(manager)

    def test_non_matching_labels_never_set(self, path_query):
        graph = DynamicGraph()
        tree, debi, manager = make_manager(path_query, graph)
        e1 = graph.add_edge(10, 11, src_label=2, dst_label=2)
        manager.handle_insertions([e1])
        assert debi.row(e1) == 0
        assert debi_matches_definition(manager)

    def test_traversal_counter_accumulates(self, path_query):
        graph = DynamicGraph()
        _, _, manager = make_manager(path_query, graph)
        e1 = graph.add_edge(10, 11, src_label=0, dst_label=1)
        frontier = manager.handle_insertions([e1])
        assert frontier.traversed_edges >= 1
        assert manager.total_traversals == frontier.traversed_edges
        assert manager.last_batch_traversals == frontier.traversed_edges

    def test_batch_shares_traversal(self, path_query):
        """A batch touching the same region traverses fewer edges than per-edge updates."""
        def run(batched: bool) -> int:
            graph = DynamicGraph()
            _, _, manager = make_manager(path_query, graph)
            center = graph.add_edge(10, 11, src_label=0, dst_label=1)
            manager.handle_insertions([center])
            new_ids = [graph.add_edge(11, 100 + i, src_label=1, dst_label=2) for i in range(20)]
            if batched:
                manager.handle_insertions(new_ids)
                return manager.last_batch_traversals
            total = 0
            for eid in new_ids:
                manager.handle_insertions([eid])
                total += manager.last_batch_traversals
            return total

        assert run(batched=True) <= run(batched=False)


@pytest.mark.usefixtures("index_kernel")
class TestDeletions:
    native_entries = ("filter_insert", "filter_delete")

    def _build_chain(self, path_query):
        graph = DynamicGraph()
        tree, debi, manager = make_manager(path_query, graph)
        e1 = graph.add_edge(10, 11, src_label=0, dst_label=1)
        e2 = graph.add_edge(11, 12, src_label=1, dst_label=2)
        manager.handle_insertions([e1, e2])
        return graph, tree, debi, manager, e1, e2

    @staticmethod
    def _delete(graph, debi, manager, edge_id):
        doomed = np.array([edge_id])
        held = manager.held_bits(doomed)
        deleted = graph.apply_delete_columns(doomed)
        debi.clear_edges(doomed)
        manager.handle_deletions(deleted, held)

    def test_deleting_leaf_support_clears_upstream(self, path_query):
        graph, tree, debi, manager, e1, e2 = self._build_chain(path_query)
        self._delete(graph, debi, manager, e2)
        assert not debi.get(e1, tree.column_of(1))
        assert not debi.is_root(10)
        assert debi_matches_definition(manager)

    def test_deleting_one_of_two_supports_keeps_bit(self, path_query):
        graph, tree, debi, manager, e1, e2 = self._build_chain(path_query)
        e3 = graph.add_edge(11, 13, src_label=1, dst_label=2)
        manager.handle_insertions([e3])
        self._delete(graph, debi, manager, e2)
        # e3 still supports the (B -> C) requirement.
        assert debi.get(e1, tree.column_of(1))
        assert debi.is_root(10)
        assert debi_matches_definition(manager)

    def test_delete_then_reinsert_restores_bits(self, path_query):
        graph, tree, debi, manager, e1, e2 = self._build_chain(path_query)
        self._delete(graph, debi, manager, e2)
        e_new = graph.add_edge(11, 12, src_label=1, dst_label=2)
        manager.handle_insertions([e_new])
        assert debi.get(e1, tree.column_of(1))
        assert debi.is_root(10)
        assert debi_matches_definition(manager)

    def test_root_cleared_when_last_child_support_gone(self):
        query = QueryGraph.from_edges([(0, 1), (0, 2)], node_labels={0: 0, 1: 1, 2: 2})
        graph = DynamicGraph()
        tree, debi, manager = make_manager(query, graph)
        e1 = graph.add_edge(10, 11, src_label=0, dst_label=1)
        e2 = graph.add_edge(10, 12, src_label=0, dst_label=2)
        manager.handle_insertions([e1, e2])
        assert debi.is_root(10)
        self._delete(graph, debi, manager, e2)
        assert not debi.is_root(10)
        assert debi_matches_definition(manager)


class TestRebuildAndDegree:
    @pytest.mark.usefixtures("index_kernel")
    def test_rebuild_matches_incremental(self, path_query):
        graph = DynamicGraph()
        _, debi, manager = make_manager(path_query, graph)
        ids = [
            graph.add_edge(10, 11, src_label=0, dst_label=1),
            graph.add_edge(11, 12, src_label=1, dst_label=2),
            graph.add_edge(11, 13, src_label=1, dst_label=2),
        ]
        manager.handle_insertions(ids)
        incremental_bits = {(e, c) for e in ids for c in range(2) if debi.get(e, c)}
        manager.rebuild()
        rebuilt_bits = {(e, c) for e in ids for c in range(2) if debi.get(e, c)}
        assert incremental_bits == rebuilt_bits

    def test_degree_ok_checks_label_counts(self):
        # Query node 1 needs two outgoing label-7 edges.
        query = QueryGraph.from_edges([(0, 1), (1, 2, 7), (1, 3, 7)],
                                      node_labels={0: 0, 1: 1, 2: 2, 3: 2})
        graph = DynamicGraph()
        runtime = build_query_runtime(query, None, graph)

        def degree_ok(vertex, query_node):
            context = runtime.make_context(graph, set(), True)
            return bool(context.degree_mask(np.array([vertex]), query_node)[0])

        graph.add_edge(20, 21, label=7, src_label=1, dst_label=2)
        assert not degree_ok(20, 1)
        graph.add_edge(20, 22, label=7, src_label=1, dst_label=2)
        # Still missing the incoming (0 -> 1) edge requirement.
        assert not degree_ok(20, 1)
        graph.add_edge(19, 20, src_label=0, dst_label=1)
        assert degree_ok(20, 1)

    def test_degree_filter_can_be_disabled(self, path_query):
        graph = DynamicGraph()
        runtime = build_query_runtime(path_query, None, graph, use_degree_filter=False)
        assert runtime.make_context(graph, set(), True).degree_requirements is None
