"""Unit tests for the DEBI bitmap index."""

import numpy as np
import pytest

from repro.core.debi import DEBI
from repro.query.query_graph import QueryGraph
from repro.query.query_tree import QueryTree


@pytest.fixture
def tree():
    query = QueryGraph.from_edges([(0, 1), (1, 2), (1, 3)])
    return QueryTree(query, root=0)


class TestDEBI:
    def test_initial_state(self, tree):
        debi = DEBI(tree)
        assert not debi.get(0, 0)
        assert debi.total_bits_set() == 0
        assert debi.root_count() == 0

    def test_set_get_clear_edge_bits(self, tree):
        debi = DEBI(tree)
        debi.set(10, 0)
        debi.set(10, 2)
        assert debi.get(10, 0)
        assert debi.get(10, 2)
        assert not debi.get(10, 1)
        assert debi.row(10) == 0b101
        debi.clear(10, 0)
        assert debi.row(10) == 0b100

    def test_clear_edge_resets_row(self, tree):
        debi = DEBI(tree)
        debi.set(7, 1)
        debi.clear_edge(7)
        assert debi.row(7) == 0
        assert debi.total_bits_set() == 0

    def test_roots_bitvector(self, tree):
        debi = DEBI(tree)
        debi.set_root(42)
        assert debi.is_root(42)
        assert debi.root_count() == 1
        debi.clear_root(42)
        assert not debi.is_root(42)

    def test_candidates_for_column(self, tree):
        debi = DEBI(tree)
        debi.set(1, 1)
        debi.set(5, 1)
        debi.set(5, 0)
        assert set(debi.candidates_for_column(1).tolist()) == {1, 5}
        assert debi.column_cardinality(1) == 2
        assert debi.column_cardinality(0) == 1

    def test_reset(self, tree):
        debi = DEBI(tree)
        debi.set(3, 0)
        debi.set_root(9)
        debi.reset()
        assert debi.total_bits_set() == 0
        assert not debi.is_root(9)

    def test_nbytes_grows_with_rows(self, tree):
        debi = DEBI(tree)
        before = debi.nbytes()
        debi.set(10_000, 0)
        assert debi.nbytes() > before

    def test_column_mask_matches_scalar_gets(self, tree):
        debi = DEBI(tree)
        for eid in (0, 3, 9, 64, 200):
            debi.set(eid, 1)
        pool = np.arange(250)
        assert pool[debi.column_mask(pool, 1)].tolist() == [
            eid for eid in pool.tolist() if debi.get(eid, 1)
        ]
        assert debi.column_mask(np.empty(0, dtype=np.int64), 1).tolist() == []
        # Rows never written are treated as zero.
        assert not debi.column_mask(np.arange(10_000, 100_000, 10_000), 1).any()

    def test_single_edge_query_still_valid(self):
        query = QueryGraph.from_edges([(0, 1)])
        tree = QueryTree(query, root=0)
        debi = DEBI(tree)
        debi.set(0, 0)
        assert debi.get(0, 0)
