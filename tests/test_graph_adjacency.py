"""Unit tests for the dynamic multigraph store (adjacency lists, recycling)."""

import pytest

from repro.graph.adjacency import DynamicGraph
from repro.utils.validation import GraphError


class TestBasicMutations:
    def test_add_edge_creates_vertices(self):
        graph = DynamicGraph()
        eid = graph.add_edge(1, 2, label=3, timestamp=1.5, src_label=7, dst_label=8)
        assert graph.num_vertices == 2
        assert graph.num_edges == 1
        record = graph.edge(eid)
        assert (record.src, record.dst, record.label, record.timestamp) == (1, 2, 3, 1.5)
        assert graph.vertex_label(1) == 7
        assert graph.vertex_label(2) == 8

    def test_parallel_edges_have_distinct_ids(self):
        graph = DynamicGraph()
        e1 = graph.add_edge(1, 2, label=0)
        e2 = graph.add_edge(1, 2, label=0)
        assert e1 != e2
        assert graph.num_edges == 2
        assert set(graph.find_edges(1, 2, 0)) == {e1, e2}

    def test_out_in_edges_and_degrees(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2)
        graph.add_edge(1, 3)
        graph.add_edge(4, 1)
        assert graph.out_degree(1) == 2
        assert graph.in_degree(1) == 1
        assert graph.degree(1) == 3
        assert len(list(graph.incident_edges(1))) == 3

    def test_label_degrees(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, label=5)
        graph.add_edge(1, 3, label=5)
        graph.add_edge(1, 4, label=6)
        assert graph.out_label_degree(1, 5) == 2
        assert graph.out_label_degree(1, 6) == 1
        assert graph.in_label_degree(2, 5) == 1
        assert graph.out_label_degree(1, 99) == 0

    def test_relabel_vertex_rejected(self):
        graph = DynamicGraph()
        graph.add_vertex(1, 5)
        with pytest.raises(GraphError):
            graph.add_vertex(1, 6)
        # Re-adding with label 0 (unknown) is tolerated.
        graph.add_vertex(1, 0)
        assert graph.vertex_label(1) == 5

    def test_edges_iterator_skips_dead(self):
        graph = DynamicGraph()
        e1 = graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        graph.delete_edge(e1)
        alive = list(graph.edges())
        assert len(alive) == 1
        assert alive[0].src == 2


class TestDeletionAndRecycling:
    def test_delete_edge_updates_adjacency(self):
        graph = DynamicGraph()
        e1 = graph.add_edge(1, 2)
        e2 = graph.add_edge(1, 3)
        graph.delete_edge(e1)
        assert graph.num_edges == 1
        assert graph.out_edges(1) == [e2]
        assert graph.in_edges(2) == []
        assert not graph.is_alive(e1)

    def test_delete_unknown_edge_rejected(self):
        graph = DynamicGraph()
        with pytest.raises(GraphError):
            graph.delete_edge(0)

    def test_double_delete_rejected(self):
        graph = DynamicGraph()
        eid = graph.add_edge(1, 2)
        graph.delete_edge(eid)
        with pytest.raises(GraphError):
            graph.delete_edge(eid)

    def test_delete_edge_instance_picks_latest(self):
        graph = DynamicGraph()
        e1 = graph.add_edge(1, 2, 0)
        e2 = graph.add_edge(1, 2, 0)
        record = graph.delete_edge_instance(1, 2, 0)
        assert record.edge_id == e2
        assert graph.is_alive(e1)

    def test_delete_edge_instance_missing(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, 0)
        with pytest.raises(GraphError):
            graph.delete_edge_instance(1, 2, 7)

    def test_edge_id_recycling(self):
        graph = DynamicGraph(recycle_edge_ids=True)
        e1 = graph.add_edge(1, 2)
        graph.add_edge(3, 4)
        graph.delete_edge(e1)
        e3 = graph.add_edge(1, 5)  # same source vertex -> recycled id
        assert e3 == e1
        assert graph.num_placeholders == 2
        assert graph.stats.recycled == 1

    def test_recycling_only_for_same_source(self):
        graph = DynamicGraph(recycle_edge_ids=True)
        e1 = graph.add_edge(1, 2)
        graph.delete_edge(e1)
        e2 = graph.add_edge(9, 2)  # different source: no reuse
        assert e2 != e1

    def test_recycling_disabled(self):
        graph = DynamicGraph(recycle_edge_ids=False)
        e1 = graph.add_edge(1, 2)
        graph.delete_edge(e1)
        e2 = graph.add_edge(1, 3)
        assert e2 != e1
        assert graph.num_placeholders == 2

    def test_recycled_slot_holds_new_record(self):
        graph = DynamicGraph()
        e1 = graph.add_edge(1, 2, label=4, timestamp=1.0)
        graph.delete_edge(e1)
        e2 = graph.add_edge(1, 7, label=9, timestamp=2.0)
        assert e2 == e1
        record = graph.edge(e2)
        assert (record.dst, record.label, record.timestamp) == (7, 9, 2.0)
        # The old triple no longer resolves.
        assert graph.find_edges(1, 2, 4) == []

    def test_placeholder_growth_bounded_with_recycling(self):
        recycled = DynamicGraph(recycle_edge_ids=True)
        unrecycled = DynamicGraph(recycle_edge_ids=False)
        for i in range(100):
            for g in (recycled, unrecycled):
                g.add_edge(1, 100 + i)
                g.delete_edge_instance(1, 100 + i)
        assert recycled.num_placeholders == 1
        assert unrecycled.num_placeholders == 100


class TestBulkHelpers:
    def test_apply_insertions(self):
        graph = DynamicGraph()
        ids = graph.apply_insertions([(1, 2, 0), (2, 3, 1, 5.0)])
        assert len(ids) == 2
        assert graph.edge(ids[1]).timestamp == 5.0

    def test_copy_is_independent(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2)
        clone = graph.copy()
        clone.add_edge(3, 4)
        assert graph.num_edges == 1
        assert clone.num_edges == 2
        # Deleting in the clone does not affect the original.
        clone.delete_edge_instance(1, 2, 0)
        assert graph.num_edges == 1

    def test_stats_sampling(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2)
        graph.stats.sample_snapshot(0, graph.num_placeholders, graph.num_edges)
        assert graph.stats.snapshots[0]["placeholders"] == 1
        assert graph.stats.peak_live == 1


class TestIncrementalCSRExport:
    """The delta journal + spliced export must be element-identical to a
    full rebuild, for every mix of inserts, deletes, recycled ids and
    brand-new vertices."""

    @staticmethod
    def assert_snapshots_equal(a, b):
        import numpy as np

        for key, arr in a.arrays().items():
            assert np.array_equal(arr, b.arrays()[key]), key
        assert a.num_live_edges == b.num_live_edges

    def test_journal_tracks_touched_edges_and_vertices(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, label=3)
        assert graph.journal_size == (2, 1)
        graph.export_csr()
        assert graph.journal_size == (0, 0)
        eid = graph.add_edge(2, 3, label=3)
        graph.delete_edge(eid)
        assert graph.journal_size == (2, 1)

    def test_delta_without_cache_falls_back_to_full(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, label=3)
        snapshot = graph.export_csr_delta()
        assert snapshot.num_live_edges == 1
        assert graph.journal_size == (0, 0)

    def test_small_delta_is_spliced(self, monkeypatch):
        graph = DynamicGraph()
        for i in range(60):
            graph.add_edge(i, (i + 1) % 60, label=i % 3, timestamp=float(i))
        graph.export_csr()
        calls = []
        original = DynamicGraph._splice_csr

        def counting(self, prev):
            calls.append(prev)
            return original(self, prev)

        monkeypatch.setattr(DynamicGraph, "_splice_csr", counting)
        graph.add_edge(5, 7, label=1, timestamp=99.0)
        delta = graph.export_csr_delta()
        assert len(calls) == 1, "small batch must take the splice path"
        self.assert_snapshots_equal(delta, graph.copy().export_csr())

    def test_large_delta_falls_back_to_full_rebuild(self, monkeypatch):
        graph = DynamicGraph()
        for i in range(20):
            graph.add_edge(i, i + 1, label=0)
        graph.export_csr()
        monkeypatch.setattr(
            DynamicGraph, "_splice_csr",
            lambda self, prev: pytest.fail("large batch must rebuild fully"),
        )
        for i in range(20):  # touches most vertices
            graph.add_edge(i, i + 2, label=1)
        snapshot = graph.export_csr_delta()
        assert snapshot.num_live_edges == 40

    def test_randomised_splice_parity(self):
        import random

        import numpy as np

        rng = random.Random(5)
        graph = DynamicGraph()
        edges = []
        for _ in range(1500):
            e = graph.add_edge(
                rng.randrange(300), rng.randrange(300),
                label=rng.randrange(4), timestamp=rng.random(),
            )
            edges.append(e)
        graph.export_csr()
        spliced = 0
        for _ in range(40):
            for _ in range(rng.randrange(6)):
                v = rng.randrange(320)  # occasionally a brand-new vertex
                e = graph.add_edge(v, rng.randrange(320), label=rng.randrange(4),
                                   timestamp=rng.random())
                edges.append(e)
            rng.shuffle(edges)
            for _ in range(rng.randrange(4)):
                if edges:
                    e = edges.pop()
                    if graph.is_alive(e):
                        graph.delete_edge(e)  # recycles ids
            before = graph.journal_size
            delta = graph.export_csr_delta()
            if 0 < before[0] <= 300 * DynamicGraph.INCREMENTAL_EXPORT_MAX_DIRTY_FRACTION:
                spliced += 1
            self.assert_snapshots_equal(delta, graph.copy().export_csr())
            assert graph.journal_size == (0, 0)
            # Arrays are fresh objects: the cached previous snapshot is
            # never patched in place (consumers may still hold it).
            assert delta.edge_src.flags.owndata or delta.edge_src.base is None
        assert spliced > 20, f"splice path under-exercised ({spliced}/40 rounds)"

    def test_recycled_id_changes_are_patched(self):
        graph = DynamicGraph()
        a = graph.add_edge(1, 2, label=3, timestamp=1.0)
        graph.add_edge(2, 3, label=4, timestamp=2.0)
        graph.export_csr()
        graph.delete_edge(a)
        recycled = graph.add_edge(1, 5, label=9, timestamp=7.0)
        assert recycled == a  # id reuse is the point
        delta = graph.export_csr_delta()
        assert delta.edge_dst[recycled] == 5
        assert delta.edge_label[recycled] == 9
        assert delta.edge_timestamp[recycled] == 7.0
        assert delta.edge_alive[recycled] == 1
        self.assert_snapshots_equal(delta, graph.copy().export_csr())
