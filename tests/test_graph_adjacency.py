"""Unit tests for the dynamic multigraph store (adjacency lists, recycling)."""

import random
import time

import numpy as np
import pytest

from repro.core.registry import resolve_deletions
from repro.graph.adjacency import DynamicGraph
from repro.streams.events import EventColumns, EventKind
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
    def test_apply_insert_columns(self):
        graph = DynamicGraph()
        ids = graph.apply_insert_columns([1, 2], [2, 3], [0, 1], [0.0, 5.0])
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


def graph_state(graph):
    """Everything a rejected batch must leave untouched."""
    graph.check_invariants()
    vertices = list(graph.vertices())
    return (
        graph.num_edges,
        graph.num_placeholders,
        graph.free_ids.count,
        list(graph.edges()),
        {
            (v, out, label): graph.candidate_pool(v, out, label).tolist()
            for v in vertices for out in (True, False) for label in (None, 0, 1)
        },
    )


class TestRejectedBatchesMutateNothing:
    """A bad id anywhere in a batch is rejected before anything is applied —
    the pipeline has already captured DEBI row masks for the whole batch."""

    @staticmethod
    def populated(recycle=True):
        graph = DynamicGraph(recycle_edge_ids=recycle)
        ids = graph.apply_insert_columns([1, 1, 2, 3, 3], [2, 3, 3, 1, 1], [0, 1, 0, 0, 0])
        graph.delete_edge(ids[1])  # one dead placeholder, one free id
        return graph, ids

    @pytest.mark.parametrize("bad", ["dead", "negative", "out_of_range", "duplicate"])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_delete_batch(self, bad, position):
        graph, ids = self.populated()
        good = [ids[0], ids[3]]
        culprit = {"dead": ids[1], "negative": -1, "out_of_range": 99, "duplicate": ids[3]}[bad]
        batch = good[:position] + [culprit] + good[position:]
        before = graph_state(graph)
        with pytest.raises(GraphError, match=str(culprit)):
            graph.apply_delete_columns(batch)
        assert graph_state(graph) == before
        assert graph.apply_delete_columns(good).edge_id.size == 2  # the good ids were still deletable

    @pytest.mark.parametrize("bad", ["live", "negative", "duplicate"])
    def test_forced_insert_batch(self, bad):
        graph, ids = self.populated(recycle=False)
        forced = {"live": [7, ids[2], 9], "negative": [7, -3, 9], "duplicate": [7, 9, 7]}[bad]
        before = graph_state(graph)
        with pytest.raises(GraphError):
            graph.apply_insert_columns([5, 6, 7], [6, 7, 5], [0, 0, 0], edge_ids=forced)
        assert graph_state(graph) == before
        assert not graph.has_vertex(5), "rejected before the batch registered its vertices"
        # dead ids and ids beyond the end (leaving a gap of dead rows) are fine
        assert graph.apply_insert_columns(
            [5, 6, 7], [6, 7, 5], [0, 0, 0], edge_ids=[ids[1], 7, 9]
        ) == [ids[1], 7, 9]
        assert graph.num_placeholders == 10
        assert [graph.is_alive(e) for e in (5, 6, 8)] == [False, False, False]
        graph.check_invariants()


class TestHubVertex:
    @pytest.mark.timeout(5)
    def test_insert_and_delete_of_a_hub_are_linear(self):
        """40 000 same-label out-edges of one vertex, inserted and deleted as
        single batches: seconds with a per-id scan of the partition, tens of
        milliseconds with one compaction pass."""
        n = 40_000
        graph = DynamicGraph()
        start = time.perf_counter()
        ids = graph.apply_insert_columns(np.zeros(n, dtype=np.int64), np.arange(1, n + 1))
        assert graph.out_label_degree(0, 0) == n
        survivors = ids[::1000]
        doomed = sorted(set(ids) - set(survivors), key=lambda e: (e * 7919) % n)
        assert graph.apply_delete_columns(doomed).edge_id.size == n - len(survivors)
        elapsed = time.perf_counter() - start
        assert graph.out_edges(0) == survivors, "survivors keep their insertion order"
        assert graph.num_edges == len(survivors)
        graph.check_invariants()
        assert elapsed < 2.0, f"hub insert+delete took {elapsed:.2f}s"


    @pytest.mark.timeout(5)
    def test_deleting_a_hub_by_events_is_linear(self):
        """The same hub emptied through ``resolve_deletions``, 20 parallel
        instances per triple, in two event batches: each batch gathers the
        hub's partition once, not once per event."""
        n, fan = 40_000, 2_000
        graph = DynamicGraph()
        dst = np.arange(n) % fan + 1
        graph.apply_insert_columns(np.zeros(n, dtype=np.int64), dst, timestamp=np.arange(n) // fan)
        zeros = np.zeros(n, dtype=np.int64)
        doomed_rows = np.flatnonzero(np.arange(n) % 1000 != 0)  # 39 960 of them
        start = time.perf_counter()
        for rows in np.array_split(np.random.default_rng(0).permutation(doomed_rows), 2):
            events = EventColumns(
                EventKind.DELETE, zeros[rows], dst[rows], zeros[rows],
                (rows // fan).astype(float), zeros[rows], zeros[rows],
            )
            doomed = resolve_deletions(graph, events)
            assert sorted(doomed.tolist()) == sorted(rows.tolist()), "stamps name the instances"
            graph.apply_delete_columns(doomed)
        elapsed = time.perf_counter() - start
        assert graph.out_edges(0) == list(range(0, n, 1000))
        graph.check_invariants()
        assert elapsed < 2.0, f"hub delete by events took {elapsed:.2f}s"


class TestIncrementalCSRExport:
    """The delta export must be element-identical to a full export, and its
    ``dirty`` spec must cover every element that differs from the previous
    export, for every mix of inserts, deletes, recycled ids and brand-new
    vertices."""

    @staticmethod
    def assert_snapshots_equal(a, b):
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

    def test_delta_without_previous_export_is_fully_dirty(self):
        graph = DynamicGraph()
        graph.add_edge(1, 2, label=3)
        snapshot = graph.export_csr_delta()
        assert snapshot.num_live_edges == 1
        assert snapshot.dirty is None
        assert graph.journal_size == (0, 0)
        assert graph.export_csr_delta().dirty is not None

    def test_dirty_spec_covers_every_changed_element(self):
        """200 random insert/delete rounds: whatever differs element-wise from
        the previous export lies inside the ranges the delta export reports."""
        rng = random.Random(5)
        graph = DynamicGraph()
        edges = [
            graph.add_edge(
                rng.randrange(300), rng.randrange(300),
                label=rng.randrange(4), timestamp=rng.random(),
            )
            for _ in range(1500)
        ]
        previous = graph.export_csr()
        narrow = 0
        for _ in range(200):
            for _ in range(rng.randrange(6)):
                v = rng.randrange(320)  # occasionally a brand-new vertex
                edges.append(
                    graph.add_edge(v, rng.randrange(320), label=rng.randrange(4),
                                   timestamp=rng.random())
                )
            rng.shuffle(edges)
            doomed = [edges.pop() for _ in range(min(rng.randrange(4), len(edges)))]
            graph.apply_delete_columns(doomed)  # recycles ids
            delta = graph.export_csr_delta()
            assert graph.journal_size == (0, 0)
            self.assert_snapshots_equal(delta, graph.copy().export_csr())
            for key, new in delta.arrays().items():
                old = previous.arrays()[key]
                covered = np.zeros(new.shape[0], dtype=bool)
                for start, stop in delta.dirty[key]:
                    assert 0 <= start < stop <= new.shape[0], key
                    covered[start:stop] = True
                assert covered[old.shape[0]:].all(), f"{key}: appended tail not dirty"
                shared = min(old.shape[0], new.shape[0])
                changed = old[:shared] != new[:shared]
                assert not (changed & ~covered[:shared]).any(), key
            narrow += delta.dirty["out_indices"] != [(0, delta.out_indices.shape[0])]
            # Arrays are fresh objects: a previous snapshot is never patched
            # in place (consumers may still hold it).
            assert not np.shares_memory(delta.edge_src, previous.edge_src)
            previous = delta
        assert narrow > 150, f"the dirty spec rarely spares a clean prefix ({narrow}/200)"

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
