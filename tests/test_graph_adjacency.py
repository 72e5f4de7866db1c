"""Unit tests for the dynamic multigraph store (adjacency lists, recycling)."""

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

    def test_a_dead_row_off_every_free_stack_breaks_the_invariants(self):
        """With recycling on, every dead row is a free id: nothing else makes one."""
        graph = DynamicGraph()
        graph.delete_edge(graph.add_edge(1, 2))
        graph.add_edge(3, 4)
        graph.check_invariants()
        taken, _ = graph.free_ids.allocate(np.array([0]), graph.num_placeholders)
        assert taken.tolist() == [0]  # vertex 1 sits at position 0
        with pytest.raises(GraphError, match="no free-id stack"):
            graph.check_invariants()


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
    def populated():
        graph = DynamicGraph()
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

    @pytest.mark.parametrize("bad", ["negative", "label_high", "label_low", "relabel",
                                     "relabel_in_batch"])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_insert_batch(self, bad, position):
        """The bad row comes with new vertices and a recyclable source: neither
        a vertex nor a free id moves before the batch is refused.  A vertex label
        conflicts with a known vertex's, or with a new one's first mention."""
        graph, ids = self.populated()
        good = [(5, 6, 0, 0), (1, 7, 0, 0)]  # vertex 1 has a free id to recycle
        culprit, message = {
            "negative": ((6, -4, 0, 0), "vertex id -4 is negative"),
            "label_high": ((6, 5, 2**31, 0), "signed 32-bit"),
            "label_low": ((6, 5, -(2**31) - 1, 0), "signed 32-bit"),
            "relabel": ((6, 1, 0, 7), "vertex 1 already has label 0, cannot relabel to 7"),
            # a self-loop: the source mention labels the new vertex 8 first
            "relabel_in_batch": ((8, 8, 0, 7), "vertex 8 already has label 0, cannot relabel"),
        }[bad]
        src, dst, label, dst_label = zip(*(good[:position] + [culprit] + good[position:]))
        before = graph_state(graph)
        with pytest.raises(GraphError, match=message):
            graph.apply_insert_columns(src, dst, label, dst_label=dst_label)
        assert graph_state(graph) == before
        assert not graph.has_vertex(5), "rejected before the batch registered its vertices"
        src, dst, label, _ = zip(*good)
        assert graph.apply_insert_columns(src, dst, label)[1] == ids[1]  # the free id was still there
        graph.check_invariants()

    def test_relabelling_add_edge_interns_nothing(self):
        graph, _ = self.populated()
        before = graph_state(graph)
        for src, dst, src_label, dst_label in ((9, 1, 0, 7), (9, 9, 1, 2), (1, 9, 7, 0)):
            with pytest.raises(GraphError, match="cannot relabel"):
                graph.add_edge(src, dst, src_label=src_label, dst_label=dst_label)
            assert graph_state(graph) == before
            assert not graph.has_vertex(9), "the other endpoint was interned first"


def columns(graph) -> dict:
    """Every column of ``graph``'s store, by owner and name."""
    owners = {"graph": graph, "vertices": graph._vertices, "out": graph._out,
              "out.directory": graph._out.directory, "in": graph._in,
              "in.directory": graph._in.directory, "free_ids": graph.free_ids}
    return {(owner, name): value for owner, obj in owners.items()
            for name, value in vars(obj).items() if isinstance(value, np.ndarray)}


class TestColumnsGrowOnDemand:
    def test_empty_graphs_share_their_directories(self):
        """Constructing a graph allocates no directory: the three start on the
        module's read-only empty columns, and the first batch replaces them."""
        graph, other = DynamicGraph(), DynamicGraph()
        shared = {name: column for (owner, name), column in columns(other).items()
                  if owner in ("vertices", "out.directory", "in.directory")}
        assert set(shared) == {"keys", "values"}
        for directory in (graph._vertices, graph._out.directory, graph._in.directory):
            assert directory.keys is shared["keys"] and directory.values is shared["values"]
        assert not shared["keys"].flags.writeable
        graph.add_edge(1, 2, label=3)
        assert graph._vertices.keys is not shared["keys"]
        assert not other.has_vertex(1) and other._vertices.keys is shared["keys"]
        graph.check_invariants()
        other.check_invariants()

    def test_a_batch_that_fits_replaces_no_column(self, kernel, native_graph_calls):
        """Columns grow when a batch needs the room, not ahead of every batch: a
        window deleted and inserted again (its vertices and partitions known,
        every id recycled) leaves every column where it was."""
        rng = np.random.default_rng(3)
        src, dst = rng.integers(0, 50, 400), rng.integers(0, 50, 400)
        label = rng.integers(0, 3, 400)
        graph = DynamicGraph()
        graph.apply_delete_columns(graph.apply_insert_columns(src, dst, label))
        before = columns(graph)
        for _ in range(3):
            graph.apply_delete_columns(graph.apply_insert_columns(src, dst, label))
            after = columns(graph)
            assert [key for key in before if after[key] is not before[key]] == []
        graph.check_invariants()
        assert graph.num_placeholders == 400
        if kernel == "native":
            assert native_graph_calls["insert_columns"] == 4


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
