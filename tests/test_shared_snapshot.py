"""Tests for the shared-memory snapshot layer and the persistent pool.

Covers the satellite requirements of the shared-memory refactor:
attach/detach round-trips of the CSR graph export and the DEBI buffers,
pool reuse across engine batches, and graceful fallback when
``multiprocessing.shared_memory`` is unavailable.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.debi import DEBI
from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.parallel import ParallelConfig, SharedMemoryPool
from repro.core.results import Embedding, Embeddings
from repro.core.shared_snapshot import SharedSnapshotWriter, SnapshotAttachment
from repro.datasets import NetFlowConfig, generate_netflow_stream, graph_from_events
from repro.graph.adjacency import CSRGraphView, DynamicGraph
from repro.query.generator import QueryGenerator
from repro.query.query_graph import QueryGraph
from repro.query.query_tree import QueryTree
from repro.streams.config import StreamConfig
from repro.utils.bitset import BitMatrix, BitVector


def small_graph() -> DynamicGraph:
    """A graph with deletions, so placeholders and live edges diverge."""
    graph = DynamicGraph()
    graph.add_edge(1, 2, label=7, timestamp=1.0, src_label=1, dst_label=2)
    graph.add_edge(2, 3, label=8, timestamp=2.0, dst_label=3)
    graph.add_edge(2, 3, label=8, timestamp=3.0)  # parallel edge
    graph.add_edge(3, 1, label=9, timestamp=4.0)
    doomed = graph.add_edge(1, 3, label=7, timestamp=5.0)
    graph.delete_edge(doomed)
    return graph


def view_of(graph: DynamicGraph) -> CSRGraphView:
    return CSRGraphView(graph.export_csr())


class TestCSRExportRoundTrip:
    def test_vertices_and_labels(self):
        graph = small_graph()
        view = view_of(graph)
        assert set(view.vertices()) == set(graph.vertices())
        assert view.num_vertices == graph.num_vertices
        for v in graph.vertices():
            assert view.vertex_label(v) == graph.vertex_label(v)
        assert not view.has_vertex(99)
        assert view.vertex_label(99) == 0

    def test_adjacency_preserved(self):
        graph = small_graph()
        view = view_of(graph)
        for v in graph.vertices():
            assert list(view.out_edges(v)) == list(graph.out_edges(v))
            assert list(view.in_edges(v)) == list(graph.in_edges(v))
            assert list(view.incident_edges(v)) == list(graph.incident_edges(v))
            assert view.out_degree(v) == graph.out_degree(v)
            assert view.in_degree(v) == graph.in_degree(v)

    def test_edge_records_and_liveness(self):
        graph = small_graph()
        view = view_of(graph)
        assert view.num_edges == graph.num_edges
        assert view.num_placeholders == graph.num_placeholders
        for record in graph.edges():
            assert view.edge(record.edge_id) == record
        dead = [i for i in range(graph.num_placeholders) if not graph.is_alive(i)]
        assert dead, "fixture should contain a dead placeholder"
        for edge_id in dead:
            assert not view.is_alive(edge_id)
            with pytest.raises(Exception):
                view.edge(edge_id)
        assert [r for r in view.edges()] == [r for r in graph.edges()]

    def test_find_edges_and_label_degrees(self):
        graph = small_graph()
        view = view_of(graph)
        assert view.find_edges(2, 3) == graph.find_edges(2, 3)
        assert view.find_edges(2, 3, label=8) == graph.find_edges(2, 3, label=8)
        assert view.find_edges(2, 3, label=99) == []
        for v in graph.vertices():
            for label in (7, 8, 9, 99):
                assert view.out_label_degree(v, label) == graph.out_label_degree(v, label)
                assert view.in_label_degree(v, label) == graph.in_label_degree(v, label)


class TestBitsetBufferRoundTrip:
    def test_bitvector_export_attach(self):
        vec = BitVector(initial_capacity=8)
        for i in (0, 3, 64, 200):
            vec.set(i)
        words, nbits = vec.export_words()
        clone = BitVector.from_words(words.copy(), nbits)
        assert clone.to_set() == vec.to_set()
        assert len(clone) == len(vec)
        assert clone.count() == vec.count()
        assert not clone.get(5)

    def test_bitmatrix_export_attach(self):
        matrix = BitMatrix(width=5, initial_rows=4)
        matrix.set(0, 1)
        matrix.set(9, 4)
        matrix.set(9, 0)
        rows, nrows = matrix.export_words()
        clone = BitMatrix.from_words(rows.copy(), width=5, nrows=nrows)
        assert len(clone) == len(matrix)
        for row in range(nrows):
            assert clone.get_row(row) == matrix.get_row(row)
        assert clone.column_mask(np.array([0, 9]), 4).tolist() == [False, True]
        assert clone.count() == matrix.count()


def build_debi_fixture() -> tuple[DEBI, QueryTree]:
    query = QueryGraph()
    query.add_node(0, label=1)
    query.add_node(1, label=2)
    query.add_node(2, label=3)
    query.add_edge(0, 1, label=7)
    query.add_edge(1, 2, label=8)
    tree = QueryTree(query)
    debi = DEBI(tree, initial_edges=4, initial_vertices=4)
    debi.set(0, 0)
    debi.set(3, tree.num_columns - 1)
    debi.set_root(2)
    return debi, tree


class TestSharedSnapshotRoundTrip:
    def test_publish_attach_detach(self):
        pytest.importorskip("multiprocessing.shared_memory")
        graph = small_graph()
        debi, tree = build_debi_fixture()
        batch = {0, 2}
        writer = SharedSnapshotWriter()
        attachment = SnapshotAttachment()
        try:
            descriptor = writer.publish(graph, debi, batch, positive=True)
            assert descriptor["epoch"] == 1
            view, debi_view, batch_ids = attachment.views(descriptor, tree)
            assert batch_ids == batch
            for v in graph.vertices():
                assert list(view.out_edges(v)) == list(graph.out_edges(v))
            for row in range(graph.num_placeholders):
                assert debi_view.row(row) == debi.row(row)
            assert debi_view.is_root(2) and not debi_view.is_root(1)
            # Same epoch: views are cached, not rebuilt.
            again = attachment.views(descriptor, tree)
            assert again[0] is view
        finally:
            attachment.detach()
            writer.close()

    def test_republish_advances_epoch_and_reflects_updates(self):
        pytest.importorskip("multiprocessing.shared_memory")
        graph = small_graph()
        debi, tree = build_debi_fixture()
        writer = SharedSnapshotWriter()
        attachment = SnapshotAttachment()
        try:
            first = writer.publish(graph, debi, {0}, positive=True)
            view1, _, _ = attachment.views(first, tree)
            new_edge = graph.add_edge(3, 2, label=8, timestamp=6.0)
            debi.set(new_edge, 0)
            second = writer.publish(graph, debi, {new_edge}, positive=False)
            assert second["epoch"] == first["epoch"] + 1
            assert second["positive"] is False
            view2, debi2, batch2 = attachment.views(second, tree)
            assert view2 is not view1
            assert batch2 == {new_edge}
            assert new_edge in list(view2.out_edges(3))
            assert debi2.get(new_edge, 0)
        finally:
            attachment.detach()
            writer.close()


class TestDoubleBufferedWriter:
    """Epoch/slot behaviour of the two-slot writer: segment reuse across
    epochs, growth/shrink/regrowth, zero-query publications, and
    detaching while the writer still holds the segments."""

    def test_consecutive_epochs_use_alternating_segments(self):
        pytest.importorskip("multiprocessing.shared_memory")
        graph = small_graph()
        debi, tree = build_debi_fixture()
        writer = SharedSnapshotWriter()
        try:
            assert writer.num_slots == 2
            names = [
                writer.publish(graph, debi, {0}, positive=True)["name"]
                for _ in range(4)
            ]
            # Epoch e and e+1 never share a segment (the double-buffer
            # invariant pipelining relies on); epoch e and e+2 reuse one.
            assert names[0] != names[1]
            assert names[0] == names[2]
            assert names[1] == names[3]
        finally:
            writer.close()

    def test_segment_grow_shrink_regrow(self):
        pytest.importorskip("multiprocessing.shared_memory")
        debi, tree = build_debi_fixture()
        writer = SharedSnapshotWriter()
        attachment = SnapshotAttachment()

        def graph_of(num_edges: int) -> DynamicGraph:
            graph = DynamicGraph()
            for i in range(num_edges):
                graph.add_edge(i, i + 1, label=7, timestamp=float(i))
            return graph

        try:
            small = writer.publish(graph_of(4), debi, {0}, positive=True)
            # Grow: a much larger snapshot must replace the slot's segment.
            big_graph = graph_of(600)
            big_debi, _ = build_debi_fixture()
            grown = writer.publish(big_graph, big_debi, set(range(600)), positive=True)
            view, _, batch = attachment.views(grown, tree)
            assert view.num_edges == 600
            assert len(batch) == 600
            # Shrink: a small snapshot fits the grown segment (same name,
            # no reallocation) two epochs later when its slot comes round.
            shrunk = writer.publish(graph_of(3), debi, {0}, positive=False)
            shrunk_again = writer.publish(graph_of(3), debi, {0}, positive=False)
            assert shrunk_again["name"] == grown["name"]
            view2, _, _ = attachment.views(shrunk_again, tree)
            assert view2.num_edges == 3
            # Regrow beyond the first growth: replaced again, still readable.
            regrown = writer.publish(
                graph_of(2000), big_debi, set(range(2000)), positive=True
            )
            view3, _, batch3 = attachment.views(regrown, tree)
            assert view3.num_edges == 2000
            assert len(batch3) == 2000
            assert shrunk["epoch"] < shrunk_again["epoch"] < regrown["epoch"]
        finally:
            attachment.detach()
            writer.close()

    def test_zero_query_multi_publish(self):
        """A multi-query engine may evaluate a batch with no registered
        queries: the publication ships the graph and an empty DEBI map."""
        pytest.importorskip("multiprocessing.shared_memory")
        graph = small_graph()
        writer = SharedSnapshotWriter()
        attachment = SnapshotAttachment()
        try:
            descriptor = writer.publish(graph, {}, {0, 1}, positive=True)
            assert descriptor["debi_meta"] == {}
            view, debis, batch = attachment.views(descriptor, {})
            assert debis == {}
            assert batch == {0, 1}
            assert view.num_edges == graph.num_edges
        finally:
            attachment.detach()
            writer.close()

    def test_detach_while_writer_attached(self):
        """A worker detaching mid-stream must not disturb the writer or
        other attachments; re-attaching afterwards works."""
        pytest.importorskip("multiprocessing.shared_memory")
        graph = small_graph()
        debi, tree = build_debi_fixture()
        writer = SharedSnapshotWriter()
        first = SnapshotAttachment()
        second = SnapshotAttachment()
        try:
            descriptor = writer.publish(graph, debi, {0}, positive=True)
            view1, _, _ = first.views(descriptor, tree)
            view2, _, _ = second.views(descriptor, tree)
            assert list(view1.edges()) == list(view2.edges())
            first.detach()  # worker goes away; segment stays mapped elsewhere
            assert list(view2.edges()) == list(graph.edges())
            # The detached attachment can come back for a later epoch.
            later = writer.publish(graph, debi, {1}, positive=False)
            view3, _, batch3 = first.views(later, tree)
            assert batch3 == {1}
            assert view3.num_edges == graph.num_edges
        finally:
            first.detach()
            second.detach()
            writer.close()

    def test_detach_is_idempotent_and_releases_mappings(self):
        pytest.importorskip("multiprocessing.shared_memory")
        graph = small_graph()
        debi, tree = build_debi_fixture()
        writer = SharedSnapshotWriter()
        attachment = SnapshotAttachment()
        try:
            for _ in range(3):  # map both slots
                attachment.views(writer.publish(graph, debi, {0}, True), tree)
            assert len(attachment._segments) == 2
            attachment.detach()
            assert attachment._segments == {}
            attachment.detach()  # second detach is a no-op
        finally:
            writer.close()


class TestBlocksOnTheResultQueue:
    """A worker answers a chunk with its :class:`EmbeddingBlock` list; the queue pickles it."""

    def test_blocks_pickle_to_the_same_records_and_arrays(self):
        embeddings = [
            Embedding(node_map=((0, 10), (1, 11)), edge_map=((0, 5),), start_edge=0),
            Embedding(node_map=((0, 12), (1, 13)), edge_map=((0, 6),), start_edge=0),
            Embedding(
                node_map=((0, 7), (1, 8), (2, 9)),
                edge_map=((0, 1), (1, 2), (2, 3)),
                start_edge=2,
                positive=False,
            ),
        ]
        sent = Embeddings.of(embeddings)
        assert [len(block) for block in sent.blocks] == [2, 1]
        received = Embeddings(pickle.loads(pickle.dumps(sent.blocks)))
        assert received == embeddings
        assert received.identities() == sent.identities()
        for before, after in zip(sent.blocks, received.blocks):
            assert after.signature == before.signature and after.start_edge == before.start_edge
            assert after.nodes.dtype == after.edges.dtype == np.int64
            assert np.array_equal(after.nodes, before.nodes)
            assert np.array_equal(after.edges, before.edges)

    def test_nothing_found_is_an_empty_list(self):
        assert pickle.loads(pickle.dumps(Embeddings().blocks)) == []


def pool_workload():
    stream = generate_netflow_stream(NetFlowConfig(num_events=600, num_hosts=60, seed=13))
    graph = graph_from_events(stream[:400])
    query = QueryGenerator(graph, seed=2).tree_query(3)
    return query, stream


def run_engine(query, stream, parallel: ParallelConfig):
    config = EngineConfig(stream=StreamConfig(batch_size=64), parallel=parallel)
    with MnemonicEngine(query, config=config) as engine:
        engine.load_initial(stream[:400])
        result = engine.run(stream[400:])
        return engine, result


@pytest.mark.usefixtures("small_slices")
class TestPersistentPool:
    def test_pool_reused_across_batches(self):
        pytest.importorskip("multiprocessing.shared_memory")
        query, stream = pool_workload()
        config = EngineConfig(
            stream=StreamConfig(batch_size=64),
            parallel=ParallelConfig(backend="process", num_workers=2),
        )
        with MnemonicEngine(query, config=config) as engine:
            assert isinstance(engine.multi._pool, SharedMemoryPool)
            pool = engine.multi._pool
            engine.load_initial(stream[:400])
            result = engine.run(stream[400:])
            assert len(result.snapshots) > 1, "workload must span several batches"
            assert engine.multi._pool is pool, "pool must persist across batches"
            assert pool.usable
            # Several batches were published through the same writer
            # (batches whose decomposition yields no work skip publication).
            assert pool._writer.epoch >= 2
        assert not pool.usable  # close() shuts the pool down

    def test_pool_results_match_serial(self):
        pytest.importorskip("multiprocessing.shared_memory")
        query, stream = pool_workload()
        _, serial = run_engine(query, stream, ParallelConfig(backend="serial"))
        _, pooled = run_engine(
            query, stream, ParallelConfig(backend="process", num_workers=2)
        )
        serial_set = {e.identity() for s in serial.snapshots for e in s.positive_embeddings}
        pooled_set = {e.identity() for s in pooled.snapshots for e in s.positive_embeddings}
        assert pooled_set == serial_set
        assert pooled.total_positive == serial.total_positive

    def test_count_only_mode_matches_collected_counts(self):
        pytest.importorskip("multiprocessing.shared_memory")
        query, stream = pool_workload()
        parallel = ParallelConfig(backend="process", num_workers=2)
        config = EngineConfig(
            stream=StreamConfig(batch_size=64), parallel=parallel, collect_embeddings=False
        )
        with MnemonicEngine(query, config=config) as engine:
            engine.load_initial(stream[:400])
            counted = engine.run(stream[400:])
        _, collected = run_engine(query, stream, parallel)
        assert counted.total_positive == collected.total_positive
        assert not counted.all_positive(), "count-only mode must not materialise embeddings"

    def test_fallback_when_shared_memory_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.parallel.shared_memory_available", lambda: False
        )
        query, stream = pool_workload()
        engine, result = run_engine(
            query, stream, ParallelConfig(backend="process", num_workers=2)
        )
        assert engine.multi._pool is None, "pool must not spawn without shared memory"
        _, serial = run_engine(query, stream, ParallelConfig(backend="serial"))
        assert result.total_positive == serial.total_positive

    def test_engine_close_is_idempotent(self):
        query, stream = pool_workload()
        config = EngineConfig(
            parallel=ParallelConfig(backend="process", num_workers=2)
        )
        engine = MnemonicEngine(query, config=config)
        engine.close()
        engine.close()
        assert engine.multi._pool is None
