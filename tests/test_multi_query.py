"""Tests for the standing-query registry and the multi-query engine.

The contract under test: N registered queries produce exactly the
results N independent engines would (DEBI filtering, duplicate
elimination and acceptance stay per-query), while the per-batch graph
work — mutation, snapshot export, raw candidate scans — is shared.
"""

import pytest

from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.parallel import ParallelConfig
from repro.core.registry import MultiQueryEngine, QueryRegistry, build_query_runtime
from repro.core.results import CollectingSink
from repro.graph.adjacency import DynamicGraph
from repro.matchers.homomorphism import HomomorphismMatcher
from repro.query.query_graph import QueryGraph
from repro.streams.config import StreamConfig, StreamType
from repro.streams.events import StreamEvent
from repro.utils.validation import ConfigurationError


def path_query():
    return QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 2})


def edge_query():
    return QueryGraph.from_edges([(0, 1)], node_labels={0: 1, 1: 2})


def wedge_query():
    """Two edges out of the same source label — shares the 0->1 anchor with path_query."""
    return QueryGraph.from_edges([(0, 1), (0, 2)], node_labels={0: 0, 1: 1, 2: 1})


def chain_events(base=10):
    return [
        StreamEvent.insert(base, base + 1, src_label=0, dst_label=1),
        StreamEvent.insert(base + 1, base + 2, src_label=1, dst_label=2),
    ]


def identities(run_result):
    return {
        e.identity()
        for s in run_result.snapshots
        for e in s.positive_embeddings + s.negative_embeddings
    }


def independent_identities(query, events, stream_type=StreamType.INSERT_ONLY, batch_size=2):
    config = EngineConfig(
        stream=StreamConfig(stream_type=stream_type, batch_size=batch_size)
    )
    with MnemonicEngine(query, config=config) as engine:
        run = engine.run(list(events))
    return (
        {e.identity() for s in run.snapshots for e in s.positive_embeddings},
        {e.identity() for s in run.snapshots for e in s.negative_embeddings},
        run.total_candidates_scanned,
    )


class TestRegistry:
    def test_register_returns_distinct_ids(self):
        registry = QueryRegistry(DynamicGraph())
        a = registry.register(path_query())
        b = registry.register(edge_query(), name="edges")
        assert a != b
        assert len(registry) == 2
        assert registry.get(b).name == "edges"
        assert registry.get(a).name == f"q{a}"

    def test_unregister_returns_accumulated_results(self):
        engine = MultiQueryEngine(config=EngineConfig(stream=StreamConfig(batch_size=2)))
        qid = engine.register(path_query())
        engine.run(chain_events())
        run_result = engine.unregister(qid)
        assert run_result.total_positive == 1
        assert len(engine.registry) == 0
        with pytest.raises(ConfigurationError):
            engine.unregister(qid)

    def test_version_bumps_on_membership_change(self):
        registry = QueryRegistry(DynamicGraph())
        v0 = registry.version
        qid = registry.register(path_query())
        assert registry.version == v0 + 1
        registry.unregister(qid)
        assert registry.version == v0 + 2

    def test_register_on_populated_graph_rebuilds_index(self):
        graph = DynamicGraph()
        graph.add_edge(10, 11, src_label=0, dst_label=1)
        graph.add_edge(11, 12, src_label=1, dst_label=2)
        runtime = build_query_runtime(path_query(), None, graph)
        assert runtime.debi.total_bits_set() > 0


class TestResultParity:
    """Shared runs must be embedding-for-embedding identical to independent engines."""

    def test_insert_only_matches_independent_engines(self):
        events = chain_events() + chain_events(base=20) + [
            StreamEvent.insert(11, 13, src_label=1, dst_label=2),
        ]
        queries = [path_query(), edge_query(), wedge_query()]
        engine = MultiQueryEngine(config=EngineConfig(stream=StreamConfig(batch_size=2)))
        ids = [engine.register(q) for q in queries]
        shared = engine.run(list(events))

        shared_scans = shared.total_candidates_scanned
        independent_scans = 0
        for qid, query in zip(ids, queries):
            expected_pos, _, scans = independent_identities(query, events)
            independent_scans += scans
            assert identities(shared.per_query[qid]) == expected_pos
        assert shared_scans <= independent_scans

    def test_insert_delete_matches_independent_engines(self):
        events = (
            chain_events()
            + chain_events(base=20)
            + [StreamEvent.delete(11, 12, 0), StreamEvent.delete(21, 22, 0)]
        )
        queries = [path_query(), edge_query()]
        config = EngineConfig(
            stream=StreamConfig(stream_type=StreamType.INSERT_DELETE, batch_size=2)
        )
        engine = MultiQueryEngine(config=config)
        ids = [engine.register(q) for q in queries]
        shared = engine.run(list(events))
        for qid, query in zip(ids, queries):
            expected_pos, expected_neg, _ = independent_identities(
                query, events, stream_type=StreamType.INSERT_DELETE
            )
            got_pos = {
                e.identity()
                for s in shared.per_query[qid].snapshots
                for e in s.positive_embeddings
            }
            got_neg = {
                e.identity()
                for s in shared.per_query[qid].snapshots
                for e in s.negative_embeddings
            }
            assert got_pos == expected_pos
            assert got_neg == expected_neg

    def test_delete_batch_with_shared_anchor_label(self):
        """Two queries anchored on the same (label 0 -> label 1) edge: deleting
        that edge must destroy the right embeddings for each query, and the
        one-pass mutation must leave both DEBIs consistent."""
        engine = MultiQueryEngine()
        q_path = engine.register(path_query())
        q_wedge = engine.register(wedge_query())
        engine.batch_inserts([
            StreamEvent.insert(10, 11, src_label=0, dst_label=1),
            StreamEvent.insert(10, 13, src_label=0, dst_label=1),
            StreamEvent.insert(11, 12, src_label=1, dst_label=2),
        ])
        result = engine.batch_deletes([StreamEvent.delete(10, 11, 0)])
        # path 10->11->12 dies; wedge {10->11, 10->13} dies too.
        assert result.per_query[q_path].num_negative == 1
        assert result.per_query[q_wedge].num_negative == 2
        # After the shared mutation both queries see a consistent world:
        # re-inserting the edge re-creates exactly the destroyed embeddings.
        redo = engine.batch_inserts([StreamEvent.insert(10, 11, src_label=0, dst_label=1)])
        assert redo.per_query[q_path].num_positive == 1
        assert redo.per_query[q_wedge].num_positive == 2

    def test_mixed_match_definitions(self):
        triangle = QueryGraph.from_edges(
            [(0, 1), (1, 2), (2, 0)], node_labels={0: 0, 1: 0, 2: 0}
        )
        events = [
            StreamEvent.insert(1, 2, src_label=0, dst_label=0),
            StreamEvent.insert(2, 3, src_label=0, dst_label=0),
            StreamEvent.insert(3, 1, src_label=0, dst_label=0),
        ]
        engine = MultiQueryEngine(config=EngineConfig(stream=StreamConfig(batch_size=3)))
        iso = engine.register(triangle)
        hom = engine.register(triangle, match_def=HomomorphismMatcher())
        shared = engine.run(list(events))
        assert shared.per_query[iso].total_positive == 3
        # Homomorphism counts at least the isomorphic images.
        assert shared.per_query[hom].total_positive >= 3


class TestSharedScans:
    def test_shared_scans_strictly_fewer_for_overlapping_queries(self):
        # Both queries extend from a (label 0) vertex over label-0 edges, so
        # the second query's scans hit the shared pool cache.
        events = []
        for i in range(6):
            events.extend(chain_events(base=10 * (i + 1)))
        queries = [path_query(), path_query()]
        engine = MultiQueryEngine(config=EngineConfig(stream=StreamConfig(batch_size=4)))
        for q in queries:
            engine.register(q)
        shared = engine.run(list(events))
        independent = sum(
            independent_identities(q, events, batch_size=4)[2] for q in queries
        )
        assert shared.total_candidates_scanned < independent

    def test_sink_receives_snapshots(self):
        sink = CollectingSink()
        engine = MultiQueryEngine(config=EngineConfig(stream=StreamConfig(batch_size=2)))
        qid = engine.register(path_query(), sink=sink)
        engine.run(chain_events() + chain_events(base=20))
        assert sink.snapshots_seen[qid] == 2
        assert len(sink.results[qid]) == 2


class TestMidStreamMembership:
    def test_register_mid_stream_sees_live_graph(self):
        engine = MultiQueryEngine()
        engine.batch_inserts([StreamEvent.insert(10, 11, src_label=0, dst_label=1)])
        qid = engine.register(path_query())
        # The first edge predates registration; the embedding completes now.
        result = engine.batch_inserts([StreamEvent.insert(11, 12, src_label=1, dst_label=2)])
        assert result.per_query[qid].num_positive == 1

    def test_unregister_mid_stream_stops_evaluation(self):
        engine = MultiQueryEngine()
        keep = engine.register(path_query())
        drop = engine.register(edge_query())
        engine.batch_inserts(chain_events())
        engine.unregister(drop)
        result = engine.batch_inserts(chain_events(base=20))
        assert set(result.per_query) == {keep}

    def test_graph_evolves_with_no_registered_queries(self):
        engine = MultiQueryEngine()
        engine.batch_inserts(chain_events())
        assert engine.graph.num_edges == 2
        qid = engine.register(path_query())
        result = engine.batch_inserts([StreamEvent.insert(20, 11, src_label=0, dst_label=1)])
        assert result.per_query[qid].num_positive == 1

    def test_delete_with_no_registered_queries(self):
        engine = MultiQueryEngine()
        engine.batch_inserts(chain_events())
        engine.batch_deletes([StreamEvent.delete(10, 11, 0)])
        assert engine.graph.num_edges == 1


class TestLifecycle:
    def test_context_manager_and_idempotent_close(self):
        with MultiQueryEngine() as engine:
            engine.register(path_query())
            engine.batch_inserts(chain_events())
        engine.close()  # second close is a no-op
        # Serial engines stay usable after close (no pool to lose).
        result = engine.batch_inserts(chain_events(base=20))
        assert result.total_embeddings == 1

    def test_load_initial_indexes_without_enumerating(self):
        engine = MultiQueryEngine()
        qid = engine.register(path_query())
        assert engine.load_initial(chain_events()) == 2
        registered = engine.registry.get(qid)
        assert registered.runtime.debi.total_bits_set() > 0
        result = engine.batch_inserts([StreamEvent.insert(20, 21, src_label=0, dst_label=1)])
        assert result.per_query[qid].num_positive == 0


@pytest.mark.usefixtures("small_slices")
class TestPoolIntegration:
    def test_pool_respawns_after_membership_change(self):
        pytest.importorskip("multiprocessing.shared_memory")
        config = EngineConfig(
            stream=StreamConfig(batch_size=4),
            parallel=ParallelConfig(backend="process", num_workers=2),
        )
        with MultiQueryEngine(config=config) as engine:
            a = engine.register(path_query())
            engine.batch_inserts(chain_events() + chain_events(base=20))
            first_pool = engine._pool
            b = engine.register(edge_query())
            result = engine.batch_inserts(chain_events(base=30))
            assert engine._pool is not first_pool, "stale pool must be replaced"
            assert result.per_query[a].num_positive == 1
            assert result.per_query[b].num_positive == 1

    def test_failed_pool_spawn_not_retried_until_membership_changes(self):
        """A spawn failure must latch (serial fallback), not respawn per batch."""
        config = EngineConfig(
            stream=StreamConfig(batch_size=4),
            parallel=ParallelConfig(backend="process", num_workers=2),
        )
        engine = MultiQueryEngine(config=config)
        engine.register(path_query())
        attempts = []

        def failing_create_multi(query_states, parallel_config):
            attempts.append(len(query_states))
            return None

        import repro.core.registry as registry_module
        original = registry_module.SharedMemoryPool.create_multi
        registry_module.SharedMemoryPool.create_multi = staticmethod(failing_create_multi)
        try:
            first = engine.batch_inserts(chain_events())
            engine.batch_inserts(chain_events(base=20))
            engine.batch_inserts(chain_events(base=30))
            assert len(attempts) == 1, "spawn must be attempted once, then latched"
            assert first.total_embeddings == 1  # serial fallback still answers
            engine.register(edge_query())
            engine.batch_inserts(chain_events(base=40))
            assert len(attempts) == 2, "membership change re-arms the spawn"
        finally:
            registry_module.SharedMemoryPool.create_multi = original
            engine.close()

    def test_pool_results_match_serial(self):
        pytest.importorskip("multiprocessing.shared_memory")
        events = []
        for i in range(8):
            events.extend(chain_events(base=10 * (i + 1)))

        def run(parallel):
            config = EngineConfig(stream=StreamConfig(batch_size=4), parallel=parallel)
            with MultiQueryEngine(config=config) as engine:
                ids = [engine.register(q) for q in (path_query(), wedge_query())]
                run_result = engine.run(list(events))
                exports = engine.snapshot_exports
            return ids, run_result, exports

        ids_s, serial, _ = run(ParallelConfig())
        ids_p, pooled, exports = run(
            ParallelConfig(backend="process", num_workers=2)
        )
        assert ids_s == ids_p
        for qid in ids_s:
            assert identities(serial.per_query[qid]) == identities(pooled.per_query[qid])
        # One export per enumeration phase, not one per query per phase.
        assert 0 < exports <= len(pooled.snapshots)
