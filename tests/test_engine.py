"""Unit tests for the Mnemonic engine (configuration, streaming loop, metrics)."""

import random

import pytest

from repro.core.engine import EngineConfig, MnemonicEngine, enumerate_static
from repro.core.parallel import ParallelConfig
from repro.core.registry import resolve_deletions
from repro.graph.adjacency import DynamicGraph
from repro.query.query_graph import QueryGraph
from repro.streams.config import StreamConfig, StreamType
from repro.streams.events import StreamEvent
from repro.utils.validation import ConfigurationError, GraphError, QueryError


def path_query():
    return QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 2})


def chain_events(base=10):
    return [
        StreamEvent.insert(base, base + 1, src_label=0, dst_label=1),
        StreamEvent.insert(base + 1, base + 2, src_label=1, dst_label=2),
    ]


class TestResolveDeletions:
    def _graph(self):
        graph = DynamicGraph()
        ids = [graph.add_edge(1, 2, 0, timestamp=ts) for ts in (5.0, 6.0, 7.0)]
        ids.append(graph.add_edge(3, 4, 0, timestamp=8.0))
        return graph, ids

    def test_parallel_edges_prefer_the_timestamp_then_the_latest(self):
        graph, (oldest, middle, latest, single) = self._graph()
        events = [
            StreamEvent.delete(1, 2, 0, timestamp=6.0),   # names the middle instance
            StreamEvent.delete(3, 4, 0, timestamp=99.0),  # no parallel edge: timestamp ignored
            StreamEvent.delete(1, 2, 0, timestamp=99.0),  # no instance has it: the latest
            StreamEvent.delete(1, 2, 0, timestamp=6.0),   # middle is doomed already: one left
        ]
        assert resolve_deletions(graph, events).tolist() == [middle, single, latest, oldest]

    def test_the_latest_instance_is_the_most_recently_inserted_one_also_after_a_delete(self):
        """Three parallel instances, the oldest deleted: a swap-with-last
        instance list read [30.0, 20.0] and "the latest" was the 20.0 edge."""
        for take in ("resolve", "delete_edge_instance"):
            graph = DynamicGraph()
            first, second, third = (graph.add_edge(1, 2, 0, stamp) for stamp in (10.0, 20.0, 30.0))
            graph.delete_edge(first)
            assert graph.find_edges(1, 2, 0) == [second, third]
            if take == "resolve":  # a timestamp no instance carries: the latest one
                taken = resolve_deletions(graph, [StreamEvent.delete(1, 2, 0, 99.0)]).tolist()
            else:
                taken = [graph.delete_edge_instance(1, 2, 0).edge_id]
            assert taken == [third]

    def test_the_oldest_instance_with_the_timestamp_is_taken(self):
        graph = DynamicGraph()
        ids = [graph.add_edge(1, 2, 0, stamp) for stamp in (5.0, 7.0, 7.0, 5.0, 7.0)]
        graph.delete_edge(ids[1])  # the oldest 7.0 is now ids[2]
        events = [StreamEvent.delete(1, 2, 0, 7.0), StreamEvent.delete(1, 2, 0, 7.0),
                  StreamEvent.delete(1, 2, 0, 7.0), StreamEvent.delete(1, 2, 0, 5.0)]
        # the third 7.0 finds none left and takes the latest survivor, ids[3];
        # the 5.0 event then has only ids[0]
        assert resolve_deletions(graph, events).tolist() == [ids[2], ids[4], ids[3], ids[0]]

    def test_an_instance_is_doomed_only_once(self):
        graph, _ = self._graph()
        for triple, copies in (((3, 4, 0), 2), ((1, 2, 0), 4), ((1, 2, 1), 1)):
            with pytest.raises(ConfigurationError, match="does not match a live edge"):
                resolve_deletions(graph, [StreamEvent.delete(*triple)] * copies)


def frozen_resolve_deletions(graph, events):
    """The rule of ``resolve_deletions`` one event at a time over the scalar
    ``find_edges`` (insertion order) and one ``EdgeRecord`` per parallel
    instance; frozen here as the reference of the batched resolution."""
    doomed_ids = []
    doomed_set = set()
    for event in events:
        ids = graph.find_edges(event.src, event.dst, event.label)
        if len(ids) == 1 and ids[0] not in doomed_set:
            chosen = ids[0]
        else:
            ids = [i for i in ids if i not in doomed_set]
            if not ids:
                raise ConfigurationError("deletion does not match a live edge")
            preferred = [i for i in ids if graph.edge(i).timestamp == event.timestamp]
            chosen = preferred[0] if preferred else ids[-1]
        doomed_ids.append(chosen)
        doomed_set.add(chosen)
    return doomed_ids


class TestResolveDeletionsAgainstFrozenReference:
    """Streams where nearly every deletion is ambiguous: >= 10 parallel
    instances per triple, equal and unequal timestamps, and one triple
    deleted many times inside a batch."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_ids_batch_after_batch(self, seed):
        rng = random.Random(seed)
        triples = [(1, 2, 0), (1, 2, 1), (3, 1, 0), (4, 4, 2)]
        graph = DynamicGraph()
        for round_number in range(12):
            for triple in triples:
                for _ in range(rng.randrange(10, 16)):
                    # few distinct stamps: equal timestamps among parallel instances
                    stamp = float(rng.randrange(4) + 4 * (round_number % 2))
                    graph.add_edge(*triple, timestamp=stamp)
            events = [
                # name the instance's stamp, some other stamp, or one nobody has
                StreamEvent.delete(
                    record.src, record.dst, record.label,
                    timestamp=rng.choice([record.timestamp, float(rng.randrange(8)), -1.0]),
                )
                for record in rng.sample(list(graph.edges()), rng.randrange(20, 40))
            ]
            doomed = resolve_deletions(graph, events).tolist()
            assert doomed == frozen_resolve_deletions(graph, events)
            assert len(set(doomed)) == len(doomed)
            graph.apply_delete_columns(doomed)  # recycled ids: id order stops being age order

    def test_unmatched_deletion_is_rejected_like_the_reference(self):
        graph = DynamicGraph()
        for stamp in range(12):
            graph.add_edge(1, 2, 0, timestamp=float(stamp))
        events = [StreamEvent.delete(1, 2, 0, timestamp=3.0)] * 13
        assert resolve_deletions(graph, events[:12]).tolist() == frozen_resolve_deletions(
            graph, events[:12]
        )
        for resolve in (resolve_deletions, frozen_resolve_deletions):
            with pytest.raises(ConfigurationError, match="does not match a live edge"):
                resolve(graph, events)


class TestConstruction:
    def test_invalid_query_rejected(self):
        with pytest.raises(QueryError):
            MnemonicEngine(QueryGraph())

    def test_prepopulated_graph_is_indexed(self):
        graph = DynamicGraph()
        graph.add_edge(10, 11, src_label=0, dst_label=1)
        graph.add_edge(11, 12, src_label=1, dst_label=2)
        engine = MnemonicEngine(path_query(), graph=graph)
        assert engine.debi.total_bits_set() > 0
        # New embedding only when a new edge arrives; existing ones are not re-enumerated.
        result = engine.batch_inserts([StreamEvent.insert(11, 13, src_label=1, dst_label=2)])
        assert result.num_positive == 1

    def test_explicit_root_override(self):
        engine = MnemonicEngine(path_query(), root=2)
        assert engine.tree.root == 2

    def test_index_size_formula(self):
        engine = MnemonicEngine(path_query())
        engine.batch_inserts(chain_events())
        expected = engine.graph.num_placeholders * 2 + engine.graph.num_vertices
        assert engine.index_size_bits() == expected


class TestBatchAPIs:
    def test_batch_inserts_returns_new_embeddings(self):
        engine = MnemonicEngine(path_query())
        result = engine.batch_inserts(chain_events())
        assert result.num_positive == 1
        assert result.num_insertions == 2
        assert result.positive_embeddings[0].positive

    def test_batch_inserts_accepts_tuples(self):
        engine = MnemonicEngine(path_query())
        result = engine.batch_inserts([
            (10, 11, 0, 0.0, 0, 1),
            (11, 12, 0, 0.0, 1, 2),
        ])
        assert result.num_positive == 1

    def test_batch_deletes_returns_negative_embeddings(self):
        engine = MnemonicEngine(path_query())
        engine.batch_inserts(chain_events())
        result = engine.batch_deletes([StreamEvent.delete(11, 12, 0)])
        assert result.num_negative == 1
        assert not result.negative_embeddings[0].positive

    def test_one_shot_batches_report_the_footprint(self):
        """batch_inserts / batch_deletes carry the graph + index footprint and
        sample it for Figure 17, exactly like a streamed batch (they used to
        report zeros and skip the sample)."""
        engine = MnemonicEngine(path_query())
        inserted = engine.batch_inserts(chain_events())
        assert (inserted.live_edges, inserted.edge_placeholders) == (2, 2)
        assert inserted.debi_bits == engine.debi.total_bits_set() > 0
        deleted = engine.batch_deletes([StreamEvent.delete(11, 12, 0)])
        assert (deleted.live_edges, deleted.edge_placeholders) == (1, 2)
        assert deleted.debi_bits == engine.debi.total_bits_set()
        assert engine.graph.stats.snapshots == [
            {"snapshot": 0, "placeholders": 2, "live_edges": 2},
            {"snapshot": 1, "placeholders": 2, "live_edges": 1},
        ]

    def test_delete_of_unknown_edge_rejected(self):
        engine = MnemonicEngine(path_query())
        with pytest.raises(ConfigurationError):
            engine.batch_deletes([StreamEvent.delete(1, 2, 0)])

    @pytest.mark.parametrize("hostile, message", [
        (StreamEvent.insert(30, -31, src_label=0, dst_label=1), "vertex id -31 is negative"),
        (StreamEvent.insert(30.5, 31, src_label=0, dst_label=1),
         "vertex id 30.5 is not an integer"),
        (StreamEvent.insert(30, float("nan"), src_label=0, dst_label=1),
         "vertex id nan is not an integer"),
    ], ids=["negative", "fractional", "nan"])
    @pytest.mark.parametrize("feed", ["run", "batch_inserts", "load_initial"])
    def test_hostile_vertex_id_refuses_the_whole_batch(self, feed, hostile, message):
        """DEBI roots are indexed by vertex id.  A negative one used to get into
        the graph and kill the index update behind it, and a fractional one used
        to be stored as the integer below it (``1.5`` registered vertex ``1`` and
        could complete a match); now the batch it rides in changes nothing, and
        the engine carries on as if it had never come."""
        engine, untouched = MnemonicEngine(path_query()), MnemonicEngine(path_query())
        for each in (engine, untouched):
            each.batch_inserts(chain_events(10))

        def state(each):
            ids = list(range(each.graph.num_placeholders))
            return (list(each.graph.edges()), list(each.graph.vertices()),
                    each.debi.rows(ids), each.debi.root_count(),
                    each.index_manager.total_traversals)

        with pytest.raises(GraphError, match=message):
            getattr(engine, feed)(chain_events(20) + [hostile])
        engine.graph.check_invariants()
        assert state(engine) == state(untouched)
        assert (engine.batch_inserts(chain_events(40)).positive_embeddings
                == untouched.batch_inserts(chain_events(40)).positive_embeddings)
        assert state(engine) == state(untouched)

    def test_nan_timestamp_is_out_of_order_on_a_sliding_window(self):
        """``nan < last`` is false, so a NaN used to pass the order check and sit in
        the window for ever (no expiry test is ever true for it)."""
        config = EngineConfig(stream=StreamConfig(
            stream_type=StreamType.SLIDING_WINDOW, window=10.0, stride=5.0))
        engine, untouched = MnemonicEngine(path_query(), config=config), MnemonicEngine(
            path_query(), config=config)
        first = [StreamEvent.insert(10, 11, 0, 1.0, 0, 1), StreamEvent.insert(11, 12, 0, 2.0, 1, 2)]
        later = [StreamEvent.insert(20, 21, 0, 7.0, 0, 1), StreamEvent.insert(21, 22, 0, 8.0, 1, 2)]
        hostile = StreamEvent.insert(30, 31, 0, float("nan"), 0, 1)
        assert untouched.run(first).total_positive == 1
        with pytest.raises(ConfigurationError, match="non-decreasing timestamps"):
            engine.run(first + later + [hostile])
        # the stride the NaN arrived in was never sealed; the one before it was
        assert list(engine.graph.edges()) == list(untouched.graph.edges())
        assert engine.debi.root_count() == untouched.debi.root_count()
        assert engine.run(later).total_positive == untouched.run(later).total_positive == 1

    def test_load_initial_does_not_enumerate(self):
        engine = MnemonicEngine(path_query())
        loaded = engine.load_initial(chain_events())
        assert loaded == 2
        assert engine.debi.total_bits_set() > 0
        # The embedding already existed; only genuinely new ones are reported later.
        result = engine.batch_inserts([StreamEvent.insert(20, 21, src_label=0, dst_label=1)])
        assert result.num_positive == 0

    def test_load_initial_rejects_deletes(self):
        engine = MnemonicEngine(path_query())
        with pytest.raises(ConfigurationError):
            engine.load_initial([StreamEvent.delete(1, 2)])

    def test_collect_embeddings_disabled_still_counts(self):
        config = EngineConfig(collect_embeddings=False)
        engine = MnemonicEngine(path_query(), config=config)
        result = engine.batch_inserts(chain_events())
        assert result.num_positive == 1
        assert result.positive_embeddings == []


class TestRunLoop:
    def test_run_insert_only_stream(self):
        engine = MnemonicEngine(
            path_query(),
            config=EngineConfig(stream=StreamConfig(batch_size=2)),
        )
        events = chain_events() + chain_events(base=20) + chain_events(base=30)
        result = engine.run(events)
        assert len(result.snapshots) == 3
        assert result.total_positive == 3
        assert result.total_negative == 0
        assert result.total_seconds >= 0.0

    def test_view_keeps_no_history_in_the_registry(self):
        """The inner registry's per-query history (what unregister() returns)
        must not grow with the stream behind a single-query engine."""
        engine = MnemonicEngine(
            path_query(), config=EngineConfig(stream=StreamConfig(batch_size=2))
        )
        result = engine.run(chain_events() + chain_events(base=20))
        engine.batch_inserts(chain_events(base=30))
        assert len(result.snapshots) == 2 and result.total_positive == 2
        assert engine.multi.registry.get(0).run_result.snapshots == []

    def test_run_insert_delete_stream(self):
        engine = MnemonicEngine(
            path_query(),
            config=EngineConfig(
                stream=StreamConfig(stream_type=StreamType.INSERT_DELETE, batch_size=10)
            ),
        )
        events = chain_events() + [StreamEvent.delete(10, 11, 0)]
        result = engine.run(events)
        # Insert and its deletion cancel inside one batch: the embedding never materialises.
        assert result.total_positive == 0

        engine2 = MnemonicEngine(
            path_query(),
            config=EngineConfig(
                stream=StreamConfig(stream_type=StreamType.INSERT_DELETE, batch_size=2)
            ),
        )
        result2 = engine2.run(events)
        assert result2.total_positive == 1
        assert result2.total_negative == 1
        assert len(result2.net_result_set()) == 0

    def test_run_sliding_window_stream(self):
        engine = MnemonicEngine(
            path_query(),
            config=EngineConfig(
                stream=StreamConfig(stream_type=StreamType.SLIDING_WINDOW, window=10.0, stride=5.0)
            ),
        )
        events = [
            StreamEvent.insert(10, 11, timestamp=0.0, src_label=0, dst_label=1),
            StreamEvent.insert(11, 12, timestamp=1.0, src_label=1, dst_label=2),
            StreamEvent.insert(20, 21, timestamp=30.0, src_label=0, dst_label=1),
            StreamEvent.insert(21, 22, timestamp=31.0, src_label=1, dst_label=2),
            StreamEvent.insert(40, 41, timestamp=60.0, src_label=0, dst_label=1),
        ]
        result = engine.run(events)
        assert result.total_positive == 2
        # The first chain must have been destroyed when it slid out of the window.
        assert result.total_negative >= 1
        assert engine.graph.num_edges < 5

    def test_snapshot_results_track_footprint(self):
        engine = MnemonicEngine(path_query(), config=EngineConfig(stream=StreamConfig(batch_size=2)))
        result = engine.run(chain_events())
        snap = result.snapshots[0]
        assert snap.live_edges == 2
        assert snap.edge_placeholders == 2
        assert snap.debi_bits >= 2
        assert snap.total_seconds >= 0
        assert snap.total_embeddings == snap.num_positive

    def test_memory_report_and_reset(self):
        engine = MnemonicEngine(path_query())
        engine.batch_inserts(chain_events())
        report = engine.memory_report()
        assert report["live_edges"] == 2
        assert report["debi_bits_set"] > 0
        engine.reset_index()
        assert engine.debi.total_bits_set() == report["debi_bits_set"]

    def test_parallel_engine_configuration(self):
        config = EngineConfig(parallel=ParallelConfig(backend="process", num_workers=2))
        engine = MnemonicEngine(path_query(), config=config)
        result = engine.batch_inserts(chain_events())
        assert result.num_positive == 1


class TestEnumerateStatic:
    def test_matches_manual_engine_run(self):
        events = chain_events() + chain_events(base=20)
        static = enumerate_static(path_query(), events)
        engine = MnemonicEngine(path_query())
        incremental = []
        for event in events:
            incremental.extend(engine.batch_inserts([event]).positive_embeddings)
        assert {e.node_map for e in static} == {e.node_map for e in incremental}
