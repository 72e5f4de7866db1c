"""Property tests for the partition layer and the sharded engine.

The sharded engine's correctness case rests on a few load-bearing
invariants, each tested here directly:

1. **Exactly-once placement** — every vertex is owned by exactly one
   shard, the assignment is pure (workers re-derive it) and stable at
   first sight, for both the hash and the label-range strategy.
2. **Global id parity** — the router-level :class:`EdgeIdAllocator`
   hands out the same edge-id sequence as ``DynamicGraph`` consuming
   the same stream, including under delete/recycle churn.  Every DEBI
   row index and embedding identity rests on this.
3. **Multiset preservation** — sharded runs report the same positive
   and negative embedding *multisets* as the single engine over
   randomized insert/delete streams, i.e. cross-shard frontier
   forwarding plus scatter-gather dedup loses nothing and invents
   nothing.
4. **The escape seam** — per-shard pool workers refuse foreign-vertex
   reads (:class:`ShardGuardView`) and the bounced units still produce
   the single-engine answer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.parallel import ParallelConfig
from repro.core.shard_router import ShardedEngine, ShardScopeGraph
from repro.core.sharding import (
    CrossShardAccess,
    EdgeIdAllocator,
    HashPartitionStrategy,
    LabelRangePartitionStrategy,
    PartitionMap,
    ShardGuardView,
)
from repro.graph.adjacency import DynamicGraph
from repro.query.query_graph import QueryGraph
from repro.storage.config import StorageConfig
from repro.streams.broker import StreamBroker
from repro.streams.config import StreamConfig, StreamType
from repro.streams.events import StreamEvent
from repro.streams.fanout import ShardFanout
from repro.utils.rng import make_rng
from repro.utils.validation import ConfigurationError, GraphError

# ---------------------------------------------------------------------- strategies
_VERTICES = list(range(8))
_VERTEX_LABEL = {v: v % 3 for v in _VERTICES}

_STRATEGIES = [
    HashPartitionStrategy(),
    LabelRangePartitionStrategy([(0, 0), (1, 2)]),
]

_event_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "insert", "delete"]),
        st.sampled_from(_VERTICES),
        st.sampled_from(_VERTICES),
        st.integers(min_value=0, max_value=1),
    ),
    min_size=4,
    max_size=40,
)


def _materialise_events(ops):
    """Turn raw ops into applicable StreamEvents (skip impossible deletes, loops)."""
    from collections import Counter

    live = Counter()
    events = []
    for kind, src, dst, label in ops:
        if src == dst:
            continue
        if kind == "insert":
            events.append(StreamEvent.insert(src, dst, label, 0.0,
                                             _VERTEX_LABEL[src], _VERTEX_LABEL[dst]))
            live[(src, dst, label)] += 1
        elif live[(src, dst, label)] > 0:
            events.append(StreamEvent.delete(src, dst, label))
            live[(src, dst, label)] -= 1
    return events


def _path_query() -> QueryGraph:
    return QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 0})


def _random_events(rng, num_vertices=14, num_ops=120, delete_bias=0.25):
    """A seeded random insert/delete stream (applicable deletes only)."""
    from collections import Counter

    labels = {v: int(v % 3) for v in range(num_vertices)}
    live = Counter()
    events = []
    for _ in range(num_ops):
        src, dst = int(rng.integers(num_vertices)), int(rng.integers(num_vertices))
        if src == dst:
            continue
        label = int(rng.integers(2))
        if rng.random() < delete_bias and live[(src, dst, label)] > 0:
            events.append(StreamEvent.delete(src, dst, label))
            live[(src, dst, label)] -= 1
        else:
            events.append(StreamEvent.insert(src, dst, label, 0.0,
                                             labels[src], labels[dst]))
            live[(src, dst, label)] += 1
    return events


def _run_batched(engine, events, batch_size=16):
    """Feed events through any engine in mixed batches; collect identities."""
    positives, negatives = [], []
    for start in range(0, len(events), batch_size):
        batch = events[start:start + batch_size]
        inserts = [e for e in batch if e.is_insert]
        deletes = [e for e in batch if e.is_delete]
        if inserts:
            positives.extend(e.identity() for e in
                             engine.batch_inserts(inserts).positive_embeddings)
        if deletes:
            negatives.extend(e.identity() for e in
                             engine.batch_deletes(deletes).negative_embeddings)
    return sorted(positives), sorted(negatives)


# ---------------------------------------------------------------------- placement
class TestPartitionPlacement:
    @pytest.mark.parametrize("strategy", _STRATEGIES, ids=["hash", "label_range"])
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 8])
    def test_every_vertex_owned_by_exactly_one_shard(self, strategy, num_shards):
        for vertex in range(200):
            label = vertex % 5
            owners = {
                shard
                for shard in range(num_shards)
                if strategy.shard_of(vertex, label, num_shards) == shard
            }
            assert len(owners) == 1
            assert 0 <= owners.pop() < num_shards

    @pytest.mark.parametrize("strategy", _STRATEGIES, ids=["hash", "label_range"])
    def test_strategy_is_pure(self, strategy):
        for vertex in range(64):
            first = strategy.shard_of(vertex, vertex % 5, 4)
            assert strategy.shard_of(vertex, vertex % 5, 4) == first

    def test_partition_map_caches_first_sight(self):
        pmap = PartitionMap(HashPartitionStrategy(), 4)
        owner = pmap.touch(17, 3)
        assert pmap.owner(17) == owner
        assert pmap.touch(17, 3) == owner
        assert 17 in pmap and len(pmap) == 1
        assert list(pmap.vertices()) == [17]

    def test_partition_map_fallback_matches_unlabelled_strategy(self):
        strategy = LabelRangePartitionStrategy([(1, 5)])
        pmap = PartitionMap(strategy, 4)
        # Never-touched vertices route by the unlabelled default, exactly
        # as DynamicGraph.vertex_label answers 0 for unknown ids.
        assert pmap.owner(99) == strategy.shard_of(99, 0, 4)

    def test_label_range_routes_covered_labels_by_range_index(self):
        strategy = LabelRangePartitionStrategy([(0, 0), (10, 19)])
        assert strategy.shard_of(7, 0, 4) == 0
        assert strategy.shard_of(7, 15, 4) == 1
        # Uncovered labels fall back to the hash placement (total assignment).
        fallback = HashPartitionStrategy()
        assert strategy.shard_of(7, 99, 4) == fallback.shard_of(7, 99, 4)

    def test_inverted_label_range_rejected(self):
        with pytest.raises(ConfigurationError, match="inverted"):
            LabelRangePartitionStrategy([(5, 2)])

    def test_shards_config_validated(self):
        with pytest.raises(ConfigurationError, match="shards"):
            EngineConfig(shards=0)

    def test_sharded_engine_rejects_unsupported_modes(self):
        query = _path_query()
        with pytest.raises(ConfigurationError, match="storage"):
            ShardedEngine(query, config=EngineConfig(
                shards=2, storage=StorageConfig(directory="/tmp/unused")))


# ---------------------------------------------------------------------- id parity
class TestEdgeIdAllocatorParity:
    @pytest.mark.parametrize("recycle", [True, False])
    def test_id_sequence_matches_dynamic_graph(self, rng_seed, recycle):
        """The global allocator replays DynamicGraph's id decisions exactly."""
        rng = make_rng(rng_seed)
        graph = DynamicGraph(recycle_edge_ids=recycle)
        allocator = EdgeIdAllocator(recycle_edge_ids=recycle)
        live = []
        for _ in range(300):
            if live and rng.random() < 0.4:
                src, edge_id = live.pop(int(rng.integers(len(live))))
                record = graph.delete_edge(edge_id)
                assert record.edge_id == edge_id
                allocator.release(src, edge_id)
            else:
                src, dst = int(rng.integers(10)), int(rng.integers(10))
                expected = graph.add_edge(src, dst, 0)
                assert allocator.allocate(src) == expected
                live.append((src, expected))
        assert allocator.num_placeholders == graph.num_placeholders

    def test_recycling_pops_newest_first_per_source(self):
        allocator = EdgeIdAllocator()
        first = allocator.allocate(1)
        second = allocator.allocate(1)
        other = allocator.allocate(2)
        allocator.release(1, first)
        allocator.release(1, second)
        assert allocator.allocate(1) == second
        assert allocator.allocate(1) == first
        assert allocator.allocate(2) == other + 1  # shard-2 free list untouched
        assert allocator.recycled == 2


# ---------------------------------------------------------------------- refused batches
class TestRouterRefusesBeforeItWrites:
    @pytest.mark.parametrize("feed", ["batch_inserts", "load_initial", "run"])
    def test_a_refused_batch_moves_neither_ownership_nor_the_allocator(self, rng_seed, feed):
        """The router places vertices and allocates ids before any shard graph
        sees a row, so it has to refuse what the graph would — first.  After a
        churned prefix (free lists are non-empty) a hostile batch leaves the
        partition map, the allocator and every shard graph as they were."""
        events = _random_events(make_rng(rng_seed), num_ops=80, delete_bias=0.4)
        config = EngineConfig(shards=3, stream=StreamConfig(stream_type=StreamType.INSERT_DELETE))
        with ShardedEngine(_path_query(), config=config) as engine, \
                ShardedEngine(_path_query(), config=config) as untouched:
            for each in (engine, untouched):
                _run_batched(each, events)
                each.batch_inserts([StreamEvent.insert(1, 2, 0, 0.0, 1, 2)])
                each.batch_deletes([StreamEvent.delete(1, 2, 0)])  # vertex 1 has an id to recycle

            def state(each):
                router = each.router
                return (
                    dict(router.partition._owner),
                    {v: router.allocator.free_ids.stack(v) for v in router.partition.vertices()},
                    router.allocator.free_ids.count,
                    router.allocator.num_placeholders, router.allocator.recycled,
                    router.num_edges, router._primary.tolist(), router._secondary.tolist(),
                    [(sorted(shard.graph.edges()), sorted(shard.graph.vertices()),
                      shard.mutations_applied) for shard in router.shards],
                )

            # new vertices (40, 41) and a recyclable source ahead of the bad row
            assert engine.router.allocator.free_ids.stack(1)
            hostile = [
                StreamEvent.insert(40, 41, 0, 0.0, 0, 1),
                StreamEvent.insert(1, 40, 0, 0.0, 1, 0),
                StreamEvent.insert(41, -5, 0, 0.0, 1, 0),
            ]
            with pytest.raises(GraphError, match="vertex id -5 is negative"):
                getattr(engine, feed)(hostile)
            assert state(engine) == state(untouched)
            tail = [StreamEvent.insert(40, 41, 0, 0.0, 0, 1),
                    StreamEvent.insert(41, 42, 0, 0.0, 1, 0)]
            assert _run_batched(engine, tail) == _run_batched(untouched, tail)
            assert state(engine) == state(untouched)


# ---------------------------------------------------------------------- parity
class TestShardedParity:
    @given(_event_ops, st.sampled_from([2, 3]))
    @settings(max_examples=25, deadline=None)
    def test_embedding_multisets_preserved(self, ops, shards):
        events = _materialise_events(ops)
        if not events:
            return
        query = _path_query()
        with MnemonicEngine(query) as single:
            expected = _run_batched(single, events, batch_size=8)
        with ShardedEngine(query, config=EngineConfig(shards=shards)) as sharded:
            actual = _run_batched(sharded, events, batch_size=8)
        assert actual == expected

    @pytest.mark.parametrize("strategy", _STRATEGIES, ids=["hash", "label_range"])
    def test_randomized_stream_parity_both_strategies(self, rng_seed, strategy):
        """Frontier forwarding preserves embedding multisets (seeded stream)."""
        events = _random_events(make_rng(rng_seed))
        query = _path_query()
        with MnemonicEngine(query) as single:
            expected = _run_batched(single, events)
        for shards in (2, 4):
            with ShardedEngine(query, config=EngineConfig(shards=shards),
                               strategy=strategy) as sharded:
                assert _run_batched(sharded, events) == expected, (
                    f"shards={shards} strategy={strategy!r} diverged"
                )

    def test_parity_survives_edge_id_recycling(self, rng_seed):
        """Heavy delete/reinsert churn recycles ids; answers must not move."""
        events = _random_events(make_rng(rng_seed), num_ops=200, delete_bias=0.45)
        query = _path_query()
        with MnemonicEngine(query) as single:
            expected = _run_batched(single, events, batch_size=8)
        with ShardedEngine(query, config=EngineConfig(shards=3)) as sharded:
            assert _run_batched(sharded, events, batch_size=8) == expected
            assert sharded.router.allocator.recycled > 0, (
                "vacuous test: the churn stream never recycled an edge id"
            )


class TestBatchedReadsThroughTheFacades:
    @given(_event_ops, st.sampled_from([2, 3]))
    @settings(max_examples=25, deadline=None)
    def test_label_degrees_and_pools_match_the_single_graph(self, ops, shards):
        """``RoutedGraph`` and every ``ShardScopeGraph`` answer the batched
        reads exactly as one unsharded graph does — after inserts, deletes
        and id recycling, for unknown vertices, emptied partitions and the
        wildcard — and a scope pays one cross-shard probe per foreign vertex."""
        events = _materialise_events(ops)
        if not events:
            return
        query = _path_query()
        probes = np.array([*_VERTICES, max(_VERTICES) + 5, _VERTICES[0]], dtype=np.int64)
        with MnemonicEngine(query) as single, \
                ShardedEngine(query, config=EngineConfig(shards=shards)) as sharded:
            _run_batched(single, events, batch_size=8)
            _run_batched(sharded, events, batch_size=8)
            graph = single.graph
            facades = [sharded.routed_graph] + [
                ShardScopeGraph(sharded.router, shard) for shard in sharded.shards
            ]
            for out in (True, False):
                for label in (None, 0, 1, 5):
                    if label is None:
                        scalar = graph.out_degree if out else graph.in_degree
                        expected = [scalar(v) for v in probes.tolist()]
                    else:
                        scalar = graph.out_label_degree if out else graph.in_label_degree
                        expected = [scalar(v, label) for v in probes.tolist()]
                    pools, sizes = graph.candidate_pools(probes, out, label)
                    for facade in facades:
                        assert facade.label_degrees(probes, out, label).tolist() == expected
                        flat, facade_sizes = facade.candidate_pools(probes, out, label)
                        assert facade_sizes.tolist() == sizes.tolist() == expected
                        assert flat.tolist() == pools.tolist()
            # asking again costs no further cross-shard probe
            scope = facades[1]
            before = sharded.router.frontier.lookups
            scope.label_degrees(probes, True, 0)
            assert sharded.router.frontier.lookups == before


# ---------------------------------------------------------------------- escape seam
class TestEscapeSeam:
    def test_guard_view_blocks_foreign_vertex_reads(self):
        graph = DynamicGraph()
        graph.add_edge(0, 1, 0)
        strategy = HashPartitionStrategy()
        local = strategy.shard_of(0, 0, 2)
        guard = ShardGuardView(graph, strategy, num_shards=2, shard=local)
        assert guard.find_edges(0, 1) == [0]  # owned vertex passes through
        foreign = next(v for v in range(100)
                       if strategy.shard_of(v, 0, 2) != local)
        graph.add_edge(foreign, 1, 0)
        with pytest.raises(CrossShardAccess) as info:
            guard.candidate_pool(foreign, True)
        assert info.value.vertex == foreign
        assert info.value.shard == local
        # Edge-id-keyed reads are never guarded (locally stored rows).
        assert guard.edge(0).src == 0

    @pytest.mark.usefixtures("small_slices")
    def test_process_pool_escape_path_preserves_parity(self, rng_seed):
        """Workers bounce cross-shard chunks; the router re-run stays exact."""
        events = [e for e in _random_events(make_rng(rng_seed), num_vertices=30,
                                            num_ops=400, delete_bias=0.0)]
        query = _path_query()
        with MnemonicEngine(query) as single:
            expected = _run_batched(single, events, batch_size=200)
        config = EngineConfig(
            shards=2,
            parallel=ParallelConfig(backend="process", num_workers=2),
        )
        with ShardedEngine(query, config=config) as sharded:
            actual = _run_batched(sharded, events, batch_size=200)
            pooled = all(shard.pool is not None for shard in sharded.shards)
            frontier = sharded.frontier_stats()
        assert actual == expected
        if pooled:
            # With per-shard pools live, hash partitioning at shards=2 on a
            # dense random graph must bounce at least one chunk.
            assert frontier["escaped_units"] > 0


# ---------------------------------------------------------------------- fan-out
class TestShardFanout:
    def test_routing_matches_strategy_and_counts_boundaries(self):
        strategy = HashPartitionStrategy()
        fanout = ShardFanout(strategy, num_shards=2)
        events = [StreamEvent.insert(s, d, 0, 0.0) for s in range(6)
                  for d in range(6) if s != d]
        streams = fanout.fan_out(events)
        assert fanout.stats.events == len(events)
        assert sum(fanout.stats.deliveries) == sum(len(s) for s in streams)
        boundary = sum(
            1 for e in events
            if strategy.shard_of(e.src, 0, 2) != strategy.shard_of(e.dst, 0, 2)
        )
        assert fanout.stats.boundary_events == boundary
        # Replication rule: boundary events land on both shards, the rest on one.
        assert sum(fanout.stats.deliveries) == len(events) + boundary
        assert 1.0 <= fanout.stats.replication_factor() <= 2.0
        # Each sub-stream holds exactly the events its shard must store.
        for shard, sub in enumerate(streams):
            assert all(shard in fanout.route(e) for e in sub)

    def test_fan_out_preserves_per_shard_order(self):
        fanout = ShardFanout(HashPartitionStrategy(), num_shards=3)
        events = [StreamEvent.insert(i, i + 1, 0, float(i)) for i in range(40)]
        for sub in fanout.fan_out(events):
            stamps = [e.timestamp for e in sub]
            assert stamps == sorted(stamps)

    def test_brokers_receive_routed_events(self):
        brokers = [StreamBroker(), StreamBroker()]
        fanout = ShardFanout(HashPartitionStrategy(), num_shards=2, brokers=brokers)
        event = StreamEvent.insert(1, 2, 0, 0.0)
        targets = fanout.deliver(event)
        for shard in range(2):
            expected = 1 if shard in targets else 0
            assert brokers[shard].depth == expected

    def test_configuration_validated(self):
        with pytest.raises(ConfigurationError, match="num_shards"):
            ShardFanout(HashPartitionStrategy(), num_shards=0)
        with pytest.raises(ConfigurationError, match="brokers"):
            ShardFanout(HashPartitionStrategy(), num_shards=2,
                        brokers=[StreamBroker()])
