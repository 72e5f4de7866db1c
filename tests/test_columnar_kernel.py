"""Differential, property and edge-case tests for the enumeration kernels.

The kernels' contract is strict: for every match definition, stream
shape and engine they must reproduce the tuple-at-a-time reference
(``tests/reference/tuple_kernel.py``: per-edge ingest, depth-first
backtracking) **exactly** — the same positive and negative embeddings
batch for batch, value for value (start edge and multiplicity included)
and, wherever the product's order is defined, in the reference's order:
iterating the result blocks of a serial engine yields the reference's
list.  On the serial engine ``candidates_scanned`` agrees to the digit,
and behaviour agrees at every degenerate input (no units, no
candidates, duplicate-vertex rejections).  The differential runs once
per kernel (the ``kernel`` fixture): the native one, which serves stock
definitions on the live graph, and the numpy one, which serves the rest.
The arena that backs the numpy kernel must grow geometrically, never
shrink, and be reusable across batches without further allocation — and
a result block, once handed out, must not change when it is.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ShardedEngine
from repro.core import enumeration, native
from repro.core.api import MatchDefinition, default_edge_matcher
from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.enumeration import (
    EmbeddingArena,
    WorkUnit,
    WorkUnits,
    columnar_enumerate,
    columnar_enumerate_packed,
    decompose_batch,
)
from repro.core.parallel import ParallelConfig, SharedMemoryPool
from repro.core.registry import MultiQueryEngine
from repro.core.results import EmbeddingBlock, Embeddings
from repro.matchers import (
    HomomorphismMatcher,
    IsomorphismMatcher,
    TemporalIsomorphismMatcher,
)
from repro.query.query_graph import QueryGraph
from repro.streams.events import StreamEvent
from repro.utils.validation import ConfigurationError
from tests.reference.tuple_kernel import (
    ReferenceEngine,
    TupleContext,
    decompose,
    start_edge_major,
)

pytestmark = pytest.mark.usefixtures("small_slices")


# ---------------------------------------------------------------------- helpers
def _query(edges, node_labels=None):
    """``edges`` are ``(src, dst, label, time_rank)``; label -1 is the wildcard."""
    query = QueryGraph()
    for node in sorted({n for edge in edges for n in edge[:2]}):
        query.add_node(node, (node_labels or {}).get(node, -1))
    for src, dst, label, rank in edges:
        query.add_edge(src, dst, label=label, time_rank=rank)
    return query


#: a path, a triangle (one non-tree edge), a star, and two *parallel* query
#: edges feeding a third — the shape whose second parallel edge is always a
#: non-tree edge between already bound nodes
_QUERIES = [
    _query([(0, 1, -1, 0), (1, 2, -1, 1)], {0: 0, 1: 1, 2: 0}),
    _query([(0, 1, -1, 0), (1, 2, -1, 1), (2, 0, -1, 2)], {0: 0, 1: 1, 2: 0}),
    _query([(0, 1, -1, 1), (0, 2, -1, 0), (3, 0, -1, None)], {0: 1, 1: 0, 2: 0, 3: 0}),
    _query([(0, 1, 0, 0), (0, 1, 1, 1), (1, 2, -1, 2)]),
    _query([(0, 1, -1, 0), (0, 1, -1, 1)]),
]


class AcceptSomeMatcher(IsomorphismMatcher):
    """An overridden ``accept`` that reads both the embedding and the data graph."""

    def accept(self, context, embedding):
        stamps = sum(context.graph.edge(e).timestamp for e in embedding.edges().values())
        return (sum(embedding.nodes().values()) + int(stamps)) % 3 != 0


class EvenTimestampMatcher(MatchDefinition):
    """An overridden ``edge_matcher``: label equality plus an attribute test."""

    def edge_matcher(self, query, graph, q_edge, d_edge):
        return default_edge_matcher(query, graph, q_edge, d_edge) and int(d_edge.timestamp) % 2 == 0


class UnpartitionedMatcher(IsomorphismMatcher):
    """The stock matcher with pools taken over every label (still no Python callable)."""

    label_partitioned = False


_MATCHERS = {
    "isomorphism": IsomorphismMatcher,
    "homomorphism": HomomorphismMatcher,
    "temporal": TemporalIsomorphismMatcher,
    "temporal-strict": lambda: TemporalIsomorphismMatcher(strict=True),
    "custom-accept": AcceptSomeMatcher,
    "custom-edge-matcher": EvenTimestampMatcher,
}
#: the definitions the native kernel serves
_STOCK = ("isomorphism", "homomorphism")


@pytest.fixture
def numpy_kernel(monkeypatch):
    """Force the numpy kernel by clearing the loaded native library handle."""
    native.library()
    monkeypatch.setattr(native, "_library", None)


@pytest.fixture(params=["native", "numpy"])
def kernel(request):
    """Run once per kernel; the native run skips, with the loader's reason, where
    no library can be built."""
    if request.param == "numpy":
        request.getfixturevalue("numpy_kernel")
    elif native.library() is None:
        pytest.skip(native.status())
    return request.param


@pytest.fixture
def native_calls(monkeypatch):
    """The number of native kernel calls made so far, as a one-element list."""
    calls = [0]
    run = native.run

    def counted(*args):
        calls[0] += 1
        return run(*args)

    monkeypatch.setattr(native, "run", counted)
    return calls


def _random_events(rng, num_events, deletes=True, num_vertices=8, num_labels=2,
                   delete_share=0.25, self_loops=False):
    """A random multigraph stream over a small labelled vertex set.

    Timestamps are small integers, so ties and out-of-order arrivals are
    common; a deletion names some live triple, and with this few vertices
    later inserts at the same source recycle the freed edge id.
    """
    vertex_label = {v: v % 2 for v in range(num_vertices)}
    live: list[tuple] = []
    events = []
    for _ in range(num_events):
        if deletes and live and rng.random() < delete_share:
            events.append(StreamEvent.delete(*live.pop(int(rng.integers(len(live))))))
            continue
        src, dst = (int(x) for x in rng.integers(0, num_vertices, size=2))
        if src == dst and not self_loops:
            continue
        label = int(rng.integers(0, num_labels))
        events.append(StreamEvent.insert(src, dst, label, float(rng.integers(0, 6)),
                                         vertex_label[src], vertex_label[dst]))
        live.append((src, dst, label))
    return events


def _batches(events, rng, max_batch=7):
    position = 0
    while position < len(events):
        size = int(rng.integers(1, max_batch + 1))
        yield events[position : position + size]
        position += size


def _identities(embeddings):
    return {e.identity() for e in embeddings}


def _replay(engine, batched_events, rows):
    """Feed batches through ``engine``; ``rows(result)`` yields per-query
    ``(positive, negative, candidates_scanned)`` triples of one batch result."""
    trace = []
    for batch in batched_events:
        inserts = [e for e in batch if e.is_insert]
        deletes = [e for e in batch if e.is_delete]
        if inserts:
            trace.append(("+", rows(engine.batch_inserts(inserts))))
        if deletes:
            trace.append(("-", rows(engine.batch_deletes(deletes))))
    return trace


def _product_rows(result):
    """What iterating the result blocks yields: ``Embedding`` lists, in block order."""
    for embeddings in (result.positive_embeddings, result.negative_embeddings):
        assert isinstance(embeddings, Embeddings)
        assert embeddings.identities() == [
            ((e.positive, tuple(q for q, _ in e.node_map), tuple(q for q, _ in e.edge_map)),
             np.array([v for _, v in e.node_map + e.edge_map], dtype=np.int64).tobytes())
            for e in embeddings
        ]
    return [(
        list(result.positive_embeddings), list(result.negative_embeddings),
        result.candidates_scanned,
    )]


def _multi_rows(result):
    return [row for _, per_query in sorted(result.per_query.items())
            for row in _product_rows(per_query)]


def _reference_rows(result):
    return [
        ([e for e in found if e.positive], [e for e in found if not e.positive], scanned)
        for found, scanned in result
    ]


def _reference_trace(queries, batched_events):
    return _replay(ReferenceEngine(queries), batched_events, _reference_rows)


def _canonical(embeddings):
    return sorted(embeddings, key=lambda e: (e.start_edge, e.node_map, e.edge_map))


def _unordered(trace):
    """A trace without its scan counts and with every list in one canonical order.

    Pool chunks come back in completion order and shards are merged shard
    by shard, so there the product's order is its own; values, start
    edges and multiplicities must still be the reference's.
    """
    return [(sign, [(_canonical(pos), _canonical(neg)) for pos, neg, _ in rows])
            for sign, rows in trace]


# ---------------------------------------------------------------------- kernel == reference
_ENGINES = {
    "serial": lambda query, match_def: MnemonicEngine(query, match_def=match_def),
    "process": lambda query, match_def: MnemonicEngine(
        query, match_def=match_def,
        config=EngineConfig(parallel=ParallelConfig(backend="process", num_workers=2)),
    ),
    "2-shards": lambda query, match_def: ShardedEngine(
        query, match_def=match_def, config=EngineConfig(shards=2)
    ),
}


class TestKernelMatchesReference:
    @pytest.mark.parametrize("engine_name", _ENGINES)
    @pytest.mark.parametrize("deletes", [False, True], ids=["insert-only", "insert+delete"])
    @pytest.mark.parametrize("matcher", _MATCHERS)
    def test_randomized_streams_agree_batch_for_batch(
        self, rng, matcher, deletes, engine_name, kernel, native_calls
    ):
        """Product and reference agree on every batch of every query shape."""
        events = _random_events(rng, num_events=90, deletes=deletes)
        # the pool needs a few units per batch before it publishes a snapshot
        splits = list(_batches(events, rng, max_batch=14 if engine_name == "process" else 7))
        pool_phases = embeddings = 0
        for query in _QUERIES:
            expected = _reference_trace([(query, _MATCHERS[matcher]())], splits)
            with _ENGINES[engine_name](query, _MATCHERS[matcher]()) as engine:
                found = _replay(engine, splits, _product_rows)
                if engine_name == "serial":
                    assert found == expected
                    if deletes:
                        assert engine.graph.stats.recycled > 0
                else:
                    assert _unordered(found) == _unordered(expected)
                if engine_name == "process":
                    pool_phases += engine.pool_enumeration_phases
            embeddings += sum(len(pos) + len(neg) for _, rows in expected for pos, neg, _ in rows)
        assert embeddings > 0, "vacuous: the reference found nothing"
        if engine_name == "process":
            assert pool_phases > 0, "vacuous: no batch went through the worker pool"
        if kernel == "numpy" or matcher not in _STOCK:
            assert native_calls[0] == 0
        elif engine_name == "serial":  # a silent fallback must not pass as native
            assert native_calls[0] > 0

    @pytest.mark.parametrize("matcher", ["isomorphism", "homomorphism", "unpartitioned"])
    @pytest.mark.parametrize("query", [
        pytest.param(_query([(0, 1, 0, None), (1, 1, -1, None), (1, 2, 1, None)],
                            {0: 0, 1: -1, 2: 0}), id="self-loop-and-wildcard"),
        pytest.param(_query([(0, 1, 1, None)], {0: 0, 1: 1}), id="two-nodes"),
        pytest.param(_query([(0, 1, -1, None), (1, 0, 0, None)]), id="two-cycle"),
        pytest.param(_query([(0, 1, -1, None), (1, 2, 0, None), (2, 3, -1, None),
                             (3, 0, 1, None), (0, 2, -1, None)]), id="chorded-square"),
    ])
    def test_shapes_the_five_queries_miss(self, rng, query, matcher, kernel, native_calls):
        """Self-loop query edges (over a stream with self-loops), wildcard and
        labelled edges side by side, pools over every label, two-node queries
        and non-tree start edges: serial rows and scans equal the reference's."""
        make = UnpartitionedMatcher if matcher == "unpartitioned" else _MATCHERS[matcher]
        events = _random_events(rng, num_events=120, num_vertices=7, self_loops=True)
        splits = list(_batches(events, rng))
        expected = _reference_trace([(query, make())], splits)
        with MnemonicEngine(query, match_def=make()) as engine:
            assert _replay(engine, splits, _product_rows) == expected
        assert sum(len(pos) + len(neg) for _, rows in expected for pos, neg, _ in rows) > 0
        assert (native_calls[0] > 0) == (kernel == "native")

    def test_a_spilled_debi_falls_back_to_numpy(self, rng, tmp_path, native_calls):
        """A DEBI whose cold rows live on disk is read through Python: numpy serves it."""
        events = _random_events(rng, num_events=90)
        splits = list(_batches(events, rng))
        query = _QUERIES[1]
        with MnemonicEngine(query) as engine:
            engine.debi.enable_spill(tmp_path, hot_rows=4, segment_rows=4)
            assert _replay(engine, splits, _product_rows) == _reference_trace([(query, None)], splits)
            assert engine.debi.spill_stats()["spilled_rows"] > 0
        assert native_calls[0] == 0

    def test_a_vertex_id_of_2_to_the_40_is_emitted_exactly(self, kernel, native_calls):
        big = 2**40
        query = _query([(0, 1, -1, None), (1, 2, -1, None)], {0: 0, 1: 1, 2: 0})
        events = [StreamEvent.insert(big, 7, 0, 0.0, 0, 1), StreamEvent.insert(7, 9, 0, 0.0, 1, 0),
                  StreamEvent.insert(big + 1, 7, 0, 0.0, 0, 1)]
        found = MnemonicEngine(query).batch_inserts(events).positive_embeddings
        [(expected, _)] = ReferenceEngine([(query, None)]).batch_inserts(events)
        assert list(found) == expected
        assert {e.vertex_of(0) for e in found} == {big, big + 1}
        assert (native_calls[0] > 0) == (kernel == "native")

    @pytest.mark.parametrize("engine_name", ["serial", "process"])
    @pytest.mark.parametrize("matcher", _MATCHERS)
    def test_a_cut_frontier_leaves_the_reference_rows(
        self, rng, matcher, engine_name, monkeypatch, numpy_kernel
    ):
        """With ``MAX_LIVE`` at 2 nearly every step cuts its frontier into runs:
        same embeddings, on the serial engine in the same order and with the
        same ``candidates_scanned`` — the cut step fetches its pools once and a
        run's later steps are charged through the context's memo."""
        monkeypatch.setattr(enumeration, "MAX_LIVE", 2)  # before the pool forks
        cuts = []
        part = enumeration._Frontier.part
        monkeypatch.setattr(
            enumeration._Frontier, "part",
            lambda frontier, low, high: cuts.append(high - low) or part(frontier, low, high),
        )
        events = _random_events(rng, num_events=90, deletes=True)
        splits = list(_batches(events, rng, max_batch=14))
        for query in _QUERIES:
            expected = _reference_trace([(query, _MATCHERS[matcher]())], splits)
            with _ENGINES[engine_name](query, _MATCHERS[matcher]()) as engine:
                found = _replay(engine, splits, _product_rows)
            if engine_name == "serial":
                assert found == expected
            else:
                assert _unordered(found) == _unordered(expected)
        if engine_name == "serial":  # the workers cut in their own processes
            assert cuts and set(cuts) == {2}, "vacuous: no frontier was cut"

    def test_a_hub_is_expanded_a_run_at_a_time(self, monkeypatch, numpy_kernel):
        """No join sees more than ``MAX_LIVE`` live columns, however far hubs fan out."""
        fan = 30
        query = _query([(0, 1, -1, None), (1, 2, -1, None), (2, 3, -1, None)])
        events = [StreamEvent.insert(0, 1, 0, 0.0)]
        events += [StreamEvent.insert(1, 10 + i, 0, 0.0) for i in range(fan)]
        events += [StreamEvent.insert(10 + i, 100 + j, 0, 0.0) for i in range(fan) for j in range(fan)]
        engine = MnemonicEngine(query)
        engine.load_initial(events)
        pinned = engine.graph.find_edges(0, 1)

        def run(collect):
            widths = []
            join = enumeration.extend_intersect
            monkeypatch.setattr(
                enumeration, "extend_intersect",
                lambda inv, *rest: widths.append(inv.shape[0]) or join(inv, *rest),
            )
            context = engine.runtime.make_context(engine.graph, set(pinned), True)
            found, count = columnar_enumerate(context, decompose_batch(context, pinned), collect)
            monkeypatch.setattr(enumeration, "extend_intersect", join)
            return list(found), count, context.candidates_scanned, widths

        whole = run(True)
        assert whole[1] == fan * fan and max(whole[3]) == fan
        monkeypatch.setattr(enumeration, "MAX_LIVE", 8)
        cut = run(True)
        assert cut[:3] == whole[:3] and max(cut[3]) == 8 and len(cut[3]) > len(whole[3])
        assert run(False)[1:3] == whole[1:3]

    @pytest.mark.parametrize("matcher", _MATCHERS)
    def test_unit_columns_hold_the_reference_units_in_its_order(self, rng, matcher):
        """``decompose_batch``'s columns against the reference's unit list: same
        units, same order, grouped by start edge as the reference visits them."""
        events = _random_events(rng, num_events=90, deletes=True)
        seen = 0
        for query in _QUERIES:
            reference = ReferenceEngine([(query, _MATCHERS[matcher]())])
            _replay(reference, _batches(events, rng), _reference_rows)
            runtime, graph = reference.runtimes[0], reference.graph
            ids = [record.edge_id for record in graph.edges()]
            rng.shuffle(ids)
            expected = decompose(TupleContext(runtime, graph, set(ids), True), ids)
            units = decompose_batch(runtime.make_context(graph, set(ids), True), ids)
            assert list(units) == expected and len(units) == len(expected)
            assert [
                WorkUnit(edge_id, start)
                for start, edge_ids in units.groups() for edge_id in edge_ids.tolist()
            ] == start_edge_major(expected)
            assert list(units[1::3]) == expected[1::3]
            assert list(WorkUnits.concat([units[0::2], units[1::2]])) == (
                expected[0::2] + expected[1::2]
            )
            seen += len(units)
        assert seen, "vacuous: nothing decomposed"

    def test_count_only_matches_collected_count(self, paper_example):
        engine = MnemonicEngine(paper_example.query)
        engine.load_initial(paper_example.initial_events()
                            + paper_example.delta1_events())
        live_ids = [record.edge_id for record in engine.graph.edges()]
        context = engine.runtime.make_context(engine.graph, batch_edge_ids=set(live_ids), positive=True)
        units = decompose_batch(context, live_ids)
        collected, n_collected = columnar_enumerate(context, units, collect=True)
        context2 = engine.runtime.make_context(engine.graph, batch_edge_ids=set(live_ids), positive=True)
        empty, n_counted = columnar_enumerate(context2, decompose_batch(context2, live_ids),
                                              collect=False)
        assert empty == []
        assert n_counted == n_collected == len(collected) > 0

    def test_count_only_still_applies_a_custom_accept(self, rng):
        """``collect=False`` may skip building records only when nobody reads them."""
        events = [e for e in _random_events(rng, num_events=60, deletes=False)]
        for query in _QUERIES:
            counted = MnemonicEngine(query, match_def=AcceptSomeMatcher(),
                                     config=EngineConfig(collect_embeddings=False))
            collected = MnemonicEngine(query, match_def=AcceptSomeMatcher())
            unfiltered = MnemonicEngine(query)
            n = counted.batch_inserts(events).num_positive
            assert n == len(collected.batch_inserts(events).positive_embeddings)
            assert n <= unfiltered.batch_inserts(events).num_positive

    def test_the_workers_entry_point_returns_the_same_blocks(self, paper_example):
        """``columnar_enumerate_packed`` is the kernel again; its payload is the block list."""
        engine = MnemonicEngine(paper_example.query)
        engine.load_initial(paper_example.initial_events())
        live_ids = [record.edge_id for record in engine.graph.edges()]
        context = engine.runtime.make_context(engine.graph, batch_edge_ids=set(live_ids), positive=True)
        units = decompose_batch(context, live_ids)
        collected, _ = columnar_enumerate(context, units)
        context2 = engine.runtime.make_context(engine.graph, batch_edge_ids=set(live_ids), positive=True)
        payload, count = columnar_enumerate_packed(
            context2, decompose_batch(context2, live_ids))
        assert all(isinstance(block, EmbeddingBlock) for block in payload)
        assert count == len(collected) > 0
        assert Embeddings(payload) == collected


class TestBlocksCrossTheResultQueue:
    @pytest.mark.parametrize("matcher", ["isomorphism", "temporal", "custom-accept"])
    def test_pool_outcome_holds_the_serial_blocks_rows(self, rng, matcher):
        """Workers put their blocks on the queue as they are; the parent appends them.
        Witness binding (more edge slots than tree edges) and an overridden ``accept``
        (blocks filtered after a decode, in the worker) ride the same way."""
        events = [e for e in _random_events(rng, num_events=80, deletes=False)]
        found = 0
        for query in _QUERIES:
            engine = MnemonicEngine(query, match_def=_MATCHERS[matcher]())
            engine.load_initial(events)
            live_ids = [record.edge_id for record in engine.graph.edges()]

            def context():
                return engine.runtime.make_context(engine.graph, set(live_ids), positive=False)

            units = decompose_batch(context(), live_ids)
            serial, count = columnar_enumerate(context(), units)
            pool = SharedMemoryPool.create_multi(
                {0: engine.query_state}, ParallelConfig(backend="process", num_workers=2)
            )
            assert pool is not None
            try:
                outcome = pool.drain(pool.dispatch({0: context()}, {0: units})).outcomes[0]
            finally:
                pool.close()
            assert outcome.num_embeddings == len(outcome.embeddings) == count
            for block in outcome.embeddings.blocks:
                assert isinstance(block, EmbeddingBlock) and not block.positive
                assert block.nodes.dtype == block.edges.dtype == np.int64
                assert block.nodes.shape == (len(block.node_slots), len(block))
                assert block.edges.shape == (len(block.edge_slots), len(block))
            assert sorted(outcome.embeddings.identities()) == sorted(serial.identities())
            assert _canonical(outcome.embeddings) == _canonical(serial)
            found += count
        assert found > 0, "vacuous: nothing was enumerated"


# ---------------------------------------------------------------------- index == reference
class TestIndexMatchesReference:
    """The batched DEBI maintainer against the edge-at-a-time one
    (``tests/reference/edge_index.py``), which the reference engine runs."""

    @pytest.mark.parametrize("matcher", _MATCHERS)
    def test_same_bits_roots_and_traversals_after_every_batch(self, rng, matcher):
        events = _random_events(rng, num_events=90, delete_share=0.35)
        delete_traversals = 0
        for query in _QUERIES:
            reference = ReferenceEngine([(query, _MATCHERS[matcher]())])
            with MnemonicEngine(query, match_def=_MATCHERS[matcher]()) as engine:
                manager, oracle = engine.index_manager, reference.indexes[0]
                for batch in _batches(events, rng):
                    for feed, is_delete in (("batch_inserts", False), ("batch_deletes", True)):
                        phase = [e for e in batch if e.is_delete == is_delete]
                        if not phase:
                            continue
                        before = oracle.total_traversals
                        getattr(engine, feed)(phase)
                        getattr(reference, feed)(phase)
                        delete_traversals += is_delete * (oracle.total_traversals - before)
                        self._assert_same_index(engine, manager, oracle, query)
        assert delete_traversals, "vacuous: no deletion ever reached the index"

    @staticmethod
    def _assert_same_index(engine, manager, oracle, query):
        ids = np.arange(engine.graph.num_placeholders)
        vertices = np.array(sorted(engine.graph.vertices()), dtype=np.int64)
        assert engine.debi.rows(ids) == oracle.debi.rows(ids)
        assert (engine.debi.roots_mask(vertices).tolist()
                == oracle.debi.roots_mask(vertices).tolist())
        assert manager.total_traversals == oracle.total_traversals
        # asked with repeats, in no order, and about a stranger
        asked = np.concatenate([vertices[::-1], vertices[:2], [999]])
        for node in query.nodes():
            expected = [oracle.down_ok(v, node) for v in asked.tolist()]
            assert manager.down_mask(asked, node).tolist() == expected
            assert [manager.down_ok(v, node) for v in asked.tolist()] == expected

    @pytest.mark.parametrize("matcher", ["isomorphism", "custom-edge-matcher"])
    def test_per_id_form_rebuilds_the_same_index(self, rng, matcher):
        """``handle_insertions`` (rebuild, journal replay) is the column form after a gather."""
        events = [e for e in _random_events(rng, num_events=60, deletes=False)]
        for query in _QUERIES:
            with MnemonicEngine(query, match_def=_MATCHERS[matcher]()) as engine:
                engine.batch_inserts(events)
                ids = np.arange(engine.graph.num_placeholders)
                bits, traversals = engine.debi.rows(ids), engine.index_manager.total_traversals
                roots = engine.debi.root_count()
                engine.index_manager.rebuild()
                assert engine.debi.rows(ids) == bits
                assert engine.debi.root_count() == roots
                # one batch or one rebuild: every (edge, column) pair is evaluated once
                assert engine.index_manager.total_traversals == 2 * traversals


# ---------------------------------------------------------------------- shared-cache charging
class TestSharedPoolCacheCharging:
    """Several queries on one engine share raw pools: the first query to
    reach a pool pays for it.  Who pays what is part of the contract."""

    @pytest.mark.parametrize("match_defs", [
        pytest.param([IsomorphismMatcher] * 4, id="all-stock"),
        pytest.param([IsomorphismMatcher, AcceptSomeMatcher, HomomorphismMatcher,
                      TemporalIsomorphismMatcher], id="mixed-definitions"),
    ])
    def test_per_query_scans_match_reference_to_the_digit(self, rng, match_defs, kernel):
        events = _random_events(rng, num_events=120)
        splits = list(_batches(events, rng, max_batch=9))
        queries = [(query, make()) for query, make in zip(_QUERIES, match_defs)]
        expected = _reference_trace(queries, splits)
        with MultiQueryEngine() as engine:
            for query, make in zip(_QUERIES, match_defs):
                engine.register(query, match_def=make())
            found = _replay(engine, splits, _multi_rows)
        assert sum(len(pos) for sign, rows in expected for pos, _, _ in rows) > 0
        assert sum(len(neg) for sign, rows in expected for _, neg, _ in rows) > 0
        assert found == expected

    def test_native_and_numpy_queries_share_pools_as_numpy_alone_does(
        self, rng, monkeypatch, native_calls
    ):
        """Two stock queries and a temporal one share (direction, label) pools:
        with the native kernel on, the stock two run natively and the temporal
        one in numpy, and every query's rows and scans — and the registry's
        total — equal an all-numpy run's."""
        if native.library() is None:
            pytest.skip(native.status())
        query = _query([(0, 1, 0, 0), (1, 2, -1, 1)])
        match_defs = [IsomorphismMatcher, HomomorphismMatcher, TemporalIsomorphismMatcher]
        events = _random_events(rng, num_events=120)
        splits = list(_batches(events, rng, max_batch=9))

        def run():
            totals = []

            def rows(result):
                totals.append(result.candidates_scanned)
                return _multi_rows(result)

            with MultiQueryEngine() as engine:
                for make in match_defs:
                    engine.register(query, match_def=make())
                return _replay(engine, splits, rows), totals

        on = run()
        assert native_calls[0] > 0
        monkeypatch.setattr(native, "_library", None)
        assert run() == on
        assert sum(on[1]) > 0 and sum(len(pos) for _, rows in on[0] for pos, _, _ in rows) > 0


# ---------------------------------------------------------------------- arena invariants
@pytest.mark.usefixtures("numpy_kernel")
class TestArenaInvariants:
    def test_growth_is_geometric_and_monotone(self):
        arena = EmbeddingArena(capacity=4)
        arena.begin(node_rows=3, edge_rows=3)
        capacities = [arena.capacity]
        for rows in (3, 5, 9, 2, 33):
            arena.reserve(rows)
            capacities.append(arena.capacity)
        # Never shrinks, every size is the initial capacity times a power
        # of two, and only genuine growths were counted.
        assert capacities == sorted(capacities)
        for cap in capacities:
            assert cap % 4 == 0 and (cap // 4) & ((cap // 4) - 1) == 0
        assert arena.capacity >= 33
        assert arena.grow_events == 3  # 4 -> 8, 8 -> 16, 16 -> 64
        assert arena.high_water == 33

    def test_reuse_across_batches_stops_allocating(self, rng):
        """Steady-state batches reuse the arena: grow_events stays flat."""
        query = _QUERIES[0]
        events = [e for e in _random_events(rng, num_events=40) if e.is_insert]
        engine = MnemonicEngine(query)
        engine.load_initial(events)
        live_ids = [record.edge_id for record in engine.graph.edges()]
        arena = EmbeddingArena(capacity=8)
        for _ in range(4):
            context = engine.runtime.make_context(engine.graph, batch_edge_ids=set(live_ids), positive=True)
            units = decompose_batch(context, live_ids)
            columnar_enumerate(context, units, arena=arena)
        assert arena.batches_served == 4  # one per kernel invocation
        grow_after_warmup = arena.grow_events
        for _ in range(3):
            context = engine.runtime.make_context(engine.graph, batch_edge_ids=set(live_ids), positive=True)
            columnar_enumerate(context, decompose_batch(context, live_ids), arena=arena)
        assert arena.grow_events == grow_after_warmup
        assert arena.high_water <= arena.capacity

    def test_a_finished_block_is_gathered_only_when_read(self):
        """Counting needs no column of the last block; every reader sees all of them."""
        fan = 40
        query = _QUERIES[0]  # 0 -> 1 -> 2, labels 0, 1, 0
        engine = MnemonicEngine(query)
        engine.load_initial([StreamEvent.insert(0, 1, 0, 0.0, 0, 1)] + [
            StreamEvent.insert(1, 2 * (i + 1), 0, 0.0, 1, 0) for i in range(fan)
        ])
        pinned = engine.graph.find_edges(0, 1)  # one unit; its last step fans out

        def run(match_def=None, packed=False, collect=True):
            context = engine.runtime.make_context(engine.graph, set(pinned), True)
            if match_def is not None:
                context.match_def = match_def
            arena = EmbeddingArena(capacity=4)
            units = decompose_batch(context, pinned)
            if packed:
                payload, count = columnar_enumerate_packed(context, units, arena=arena)
                found = Embeddings(payload)
            else:
                found, count = columnar_enumerate(context, units, collect=collect, arena=arena)
            return _identities(found), count, arena.high_water

        collected, count, width = run()
        assert count == len(collected) == width == fan
        assert run(collect=False) == (set(), fan, 1)  # the pinned edge, never the fan
        assert run(packed=True) == (collected, fan, fan)

        class ReadsEverything(IsomorphismMatcher):
            def accept(self, context, embedding):
                return embedding.nodes()[2] % 4 == 0 and len(embedding.edges()) == 2

        kept = {identity for identity in collected if dict(identity[0])[2] % 4 == 0}
        assert 0 < len(kept) < fan
        assert run(ReadsEverything()) == (kept, len(kept), fan)
        assert run(ReadsEverything(), packed=True) == (kept, len(kept), fan)
        # the accepted columns of a counted block are selected, not copied
        assert run(ReadsEverything(), collect=False) == (set(), len(kept), fan)

    def test_a_returned_block_is_not_a_view_of_the_arena(self):
        """Blocks are copied out once; later batches reuse and grow the buffers under them."""
        query = _QUERIES[0]  # 0 -> 1 -> 2, labels 0, 1, 0
        engine = MnemonicEngine(query)
        arena = engine.runtime.arena

        def fan_batch(batch, fan):
            base = 1000 * batch
            return [StreamEvent.insert(base, base + 1, 0, 0.0, 0, 1)] + [
                StreamEvent.insert(base + 1, base + 2 * (i + 1), 0, 0.0, 1, 0) for i in range(fan)
            ]

        kept = engine.batch_inserts(fan_batch(0, 700)).positive_embeddings
        assert len(kept) == 700
        frozen = [(block.nodes.copy(), block.edges.copy(), list(block)) for block in kept.blocks]
        grown = arena.grow_events
        for batch, fan in ((1, 700), (2, 3000), (3, 9000)):  # same size, then two growths
            assert len(engine.batch_inserts(fan_batch(batch, fan)).positive_embeddings) == fan
        assert arena.grow_events > grown and arena.capacity >= 9000
        for block, (nodes, edges, records) in zip(kept.blocks, frozen):
            assert block.nodes.tobytes() == nodes.tobytes()
            assert block.edges.tobytes() == edges.tobytes()
            assert list(block) == records
            for buffer in (*arena.front(), *arena.back()):
                assert not np.shares_memory(block.nodes, buffer)
                assert not np.shares_memory(block.edges, buffer)

    def test_double_buffers_are_distinct(self):
        arena = EmbeddingArena(capacity=4)
        arena.begin(node_rows=2, edge_rows=2)
        arena.reserve(2)
        back_nodes, _ = arena.back()
        arena.swap()
        front_nodes, _ = arena.front()
        assert front_nodes is back_nodes
        arena.reserve(2)
        other_nodes, _ = arena.back()
        assert other_nodes is not front_nodes

    def test_reserve_rejects_nonpositive_initial_capacity(self):
        with pytest.raises(Exception):
            EmbeddingArena(capacity=0)


# ---------------------------------------------------------------------- edge cases
class TestKernelEdgeCases:
    def _context(self, engine, edge_ids):
        return engine.runtime.make_context(engine.graph, batch_edge_ids=set(edge_ids), positive=True)

    def test_empty_unit_list(self, paper_example, kernel):
        engine = MnemonicEngine(paper_example.query)
        engine.load_initial(paper_example.initial_events())
        context = self._context(engine, [])
        arena = EmbeddingArena(capacity=4)
        embeddings, count = columnar_enumerate(context, WorkUnits(), arena=arena)
        assert embeddings == [] and count == 0 and context.candidates_scanned == 0
        # the numpy kernel counts every invocation, even an empty one
        assert arena.batches_served == (kernel == "numpy")
        payload, count = columnar_enumerate_packed(context, WorkUnits(), arena=arena)
        assert payload == [] and count == 0

    def test_zero_candidate_frontier(self):
        """A start edge whose extension step has no candidates yields nothing."""
        query = QueryGraph.from_edges([(0, 1), (1, 2)],
                                      node_labels={0: 0, 1: 1, 2: 0})
        # One matching start edge (0-label -> 1-label) and no second hop.
        events = [StreamEvent.insert(10, 11, 0, 0.0, 0, 1)]
        result = MnemonicEngine(query).batch_inserts(events)
        assert result.positive_embeddings == []
        [(found, scanned)] = ReferenceEngine([(query, None)]).batch_inserts(events)
        assert found == [] and result.candidates_scanned == scanned

    def test_duplicate_vertex_rejected_under_isomorphism(self):
        """A 2-cycle cannot embed a 3-path injectively; it can homomorphically."""
        query = QueryGraph.from_edges([(0, 1), (1, 2)])
        events = [
            StreamEvent.insert(10, 11, 0, 0.0, 0, 0),
            StreamEvent.insert(11, 10, 0, 0.0, 0, 0),
        ]
        iso = MnemonicEngine(query, match_def=IsomorphismMatcher())
        assert iso.batch_inserts(list(events)).positive_embeddings == []
        homo = MnemonicEngine(query, match_def=HomomorphismMatcher())
        assert len(homo.batch_inserts(list(events)).positive_embeddings) == 2

    def test_duplicate_edge_witnesses_stay_distinct(self):
        """Parallel edges are distinct witnesses: the kernel must keep both."""
        query = QueryGraph.from_edges([(0, 1)])
        events = [
            StreamEvent.insert(10, 11, 0, 0.0, 0, 0),
            StreamEvent.insert(10, 11, 0, 0.0, 0, 0),
        ]
        result = MnemonicEngine(query).batch_inserts(list(events))
        assert len(result.positive_embeddings) == 2
        assert len(_identities(result.positive_embeddings)) == 2

    def test_bound_witnesses_fan_out_and_fill_every_edge_slot(self):
        """With witness binding a row becomes one embedding per witness."""
        query = _QUERIES[4]  # two parallel query edges: one is a non-tree edge
        events = [StreamEvent.insert(10, 11, 0, 1.0, 0, 0)] * 3
        checked = MnemonicEngine(query).batch_inserts(events)
        bound = MnemonicEngine(query, match_def=TemporalIsomorphismMatcher()).batch_inserts(events)
        # checked: one embedding per tree-edge binding, some other edge witnesses;
        # bound: every ordered pair of distinct data edges
        assert len(checked.positive_embeddings) == 3
        assert all(len(e.edges()) == 1 for e in checked.positive_embeddings)
        assert {tuple(sorted(e.edges().items())) for e in bound.positive_embeddings} == {
            ((0, a), (1, b)) for a in range(3) for b in range(3) if a != b
        }


class TestRemovedSelectors:
    """One kernel, one ingest path, two backends: the old selectors are gone."""

    def test_engine_config_has_no_kernel_or_ingest(self):
        with pytest.raises(TypeError, match="kernel"):
            EngineConfig(kernel="python")
        with pytest.raises(TypeError, match="ingest"):
            EngineConfig(ingest="per_edge")

    def test_thread_backend_names_its_replacement(self):
        with pytest.raises(ConfigurationError, match="'serial'"):
            ParallelConfig(backend="thread")

    def test_match_definition_has_no_enumerate_hook(self):
        assert not hasattr(MatchDefinition, "enumerate")


# ---------------------------------------------------------------------- seam contract
@pytest.mark.usefixtures("numpy_kernel")
class TestExtendIntersectSeam:
    def test_contiguous_int64_in_and_out(self, paper_example):
        """The seam sees C-contiguous int64 arrays and returns the same."""
        from repro.core import enumeration as enum_mod

        engine = MnemonicEngine(paper_example.query)
        engine.load_initial(paper_example.initial_events()
                            + paper_example.delta1_events())
        live_ids = [record.edge_id for record in engine.graph.edges()]
        context = engine.runtime.make_context(engine.graph, batch_edge_ids=set(live_ids), positive=True)
        units = decompose_batch(context, live_ids)

        seen = []
        original = enum_mod.extend_intersect

        def spy(inv, pool_ids, pool_verts, pool_sizes, bound_nodes):
            out = original(inv, pool_ids, pool_verts, pool_sizes, bound_nodes)
            seen.append((inv, pool_ids, pool_verts, pool_sizes, bound_nodes, out))
            return out

        enum_mod.extend_intersect = spy
        try:
            columnar_enumerate(context, units)
        finally:
            enum_mod.extend_intersect = original
        assert seen, "the kernel never reached its seam"
        for inv, pool_ids, pool_verts, pool_sizes, bound_nodes, out in seen:
            # the flat pool is segmented by anchor group, one segment per group
            assert pool_ids.shape == pool_verts.shape == (int(pool_sizes.sum()),)
            assert bound_nodes.ndim == 2 and bound_nodes.shape[1] == inv.shape[0]
            assert inv.size == 0 or inv.max() < pool_sizes.shape[0]
            for arr in (inv, pool_ids, pool_verts, pool_sizes, *bound_nodes, *out):
                assert arr.dtype == np.int64
                assert arr.flags["C_CONTIGUOUS"]
            parents, cand_ids, cand_verts = out
            assert parents.shape == cand_ids.shape == cand_verts.shape


# ---------------------------------------------------------------------- native loader
class TestNativeLoader:
    """The loader never raises and loads only what it built in a private directory."""

    @pytest.mark.parametrize("compiler", ["/nonexistent/cc", "false"], ids=["missing", "failing"])
    def test_a_bad_compiler_leaves_numpy_serving_the_same_rows(
        self, rng, tmp_path, monkeypatch, compiler, native_calls
    ):
        events = _random_events(rng, num_events=90)
        splits = list(_batches(events, rng))
        query = _QUERIES[1]
        with MnemonicEngine(query) as engine:
            served = _replay(engine, splits, _product_rows)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("CC", compiler)
        library, why = native._load()
        assert library is None and compiler in why
        assert not list((tmp_path / "repro-mnemonic").iterdir()), "a failed build left a file"
        monkeypatch.setattr(native, "_library", None)
        monkeypatch.setattr(native, "_status", why)
        calls = native_calls[0]
        with MnemonicEngine(query) as engine:
            assert _replay(engine, splits, _product_rows) == served
        assert native_calls[0] == calls and native.status() == why

    @pytest.mark.parametrize("mode", [0o777, 0o770, 0o722])
    def test_a_directory_others_can_write_is_refused(self, tmp_path, monkeypatch, mode):
        directory = tmp_path / "repro-mnemonic"
        directory.mkdir()
        directory.chmod(mode)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        library, why = native._load()
        assert library is None and "refused" in why
        assert list(directory.iterdir()) == []

    def test_a_fresh_directory_is_private_and_holds_one_library(self, tmp_path, monkeypatch):
        if native.library() is None:
            pytest.skip(native.status())
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        library, why = native._load()
        directory = tmp_path / "cache" / "repro-mnemonic"
        assert library is not None and str(directory) in why
        assert directory.stat().st_mode & 0o777 == 0o700
        assert [path.suffix for path in directory.iterdir()] == [".so"]
        assert native._load()[1] == why  # built once, then loaded
