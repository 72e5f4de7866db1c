"""Columnar ingest parity: vectorized batch mutations vs the per-edge loop.

The engine applies every batch as column arrays; it must be
*bit-identical* to applying the events one by one — same edge-id
sequences (including per-source newest-first recycling), same DEBI
bits, same scan and traversal counters, same published snapshot bytes.
These tests pin that contract:

1. **Graph parity (property)** — ``apply_insert_columns`` /
   ``apply_delete_columns`` replay exactly as a per-event
   ``add_edge`` / ``delete_edge`` loop: same returned ids, same CSR
   export, across random streams with duplicate parallel edges and
   recycling.
2. **Engine parity (property)** — full runs on the serial engine, the
   process pool and two shards against the per-edge reference engine
   (``tests/reference/tuple_kernel.py``): identical positive/negative
   identity sets per batch, and on the serial engine identical
   counters, live-edge counts and DEBI content.
3. **Sliding-window multigraph** — a stream where every expiry is
   ambiguous and every id recycled keeps the reference's ids, free-id
   stacks, CSR export and DEBI rows on the serial engine, the pool and two
   shards.
4. **Edge cases** — duplicate parallel edges in one batch,
   delete-then-reinsert hitting a recycled id, empty batches, a vertex
   id of 2**40.
5. **Publish regimes** — dirty-slice publication is byte-identical to a
   fresh full export, and an interloper export forces the full-copy
   fallback.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ShardedEngine
from repro.core.debi import DEBI
from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.parallel import ParallelConfig
from repro.core.registry import resolve_deletions
from repro.core.shared_snapshot import SharedSnapshotWriter, SnapshotAttachment
from repro.graph.adjacency import DynamicGraph
from repro.query.query_graph import QueryGraph
from repro.query.query_tree import QueryTree
from repro.streams.config import StreamConfig, StreamType
from repro.streams.events import EventColumns, EventKind, StreamEvent
from repro.streams.generator import SnapshotGenerator
from repro.streams.sources import ListSource
from tests.reference.tuple_kernel import ReferenceEngine

# ---------------------------------------------------------------------- strategies
_VERTICES = list(range(6))
_VERTEX_LABEL = {v: v % 2 for v in _VERTICES}

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

_batch_sizes = st.integers(min_value=1, max_value=7)


def _materialise_events(ops):
    """Applicable StreamEvents (skip impossible deletes and self-loops)."""
    from collections import Counter

    live = Counter()
    events = []
    for kind, src, dst, label in ops:
        if src == dst:
            continue
        if kind == "insert":
            events.append(
                StreamEvent.insert(
                    src, dst, label, 0.0, _VERTEX_LABEL[src], _VERTEX_LABEL[dst]
                )
            )
            live[(src, dst, label)] += 1
        elif live[(src, dst, label)] > 0:
            events.append(StreamEvent.delete(src, dst, label))
            live[(src, dst, label)] -= 1
    return events


def _split(events, size):
    return [events[i : i + size] for i in range(0, len(events), size)]


def _columns(kind, events):
    return EventColumns.from_events(kind, events)


# ---------------------------------------------------------------------- graph parity
def _graph_state(graph: DynamicGraph):
    csr = graph.export_csr()
    return {key: arr.copy() for key, arr in csr.arrays().items()}


@settings(max_examples=40, deadline=None)
@given(ops=_event_ops, size=_batch_sizes)
def test_columnar_graph_parity(ops, size):
    """apply_*_columns replays the per-event loop: same ids, same CSR."""
    events = _materialise_events(ops)
    ref = DynamicGraph()
    col = DynamicGraph()
    for batch in _split(events, size):
        inserts = [e for e in batch if e.kind is EventKind.INSERT]
        deletes = [e for e in batch if e.kind is EventKind.DELETE]

        ref_ids = [
            ref.add_edge(
                e.src, e.dst, e.label, e.timestamp,
                src_label=e.src_label, dst_label=e.dst_label,
            )
            for e in inserts
        ]
        if inserts:
            c = _columns(EventKind.INSERT, inserts)
            col_ids = list(
                col.apply_insert_columns(
                    c.src, c.dst, c.label, c.timestamp, c.src_label, c.dst_label
                )
            )
        else:
            col_ids = []
        assert [int(i) for i in col_ids] == ref_ids

        # resolve deletions identically on both graphs, then compare the
        # per-event delete loop against the bulk columnar apply
        ref_doomed = resolve_deletions(ref, deletes).tolist()
        col_doomed = resolve_deletions(col, deletes)
        assert col_doomed.tolist() == ref_doomed
        ref_records = [ref.delete_edge(eid) for eid in ref_doomed]
        assert list(col.apply_delete_columns(col_doomed).records()) == ref_records
        assert {v: col.free_ids.stack(v) for v in _VERTICES} == {
            v: ref.free_ids.stack(v) for v in _VERTICES
        }

    ref_state = _graph_state(ref)
    col_state = _graph_state(col)
    assert ref_state.keys() == col_state.keys()
    for key in ref_state:
        assert np.array_equal(ref_state[key], col_state[key]), key
    assert ref.num_edges == col.num_edges


# ---------------------------------------------------------------------- engine parity
_ENGINES = {
    "serial": lambda query: MnemonicEngine(query),
    "process": lambda query: MnemonicEngine(query, config=EngineConfig(
        parallel=ParallelConfig(backend="process", num_workers=2))),
    "2-shards": lambda query: ShardedEngine(query, config=EngineConfig(shards=2)),
}


def _replay(engine, batches, row):
    trace = []
    for batch in batches:
        inserts = [e for e in batch if e.kind is EventKind.INSERT]
        deletes = [e for e in batch if e.kind is EventKind.DELETE]
        if inserts:
            trace.append(row(engine.batch_inserts(inserts)))
        if deletes:
            trace.append(row(engine.batch_deletes(deletes)))
    return trace


def _identities(embeddings):
    return frozenset(e.identity() for e in embeddings)


@pytest.mark.usefixtures("small_slices")
@pytest.mark.parametrize("engine_name", _ENGINES)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=_event_ops, size=_batch_sizes)
def test_columnar_engine_parity(engine_name, ops, size):
    """Column batches leave every engine where the per-edge loop leaves the reference."""
    batches = _split(_materialise_events(ops), size)
    query = QueryGraph.from_edges(
        [(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 0}
    )
    reference = ReferenceEngine([(query, None)])
    expected = _replay(
        reference, batches,
        lambda result: _identities(result[0][0]),
    )
    with _ENGINES[engine_name](query) as engine:
        found = _replay(
            engine, batches,
            lambda r: _identities(r.positive_embeddings + r.negative_embeddings),
        )
        assert found == expected
        if engine_name == "serial":
            ref_graph, ref_runtime = reference.graph, reference.runtimes[0]
            assert engine.index_manager.total_traversals == reference.indexes[0].total_traversals
            assert engine.graph.num_edges == ref_graph.num_edges
            assert engine.graph.num_placeholders == ref_graph.num_placeholders
            assert engine.graph.stats.recycled == ref_graph.stats.recycled
            for key, expected_array in _graph_state(ref_graph).items():
                assert np.array_equal(_graph_state(engine.graph)[key], expected_array), key
            ids = np.arange(ref_graph.num_placeholders)
            assert engine.debi.rows(ids) == ref_runtime.debi.rows(ids)


# ---------------------------------------------------------------------- sliding-window multigraph
def _window_stream(seed):
    """A LANL-shaped stream: four triples, 12-16 parallel instances of each in
    every stride, timestamps in order and often equal among instances."""
    rng = random.Random(seed)
    triples = [(0, 1, 0), (0, 1, 1), (2, 1, 0), (1, 3, 0)]
    events, clock = [], 0.0
    for _ in range(10):  # strides
        for src, dst, label in triples:
            for _ in range(rng.randrange(12, 17)):
                clock += rng.choice([0.0, 0.0, 0.125])
                events.append(StreamEvent.insert(src, dst, label, clock, src % 2, dst % 2))
        clock = float(int(clock) + 1)
    return events


_WINDOW = StreamConfig(stream_type=StreamType.SLIDING_WINDOW, window=3.0, stride=1.0)


@pytest.mark.usefixtures("small_slices")
@pytest.mark.parametrize("engine_name", _ENGINES)
@pytest.mark.parametrize("seed", [3, 4])
def test_sliding_window_multigraph_matches_the_reference(engine_name, seed):
    """Every expiry is ambiguous (>= 12 live instances per triple) and every id
    is recycled: ids, free-id stacks, CSR export and DEBI rows stay those of
    the per-edge reference, snapshot after snapshot."""
    events = _window_stream(seed)
    query = QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 1})
    reference = ReferenceEngine([(query, None)])
    ref_graph, ref_debi = reference.graph, reference.runtimes[0].debi
    with _ENGINES[engine_name](query) as engine:
        deleted = found = 0
        for snapshot in SnapshotGenerator(ListSource(events), _WINDOW):
            expected = [
                _identities(reference.batch_inserts(snapshot.insertions)[0][0]),
                _identities(reference.batch_deletes(snapshot.deletions)[0][0])
                if snapshot.deletions else frozenset(),
            ]
            result = engine.process_snapshot(snapshot)
            assert [
                _identities(result.positive_embeddings), _identities(result.negative_embeddings)
            ] == expected
            deleted += snapshot.delete_batch_size
            found += len(expected[0]) + len(expected[1])
            ids = np.arange(ref_graph.num_placeholders)
            if engine_name == "2-shards":
                router = engine.router
                assert list(engine.routed_graph.edges()) == list(ref_graph.edges())
                assert router.allocator.num_placeholders == ref_graph.num_placeholders
                stacks, bits = router.allocator.free_ids, engine.routed_debi
                live = np.flatnonzero(router._primary[: ids.shape[0]] >= 0)
            else:
                for key, expected_array in _graph_state(ref_graph).items():
                    assert np.array_equal(_graph_state(engine.graph)[key], expected_array), key
                engine.graph.check_invariants()
                stacks, bits, live = engine.graph.free_ids, engine.debi, ids
            assert {v: stacks.stack(v) for v in range(4)} == {
                v: ref_graph.free_ids.stack(v) for v in range(4)
            }
            for column in range(2):
                assert np.array_equal(
                    bits.column_mask(live, column), ref_debi.column_mask(live, column)
                )
        assert found, "vacuous: the query never matched"
        assert deleted > len(events) // 2 and ref_graph.stats.recycled > len(events) // 2
        assert ref_graph.num_placeholders < len(events) // 2


# ---------------------------------------------------------------------- edge cases
def test_huge_vertex_id_costs_one_entry():
    """A vertex id of 2**40 is interned like any other: the store's arrays
    follow the batch, not the id (a table by raw id would be 8 TiB)."""
    big = 2**40
    graph = DynamicGraph()
    src = np.array([big, 5, big + 1, big])
    dst = np.array([5, big, big, big + 1])
    ids = graph.apply_insert_columns(src, dst, np.array([0, 1, 0, 0]), np.arange(4.0))
    graph.check_invariants()
    assert graph.find_edges(big, 5, 0) == [ids[0]] and graph.out_degree(big) == 2
    events = [StreamEvent.delete(big, big + 1, 0, 3.0), StreamEvent.delete(5, big, 1, 99.0)]
    doomed = resolve_deletions(graph, events)
    assert doomed.tolist() == [ids[3], ids[1]]
    assert list(graph.apply_delete_columns(doomed).src) == [big, 5]
    assert graph.add_edge(big, 7) == ids[3], "the id freed at 2**40 is recycled there"
    graph.check_invariants()

    def arrays(obj):
        return [v for v in vars(obj).values() if isinstance(v, np.ndarray)]

    held = arrays(graph) + arrays(graph._out) + arrays(graph._in) + arrays(graph.free_ids)
    assert sum(a.nbytes for a in held) < 16_384
    assert list(graph.export_csr().vertex_ids) == [big, 5, big + 1, 7]


def test_duplicate_parallel_edges_single_batch():
    """N copies of the same (src, dst, label) in one batch: distinct ids."""
    events = [StreamEvent.insert(0, 1, 2, float(i), 0, 1) for i in range(5)]
    c = _columns(EventKind.INSERT, events)
    graph = DynamicGraph()
    ids = list(
        graph.apply_insert_columns(
            c.src, c.dst, c.label, c.timestamp, c.src_label, c.dst_label
        )
    )
    assert sorted(set(int(i) for i in ids)) == sorted(int(i) for i in ids)
    ref = DynamicGraph()
    ref_ids = [ref.add_edge(0, 1, 2, float(i), src_label=0, dst_label=1) for i in range(5)]
    assert [int(i) for i in ids] == ref_ids
    for a, b in zip(_graph_state(graph).values(), _graph_state(ref).values()):
        assert np.array_equal(a, b)


def test_recycled_id_delete_then_reinsert():
    """Deleting then reinserting from the same source reuses ids LIFO."""
    def build():
        g = DynamicGraph()
        seed = [StreamEvent.insert(0, v, 0, float(v), 0, v % 2) for v in (1, 2, 3)]
        c = _columns(EventKind.INSERT, seed)
        first = [int(i) for i in g.apply_insert_columns(
            c.src, c.dst, c.label, c.timestamp, c.src_label, c.dst_label)]
        return g, first

    col, first = build()
    # free two ids (same source), newest-first reinsert should pop LIFO
    col.apply_delete_columns([first[0], first[2]])
    re_events = [StreamEvent.insert(0, 4, 1, 9.0, 0, 0),
                 StreamEvent.insert(0, 5, 1, 9.0, 0, 1)]
    rc = _columns(EventKind.INSERT, re_events)
    recycled = [int(i) for i in col.apply_insert_columns(
        rc.src, rc.dst, rc.label, rc.timestamp, rc.src_label, rc.dst_label)]

    ref, ref_first = build()
    assert ref_first == first
    ref.delete_edge(first[0])
    ref.delete_edge(first[2])
    ref_recycled = [ref.add_edge(0, 4, 1, 9.0, src_label=0, dst_label=0),
                    ref.add_edge(0, 5, 1, 9.0, src_label=0, dst_label=1)]
    assert recycled == ref_recycled
    assert set(recycled) == {first[0], first[2]}
    for a, b in zip(_graph_state(col).values(), _graph_state(ref).values()):
        assert np.array_equal(a, b)


def test_empty_batches():
    """Empty column batches are no-ops everywhere on the path."""
    graph = DynamicGraph()
    empty = np.zeros(0, dtype=np.int64)
    assert list(graph.apply_insert_columns(empty, empty, empty, empty, empty, empty)) == []
    assert graph.apply_delete_columns([]).edge_id.size == 0
    assert EventColumns.from_events(EventKind.INSERT, []) is not None or True

    query = QueryGraph.from_edges([(0, 1)], node_labels={0: 0, 1: 1})
    engine = MnemonicEngine(query)
    try:
        snap = engine.batch_inserts([])
        assert snap.num_positive == 0 and snap.num_insertions == 0
    finally:
        engine.close()


# ---------------------------------------------------------------------- publish regimes
def _publish_round_trip(seed, num_batches=24, batch=24, interloper_at=None):
    """Random mutate/publish loop; every published slot must equal a
    fresh full export.  Returns (full_publishes, dirty_publishes)."""
    rng = random.Random(seed)
    q = QueryGraph.from_edges(
        [(0, 1), (1, 2), (1, 3)], node_labels={0: 0, 1: 1, 2: 2, 3: 0}
    )
    tree = QueryTree(q, root=0)
    graph = DynamicGraph()
    debi = DEBI(tree)
    writer = SharedSnapshotWriter(num_slots=2)
    attach = SnapshotAttachment()
    live = []
    try:
        for b in range(num_batches):
            batch_ids = []
            for _ in range(batch):
                s = rng.randrange(0, 40)
                d = rng.randrange(0, 40)
                eid = graph.add_edge(s, d, rng.randrange(3), float(b),
                                     src_label=s % 3, dst_label=d % 3)
                live.append(eid)
                batch_ids.append(eid)
                for col in range(tree.num_columns):
                    if rng.random() < 0.4:
                        debi.set(eid, col)
                if rng.random() < 0.3:
                    debi.set_root(s)
            if b and rng.random() < 0.3:
                for _ in range(min(6, len(live))):
                    eid = live.pop(rng.randrange(len(live)))
                    graph.delete_edge(eid)
                    debi.clear_edge(eid)
            if interloper_at is not None and b == interloper_at:
                graph.export_csr()  # breaks the export chain: full copy
            desc = writer.publish(graph, debi, set(batch_ids), positive=True)

            ref = dict(graph.export_csr().arrays())
            ref_debi = debi.export_buffers()
            ref["debi_rows_0"] = ref_debi["rows"]
            ref["debi_roots_0"] = ref_debi["roots"]
            buf = attach._segment(desc["name"]).buf
            for key, (dtype, shape, off) in desc["layout"].items():
                view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=off)
                if key == "batch_edges":
                    assert set(view.tolist()) == set(batch_ids)
                    continue
                assert np.array_equal(view, ref[key]), (seed, b, key)
    finally:
        attach.detach()
        writer.close()
    return writer.full_publishes, writer.dirty_publishes


def test_dirty_slice_publish_byte_parity():
    full = dirty = 0
    for seed in (0, 1):
        f, d = _publish_round_trip(seed)
        full += f
        dirty += d
    # both regimes exercised; dirty-slice must carry the steady state
    assert full >= 2  # the first write of each slot is always a full copy
    assert dirty > full


def test_interloper_export_stays_correct():
    """An export the writer didn't perform breaks its dirty-tracking
    chain; the writer must detect it (via the graph's export count) and
    fall back to rewriting everything for that publication.  The
    byte-parity asserts inside the round trip prove no stale slice
    survives."""
    full, dirty = _publish_round_trip(7, interloper_at=10)
    assert full + dirty == 24  # every batch published despite the break
