"""Property-based tests for the core engine invariants.

These are the load-bearing correctness properties of the reproduction:

1. **State correctness** — over a random stream of insertions and
   deletions, split into random batches, the engine's graph + DEBI state
   always supports enumerating exactly the embeddings of the current
   graph (checked against an exhaustive oracle), and every embedding
   alive at the end was reported as positive at some point.
2. **Exactly-once emission** — for insert-only streams no edge-level
   embedding is ever reported twice, and the union of reports equals the
   oracle's answer on the final graph.
3. **DEBI invariant** — after every batch, a data edge's bit at a
   column is set iff the edge label-matches the column's query-tree edge
   and its child-side endpoint satisfies the downward subtree condition.
4. **Recycling neutrality** — edge-id recycling never changes answers.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.enumeration import decompose_batch
from repro.core.parallel import run_serial
from repro.matchers import HomomorphismMatcher, IsomorphismMatcher
from repro.query.query_graph import QueryGraph
from repro.streams.events import StreamEvent
from tests.conftest import brute_force_node_maps
from tests.reference.edge_index import ReferenceIndexManager

# ---------------------------------------------------------------------- strategies
_VERTICES = list(range(6))
_VERTEX_LABEL = {v: v % 2 for v in _VERTICES}


def _query_strategy():
    """A few representative small queries (paths, stars, cycles) over labels {0,1}."""
    q_path = QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 0})
    q_cycle = QueryGraph.from_edges([(0, 1), (1, 2), (2, 0)], node_labels={0: 0, 1: 1, 2: 0})
    q_star = QueryGraph.from_edges([(0, 1), (0, 2), (3, 0)], node_labels={0: 1, 1: 0, 2: 0, 3: 0})
    q_wild = QueryGraph.from_edges([(0, 1), (1, 2), (1, 3)])
    return st.sampled_from([q_path, q_cycle, q_star, q_wild])


_event_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "insert", "delete"]),  # bias towards inserts
        st.sampled_from(_VERTICES),
        st.sampled_from(_VERTICES),
        st.integers(min_value=0, max_value=1),
    ),
    min_size=4,
    max_size=40,
)

_batch_splits = st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=12)


def _materialise_events(ops):
    """Turn raw ops into applicable StreamEvents (skip impossible deletes, self-loops)."""
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
        else:
            if live[(src, dst, label)] > 0:
                events.append(StreamEvent.delete(src, dst, label))
                live[(src, dst, label)] -= 1
    return events


def _split_into_batches(events, splits):
    batches = []
    position, index = 0, 0
    while position < len(events):
        size = splits[index % len(splits)]
        batches.append(events[position : position + size])
        position += size
        index += 1
    return batches


def _run_incremental(query, events, splits, match_def):
    """Feed the events through the engine in batches; return (engine, positives, negatives)."""
    engine = MnemonicEngine(query, match_def=match_def)
    positives, negatives = [], []
    for batch in _split_into_batches(events, splits):
        inserts = [e for e in batch if e.is_insert]
        deletes = [e for e in batch if e.is_delete]
        if inserts:
            positives.extend(engine.batch_inserts(inserts).positive_embeddings)
        if deletes:
            negatives.extend(engine.batch_deletes(deletes).negative_embeddings)
    return engine, positives, negatives


def _full_enumeration_node_maps(engine):
    """Enumerate the engine's *current* graph through its own DEBI and context."""
    live_ids = [record.edge_id for record in engine.graph.edges()]
    context = engine.runtime.make_context(engine.graph, batch_edge_ids=set(live_ids), positive=True)
    units = decompose_batch(context, live_ids)
    outcome = run_serial(context, units)
    return {embedding.node_map for embedding in outcome.embeddings}


class TestStateCorrectness:
    @given(_query_strategy(), _event_ops, _batch_splits, st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_engine_state_matches_oracle(self, query, ops, splits, injective):
        events = _materialise_events(ops)
        if not events:
            return
        match_def = IsomorphismMatcher() if injective else HomomorphismMatcher()
        engine, positives, _ = _run_incremental(query, events, splits, match_def)
        expected = brute_force_node_maps(query, engine.graph, injective=injective)
        # The DEBI-backed state supports enumerating exactly the oracle answer.
        assert _full_enumeration_node_maps(engine) == expected
        # Every embedding alive at the end was reported when it was created.
        assert expected <= {e.node_map for e in positives}

    @given(_query_strategy(), _event_ops, _batch_splits)
    @settings(max_examples=40, deadline=None)
    def test_insert_only_exactly_once(self, query, ops, splits):
        events = [e for e in _materialise_events(ops) if e.is_insert]
        if not events:
            return
        engine, positives, _ = _run_incremental(query, events, splits, IsomorphismMatcher())
        identities = [(e.node_map, e.edge_map) for e in positives]
        assert len(identities) == len(set(identities))
        assert {e.node_map for e in positives} == brute_force_node_maps(
            query, engine.graph, injective=True
        )

    @given(_query_strategy(), _event_ops, _batch_splits)
    @settings(max_examples=30, deadline=None)
    def test_negative_embeddings_existed_before_their_batch(self, query, ops, splits):
        """Every destroyed embedding was positive at some earlier point (or created
        earlier in the same run), i.e. negatives never report phantom matches."""
        events = _materialise_events(ops)
        if not events:
            return
        engine, positives, negatives = _run_incremental(query, events, splits,
                                                        IsomorphismMatcher())
        positive_maps = {e.node_map for e in positives}
        for embedding in negatives:
            assert embedding.node_map in positive_maps


class TestDEBIInvariant:
    @given(_query_strategy(), _event_ops, _batch_splits)
    @settings(max_examples=40, deadline=None)
    def test_bits_match_definition_after_every_batch(self, query, ops, splits):
        events = _materialise_events(ops)
        if not events:
            return
        engine = MnemonicEngine(query)
        manager = ReferenceIndexManager.over(engine.index_manager)
        for batch in _split_into_batches(events, splits):
            inserts = [e for e in batch if e.is_insert]
            deletes = [e for e in batch if e.is_delete]
            if inserts:
                engine.batch_inserts(inserts)
            if deletes:
                engine.batch_deletes(deletes)
            for record in engine.graph.edges():
                for tree_edge in engine.tree.tree_edges:
                    expected = manager.bit_should_be_set(record, tree_edge)
                    actual = engine.debi.get(record.edge_id, tree_edge.column)
                    assert actual == expected, (
                        f"DEBI bit mismatch for edge {record} column {tree_edge.column}"
                    )
            for vertex in engine.graph.vertices():
                expected_root = (
                    engine.match_def.root_matcher(query, engine.graph, engine.tree.root, vertex)
                    and manager.down_ok(vertex, engine.tree.root)
                )
                assert engine.debi.is_root(vertex) == expected_root


class TestRecyclingNeutrality:
    @given(_event_ops, _batch_splits)
    @settings(max_examples=30, deadline=None)
    def test_engine_answers_unaffected_by_recycling(self, ops, splits):
        events = _materialise_events(ops)
        if not events:
            return
        query = QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 0})

        def run(recycle):
            engine = MnemonicEngine(query, config=EngineConfig(recycle_edge_ids=recycle))
            for batch in _split_into_batches(events, splits):
                inserts = [e for e in batch if e.is_insert]
                deletes = [e for e in batch if e.is_delete]
                if inserts:
                    engine.batch_inserts(inserts)
                if deletes:
                    engine.batch_deletes(deletes)
            return engine

        engine_a = run(True)
        engine_b = run(False)
        assert _full_enumeration_node_maps(engine_a) == _full_enumeration_node_maps(engine_b)
        assert engine_a.graph.num_placeholders <= engine_b.graph.num_placeholders
