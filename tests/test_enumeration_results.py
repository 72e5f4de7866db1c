"""Unit tests for embeddings, result sets, work decomposition and enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ShardedEngine
from repro.core.api import MatchDefinition, default_edge_matcher
from repro.core.engine import EngineConfig, MnemonicEngine, RunResult, enumerate_static
from repro.core.enumeration import WorkUnit, decompose_batch
from repro.core.results import Embedding, Embeddings, ResultSet
from repro.graph.adjacency import CSRGraphView
from repro.matchers import HomomorphismMatcher
from repro.query.query_graph import QueryGraph
from repro.streams.events import StreamEvent
from tests.reference import result_set as reference


class TestEmbedding:
    def test_build_and_accessors(self):
        emb = Embedding.build({1: 10, 0: 20}, {0: 5}, start_edge=0)
        assert emb.nodes() == {0: 20, 1: 10}
        assert emb.edges() == {0: 5}
        assert emb.vertex_of(1) == 10
        assert emb.positive
        assert emb.node_map == ((0, 20), (1, 10))  # canonical (sorted) order

    def test_identity_ignores_start_edge(self):
        a = Embedding.build({0: 1}, {0: 2}, start_edge=0)
        b = Embedding.build({0: 1}, {0: 2}, start_edge=3)
        assert a.identity() == b.identity()

    def test_identity_distinguishes_sign(self):
        pos = Embedding.build({0: 1}, {0: 2}, 0, positive=True)
        neg = Embedding.build({0: 1}, {0: 2}, 0, positive=False)
        assert pos.identity() != neg.identity()


class TestResultSet:
    def test_add_and_duplicate_detection(self):
        results = ResultSet()
        emb = Embedding.build({0: 1}, {0: 2}, 0)
        assert results.add(emb)
        assert not results.add(Embedding.build({0: 1}, {0: 2}, 5))
        assert len(results) == 1
        assert results.duplicates_rejected == 1
        assert emb in results

    def test_extend_and_partitions(self):
        results = ResultSet()
        added = results.extend([
            Embedding.build({0: 1}, {0: 2}, 0, positive=True),
            Embedding.build({0: 3}, {0: 4}, 0, positive=False),
        ])
        assert added == 2
        assert len(results.positives()) == 1
        assert len(results.negatives()) == 1
        assert len(results.node_mappings()) == 2


def _records(start_edge, positive, rows):
    """Embeddings of a two-node query whose bound-edge slots depend on the start edge
    (a unit started at the non-tree edge 2 binds it on top of the tree edges 0 and 1)."""
    edge_slots = sorted({0, 1, start_edge})
    return [
        Embedding(node_map=((0, a), (1, b)),
                  edge_map=tuple((slot, a + b + slot) for slot in edge_slots),
                  start_edge=start_edge, positive=positive)
        for a, b in rows
    ]


#: runs of records that share start edge, sign and slots — each becomes one block;
#: values come from a domain of nine rows, so repeats inside a run and between runs are the rule
_runs = st.lists(
    st.builds(
        _records, st.sampled_from([0, 1, 2]), st.booleans(),
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=6),
    ),
    min_size=1, max_size=8,
)


class TestResultSetMatchesReference:
    @given(_runs, st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_are_deduplicated_as_records_were(self, runs, data):
        product, oracle = ResultSet(), reference.ReferenceResultSet()
        position = 0
        while position < len(runs):  # a few runs at a time, as blocks or record by record
            size = data.draw(st.integers(1, 3))
            records = [e for run in runs[position:position + size] for e in run]
            position += size
            if data.draw(st.booleans()):
                blocks = Embeddings.of(records)
                assert len(blocks.blocks) <= size and list(blocks) == records
                assert product.extend(blocks) == oracle.extend(records)
            else:
                assert [product.add(e) for e in records] == [oracle.add(e) for e in records]
            assert product.duplicates_rejected == oracle.duplicates_rejected
        assert list(product) == oracle.embeddings
        assert len(product) == len(oracle.embeddings)
        assert list(product.positives()) == [e for e in oracle.embeddings if e.positive]
        assert list(product.negatives()) == [e for e in oracle.embeddings if not e.positive]
        # same rows under the other sign, other slots or a fourth value are other matches
        probes = [e for run in runs for e in run]
        probes += [Embedding(e.node_map, e.edge_map, e.start_edge, not e.positive) for e in probes]
        probes += _records(2, True, [(0, 0), (3, 3)]) + _records(0, False, [(2, 3)])
        assert [e in product for e in probes] == [e in oracle for e in probes]

    def test_an_untouched_block_is_kept_as_it_came(self):
        """No duplicate, no copy: the sink and the result it was fed from share arrays."""
        [block] = Embeddings.of(_records(0, True, [(0, 1), (1, 2), (2, 0)])).blocks
        results = ResultSet()
        results.extend(Embeddings([block]))
        assert results.embeddings.blocks[0] is block
        results.extend(Embeddings([block.take([1]), block]))
        assert results.duplicates_rejected == 4 and len(results.embeddings.blocks) == 1


class TestRunResultReductions:
    """``all_positive`` / ``all_negative`` / ``net_result_set`` on blocks, against the
    per-record forms (``tests/reference/result_set.py``), over churn that recycles ids."""

    QUERY = QueryGraph.from_edges([(0, 1), (1, 2), (2, 0)], node_labels={0: 0, 1: 1, 2: 0})

    def _churn(self, engine, seed):
        rng = np.random.default_rng(seed)
        run, live = RunResult(), []
        for _ in range(6):
            inserts = [
                StreamEvent.insert(int(s), int(d), 0, src_label=int(s) % 2, dst_label=int(d) % 2)
                for s, d in zip(rng.integers(0, 6, 30), rng.integers(0, 6, 30)) if s != d
            ]
            run.add(engine.batch_inserts(inserts))
            live.extend(inserts)
            doomed = [live.pop(int(rng.integers(len(live)))) for _ in range(12)]
            run.add(engine.batch_deletes(
                [StreamEvent.delete(e.src, e.dst, e.label) for e in doomed]))
        return run

    @pytest.mark.parametrize("seed", range(3))
    def test_reductions_equal_the_per_record_forms_in_order(self, seed):
        engine = MnemonicEngine(self.QUERY)
        run = self._churn(engine, seed)
        assert engine.graph.stats.recycled > 0
        positives, negatives = reference.all_positive(run), reference.all_negative(run)
        assert positives and negatives
        assert list(run.all_positive()) == positives
        assert list(run.all_negative()) == negatives
        net, expected = run.net_result_set(), reference.net_result_set(run)
        assert 0 < len(expected.embeddings) < len(positives)
        assert list(net) == expected.embeddings
        assert net.duplicates_rejected == expected.duplicates_rejected
        # a match formed, destroyed and formed again is in the run twice and in the net never
        assert len(set(run.all_positive().identities())) < len(positives)

    @pytest.mark.parametrize("seed", range(3))
    def test_the_shard_merge_keeps_every_row_once(self, seed):
        single = self._churn(MnemonicEngine(self.QUERY), seed)
        with ShardedEngine(self.QUERY, config=EngineConfig(shards=2)) as engine:
            sharded = self._churn(engine, seed)

        def canonical(embeddings):
            return sorted(embeddings, key=lambda e: (e.start_edge, e.node_map, e.edge_map))

        for mine, theirs in zip(sharded.snapshots, single.snapshots):
            assert canonical(mine.positive_embeddings) == canonical(theirs.positive_embeddings)
            assert canonical(mine.negative_embeddings) == canonical(theirs.negative_embeddings)
            assert mine.num_positive == theirs.num_positive
            assert mine.num_negative == theirs.num_negative
        assert list(sharded.net_result_set().node_mappings()) and (
            sharded.net_result_set().node_mappings() == single.net_result_set().node_mappings())


class TestWorkDecomposition:
    def _engine(self):
        query = QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 2})
        # Root pinned at node 0 so the DEBI column of node 1 has a downward
        # requirement (the 1 -> 2 edge), which is what these tests exercise.
        return MnemonicEngine(query, root=0)

    def test_units_require_label_match(self):
        engine = self._engine()
        engine.batch_inserts([StreamEvent.insert(10, 11, src_label=0, dst_label=1)])
        # Insert an edge that matches no query edge: no work units.
        result = engine.batch_inserts([StreamEvent.insert(50, 51, src_label=5, dst_label=5)])
        assert result.work_units == 0
        assert result.num_positive == 0

    def test_units_require_debi_bit_for_tree_edges(self):
        engine = self._engine()
        # (A -> B) matches the first tree edge by labels but has no downward
        # support yet, so its DEBI bit is unset and no unit is created.
        result = engine.batch_inserts([StreamEvent.insert(10, 11, src_label=0, dst_label=1)])
        assert result.work_units == 0

    def test_units_created_when_supported(self):
        engine = self._engine()
        engine.batch_inserts([StreamEvent.insert(11, 12, src_label=1, dst_label=2)])
        result = engine.batch_inserts([StreamEvent.insert(10, 11, src_label=0, dst_label=1)])
        assert result.work_units == 1
        assert result.num_positive == 1

    def test_decompose_batch_non_tree_edges_skip_debi(self):
        query = QueryGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        engine = MnemonicEngine(query)
        engine.batch_inserts([
            StreamEvent.insert(1, 2),
            StreamEvent.insert(2, 3),
        ])
        context = engine.runtime.make_context(engine.graph, batch_edge_ids={0, 1}, positive=True)
        units = decompose_batch(context, [0, 1])
        # Wildcard labels: every edge matches the non-tree query edge regardless of DEBI.
        non_tree_index = engine.tree.non_tree_edges[0].index
        assert any(u.start_edge == non_tree_index for u in units)


def per_edge_decompose(context, batch_edge_ids):
    """Work decomposition as shipped before the masked path: one
    ``edge_matcher`` call per (batch edge, query edge).  Reference only."""
    query, graph, tree = context.query, context.graph, context.tree
    units = []
    for eid in batch_edge_ids:
        record = graph.edge(eid)
        for q_edge in query.edges():
            if not context.match_def.edge_matcher(query, graph, q_edge, record):
                continue
            if tree.is_tree_edge(q_edge.index) and not context.debi.get(
                eid, tree.tree_edge_for(q_edge.index).column
            ):
                continue
            units.append(WorkUnit(edge_id=eid, start_edge=q_edge.index))
    return units


LABELLED_QUERY = QueryGraph.from_edges(
    [(0, 1, 1), (1, 2, 2), (2, 0, 1), (1, 3, 2)], node_labels={0: 0, 1: 1, 2: 0, 3: 1}
)
#: a wildcard node, a wildcard edge label and a self-loop query edge
WILDCARD_QUERY = QueryGraph.from_edges([(0, 1, 1), (1, 2), (2, 2, 2)], node_labels={0: 0, 2: 1})


def churned_engine(query, seed, match_def=None):
    """An engine after three insert/delete rounds over six vertices: parallel
    edges, self-loops and edge ids recycled by the later rounds."""
    rng = np.random.default_rng(seed)
    engine = MnemonicEngine(query, match_def=match_def)
    live: list[StreamEvent] = []
    for _ in range(3):
        inserts = [
            StreamEvent.insert(int(s), int(d), int(lb), src_label=int(s) % 2, dst_label=int(d) % 2)
            for s, d, lb in zip(
                rng.integers(0, 6, 40), rng.integers(0, 6, 40), rng.integers(1, 3, 40)
            )
        ]
        engine.batch_inserts(inserts)
        live.extend(inserts)
        doomed = [live.pop(int(rng.integers(len(live)))) for _ in range(25)]
        engine.batch_deletes([StreamEvent.delete(e.src, e.dst, e.label) for e in doomed])
    assert engine.graph.stats.recycled > 0
    return engine


class TestMaskedDecomposition:
    @pytest.mark.parametrize(
        "query", [LABELLED_QUERY, WILDCARD_QUERY], ids=["labelled", "wildcard"]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_same_units_in_the_same_order_as_the_per_edge_loop(self, query, seed):
        engine = churned_engine(query, seed)
        ids = [record.edge_id for record in engine.graph.edges()]
        np.random.default_rng(seed).shuffle(ids)
        for graph in (engine.graph, CSRGraphView(engine.graph.export_csr())):
            context = engine.runtime.make_context(graph, set(ids), positive=True)
            units = decompose_batch(context, ids)
            assert list(units) == per_edge_decompose(context, ids)
            assert len(units)  # the scenario decomposes into something
            assert units.edge_ids.dtype == units.start_edges.dtype == np.int64
            assert all(type(u.edge_id) is int and type(u.start_edge) is int for u in units)
            assert list(decompose_batch(context, iter(ids[:7]))) == per_edge_decompose(
                context, ids[:7]
            )
            assert len(decompose_batch(context, [])) == 0

    def test_custom_matcher_is_asked_once_per_batch_edge_and_query_edge(self):
        class CountingMatcher(MatchDefinition):
            calls = 0

            def edge_matcher(self, query, graph, q_edge, d_edge):
                type(self).calls += 1
                return default_edge_matcher(query, graph, q_edge, d_edge)

        engine = churned_engine(LABELLED_QUERY, seed=0, match_def=CountingMatcher())
        ids = sorted(record.edge_id for record in engine.graph.edges())
        context = engine.runtime.make_context(engine.graph, set(ids), positive=True)
        expected = per_edge_decompose(context, ids)
        CountingMatcher.calls = 0
        assert list(decompose_batch(context, ids)) == expected
        assert CountingMatcher.calls == len(ids) * len(LABELLED_QUERY.edges())


class TestEnumerationSemantics:
    def test_isomorphism_rejects_vertex_reuse(self):
        query = QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 0})
        events = [
            StreamEvent.insert(7, 8, src_label=0, dst_label=1),
            StreamEvent.insert(8, 7, src_label=1, dst_label=0),
        ]
        iso = enumerate_static(query, events)
        homo = enumerate_static(query, events, match_def=HomomorphismMatcher())
        # Isomorphism cannot map nodes 0 and 2 to the same vertex; homomorphism can.
        assert len(iso) == 0
        assert len(homo) == 1

    def test_self_loop_query_edge(self):
        query = QueryGraph.from_edges([(0, 0), (0, 1)])
        events = [
            StreamEvent.insert(5, 5),
            StreamEvent.insert(5, 6),
        ]
        # Homomorphism: node 1 may map to 5 (reusing the self-loop) or to 6.
        homo = enumerate_static(query, events, match_def=HomomorphismMatcher())
        assert {e.node_map for e in homo} == {((0, 5), (1, 5)), ((0, 5), (1, 6))}
        # Isomorphism: the self-loop constraint still binds node 0 to vertex 5,
        # and node 1 must map to a distinct vertex.
        iso = enumerate_static(query, events)
        assert {e.node_map for e in iso} == {((0, 5), (1, 6))}

    def test_parallel_data_edges_create_distinct_embeddings(self):
        query = QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 2})
        events = [
            StreamEvent.insert(1, 2, label=0, src_label=0, dst_label=1),
            StreamEvent.insert(1, 2, label=0, src_label=0, dst_label=1),  # parallel instance
            StreamEvent.insert(2, 3, label=0, src_label=1, dst_label=2),
        ]
        found = enumerate_static(query, events)
        # Same node mapping, two distinct edge-level embeddings (context-awareness).
        assert len(found) == 2
        assert len({e.node_map for e in found}) == 1
        assert len({e.edge_map for e in found}) == 2

    def test_parallel_query_edges_need_distinct_witnesses(self):
        query = QueryGraph.from_edges([(0, 1), (0, 1)])
        one_edge = [StreamEvent.insert(4, 5)]
        two_edges = [StreamEvent.insert(4, 5), StreamEvent.insert(4, 5)]
        assert len(enumerate_static(query, one_edge)) == 0
        assert len(enumerate_static(query, two_edges)) >= 1

    def test_root_bit_pruning_does_not_lose_matches(self):
        # Chain query where enumeration starts far from the root.
        query = QueryGraph.from_edges([(0, 1), (1, 2), (2, 3)],
                                      node_labels={0: 0, 1: 1, 2: 2, 3: 3})
        engine = MnemonicEngine(query)
        engine.batch_inserts([
            StreamEvent.insert(10, 11, src_label=0, dst_label=1),
            StreamEvent.insert(11, 12, src_label=1, dst_label=2),
        ])
        result = engine.batch_inserts([StreamEvent.insert(12, 13, src_label=2, dst_label=3)])
        assert result.num_positive == 1

    def test_work_unit_dataclass(self):
        unit = WorkUnit(edge_id=3, start_edge=1)
        assert unit.edge_id == 3 and unit.start_edge == 1
