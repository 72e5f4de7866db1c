"""Unit tests for the matching variants programmed on the Mnemonic API."""

from types import SimpleNamespace

import pytest

from benchmarks.e2e import oracle
from repro.bench.harness import run_litcs_stream
from repro.core.api import DefaultMatchDefinition, MatchDefinition, default_edge_matcher
from repro.core.engine import MnemonicEngine, enumerate_static
from repro.graph.adjacency import DynamicGraph
from repro.matchers import (
    HomomorphismMatcher,
    IsomorphismMatcher,
    TemporalIsomorphismMatcher,
)
from repro.query.query_graph import WILDCARD_LABEL, QueryGraph
from repro.streams.events import EventKind, StreamEvent
from tests.conftest import brute_force_node_maps, graph_from_edge_list


class TestDefaultEdgeMatcher:
    def setup_method(self):
        self.graph = DynamicGraph()
        self.eid = self.graph.add_edge(1, 2, label=7, src_label=3, dst_label=4)
        self.record = self.graph.edge(self.eid)

    def test_exact_label_match(self):
        query = QueryGraph.from_edges([(0, 1, 7)], node_labels={0: 3, 1: 4})
        assert default_edge_matcher(query, self.graph, query.edge(0), self.record)

    def test_wildcards_match_anything(self):
        query = QueryGraph.from_edges([(0, 1)])
        assert default_edge_matcher(query, self.graph, query.edge(0), self.record)

    def test_node_label_mismatch(self):
        query = QueryGraph.from_edges([(0, 1, 7)], node_labels={0: 9, 1: 4})
        assert not default_edge_matcher(query, self.graph, query.edge(0), self.record)

    def test_edge_label_mismatch(self):
        query = QueryGraph.from_edges([(0, 1, 8)], node_labels={0: 3, 1: 4})
        assert not default_edge_matcher(query, self.graph, query.edge(0), self.record)

    def test_direction_matters(self):
        query = QueryGraph.from_edges([(0, 1, 7)], node_labels={0: 4, 1: 3})
        assert not default_edge_matcher(query, self.graph, query.edge(0), self.record)

    def test_root_matcher(self):
        match_def = DefaultMatchDefinition()
        query = QueryGraph.from_edges([(0, 1)], node_labels={0: 3, 1: WILDCARD_LABEL})
        assert match_def.root_matcher(query, self.graph, 0, 1)
        assert not match_def.root_matcher(query, self.graph, 0, 2)
        assert match_def.root_matcher(query, self.graph, 1, 2)  # wildcard


class TestIsoVsHomo:
    def _events(self):
        # A small diamond with a shared middle vertex.
        return [
            StreamEvent.insert(1, 2, src_label=0, dst_label=1),
            StreamEvent.insert(2, 3, src_label=1, dst_label=0),
            StreamEvent.insert(1, 4, src_label=0, dst_label=1),
            StreamEvent.insert(4, 3, src_label=1, dst_label=0),
            StreamEvent.insert(4, 1, src_label=1, dst_label=0),
        ]

    def _query(self):
        return QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 0})

    def test_matcher_flags(self):
        assert IsomorphismMatcher().injective
        assert not HomomorphismMatcher().injective
        assert IsomorphismMatcher().name == "isomorphism"
        assert HomomorphismMatcher().name == "homomorphism"

    def test_homomorphism_is_superset_of_isomorphism(self):
        events = self._events()
        query = self._query()
        iso = {e.node_map for e in enumerate_static(query, events, match_def=IsomorphismMatcher())}
        homo = {e.node_map for e in enumerate_static(query, events, match_def=HomomorphismMatcher())}
        assert iso <= homo
        assert len(homo) > len(iso)

    def test_results_match_brute_force(self):
        events = self._events()
        query = self._query()
        graph = graph_from_edge_list(
            [(e.src, e.dst, e.label) for e in events],
            vertex_labels={1: 0, 2: 1, 3: 0, 4: 1},
        )
        iso = {e.node_map for e in enumerate_static(query, events, match_def=IsomorphismMatcher())}
        homo = {e.node_map for e in enumerate_static(query, events, match_def=HomomorphismMatcher())}
        assert iso == brute_force_node_maps(query, graph, injective=True)
        assert homo == brute_force_node_maps(query, graph, injective=False)


class TestTemporalIsomorphism:
    def _query(self):
        # 0 -> 1 must happen before 1 -> 2 (ranks 0 and 1).
        query = QueryGraph()
        query.add_node(0, 0)
        query.add_node(1, 1)
        query.add_node(2, 2)
        query.add_edge(0, 1, time_rank=0)
        query.add_edge(1, 2, time_rank=1)
        return query

    def test_respects_temporal_order(self):
        query = self._query()
        ordered = [
            StreamEvent.insert(10, 11, timestamp=1.0, src_label=0, dst_label=1),
            StreamEvent.insert(11, 12, timestamp=2.0, src_label=1, dst_label=2),
        ]
        reversed_ts = [
            StreamEvent.insert(10, 11, timestamp=5.0, src_label=0, dst_label=1),
            StreamEvent.insert(11, 12, timestamp=2.0, src_label=1, dst_label=2),
        ]
        matcher = TemporalIsomorphismMatcher()
        assert len(enumerate_static(query, ordered, match_def=matcher)) == 1
        assert len(enumerate_static(query, reversed_ts, match_def=matcher)) == 0
        # Plain isomorphism ignores timestamps entirely.
        assert len(enumerate_static(query, reversed_ts, match_def=IsomorphismMatcher())) == 1

    def test_strict_vs_non_strict_ties(self):
        query = self._query()
        tied = [
            StreamEvent.insert(10, 11, timestamp=3.0, src_label=0, dst_label=1),
            StreamEvent.insert(11, 12, timestamp=3.0, src_label=1, dst_label=2),
        ]
        assert len(enumerate_static(query, tied, match_def=TemporalIsomorphismMatcher())) == 1
        assert len(enumerate_static(query, tied,
                                    match_def=TemporalIsomorphismMatcher(strict=True))) == 0

    def test_unranked_edges_unconstrained(self):
        query = QueryGraph()
        query.add_node(0, 0)
        query.add_node(1, 1)
        query.add_node(2, 2)
        query.add_edge(0, 1, time_rank=0)
        query.add_edge(1, 2)  # no rank
        events = [
            StreamEvent.insert(10, 11, timestamp=9.0, src_label=0, dst_label=1),
            StreamEvent.insert(11, 12, timestamp=1.0, src_label=1, dst_label=2),
        ]
        assert len(enumerate_static(query, events, match_def=TemporalIsomorphismMatcher())) == 1

    def test_binds_witness_edges(self):
        matcher = TemporalIsomorphismMatcher()
        assert matcher.bind_witnesses
        query = self._query()
        events = [
            StreamEvent.insert(10, 11, timestamp=1.0, src_label=0, dst_label=1),
            StreamEvent.insert(11, 12, timestamp=2.0, src_label=1, dst_label=2),
        ]
        found = enumerate_static(query, events, match_def=matcher)
        assert set(found[0].edges()) == {0, 1}

    def test_incremental_temporal_stream(self):
        query = self._query()
        matcher = TemporalIsomorphismMatcher()
        engine = MnemonicEngine(query, match_def=matcher)
        first = engine.batch_inserts([
            StreamEvent.insert(10, 11, timestamp=5.0, src_label=0, dst_label=1)
        ])
        assert first.num_positive == 0
        second = engine.batch_inserts([
            StreamEvent.insert(11, 12, timestamp=6.0, src_label=1, dst_label=2)
        ])
        assert second.num_positive == 1
        # A later (1 -> 2) edge with an *earlier* timestamp cannot complete a match.
        third = engine.batch_inserts([
            StreamEvent.insert(11, 13, timestamp=1.0, src_label=1, dst_label=2)
        ])
        assert third.num_positive == 0


class TestParallelQueryEdges:
    """Two query edges between one node pair: whichever the tree leaves out is a
    non-tree edge between bound nodes, and under witness binding each of its
    witnesses is an embedding of its own — also when an older witness exists.
    (The engine used to find 0 of the 6 embeddings below once the data edges
    arrived in separate batches.)"""

    @staticmethod
    def _query(first_label, second_label):
        query = QueryGraph()
        query.add_node(0, 1)
        query.add_node(1, 2)
        query.add_edge(0, 1, label=first_label, time_rank=0)
        query.add_edge(0, 1, label=second_label, time_rank=1)
        return query

    @staticmethod
    def _edge(src, dst, label, timestamp):
        return StreamEvent.insert(src, dst, label, float(timestamp), src_label=1, dst_label=2)

    @staticmethod
    def _replay(query, events, chunk):
        """Stream order, at most ``chunk`` events per batch, inserts and deletes apart."""
        engine = MnemonicEngine(query, match_def=TemporalIsomorphismMatcher())
        positives, negatives = [], []
        position = 0
        while position < len(events):
            kind = events[position].kind
            batch = []
            while position < len(events) and len(batch) < chunk and events[position].kind is kind:
                batch.append(events[position])
                position += 1
            if kind is EventKind.INSERT:
                positives += engine.batch_inserts(batch).positive_embeddings
            else:
                negatives += engine.batch_deletes(batch).negative_embeddings
        return positives, negatives

    @pytest.mark.parametrize("chunk", [1, 2, 64])
    @pytest.mark.parametrize("with_deletes", [False, True], ids=["insert-only", "insert+delete"])
    def test_agrees_with_li_tcs(self, chunk, with_deletes):
        query = self._query(5, 5)
        events = [self._edge(10, 11, 5, t) for t in range(4)]
        expected = 6  # every time-ordered pair of the four parallel edges
        if with_deletes:
            # drop the oldest instance (both systems resolve to it), then one more edge
            events += [StreamEvent.delete(10, 11, 5, timestamp=0.0), self._edge(10, 11, 5, 4)]
            expected += 3
        positives, negatives = self._replay(query, events, chunk)
        assert len(positives) == run_litcs_stream(query, events).embeddings == expected
        assert len({e.identity() for e in positives}) == expected
        assert len(negatives) == (3 if with_deletes else 0)

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    @pytest.mark.parametrize("with_deletes", [False, True], ids=["insert-only", "insert+delete"])
    def test_agrees_with_the_repro_free_oracle(self, chunk, with_deletes):
        """Label 5 always precedes label 6 in time, so the order constraint holds
        wherever both labels exist and the oracle's untimed node maps apply."""
        query = self._query(5, 6)
        events = [
            self._edge(10, 11, 5, 0), self._edge(10, 11, 5, 1), self._edge(20, 21, 5, 2),
            self._edge(30, 31, 5, 3),                                   # never gets a 6
            self._edge(10, 11, 6, 4), self._edge(20, 21, 6, 5), self._edge(10, 11, 6, 6),
            self._edge(40, 41, 6, 7),                                   # never had a 5
        ]
        if with_deletes:
            events += [
                StreamEvent.delete(20, 21, 6, timestamp=5.0),           # (20, 21) stops matching
                StreamEvent.delete(10, 11, 6, timestamp=4.0),           # (10, 11) keeps one 6
                self._edge(30, 31, 6, 8),                               # (30, 31) starts matching
            ]
        positives, negatives = self._replay(query, events, chunk)
        destroyed = {(e.node_map, e.edge_map) for e in negatives}
        net = {e.node_map for e in positives if (e.node_map, e.edge_map) not in destroyed}

        table = SimpleNamespace(
            kind=[int(e.kind is EventKind.DELETE) for e in events],
            src=[e.src for e in events], dst=[e.dst for e in events],
            label=[e.label for e in events], timestamp=[e.timestamp for e in events],
            src_label=[1] * len(events), dst_label=[2] * len(events),
        )
        live, vertex_label = oracle.live_edges(
            table, "insert_delete" if with_deletes else "insert_only"
        )
        expected = oracle.node_mappings(({0: 1, 1: 2}, [(0, 1, 5), (0, 1, 6)]), live, vertex_label)
        assert net == expected
        assert len(expected) == 2


class TestCustomMatchDefinition:
    def test_attribute_based_matcher(self):
        """A user-defined matcher that also constrains the edge timestamp parity."""

        class EvenTimestampMatcher(MatchDefinition):
            name = "even-timestamps"
            injective = True

            def edge_matcher(self, query, graph, q_edge, d_edge):
                return default_edge_matcher(query, graph, q_edge, d_edge) and (
                    int(d_edge.timestamp) % 2 == 0
                )

        query = QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 2})
        events = [
            StreamEvent.insert(1, 2, timestamp=2.0, src_label=0, dst_label=1),
            StreamEvent.insert(2, 3, timestamp=4.0, src_label=1, dst_label=2),
            StreamEvent.insert(2, 4, timestamp=3.0, src_label=1, dst_label=2),
        ]
        found = enumerate_static(query, events, match_def=EvenTimestampMatcher())
        assert {dict(e.node_map)[2] for e in found} == {3}
