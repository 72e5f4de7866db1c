"""Property-style tests for the label-partitioned adjacency layout.

The per-``(vertex, direction, label)`` partitions added for the
vectorized candidate pipeline must stay consistent with every other
graph structure through arbitrary interleavings of insertions and
deletions with edge-id recycling: the combined adjacency lists,
``find_edges``, the O(1) label degrees, :class:`PlaceholderStats`, and
the read-only graph pool workers attach over the same columns.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import DefaultMatchDefinition
from repro.core.engine import MnemonicEngine
from repro.graph.adjacency import DynamicGraph
from repro.query.query_graph import QueryGraph
from repro.streams.events import StreamEvent

NUM_VERTICES = 12
NUM_LABELS = 4


def random_mutation_sequence(seed: int, steps: int):
    """Yield a reproducible interleaving of insert/delete operations."""
    rng = random.Random(seed)
    graph = DynamicGraph(recycle_edge_ids=True)
    live: list[tuple[int, int, int, int]] = []  # (edge_id, src, dst, label)
    for step in range(steps):
        if live and rng.random() < 0.4:
            edge_id, src, dst, label = live.pop(rng.randrange(len(live)))
            graph.delete_edge(edge_id)
        else:
            src = rng.randrange(NUM_VERTICES)
            dst = rng.randrange(NUM_VERTICES)
            label = rng.randrange(NUM_LABELS)
            edge_id = graph.add_edge(src, dst, label, timestamp=float(step))
            live.append((edge_id, src, dst, label))
    return graph, live


def check_partition_invariants(graph: DynamicGraph, live: list[tuple[int, int, int, int]]):
    """Partitions must agree with the combined lists, degrees and find_edges."""
    by_src: dict[int, list[tuple[int, int]]] = {}
    by_dst: dict[int, list[tuple[int, int]]] = {}
    for edge_id, src, dst, label in live:
        by_src.setdefault(src, []).append((edge_id, label))
        by_dst.setdefault(dst, []).append((edge_id, label))

    for vertex in graph.vertices():
        expected_out = by_src.get(vertex, [])
        expected_in = by_dst.get(vertex, [])
        # Combined lists: same edge multiset as the ground truth.
        assert Counter(graph.out_edges(vertex)) == Counter(e for e, _ in expected_out)
        assert Counter(graph.in_edges(vertex)) == Counter(e for e, _ in expected_in)
        for label in range(NUM_LABELS):
            out_part = graph.candidate_pool(vertex, True, label).tolist()
            in_part = graph.candidate_pool(vertex, False, label).tolist()
            # Partition contents = the label-filtered slice of the truth.
            assert Counter(out_part) == Counter(e for e, lab in expected_out if lab == label)
            assert Counter(in_part) == Counter(e for e, lab in expected_in if lab == label)
            # O(1) label degrees come from partition sizes.
            assert graph.out_label_degree(vertex, label) == len(out_part)
            assert graph.in_label_degree(vertex, label) == len(in_part)
            # Every partition member resolves through find_edges.
            for edge_id in out_part:
                record = graph.edge(edge_id)
                assert record.label == label and record.src == vertex
                assert edge_id in graph.find_edges(record.src, record.dst, label)


class TestPartitionInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_interleaving_keeps_partitions_consistent(self, seed):
        graph, live = random_mutation_sequence(seed, steps=300)
        check_partition_invariants(graph, live)
        assert graph.num_edges == len(live)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_recycling_reuses_rows_without_corrupting_partitions(self, seed):
        graph, live = random_mutation_sequence(seed, steps=400)
        # Recycling bounds placeholders: strictly fewer slots than total inserts.
        assert graph.num_placeholders < graph.stats.inserts
        assert graph.stats.recycled > 0, "sequence long enough to recycle ids"
        check_partition_invariants(graph, live)

    def test_placeholder_stats_track_live_and_slots(self):
        graph, live = random_mutation_sequence(11, steps=200)
        assert graph.num_edges == len(live)
        assert graph.stats.inserts - graph.stats.deletes == graph.num_edges
        assert graph.stats.peak_placeholders == graph.num_placeholders
        assert graph.stats.recycled == graph.stats.inserts - graph.num_placeholders

    def test_empty_partitions_read_as_empty(self):
        graph = DynamicGraph()
        eid = graph.add_edge(1, 2, label=3)
        graph.delete_edge(eid)
        assert graph.candidate_pool(1, True, 3).tolist() == []
        assert graph.out_label_degree(1, 3) == 0
        assert graph.candidate_pool(1, out=True, label=3).tolist() == []
        # Unknown vertex / label never allocated.
        assert graph.candidate_pool(99, True, 0).tolist() == []
        assert graph.in_label_degree(99, 0) == 0


class TestAttachedGraphParity:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_label_pools_and_degrees_match_live_graph(self, seed):
        graph, _ = random_mutation_sequence(seed, steps=300)
        view = DynamicGraph.attach_arrays(graph.export_arrays())
        for vertex in graph.vertices():
            # Combined pools: identical order (wildcard enumeration parity).
            assert view.out_edges(vertex) == graph.out_edges(vertex)
            assert view.in_edges(vertex) == graph.in_edges(vertex)
            for label in range(NUM_LABELS):
                # Labelled pools: identical order (partition enumeration parity).
                assert (
                    view.candidate_pool(vertex, True, label).tolist()
                    == graph.candidate_pool(vertex, True, label).tolist()
                )
                assert (
                    view.candidate_pool(vertex, False, label).tolist()
                    == graph.candidate_pool(vertex, False, label).tolist()
                )
                assert view.out_label_degree(vertex, label) == graph.out_label_degree(vertex, label)
                assert view.in_label_degree(vertex, label) == graph.in_label_degree(vertex, label)
                for out in (True, False):
                    live_pool = graph.candidate_pool(vertex, out, label)
                    view_pool = view.candidate_pool(vertex, out, label)
                    assert live_pool.tolist() == view_pool.tolist()

    def test_endpoint_gather_matches_records(self):
        graph, live = random_mutation_sequence(31, steps=200)
        view = DynamicGraph.attach_arrays(graph.export_arrays())
        ids = np.array([e for e, *_ in live], dtype=np.int64)
        for take_dst in (True, False):
            from_graph = graph.endpoint_array(ids, take_dst).tolist()
            from_view = view.endpoint_array(ids, take_dst).tolist()
            expected = [
                (graph.edge(e).dst if take_dst else graph.edge(e).src) for e in ids.tolist()
            ]
            assert from_graph == expected
            assert from_view == expected


# Mutations over a vertex set smaller than the anchors probed below, so
# some anchors are unknown to the graph; deletes recycle edge ids.
_mutations = st.lists(
    st.tuples(
        st.booleans(),  # delete (when anything is live) or insert
        st.integers(0, NUM_VERTICES - 1),
        st.integers(0, NUM_VERTICES - 1),
        st.integers(0, NUM_LABELS - 1),
        st.integers(0, 10**6),  # which live edge a delete removes
    ),
    max_size=60,
)
_anchor_arrays = st.lists(st.integers(0, NUM_VERTICES + 3), max_size=NUM_VERTICES + 4)


class TestBatchedPoolFetch:
    """``candidate_pools`` is the per-anchor ``candidate_pool`` calls, concatenated."""

    @settings(max_examples=120, deadline=None)
    @given(mutations=_mutations, anchors=_anchor_arrays)
    def test_equals_per_anchor_concatenation(self, mutations, anchors):
        graph = DynamicGraph(recycle_edge_ids=True)
        live: list[int] = []
        for delete, src, dst, label, pick in mutations:
            if delete and live:
                graph.delete_edge(live.pop(pick % len(live)))
            else:
                live.append(graph.add_edge(src, dst, label))
        view = DynamicGraph.attach_arrays(graph.export_arrays())
        anchor_array = np.array(anchors, dtype=np.int64)
        # NUM_LABELS itself is a label no edge carries: every partition empty.
        for label in (None, *range(NUM_LABELS + 1)):
            for out in (True, False):
                expected = [
                    list(graph.candidate_pool(vertex, out, label)) for vertex in anchors
                ]
                for store in (graph, view):
                    flat, sizes = store.candidate_pools(anchor_array, out, label)
                    assert flat.dtype == sizes.dtype == np.int64
                    assert sizes.tolist() == [len(pool) for pool in expected]
                    assert flat.tolist() == [e for pool in expected for e in pool]


class UnpartitionedIsomorphism(DefaultMatchDefinition):
    """The default matcher with label-partition narrowing disabled."""

    name = "isomorphism-unpartitioned"
    label_partitioned = False


class TestEnumerationParity:
    def _labelled_workload(self, seed: int):
        rng = random.Random(seed)
        query = QueryGraph.from_edges(
            [(0, 1, 1), (1, 2, 2), (1, 3, 1)], node_labels={0: 0, 1: 0, 2: 0, 3: 0}
        )
        events = []
        for step in range(300):
            src = rng.randrange(25)
            dst = rng.randrange(25)
            label = rng.randrange(3)
            events.append(StreamEvent.insert(src, dst, label, timestamp=float(step)))
        return query, events

    @pytest.mark.parametrize("seed", [41, 42])
    def test_partitioned_matches_unpartitioned_and_scans_less(self, seed):
        """Label narrowing changes what is scanned, never what is found."""
        query, events = self._labelled_workload(seed)

        def run(match_def):
            with MnemonicEngine(query, match_def=match_def) as engine:
                scanned = 0
                found = set()
                for i in range(0, len(events), 50):
                    result = engine.batch_inserts(events[i : i + 50])
                    scanned += result.candidates_scanned
                    found |= {e.identity() for e in result.positive_embeddings}
                return scanned, found

        part_scanned, part_found = run(DefaultMatchDefinition())
        flat_scanned, flat_found = run(UnpartitionedIsomorphism())
        assert part_found == flat_found
        assert part_scanned <= flat_scanned
