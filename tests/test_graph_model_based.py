"""Model-based test of ``DynamicGraph``: every mutation path against the per-edge oracle.

A hypothesis state machine drives the columnar store and
:class:`reference.graph_model.GraphModel` with the same operations —
insert and delete batches, scalar ``add_edge`` / ``delete_edge``, rejected
batches, ``copy()``, a pickle round trip, CSR exports, stream deletions
resolved by triple — and after every step requires identical edge ids and
records, identical triple resolution, the same per-source free-id stacks,
the same pools and degrees per ``(vertex, direction, label)`` (scalar and
batched reads alike, on the live graph and on a view of its export), the
same counters, and a clean ``check_invariants()``.
"""

from __future__ import annotations

import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from reference.graph_model import GraphModel

from repro.core.registry import resolve_deletions
from repro.graph.adjacency import CSRGraphView, DynamicGraph
from repro.graph.stats import PlaceholderStats
from repro.streams.events import EventColumns, EventKind
from repro.utils.validation import ConfigurationError, GraphError

VERTICES = st.integers(0, 7)
LABELS = st.integers(0, 2)
STAMPS = st.sampled_from([0.0, 1.0, 2.5])
#: (src, dst, label, timestamp, src_label, dst_label); every mention of a
#: vertex carries its one label (``v % 3``), so mentions never conflict
EVENTS = st.tuples(VERTICES, VERTICES, LABELS, STAMPS).map(lambda e: (*e, e[0] % 3, e[1] % 3))
#: what the batched degree read is asked about: every vertex the events can
#: mention (known or not yet), two that never exist, and a repeat
PROBES = np.array([*range(8), 8, 99, 3], dtype=np.int64)


def scalar_degrees(graph, out: bool, label) -> list[int]:
    """``label_degrees`` of :data:`PROBES`, one scalar read per vertex."""
    if label is None:
        return [(graph.out_degree if out else graph.in_degree)(v) for v in PROBES.tolist()]
    scalar = graph.out_label_degree if out else graph.in_label_degree
    return [scalar(v, label) for v in PROBES.tolist()]


class GraphMachine(RuleBasedStateMachine):
    @initialize(recycle=st.booleans())
    def start(self, recycle):
        self.graph = DynamicGraph(recycle_edge_ids=recycle)
        self.model = GraphModel(recycle_edge_ids=recycle)

    # ------------------------------------------------------------------ helpers
    def live_ids(self) -> list[int]:
        return [record.edge_id for record in self.model.edges()]

    def insert_columns(self, events) -> list[int]:
        columns = [np.array(column) for column in zip(*events)]
        return self.graph.apply_insert_columns(*columns)

    # ------------------------------------------------------------------ mutations
    @rule(events=st.lists(EVENTS, min_size=1, max_size=12))
    def insert_batch(self, events):
        expected = [self.model.add_edge(*event) for event in events]
        assert self.insert_columns(events) == expected

    @rule(event=EVENTS)
    def add_edge(self, event):
        assert self.graph.add_edge(*event) == self.model.add_edge(*event)

    @precondition(lambda self: self.model.num_edges)
    @rule(data=st.data())
    def delete_batch(self, data):
        doomed = data.draw(st.lists(st.sampled_from(self.live_ids()), min_size=1, unique=True))
        expected = [self.model.delete_edge(e) for e in doomed]
        assert list(self.graph.apply_delete_columns(np.array(doomed)).records()) == expected

    @precondition(lambda self: self.model.num_edges)
    @rule(data=st.data())
    def delete_edge(self, data):
        edge_id = data.draw(st.sampled_from(self.live_ids()))
        assert self.graph.delete_edge(edge_id) == self.model.delete_edge(edge_id)

    @precondition(lambda self: self.model.num_edges)
    @rule(data=st.data())
    def delete_instance(self, data):
        _, src, dst, label, _ = data.draw(st.sampled_from(self.model.edges()))
        latest = self.model.find_edges(src, dst, label)[-1]
        assert self.graph.delete_edge_instance(src, dst, label) == self.model.delete_edge(latest)

    @precondition(lambda self: self.model.num_edges)
    @rule(data=st.data())
    def delete_events(self, data):
        """Stream deletions, resolved as one batch of columns.

        The events name live triples — one triple possibly several times,
        possibly more often than it has instances — with a timestamp that is
        an instance's own (ties are common: three stamps exist), some other
        instance's, or nobody's.  An event left without an instance refuses
        the whole batch and writes nothing (the invariant compares the state).
        """
        records = data.draw(st.lists(st.sampled_from(self.model.edges()), min_size=1, max_size=8))
        events = [
            (r.src, r.dst, r.label, data.draw(st.sampled_from([r.timestamp, 0.0, 1.0, 2.5, -1.0])))
            for r in records
        ]
        zeros = np.zeros(len(events), dtype=np.int64)
        src, dst, label, stamp = (np.array(column) for column in zip(*events))
        columns = EventColumns(EventKind.DELETE, src, dst, label, stamp.astype(float), zeros, zeros)
        try:
            expected = self.model.resolve_deletions(events)
        except GraphError:
            with pytest.raises(ConfigurationError, match="does not match a live edge"):
                resolve_deletions(self.graph, columns)
            return
        doomed = resolve_deletions(self.graph, columns)
        assert doomed.tolist() == expected
        deleted = self.graph.apply_delete_columns(doomed)
        assert list(deleted.records()) == [self.model.delete_edge(e) for e in expected]

    @precondition(lambda self: self.model.num_edges)
    @rule(data=st.data(), events=st.lists(EVENTS, min_size=2, max_size=8),
          batched=st.lists(st.booleans(), min_size=3, max_size=3))
    def recycle_round(self, data, events, batched):
        """Delete, insert at the freed sources, delete again — each leg scalar or
        batched — with the ids of every leg compared to the per-edge model."""
        for leg, as_batch in enumerate(batched):
            if leg == 1:
                sources = [s for s, free in self.model.free_ids.items() if free] or [0]
                events = [(sources[i % len(sources)], *event[1:4], sources[i % len(sources)] % 3,
                           event[5]) for i, event in enumerate(events)]
                expected = [self.model.add_edge(*event) for event in events]
                found = self.insert_columns(events) if as_batch else [
                    self.graph.add_edge(*event) for event in events
                ]
                assert found == expected
                continue
            if not self.model.num_edges:
                continue
            doomed = data.draw(st.lists(st.sampled_from(self.live_ids()), min_size=1, unique=True))
            expected = [self.model.delete_edge(e) for e in doomed]
            found = self.graph.apply_delete_columns(np.array(doomed)).records() if as_batch else [
                self.graph.delete_edge(e) for e in doomed
            ]
            assert list(found) == expected
            self.agrees_with_model()

    # ------------------------------------------------------------------ rejections change nothing
    @rule(data=st.data(), position=st.integers(0, 3))
    def reject_delete_batch(self, data, position):
        live = self.live_ids()
        good = data.draw(st.lists(st.sampled_from(live), max_size=3, unique=True)) if live else []
        dead = [e for e in range(self.model.num_placeholders) if not self.model.alive[e]]
        bad = data.draw(st.sampled_from(dead + good + [-1, self.model.num_placeholders]))
        batch = good[:position] + [bad] + good[position:]
        with pytest.raises(GraphError):
            self.graph.apply_delete_columns(batch)

    @rule(events=st.lists(EVENTS, min_size=1, max_size=4), position=st.integers(0, 3),
          endpoint=st.integers(0, 1))
    def reject_negative_vertex(self, events, position, endpoint):
        """DEBI root bits are indexed by vertex id: a negative one must never get in."""
        bad = list(events[position % len(events)])
        bad[endpoint] = -1 - bad[endpoint]
        events[position % len(events)] = tuple(bad)
        with pytest.raises(GraphError, match="negative"):
            self.insert_columns(events)
        with pytest.raises(GraphError, match="negative"):
            self.graph.add_edge(*bad)

    # ------------------------------------------------------------------ whole-graph operations
    @rule()
    def copy(self):
        self.graph = self.graph.copy()
        self.model.stats = PlaceholderStats()  # a copy starts its counters afresh

    @rule()
    def pickle_round_trip(self):
        self.graph = pickle.loads(pickle.dumps(self.graph))
        assert self.graph.journal_size == (0, 0)

    @rule(delta=st.booleans())
    def export(self, delta):
        """A view of either export returns every pool in the order the live graph does."""
        graph = self.graph
        view = CSRGraphView(graph.export_csr_delta() if delta else graph.export_csr())
        assert list(view.vertices()) == list(graph.vertices())
        assert list(view.edges()) == list(graph.edges())
        for vertex in graph.vertices():
            assert view.vertex_label(vertex) == graph.vertex_label(vertex)
            for out in (True, False):
                for label in (None, 0, 1, 2):
                    assert (
                        np.asarray(view.candidate_pool(vertex, out, label)).tolist()
                        == graph.candidate_pool(vertex, out, label).tolist()
                    )
        # the batched degree read on the view, and its scalar reads
        for out in (True, False):
            for label in (None, 0, 1, 2, 7):
                expected = scalar_degrees(graph, out, label)
                assert view.label_degrees(PROBES, out, label).tolist() == expected
                assert scalar_degrees(view, out, label) == expected

    # ------------------------------------------------------------------ the oracle
    @invariant()
    def agrees_with_model(self):
        graph, model = self.graph, self.model
        graph.check_invariants()
        assert graph.num_edges == model.num_edges
        assert graph.num_placeholders == model.num_placeholders
        assert graph.free_ids.count == model.free_id_count
        assert {v: graph.free_ids.stack(v) for v in model.vertex_labels} == {
            v: model.free_ids.get(v, []) for v in model.vertex_labels
        }, "per-source LIFO stacks, top last"
        assert graph.stats == model.stats
        assert list(graph.edges()) == model.edges()
        assert [(v, graph.vertex_label(v)) for v in graph.vertices()] == list(
            model.vertex_labels.items()
        )
        anchors = np.array(sorted(model.vertex_labels), dtype=np.int64)
        for out, pools in ((True, model.out), (False, model.into)):
            for label in (None, 0, 1, 2, 7):  # 7: a label no edge carries
                labels = (0, 1, 2) if label is None else (label,)
                assert graph.label_degrees(PROBES, out, label).tolist() == [
                    sum(len(pools.get((v, each), ())) for each in labels) for v in PROBES.tolist()
                ] == scalar_degrees(graph, out, label)
            for label in (0, 1, 2):
                flat, sizes = graph.candidate_pools(anchors, out, label)
                assert sizes.tolist() == [len(pools.get((v, label), ())) for v in anchors.tolist()]
                assert flat.shape[0] == sizes.sum()
            flat, sizes = graph.candidate_pools(anchors, out, None)
            for vertex, size in zip(anchors.tolist(), sizes.tolist()):
                wildcard = graph.candidate_pool(vertex, out, None).tolist()
                assert flat[:size].tolist() == wildcard
                flat = flat[size:]
                expected = Counter()
                for label in (0, 1, 2):
                    pool = graph.candidate_pool(vertex, out, label).tolist()
                    assert Counter(pool) == Counter(pools.get((vertex, label), ()))
                    degree = graph.out_label_degree if out else graph.in_label_degree
                    assert degree(vertex, label) == len(pool)
                    expected.update(pool)
                assert Counter(wildcard) == expected
                assert (graph.out_degree if out else graph.in_degree)(vertex) == len(wildcard)
        for src in model.vertex_labels:
            for dst in model.vertex_labels:
                assert Counter(graph.find_edges(src, dst)) == Counter(model.find_edges(src, dst))
                for label in (0, 1, 2):
                    # exact order: it decides which instance a stream deletion hits
                    assert graph.find_edges(src, dst, label) == model.find_edges(src, dst, label)


GraphMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestGraphAgainstModel = GraphMachine.TestCase
