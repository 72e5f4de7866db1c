"""Model-based test of ``DynamicGraph``: every mutation path against the per-edge oracle.

A hypothesis state machine drives the columnar store and
:class:`reference.graph_model.GraphModel` with the same operations —
insert and delete batches, scalar ``add_edge`` / ``delete_edge``, rejected
batches, ``copy()``, a pickle round trip, stream deletions resolved by
triple — and after every step requires identical edge ids and records,
identical triple resolution, the same per-source free-id stacks, the same
pools and degrees per ``(vertex, direction, label)`` (scalar and batched
reads alike, on the live graph and on the read-only graph attached to its
exported arrays, as pool workers attach it), the same counters, and a
clean ``check_invariants()`` of both.

It runs once per kernel (the ``kernel`` fixture), and every operation is
also applied to a twin graph through the numpy path: after every step the
two agree on the live edge columns, the vertex and partition directories
and the free-id stacks, so the native mutation entries are held to the
numpy code they replace.
"""

from __future__ import annotations

import contextlib
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)
from reference.graph_model import GraphModel

from repro.core import native
from repro.core.registry import resolve_deletions
from repro.graph.adjacency import DynamicGraph
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


@contextlib.contextmanager
def numpy_path():
    """Serve the graph calls inside with the numpy code."""
    loaded, native._library = native.library(), None
    try:
        yield
    finally:
        native._library = loaded


class GraphMachine(RuleBasedStateMachine):
    @initialize(recycle=st.booleans())
    def start(self, recycle):
        self.graph = DynamicGraph(recycle_edge_ids=recycle)
        self.twin = DynamicGraph(recycle_edge_ids=recycle)
        self.model = GraphModel(recycle_edge_ids=recycle)

    # ------------------------------------------------------------------ helpers
    def live_ids(self) -> list[int]:
        return [record.edge_id for record in self.model.edges()]

    def both(self, call):
        """``call(graph)``, then ``call(twin)`` through the numpy path: the same
        result, or the same refusal, which is raised again."""
        outcomes = []
        for graph, path in ((self.graph, contextlib.nullcontext()), (self.twin, numpy_path())):
            try:
                with path:
                    outcomes.append(call(graph))
            except (GraphError, ConfigurationError) as exc:
                outcomes.append(exc)
        found, twin = outcomes
        if isinstance(found, Exception):
            assert type(twin) is type(found) and str(twin) == str(found)
            raise found
        assert not isinstance(twin, Exception), twin
        assert twin == found
        return found

    def insert_columns(self, events) -> list[int]:
        columns = [np.array(column) for column in zip(*events)]
        return self.both(lambda graph: graph.apply_insert_columns(*columns))

    def delete_columns(self, doomed) -> list:
        return self.both(lambda graph: list(graph.apply_delete_columns(doomed).records()))

    # ------------------------------------------------------------------ mutations
    @rule(events=st.lists(EVENTS, min_size=1, max_size=12))
    def insert_batch(self, events):
        expected = [self.model.add_edge(*event) for event in events]
        assert self.insert_columns(events) == expected

    @rule(event=EVENTS)
    def add_edge(self, event):
        assert self.both(lambda graph: graph.add_edge(*event)) == self.model.add_edge(*event)

    @precondition(lambda self: self.model.num_edges)
    @rule(data=st.data())
    def delete_batch(self, data):
        doomed = data.draw(st.lists(st.sampled_from(self.live_ids()), min_size=1, unique=True))
        expected = [self.model.delete_edge(e) for e in doomed]
        assert self.delete_columns(np.array(doomed)) == expected

    @precondition(lambda self: self.model.num_edges)
    @rule(data=st.data())
    def delete_edge(self, data):
        edge_id = data.draw(st.sampled_from(self.live_ids()))
        found = self.both(lambda graph: graph.delete_edge(edge_id))
        assert found == self.model.delete_edge(edge_id)

    @precondition(lambda self: self.model.num_edges)
    @rule(data=st.data())
    def delete_instance(self, data):
        _, src, dst, label, _ = data.draw(st.sampled_from(self.model.edges()))
        latest = self.model.find_edges(src, dst, label)[-1]
        found = self.both(lambda graph: graph.delete_edge_instance(src, dst, label))
        assert found == self.model.delete_edge(latest)

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
                self.both(lambda graph: resolve_deletions(graph, columns))
            return
        doomed = self.both(lambda graph: resolve_deletions(graph, columns).tolist())
        assert doomed == expected
        assert self.delete_columns(doomed) == [self.model.delete_edge(e) for e in expected]

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
                    self.both(lambda graph, event=event: graph.add_edge(*event)) for event in events
                ]
                assert found == expected
                continue
            if not self.model.num_edges:
                continue
            doomed = data.draw(st.lists(st.sampled_from(self.live_ids()), min_size=1, unique=True))
            expected = [self.model.delete_edge(e) for e in doomed]
            found = self.delete_columns(np.array(doomed)) if as_batch else [
                self.both(lambda graph, e=e: graph.delete_edge(e)) for e in doomed
            ]
            assert list(found) == expected
            self.agrees_with_model()
            self.twins_agree()

    # ------------------------------------------------------------------ rejections change nothing
    @rule(data=st.data(), position=st.integers(0, 3))
    def reject_delete_batch(self, data, position):
        live = self.live_ids()
        good = data.draw(st.lists(st.sampled_from(live), max_size=3, unique=True)) if live else []
        dead = [e for e in range(self.model.num_placeholders) if not self.model.alive[e]]
        bad = data.draw(st.sampled_from(dead + good + [-1, self.model.num_placeholders]))
        batch = good[:position] + [bad] + good[position:]
        with pytest.raises(GraphError):
            self.delete_columns(batch)

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
            self.both(lambda graph: graph.add_edge(*bad))

    @rule(events=st.lists(EVENTS, min_size=1, max_size=4), position=st.integers(0, 3),
          endpoint=st.integers(0, 1))
    def reject_relabel(self, events, position, endpoint):
        """A mention whose vertex label disagrees with what the vertex holds — from
        the graph, or from its first mention in the batch — refuses the batch
        before any vertex of it is interned (the invariant compares the state)."""
        event = events[position % len(events)]
        bad = list(event)
        bad[4 + endpoint] = bad[endpoint] % 3 + 3  # never the vertex's label, never 0
        with pytest.raises(GraphError, match="cannot relabel"):
            self.insert_columns(events[:position] + [event, tuple(bad)] + events[position:])
        vertex = bad[endpoint]  # a self-loop's first mention labels it
        loop = (vertex, vertex, *bad[2:4], vertex % 3, vertex % 3 + 3)
        with pytest.raises(GraphError, match="cannot relabel"):
            self.both(lambda graph: graph.add_edge(*loop))

    # ------------------------------------------------------------------ whole-graph operations
    @rule()
    def copy(self):
        self.graph, self.twin = self.graph.copy(), self.twin.copy()
        self.model.stats = PlaceholderStats()  # a copy starts its counters afresh

    @rule()
    def pickle_round_trip(self):
        self.graph = pickle.loads(pickle.dumps(self.graph))
        self.twin = pickle.loads(pickle.dumps(self.twin))

    # ------------------------------------------------------------------ the oracles
    @invariant()
    def attached_agrees(self):
        """The graph attached to the exported arrays is consistent and returns every
        pool in the order the live graph does."""
        graph = self.graph
        view = DynamicGraph.attach_arrays(graph.export_arrays())
        view.check_invariants()
        assert (view.num_edges, view.num_placeholders) == (graph.num_edges, graph.num_placeholders)
        assert list(view.vertices()) == list(graph.vertices())
        assert list(view.edges()) == list(graph.edges())
        for vertex in graph.vertices():
            assert view.vertex_label(vertex) == graph.vertex_label(vertex)
            assert view.free_ids.stack(vertex) == graph.free_ids.stack(vertex)
            for out in (True, False):
                for label in (None, 0, 1, 2):
                    assert (
                        view.candidate_pool(vertex, out, label).tolist()
                        == graph.candidate_pool(vertex, out, label).tolist()
                    )
        # the batched reads on the view, and its scalar degree reads
        for out in (True, False):
            for label in (None, 0, 1, 2, 7):
                expected = scalar_degrees(graph, out, label)
                assert view.label_degrees(PROBES, out, label).tolist() == expected
                assert scalar_degrees(view, out, label) == expected
                assert [a.tolist() for a in view.candidate_pools(PROBES, out, label)] == [
                    a.tolist() for a in graph.candidate_pools(PROBES, out, label)]
        srcs, dsts = np.repeat(PROBES, PROBES.shape[0]), np.tile(PROBES, PROBES.shape[0])
        labels = np.arange(srcs.shape[0]) % 4  # 3: a label no edge carries
        for read, args in (("find_edges_batch", (srcs, dsts)),
                           ("find_instances", (srcs, dsts, labels))):
            ours, theirs = getattr(view, read)(*args), getattr(graph, read)(*args)
            assert [a.tolist() for a in ours] == [a.tolist() for a in theirs], read

    @invariant()
    def twins_agree(self):
        """The graph and its numpy twin hold the same columns, directories and stacks."""
        graph, twin = self.graph, self.twin
        twin.check_invariants()
        rows, vertices = graph._rows, graph._vertices.count
        assert (twin._rows, twin._vertices.count) == (rows, vertices)
        for name in ("_src", "_dst", "_label", "_timestamp", "_alive", "_out_part", "_in_part"):
            assert np.array_equal(getattr(graph, name)[:rows], getattr(twin, name)[:rows]), name
        for name in ("_vertex_ids", "_vertex_label"):
            assert np.array_equal(getattr(graph, name)[:vertices], getattr(twin, name)[:vertices])
        for ours, theirs in ((graph._vertices, twin._vertices),
                             (graph._out.directory, twin._out.directory),
                             (graph._in.directory, twin._in.directory)):
            count = ours.count
            assert theirs.count == count
            assert np.array_equal(ours.keys[:count], theirs.keys[:count])
            assert np.array_equal(ours.values[:count], theirs.values[:count])
        for ours, theirs in ((graph._out, twin._out), (graph._in, twin._in)):
            parts = ours.rows
            assert theirs.rows == parts
            for name in ("size", "vertex_pos", "label"):
                assert np.array_equal(getattr(ours, name)[:parts], getattr(theirs, name)[:parts])
        assert graph.free_ids.count == twin.free_ids.count
        for vertex in graph.vertices():
            assert graph.free_ids.stack(vertex) == twin.free_ids.stack(vertex)
        assert graph.stats == twin.stats

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


def test_graph_against_model(kernel, native_graph_calls):
    run_state_machine_as_test(
        GraphMachine, settings=settings(max_examples=40, stateful_step_count=25, deadline=None)
    )
    if kernel == "native":  # a silent fallback must not pass as native
        assert all(native_graph_calls.values()), native_graph_calls
