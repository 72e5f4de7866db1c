"""Shared fixtures and reference implementations for the test suite.

The most important pieces are:

* ``paper_example`` — a self-consistent reconstruction of the worked
  example of the paper's Figure 1 (query with 7 nodes, data graph
  snapshots G, G1, G2) together with the embedding counts that the
  paper's narrative implies;
* ``brute_force_node_maps`` — an exhaustive reference matcher used as
  ground truth by the unit, integration and property tests.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import pytest

from repro.core import native
from repro.graph.adjacency import DynamicGraph
from repro.query.query_graph import WILDCARD_LABEL, QueryGraph
from repro.streams.events import StreamEvent
from repro.utils.rng import make_rng


def pytest_configure(config):
    # CI runs with pytest-timeout; where the plugin is missing its marker must
    # still be a known one
    config.addinivalue_line("markers", "timeout(seconds): per-test watchdog (pytest-timeout)")


# ---------------------------------------------------------------------- seeded randomness
@pytest.fixture
def rng_seed(request) -> int:
    """A per-test RNG seed, printed on failure so runs can be replayed.

    Randomized tests derive all their randomness from this seed (via
    ``repro.utils.rng.make_rng``).  Set ``REPRO_TEST_SEED`` to pin it:

        REPRO_TEST_SEED=1234 pytest tests/test_recovery.py -k randomized
    """
    env = os.environ.get("REPRO_TEST_SEED")
    seed = int(env) if env else int.from_bytes(os.urandom(4), "little")
    request.node._repro_seed = seed
    return seed


@pytest.fixture
def rng(rng_seed):
    """A ``numpy`` Generator seeded from :func:`rng_seed`."""
    return make_rng(rng_seed)


@pytest.fixture
def small_slices(monkeypatch):
    """Cut even a handful of work units into several slices.

    The pool splits an epoch by ``parallel.MIN_SLICE_UNITS`` (256), so the
    tiny streams of the suite would always travel as one slice to one
    worker.  Slicing happens in the parent, so patching the constant here
    reaches it: with it at 2, any phase of four or more units is pulled by
    both workers of a two-worker pool.
    """
    from repro.core import parallel

    monkeypatch.setattr(parallel, "MIN_SLICE_UNITS", 2)


# ---------------------------------------------------------------------- native vs numpy
@pytest.fixture
def numpy_kernel(monkeypatch):
    """Force the numpy code by clearing the loaded native library handle."""
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
    """The number of native enumeration calls made so far, as a one-element list."""
    calls = [0]
    run = native.run

    def counted(*args):
        calls[0] += 1
        return run(*args)

    monkeypatch.setattr(native, "run", counted)
    return calls


def _counted(monkeypatch, names) -> dict[str, int]:
    """Count the calls of the ``native`` entries ``names``, by entry."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        def counted(*args, _name=name, _entry=getattr(native, name)):
            calls[_name] += 1
            return _entry(*args)

        monkeypatch.setattr(native, name, counted)
    return calls


@pytest.fixture
def native_index_calls(monkeypatch):
    """Native DEBI maintenance and decomposition calls made so far, by entry."""
    return _counted(monkeypatch, ("filter_insert", "filter_delete", "decompose"))


@pytest.fixture
def native_graph_calls(monkeypatch):
    """Native graph mutation calls made so far, by entry."""
    return _counted(monkeypatch, ("insert_columns", "resolve_deletes", "delete_columns"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    seed = getattr(item, "_repro_seed", None)
    if seed is not None and report.when == "call" and report.failed:
        report.sections.append(
            ("randomized test seed", f"replay with: REPRO_TEST_SEED={seed} pytest {item.nodeid}")
        )


# ---------------------------------------------------------------------- reference matcher
def brute_force_node_maps(
    query: QueryGraph,
    graph: DynamicGraph,
    injective: bool = True,
) -> set[tuple[tuple[int, int], ...]]:
    """Exhaustively enumerate the node mappings of every embedding.

    Only practical for tiny graphs; used as the ground truth oracle.
    """
    query_nodes = list(query.nodes())
    # Label-compatible vertices per query node: the product only ranges over those.
    candidates = [
        [
            v for v in graph.vertices()
            if query.node_label(u) in (WILDCARD_LABEL, graph.vertex_label(v))
        ]
        for u in query_nodes
    ]
    results: set[tuple[tuple[int, int], ...]] = set()
    for assignment in itertools.product(*candidates):
        node_map = dict(zip(query_nodes, assignment))
        if injective and len(set(assignment)) != len(assignment):
            continue
        ok = True
        for q_edge in query.edges():
            src, dst = node_map[q_edge.src], node_map[q_edge.dst]
            witnesses = [
                eid for eid in graph.find_edges(src, dst)
                if q_edge.label == WILDCARD_LABEL or graph.edge(eid).label == q_edge.label
            ]
            if not witnesses:
                ok = False
                break
        if ok:
            results.add(tuple(sorted(node_map.items())))
    return results


def graph_from_edge_list(edges, vertex_labels=None) -> DynamicGraph:
    """Build a DynamicGraph from (src, dst[, label[, timestamp]]) tuples."""
    graph = DynamicGraph()
    for vertex, label in (vertex_labels or {}).items():
        graph.add_vertex(vertex, label)
    for item in edges:
        graph.add_edge(*item)
    return graph


# ---------------------------------------------------------------------- paper example
# Vertex labels (Figure 1): A=0, B=1, C=2, D=3, E=4, F=5
A, B, C, D, E, F = range(6)


@dataclass
class PaperExample:
    """The Figure 1 worked example: query + three graph snapshots."""

    query: QueryGraph
    #: vertex labels of the data graph
    vertex_labels: dict[int, int]
    #: edges present in the initial snapshot G (src, dst)
    initial_edges: list[tuple[int, int]]
    #: insertions applied at t1 (snapshot G1)
    delta1_inserts: list[tuple[int, int]]
    #: insertions / deletions applied at t2 (snapshot G2)
    delta2_inserts: list[tuple[int, int]]
    delta2_deletes: list[tuple[int, int]]
    #: expected embedding counts (derived in conftest docstring)
    expected_initial: int = 2
    expected_after_delta1_new: int = 2
    expected_after_delta2_new: int = 2
    expected_after_delta2_removed: int = 4
    expected_final_total: int = 2

    def initial_events(self) -> list[StreamEvent]:
        return [self._insert(s, d) for s, d in self.initial_edges]

    def delta1_events(self) -> list[StreamEvent]:
        return [self._insert(s, d) for s, d in self.delta1_inserts]

    def delta2_insert_events(self) -> list[StreamEvent]:
        return [self._insert(s, d) for s, d in self.delta2_inserts]

    def delta2_delete_events(self) -> list[StreamEvent]:
        return [StreamEvent.delete(s, d, 0) for s, d in self.delta2_deletes]

    def final_graph(self) -> DynamicGraph:
        graph = DynamicGraph()
        for v, label in self.vertex_labels.items():
            graph.add_vertex(v, label)
        deleted = list(self.delta2_deletes)
        for s, d in self.initial_edges + self.delta1_inserts + self.delta2_inserts:
            graph.add_edge(s, d, 0, 0.0)
        for s, d in deleted:
            graph.delete_edge_instance(s, d, 0)
        return graph

    def _insert(self, src: int, dst: int) -> StreamEvent:
        return StreamEvent.insert(
            src, dst, label=0, timestamp=0.0,
            src_label=self.vertex_labels[src], dst_label=self.vertex_labels[dst],
        )


def build_paper_example() -> PaperExample:
    """Reconstruct the Figure 1 example (see DESIGN.md for the derivation).

    Query (Figure 1(e)): u0=A, u1=B, u2=C, u3=D, u4=E, u5=F, u6=A with
    edges (u0,u1), (u2,u0), (u0,u5), (u1,u3), (u1,u4), (u2,u6), (u2,u5);
    all query edge labels are wildcards.

    The data graph G contains exactly the two embeddings described in
    Section II-A; the G1 insertions create two embeddings rooted at v0;
    the G2 batch (insert (v1,v2); delete (v3,v7) and (v1,v5)) first
    creates two embeddings through the new (v1,v2) edge and then destroys
    the four embeddings that relied on (v1,v5) / (v3,v7).
    """
    query = QueryGraph()
    for node, label in [(0, A), (1, B), (2, C), (3, D), (4, E), (5, F), (6, A)]:
        query.add_node(node, label)
    query.add_edge(0, 1)   # (u0, u1)
    query.add_edge(2, 0)   # (u2, u0)
    query.add_edge(0, 5)   # (u0, u5)
    query.add_edge(1, 3)   # (u1, u3)
    query.add_edge(1, 4)   # (u1, u4)
    query.add_edge(2, 6)   # (u2, u6)
    query.add_edge(2, 5)   # (u2, u5)  -- non-tree edge in the BFS tree rooted at u0
    query.validate()

    vertex_labels = {
        10: A,  # v0
        11: A,  # v1
        12: B,  # v2
        13: B,  # v3
        14: C,  # v4
        15: F,  # v5
        16: D,  # v6
        17: E,  # v7
        18: A,  # v8
        19: F,  # v9
    }
    initial_edges = [
        (14, 11),  # (v4, v1)  matches (u2, u0)
        (11, 13),  # (v1, v3)  matches (u0, u1)
        (14, 10),  # (v4, v0)  matches (u2, u6) in the 2nd embedding
        (11, 15),  # (v1, v5)  matches (u0, u5)
        (12, 17),  # (v2, v7)  matches (u1, u4) once v2 becomes a match of u1
        (13, 16),  # (v3, v6)  matches (u1, u3)
        (13, 17),  # (v3, v7)  matches (u1, u4)
        (14, 18),  # (v4, v8)  matches (u2, u6) in the 1st embedding
        (14, 15),  # (v4, v5)  matches (u2, u5)
        (14, 19),  # (v4, v9)  noise
    ]
    delta1_inserts = [(10, 12), (12, 16), (10, 15)]        # (v0,v2), (v2,v6), (v0,v5)
    delta2_inserts = [(11, 12)]                             # (v1,v2)
    delta2_deletes = [(13, 17), (11, 15)]                   # (v3,v7), (v1,v5)
    return PaperExample(
        query=query,
        vertex_labels=vertex_labels,
        initial_edges=initial_edges,
        delta1_inserts=delta1_inserts,
        delta2_inserts=delta2_inserts,
        delta2_deletes=delta2_deletes,
    )


@pytest.fixture
def paper_example() -> PaperExample:
    return build_paper_example()


# ---------------------------------------------------------------------- small reusable graphs
@pytest.fixture
def small_path_query() -> QueryGraph:
    """A 3-node path query with labelled nodes (A -> B -> A)."""
    query = QueryGraph()
    query.add_node(0, 0)
    query.add_node(1, 1)
    query.add_node(2, 0)
    query.add_edge(0, 1)
    query.add_edge(1, 2)
    return query


@pytest.fixture
def triangle_query() -> QueryGraph:
    """An unlabelled directed triangle query."""
    query = QueryGraph()
    query.add_edge(0, 1)
    query.add_edge(1, 2)
    query.add_edge(2, 0)
    return query
