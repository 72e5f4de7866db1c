"""Property and edge-case tests for the columnar enumeration kernel.

The kernel's contract is strict: for any supported context it must
reproduce the tuple-at-a-time reference path **exactly** — the same
embeddings (as identity sets; the kernel emits breadth-first, the
reference depth-first), the same ``candidates_scanned`` totals, and the
same behaviour at every degenerate input (no units, no candidates,
duplicate-vertex rejections).  The arena that backs it must grow
geometrically, never shrink, and be reusable across batches without
further allocation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.enumeration import (
    EmbeddingArena,
    columnar_enumerate,
    columnar_enumerate_packed,
    columnar_supported,
    decompose_batch,
)
from repro.matchers import HomomorphismMatcher, IsomorphismMatcher
from repro.query.query_graph import QueryGraph
from repro.streams.events import StreamEvent

# ---------------------------------------------------------------------- helpers
_QUERIES = [
    QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 0}),
    QueryGraph.from_edges([(0, 1), (1, 2), (2, 0)], node_labels={0: 0, 1: 1, 2: 0}),
    QueryGraph.from_edges([(0, 1), (0, 2), (3, 0)], node_labels={0: 1, 1: 0, 2: 0, 3: 0}),
    QueryGraph.from_edges([(0, 1), (1, 2), (1, 3)]),
]


def _random_events(rng, num_events, num_vertices=8, num_labels=2):
    """A random insert/delete stream over a small labelled vertex set."""
    vertex_label = {v: v % 2 for v in range(num_vertices)}
    live: dict[tuple, int] = {}
    events = []
    for _ in range(num_events):
        src, dst = (int(x) for x in rng.integers(0, num_vertices, size=2))
        if src == dst:
            continue
        label = int(rng.integers(0, num_labels))
        if rng.random() < 0.8 or not live.get((src, dst, label)):
            events.append(StreamEvent.insert(src, dst, label, 0.0,
                                             vertex_label[src], vertex_label[dst]))
            live[(src, dst, label)] = live.get((src, dst, label), 0) + 1
        else:
            events.append(StreamEvent.delete(src, dst, label))
            live[(src, dst, label)] -= 1
    return events


def _batches(events, rng, max_batch=7):
    position = 0
    while position < len(events):
        size = int(rng.integers(1, max_batch + 1))
        yield events[position : position + size]
        position += size


def _identities(embeddings):
    return {e.identity() for e in embeddings}


def _run_engine(query, batched_events, kernel, match_def=None):
    """Feed batches through one engine; return per-batch identity sets + scans."""
    engine = MnemonicEngine(query, config=EngineConfig(kernel=kernel),
                            match_def=match_def)
    positives, negatives, scanned = [], [], 0
    for batch in batched_events:
        inserts = [e for e in batch if e.is_insert]
        deletes = [e for e in batch if e.is_delete]
        if inserts:
            result = engine.batch_inserts(inserts)
            positives.append(_identities(result.positive_embeddings))
            scanned += result.candidates_scanned
        if deletes:
            result = engine.batch_deletes(deletes)
            negatives.append(_identities(result.negative_embeddings))
            scanned += result.candidates_scanned
    return engine, positives, negatives, scanned


# ---------------------------------------------------------------------- kernel == reference
class TestKernelMatchesReference:
    @pytest.mark.parametrize("query_index", range(len(_QUERIES)))
    @pytest.mark.parametrize("injective", [True, False])
    def test_randomized_streams_agree_batch_for_batch(self, rng, query_index, injective):
        """Columnar and reference engines agree on every batch's results."""
        query = _QUERIES[query_index]
        match_def = IsomorphismMatcher() if injective else HomomorphismMatcher()
        events = _random_events(rng, num_events=60)
        splits = list(_batches(events, rng))
        _, col_pos, col_neg, col_scans = _run_engine(
            query, splits, "columnar", type(match_def)())
        _, ref_pos, ref_neg, ref_scans = _run_engine(
            query, splits, "python", type(match_def)())
        assert col_pos == ref_pos
        assert col_neg == ref_neg
        assert col_scans == ref_scans

    def test_kernel_level_parity_on_full_enumeration(self, rng, paper_example):
        """columnar_enumerate over the live graph == the tuple enumerate loop."""
        engine = MnemonicEngine(paper_example.query)
        engine.load_initial(paper_example.initial_events()
                            + paper_example.delta1_events())
        live_ids = [record.edge_id for record in engine.graph.edges()]
        context = engine.runtime.make_context(engine.graph, batch_edge_ids=set(live_ids), positive=True)
        units = decompose_batch(context, live_ids)
        assert columnar_supported(context)
        embeddings, count = columnar_enumerate(context, units)
        reference = [
            e for unit in units for e in context.match_def.enumerate(context, unit)
        ]
        assert count == len(embeddings) == len(reference)
        assert _identities(embeddings) == _identities(reference)

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
        assert n_counted == n_collected == len(collected)

    def test_packed_layout_roundtrips(self, paper_example):
        """The arena's direct IPC emission unpacks to the collected embeddings."""
        from repro.core.parallel import _unpack_embeddings

        engine = MnemonicEngine(paper_example.query)
        engine.load_initial(paper_example.initial_events())
        live_ids = [record.edge_id for record in engine.graph.edges()]
        context = engine.runtime.make_context(engine.graph, batch_edge_ids=set(live_ids), positive=True)
        units = decompose_batch(context, live_ids)
        collected, _ = columnar_enumerate(context, units)
        context2 = engine.runtime.make_context(engine.graph, batch_edge_ids=set(live_ids), positive=True)
        payload, count = columnar_enumerate_packed(
            context2, decompose_batch(context2, live_ids))
        unpacked = _unpack_embeddings(payload, positive=True)
        assert count == len(unpacked) == len(collected)
        assert _identities(unpacked) == _identities(collected)


# ---------------------------------------------------------------------- shared-cache charging
class _CustomAccept(IsomorphismMatcher):
    """Overrides a hook, so its query always runs the tuple path."""

    def accept(self, context, embedding):
        return True


class TestSharedPoolCacheCharging:
    """Several queries on one engine share raw pools: the first query to
    reach a pool pays for it.  Who pays what must not depend on the kernel."""

    def _run(self, kernel, events, match_defs):
        from repro.core.registry import MultiQueryEngine
        from repro.streams.config import StreamConfig, StreamType

        config = EngineConfig(
            kernel=kernel,
            stream=StreamConfig(stream_type=StreamType.INSERT_DELETE, batch_size=9),
        )
        with MultiQueryEngine(config=config) as engine:
            ids = [
                engine.register(query, match_def=make())
                for query, make in zip(_QUERIES, match_defs)
            ]
            run = engine.run(list(events))
        return [
            (
                {e.identity() for s in run.per_query[q].snapshots for e in s.positive_embeddings},
                {e.identity() for s in run.per_query[q].snapshots for e in s.negative_embeddings},
                run.per_query[q].total_candidates_scanned,
            )
            for q in ids
        ]

    @pytest.mark.parametrize("match_defs", [
        pytest.param([IsomorphismMatcher] * 4, id="all-columnar"),
        pytest.param([IsomorphismMatcher, _CustomAccept, HomomorphismMatcher, IsomorphismMatcher],
                     id="tuple-path-query-in-the-middle"),
    ])
    def test_per_query_scans_match_reference_to_the_digit(self, rng, match_defs):
        events = _random_events(rng, num_events=120)
        columnar = self._run("columnar", events, match_defs)
        reference = self._run("python", events, match_defs)
        assert sum(len(pos) for pos, _, _ in reference) > 0
        assert sum(len(neg) for _, neg, _ in reference) > 0
        for (col_pos, col_neg, col_scans), (ref_pos, ref_neg, ref_scans) in zip(
            columnar, reference
        ):
            assert col_pos == ref_pos
            assert col_neg == ref_neg
            assert col_scans == ref_scans


# ---------------------------------------------------------------------- arena invariants
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
        engine = MnemonicEngine(query, config=EngineConfig(kernel="columnar"))
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

    def test_empty_unit_list(self, paper_example):
        engine = MnemonicEngine(paper_example.query)
        engine.load_initial(paper_example.initial_events())
        context = self._context(engine, [])
        arena = EmbeddingArena(capacity=4)
        embeddings, count = columnar_enumerate(context, [], arena=arena)
        assert embeddings == [] and count == 0
        assert arena.batches_served == 1  # counted per invocation, even an empty one
        payload, count = columnar_enumerate_packed(context, [], arena=arena)
        assert payload.size == 0 and count == 0

    def test_zero_candidate_frontier(self):
        """A start edge whose extension step has no candidates yields nothing."""
        query = QueryGraph.from_edges([(0, 1), (1, 2)],
                                      node_labels={0: 0, 1: 1, 2: 0})
        engine = MnemonicEngine(query, config=EngineConfig(kernel="columnar"))
        # One matching start edge (0-label -> 1-label) and no second hop.
        result = engine.batch_inserts(
            [StreamEvent.insert(10, 11, 0, 0.0, 0, 1)]
        )
        assert result.positive_embeddings == []
        reference = MnemonicEngine(query, config=EngineConfig(kernel="python"))
        ref = reference.batch_inserts([StreamEvent.insert(10, 11, 0, 0.0, 0, 1)])
        assert result.candidates_scanned == ref.candidates_scanned

    def test_duplicate_vertex_rejected_under_isomorphism(self):
        """A 2-cycle cannot embed a 3-path injectively; it can homomorphically."""
        query = QueryGraph.from_edges([(0, 1), (1, 2)])
        events = [
            StreamEvent.insert(10, 11, 0, 0.0, 0, 0),
            StreamEvent.insert(11, 10, 0, 0.0, 0, 0),
        ]
        for kernel in ("columnar", "python"):
            iso = MnemonicEngine(query, config=EngineConfig(kernel=kernel),
                                 match_def=IsomorphismMatcher())
            assert iso.batch_inserts(list(events)).positive_embeddings == []
            homo = MnemonicEngine(query, config=EngineConfig(kernel=kernel),
                                  match_def=HomomorphismMatcher())
            homo_result = homo.batch_inserts(list(events))
            assert len(homo_result.positive_embeddings) == 2

    def test_duplicate_edge_witnesses_stay_distinct(self):
        """Parallel edges are distinct witnesses: the kernel must keep both."""
        query = QueryGraph.from_edges([(0, 1)])
        events = [
            StreamEvent.insert(10, 11, 0, 0.0, 0, 0),
            StreamEvent.insert(10, 11, 0, 0.0, 0, 0),
        ]
        for kernel in ("columnar", "python"):
            engine = MnemonicEngine(query, config=EngineConfig(kernel=kernel))
            result = engine.batch_inserts(list(events))
            assert len(result.positive_embeddings) == 2
            assert len(_identities(result.positive_embeddings)) == 2

    def test_unsupported_contexts_fall_back(self, paper_example):
        """Custom match definitions run the reference path, same answers."""
        from repro.core.enumeration import MatchDefinition

        class CountingMatcher(IsomorphismMatcher):
            def accept(self, context, embedding):  # overridden hook
                return MatchDefinition.accept(self, context, embedding)

        engine = MnemonicEngine(paper_example.query,
                                config=EngineConfig(kernel="columnar"),
                                match_def=CountingMatcher())
        context = engine.runtime.make_context(engine.graph, batch_edge_ids=set(), positive=True)
        assert not columnar_supported(context)
        result = engine.batch_inserts(paper_example.initial_events())
        reference = MnemonicEngine(paper_example.query,
                                   config=EngineConfig(kernel="python"))
        ref = reference.batch_inserts(paper_example.initial_events())
        assert _identities(result.positive_embeddings) == _identities(
            ref.positive_embeddings)

    def test_python_kernel_config_disables_kernel(self, paper_example):
        engine = MnemonicEngine(paper_example.query,
                                config=EngineConfig(kernel="python"))
        context = engine.runtime.make_context(engine.graph, batch_edge_ids=set(), positive=True)
        assert not columnar_supported(context)

    def test_invalid_kernel_name_rejected(self):
        from repro.utils.validation import ConfigurationError

        with pytest.raises(ConfigurationError):
            EngineConfig(kernel="simd")


# ---------------------------------------------------------------------- seam contract
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
