"""The tuple-at-a-time reference engine: per-edge ingest, backtracking enumeration.

The product has one ingest path (column batches) and one enumeration
kernel (``repro.core.enumeration``, whole blocks of partial embeddings per
step).  This module is what both are checked against: every event is
applied with one ``add_edge`` / ``delete_edge`` call, and every work unit
is enumerated by the depth-first backtracking join of the paper's
Figure 4, one partial embedding at a time, through the scalar graph and
DEBI API only (``candidate_pool``, ``find_edges``, ``edge``, ``DEBI.get``).
The index behind it is maintained edge by edge too (``edge_index.py``,
which also holds the scalar f2/f3 degree rule); only the query
precomputation (tree, matching orders, masks) is shared with the product.

``candidates_scanned`` is defined here: a candidate pool costs its raw
size once per ``(anchor, direction, column, label)`` per context — and,
when several queries share a batch, only for the first query to reach
``(anchor, direction, label)`` — and a witness scan costs one per entry
read, stopping behind the first witness unless witnesses are bound.  The
product must report the same number to the digit.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.enumeration import WorkUnit
from repro.core.registry import build_query_runtime, resolve_deletions
from repro.core.results import Embedding
from repro.graph.adjacency import DynamicGraph
from repro.query.query_graph import WILDCARD_LABEL
from repro.streams.events import StreamEvent, coerce_insert

from .edge_index import ReferenceIndexManager, degree_requirements_ok


class TupleContext:
    """One query's view of one batch phase; also what ``accept`` receives."""

    def __init__(self, runtime, graph, batch_edge_ids, positive, shared_pools=None) -> None:
        self.query = runtime.query
        self.tree = runtime.tree
        self.graph = graph
        self.debi = runtime.debi
        self.orders = runtime.orders
        self.masks = runtime.masks
        self.match_def = runtime.match_def
        self.batch_edge_ids = batch_edge_ids
        self.positive = positive
        state = runtime.query_state
        self.use_degree_filter = state.use_degree_filter and runtime.match_def.injective
        self.candidates_scanned = 0
        self._memo: dict = {}
        self._shared_pools = shared_pools

    def degree_ok(self, vertex: int, query_node: int) -> bool:
        return not self.use_degree_filter or degree_requirements_ok(
            self.graph, self.query, vertex, query_node
        )

    def candidates(self, step, anchor: int) -> list[tuple[int, int]]:
        """``(edge id, vertex it binds)`` for every DEBI candidate of ``step`` at ``anchor``."""
        label = step.edge_label
        if not self.match_def.label_partitioned or label == WILDCARD_LABEL:
            label = None
        key = (anchor, step.anchor_is_src, step.debi_column, label)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        pool = [int(e) for e in self.graph.candidate_pool(anchor, step.anchor_is_src, label)]
        charged = True
        if self._shared_pools is not None:
            paid = self._shared_pools.setdefault((step.anchor_is_src, label), set())
            charged = anchor not in paid
            paid.add(anchor)
        if charged:
            self.candidates_scanned += len(pool)
        result = []
        for edge_id in pool:
            if step.debi_column is not None and not self.debi.get(edge_id, step.debi_column):
                continue
            record = self.graph.edge(edge_id)
            result.append((edge_id, record.dst if step.anchor_is_src else record.src))
        self._memo[key] = result
        return result

    def witnesses(self, q_edge, v_src: int, v_dst: int, masked: bool, used: set[int]) -> list[int]:
        found: list[int] = []
        for edge_id in self.graph.find_edges(v_src, v_dst):
            self.candidates_scanned += 1
            if masked and edge_id in self.batch_edge_ids:
                continue
            if self.match_def.injective and edge_id in used:
                continue
            if self.match_def.edge_matcher(self.query, self.graph, q_edge, self.graph.edge(edge_id)):
                found.append(edge_id)
                if not self.match_def.bind_witnesses:
                    break
        return found

    def has_old_witness(self, q_edge, v_src: int, v_dst: int) -> bool:
        """Is the constraint witnessed by an edge outside the batch?  (Charges nothing.)"""
        return any(
            edge_id not in self.batch_edge_ids
            and self.match_def.edge_matcher(self.query, self.graph, q_edge, self.graph.edge(edge_id))
            for edge_id in self.graph.find_edges(v_src, v_dst)
        )


def decompose(context: TupleContext, batch_edge_ids) -> list[WorkUnit]:
    """One unit per (batch edge, matching query edge); tree edges also need their DEBI bit."""
    units = []
    for edge_id in batch_edge_ids:
        record = context.graph.edge(edge_id)
        for q_edge in context.query.edges():
            if not context.match_def.edge_matcher(context.query, context.graph, q_edge, record):
                continue
            if context.tree.is_tree_edge(q_edge.index) and not context.debi.get(
                edge_id, context.tree.tree_edge_for(q_edge.index).column
            ):
                continue
            units.append(WorkUnit(edge_id, q_edge.index))
    return units


def backtracking_enumerate(context: TupleContext, unit: WorkUnit) -> Iterator[Embedding]:
    """The paper's Figure 4, generalised by ``injective``, ``bind_witnesses`` and ``accept``."""
    query, graph, match_def = context.query, context.graph, context.match_def
    order = context.orders[unit.start_edge]
    mask = context.masks.mask_for(unit.start_edge)
    record = graph.edge(unit.edge_id)
    start_edge = query.edge(unit.start_edge)
    if not match_def.edge_matcher(query, graph, start_edge, record):
        return
    if match_def.injective and start_edge.src != start_edge.dst and record.src == record.dst:
        return
    if start_edge.src == start_edge.dst and record.src != record.dst:
        return
    # A non-tree start whose constraint already held outside the batch maps
    # no new nodes — unless the witness is part of the embedding's identity.
    if (
        mask.require_no_old_witness
        and not match_def.bind_witnesses
        and context.has_old_witness(start_edge, record.src, record.dst)
    ):
        return
    if not context.degree_ok(record.src, start_edge.src):
        return
    if not context.degree_ok(record.dst, start_edge.dst):
        return

    node_map = {start_edge.src: record.src, start_edge.dst: record.dst}
    edge_map = {unit.start_edge: record.edge_id}

    def verify_chain(verify_edges, position, continuation):
        if position == len(verify_edges):
            yield from continuation()
            return
        q_edge = query.edge(verify_edges[position])
        found = context.witnesses(
            q_edge, node_map[q_edge.src], node_map[q_edge.dst],
            mask.is_masked(q_edge.index), set(edge_map.values()),
        )
        if not match_def.bind_witnesses:
            if found:
                yield from verify_chain(verify_edges, position + 1, continuation)
            return
        for witness in found:
            edge_map[q_edge.index] = witness
            yield from verify_chain(verify_edges, position + 1, continuation)
            del edge_map[q_edge.index]

    def extend(step_index):
        if step_index == len(order.steps):
            embedding = Embedding.build(
                node_map, edge_map, unit.start_edge, positive=context.positive
            )
            if match_def.accept(context, embedding):
                yield embedding
            return
        step = order.steps[step_index]
        masked = mask.is_masked(step.tree_edge_index)
        used = set(edge_map.values())
        for edge_id, vertex in context.candidates(step, node_map[step.anchor]):
            if masked and edge_id in context.batch_edge_ids:
                continue
            if match_def.injective and (edge_id in used or vertex in node_map.values()):
                continue
            if step.node == context.tree.root and not context.debi.is_root(vertex):
                continue
            if not context.degree_ok(vertex, step.node):
                continue
            node_map[step.node] = vertex
            edge_map[step.tree_edge_index] = edge_id
            yield from verify_chain(step.verify_edges, 0, lambda i=step_index: extend(i + 1))
            del node_map[step.node]
            del edge_map[step.tree_edge_index]

    yield from verify_chain(order.start_verify_edges, 0, lambda: extend(0))


def start_edge_major(units: list[WorkUnit]) -> list[WorkUnit]:
    """``units`` regrouped by start edge, groups in order of first appearance.

    The order in which units are visited is a scheduling choice, free for
    everything this module defines (a pool is charged once per context
    whoever reaches it first).  Visiting them group by group makes the
    depth-first emission order the one the product's results come in, so
    the differential can compare lists and not only sets.
    """
    first: dict[int, int] = {}
    for unit in units:
        first.setdefault(unit.start_edge, len(first))
    return sorted(units, key=lambda unit: first[unit.start_edge])


class ReferenceEngine:
    """Standing queries over one graph, every event and every embedding one at a time.

    ``batch_inserts`` / ``batch_deletes`` return, per query in registration
    order, ``(embeddings, candidates_scanned)`` of the batch.
    """

    def __init__(self, queries, recycle_edge_ids: bool = True, use_degree_filter: bool = True):
        self.graph = DynamicGraph(recycle_edge_ids=recycle_edge_ids)
        self.runtimes = [
            build_query_runtime(query, match_def, self.graph, use_degree_filter=use_degree_filter)
            for query, match_def in queries
        ]
        self.indexes = [ReferenceIndexManager.over(r.index_manager) for r in self.runtimes]

    def _enumerate(self, batch_edge_ids: list[int], positive: bool):
        shared = {} if len(self.runtimes) > 1 else None
        batch = set(batch_edge_ids)
        contexts = [
            TupleContext(runtime, self.graph, batch, positive, shared) for runtime in self.runtimes
        ]
        # Every query decomposes before any enumerates, and queries enumerate
        # in registration order: that fixes who pays for a shared pool.
        units = [decompose(context, batch_edge_ids) for context in contexts]
        return [
            (
                [
                    e for unit in start_edge_major(unit_list)
                    for e in backtracking_enumerate(context, unit)
                ],
                context.candidates_scanned,
            )
            for context, unit_list in zip(contexts, units)
        ]

    def batch_inserts(self, events):
        new_ids = []
        for event in map(coerce_insert, events):
            new_ids.append(self.graph.add_edge(
                event.src, event.dst, event.label, event.timestamp,
                src_label=event.src_label, dst_label=event.dst_label,
            ))
        for index in self.indexes:
            index.handle_insertions(new_ids)
        return self._enumerate(new_ids, positive=True)

    def batch_deletes(self, events):
        events = [e if isinstance(e, StreamEvent) else StreamEvent.delete(*e) for e in events]
        doomed = resolve_deletions(self.graph, events).tolist()
        results = self._enumerate(doomed, positive=False)  # against the pre-delete graph
        deleted = []
        for edge_id in doomed:
            rows = [runtime.debi.row(edge_id) for runtime in self.runtimes]
            record = self.graph.delete_edge(edge_id)
            for runtime in self.runtimes:
                runtime.debi.clear_edge(edge_id)
            deleted.append((record, rows))
        for position, index in enumerate(self.indexes):
            index.handle_deletions(
                [(record, rows[position]) for record, rows in deleted]
            )
        return results
