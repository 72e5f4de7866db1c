"""Embedding enumeration: work decomposition and the backtracking driver.

Section VI of the paper.  After DEBI has been updated for a batch, every
(updated data edge, matching query edge) pair becomes a *work unit*: an
initial one-edge embedding that is extended to full embeddings by a
backtracking join over DEBI candidates.  Work units are independent, so
they are distributed over workers (see :mod:`repro.core.parallel`).

Duplicate elimination follows the masking rule described in
:mod:`repro.query.masking`: the unit starting at query-edge position
``p`` may not map any query edge at a position ``< p`` to an edge of the
current batch, and a unit starting at a *non-tree* position additionally
requires that the pinned constraint has no witness outside the batch.
Under this rule every newly formed (or destroyed) embedding is emitted
by exactly one work unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.api import (
    MatchDefinition,
    default_edge_mask,
    uses_default_edge_matcher,
    vertex_label_columns,
)
from repro.core.debi import DEBI
from repro.core.results import Embedding
from repro.graph.adjacency import DynamicGraph, expand_ranges, segment_counts
from repro.query.masking import Mask, MaskTable
from repro.query.matching_order import ExtensionStep, MatchingOrder
from repro.query.query_graph import WILDCARD_LABEL, QueryGraph
from repro.query.query_tree import QueryTree
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class WorkUnit:
    """One unit of enumeration work: a data edge pinned onto a query edge."""

    edge_id: int
    start_edge: int


#: below this pool size the scalar path beats numpy round-trips
_VECTOR_CUTOFF = 8

_EMPTY_CANDIDATES: tuple[list[int], list[int]] = ([], [])

#: shared-pool-cache entry of a pool the columnar kernel has paid for but
#: (fetching whole steps at once) never held as a per-anchor object
_CHARGED = object()


class EnumerationContext:
    """Everything a work unit needs to enumerate embeddings.

    The context also exposes the three paper API calls used by custom
    enumerators: :meth:`get_candidates`, :meth:`verify_nte` and
    :meth:`save_embedding` (the latter simply builds the
    :class:`~repro.core.results.Embedding` record; collection is handled
    by the caller of the enumerator generator).
    """

    def __init__(
        self,
        query: QueryGraph,
        tree: QueryTree,
        graph: DynamicGraph,
        debi: DEBI,
        orders: dict[int, MatchingOrder],
        masks: MaskTable,
        match_def: MatchDefinition,
        batch_edge_ids: set[int],
        positive: bool = True,
        degree_filter: Callable[[int, int], bool] | None = None,
        shared_pool_cache: dict | None = None,
        kernel: str = "columnar",
        arena: "EmbeddingArena | None" = None,
    ) -> None:
        self.query = query
        self.tree = tree
        self.graph = graph
        self.debi = debi
        self.orders = orders
        self.masks = masks
        self.match_def = match_def
        self.batch_edge_ids = batch_edge_ids
        self.positive = positive
        self.degree_filter = degree_filter
        #: which enumeration kernel drives default match definitions:
        #: "columnar" (arena-backed batched kernel) or "python" (the
        #: per-tuple reference).  Custom enumerators always run as-is.
        self.kernel = kernel
        #: reusable column arena for the columnar kernel (None = transient)
        self.arena = arena
        #: number of candidate edges inspected (enumeration-side traversal metric)
        self.candidates_scanned = 0
        #: number of embeddings produced across all units run on this context
        self.embeddings_found = 0
        # Candidate pools may be narrowed to the query edge's label
        # partition only when the match definition promises its
        # edge_matcher implies label equality (see MatchDefinition).
        self._label_partitioned = getattr(match_def, "label_partitioned", True)
        # Per-batch memo of (anchor, direction, column, label) -> candidates.
        # Work units within a batch re-anchor at the same vertices heavily,
        # and the graph/DEBI are frozen for the context's lifetime, so the
        # pools are immutable.
        self._candidate_memo: dict = {}
        # Cross-query raw-pool cache, shared by every context of a multi-query
        # batch: (direction, label) -> {anchor: adjacency pool}.  The first
        # query to touch a pool pays the scan (candidates_scanned); later
        # queries reuse it for free and only pay their own DEBI filtering.
        self._shared_pool_cache: dict | None = shared_pool_cache
        # Columnar-kernel state: which anchors each (direction, column,
        # label) step key has already paid for — the kernel's form of the
        # memo above, keeping the charge without keeping the pools — and
        # the sorted batch id array (built lazily, only when the kernel runs).
        self._charged_anchors: dict[tuple, set[int]] = {}
        self._batch_ids_array: np.ndarray | None = None

    # ------------------------------------------------------------------ paper API
    def get_candidates(self, step: ExtensionStep, anchor_vertex: int) -> list[int]:
        """DEBI-filtered candidate edges for ``step`` anchored at ``anchor_vertex``.

        Returns a fresh list (callers may mutate it); the memoised pair
        behind it is shared and must stay untouched.
        """
        return list(self.get_candidates_with_endpoints(step, anchor_vertex)[0])

    def get_candidates_with_endpoints(
        self, step: ExtensionStep, anchor_vertex: int
    ) -> tuple[list[int], list[int]]:
        """Fused candidate fetch: ``(edge_ids, new_vertices)`` for one step.

        Pulls the anchor's adjacency partition for the step's edge label
        (the whole list for wildcard steps), filters it against the
        step's DEBI column, and gathers the non-anchor endpoint of every
        survivor — one vectorized pass instead of a per-edge Python loop
        with an :class:`~repro.graph.edge.EdgeRecord` construction per
        candidate.  Results are memoised per batch.
        """
        label = self._pool_label(step)
        memo = self._candidate_memo
        key = (anchor_vertex, step.anchor_is_src, step.debi_column, label)
        cached = memo.get(key)
        if cached is not None:
            return cached
        graph = self.graph
        shared = self._shared_pool_cache
        if shared is not None:
            pools = shared.setdefault((step.anchor_is_src, label), {})
            pool = pools.get(anchor_vertex)
            if pool is None or pool is _CHARGED:
                fetched = graph.candidate_pool(anchor_vertex, step.anchor_is_src, label)
                if pool is None:
                    self.candidates_scanned += len(fetched)
                pool = pools[anchor_vertex] = fetched
        else:
            pool = graph.candidate_pool(anchor_vertex, step.anchor_is_src, label)
            self.candidates_scanned += len(pool)
        n = len(pool)
        column = step.debi_column
        if n == 0:
            result = _EMPTY_CANDIDATES
        elif n < _VECTOR_CUTOFF:
            pool_list = pool if isinstance(pool, list) else pool.tolist()
            if column is None:
                # Copy: the wildcard pool IS the live adjacency list, and
                # the result may be memoised / handed to callers.
                ids = list(pool_list)
            else:
                ids = self.debi.filter_candidates(pool_list, column)
            result = (ids, graph.endpoint_list(ids, step.anchor_is_src))
        else:
            arr = pool if isinstance(pool, np.ndarray) else np.asarray(pool, dtype=np.int64)
            hits = arr if column is None else arr[self.debi.column_mask(arr, column)]
            endpoints = graph.endpoint_array(hits, step.anchor_is_src)
            result = (hits.tolist(), endpoints.tolist())
        memo[key] = result
        return result

    def _pool_label(self, step: ExtensionStep) -> int | None:
        """The adjacency partition a step's pool comes from (None = combined list)."""
        label = step.edge_label
        if not self._label_partitioned or label == WILDCARD_LABEL:
            return None
        return label

    def get_candidate_pools(
        self, step: ExtensionStep, anchors: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The columnar kernel's fetch: every anchor's candidates in one call.

        ``anchors`` are the step's distinct anchor vertices in ascending
        order.  Returns ``(flat_ids, flat_verts, sizes)``: the DEBI-filtered
        candidate edge ids of all anchors concatenated in anchor order,
        the non-anchor endpoint of each, and the number of candidates per
        anchor.  One ``candidate_pools``, one ``column_mask`` and one
        ``endpoint_array`` call serve the whole step.

        ``candidates_scanned`` is charged exactly as
        :meth:`get_candidates_with_endpoints` would over the same anchors:
        the raw pool size, once per ``(anchor, direction, column, label)``
        per context, and with a live cross-query cache only for the first
        context to reach ``(anchor, direction, label)``.
        """
        label = self._pool_label(step)
        ids, sizes = self.graph.candidate_pools(anchors, step.anchor_is_src, label)
        self._charge_pools(step, label, anchors, sizes)
        if step.debi_column is not None and ids.size:
            hit = self.debi.column_mask(ids, step.debi_column)
            ids, sizes = ids[hit], segment_counts(hit, sizes)
        return ids, self.graph.endpoint_array(ids, step.anchor_is_src), sizes

    def _charge_pools(
        self, step: ExtensionStep, label: int | None, anchors: np.ndarray, sizes: np.ndarray
    ) -> None:
        seen = self._charged_anchors.setdefault(
            (step.anchor_is_src, step.debi_column, label), set()
        )
        fresh = set(anchors.tolist()).difference(seen)
        seen |= fresh
        shared = self._shared_pool_cache
        if shared is not None and fresh:
            pools = shared.setdefault((step.anchor_is_src, label), {})
            fresh = fresh.difference(pools)
            pools.update(dict.fromkeys(fresh, _CHARGED))
        if len(fresh) == anchors.size:
            self.candidates_scanned += int(sizes.sum())
        elif fresh:
            rows = np.searchsorted(anchors, np.fromiter(fresh, np.int64, len(fresh)))
            self.candidates_scanned += int(sizes[rows].sum())

    def in_batch(self, edge_ids: np.ndarray) -> np.ndarray:
        """Bool mask: which of ``edge_ids`` belong to the current batch.

        A binary search against the sorted batch ids (cached per context);
        for the few-entry pools of small batches this costs a fraction of
        ``np.isin``'s fixed overhead.
        """
        batch = self._batch_ids_array
        if batch is None:
            batch = self._batch_ids_array = np.sort(np.fromiter(
                self.batch_edge_ids, dtype=np.int64, count=len(self.batch_edge_ids)
            ))
        if batch.size == 0:
            return np.zeros(edge_ids.shape[0], dtype=bool)
        slot = np.searchsorted(batch, edge_ids)
        slot[slot == batch.size] = 0
        return batch[slot] == edge_ids

    def verify_nte(
        self,
        query_edge_index: int,
        node_map: dict[int, int],
        mask: Mask,
        used_edges: set[int],
    ) -> list[int]:
        """Witness edges for a query edge whose endpoints are both bound.

        Respects the duplicate-elimination mask (masked positions may only
        use witnesses outside the current batch).  Returns at most one
        witness unless the match definition binds witnesses explicitly.
        """
        q_edge = self.query.edge(query_edge_index)
        return self.verify_witnesses(
            q_edge, node_map[q_edge.src], node_map[q_edge.dst],
            mask.is_masked(query_edge_index), used_edges,
        )

    def verify_witnesses(
        self, q_edge, v_src: int, v_dst: int, masked: bool, used_edges: set[int]
    ) -> list[int]:
        """Endpoint-based core of :meth:`verify_nte`.

        Split out so the columnar kernel can verify a constraint for one
        arena row without materialising a ``node_map`` dict; scanning and
        counting are byte-identical to the tuple path by construction.
        """
        witnesses: list[int] = []
        for eid in self.graph.find_edges(v_src, v_dst):
            self.candidates_scanned += 1
            if masked and eid in self.batch_edge_ids:
                continue
            if self.match_def.injective and eid in used_edges:
                continue
            record = self.graph.edge(eid)
            if self.match_def.edge_matcher(self.query, self.graph, q_edge, record):
                witnesses.append(eid)
                if not self.match_def.bind_witnesses:
                    break
        return witnesses

    def save_embedding(
        self, node_map: dict[int, int], edge_map: dict[int, int], start_edge: int
    ) -> Embedding:
        """Materialise an embedding record (paper's ``saveEmbedding``)."""
        self.embeddings_found += 1
        return Embedding.build(node_map, edge_map, start_edge, positive=self.positive)

    # ------------------------------------------------------------------ helpers
    def has_non_batch_witness(self, query_edge_index: int, src_vertex: int, dst_vertex: int,
                              exclude_edge: int) -> bool:
        """Is the constraint already witnessed by an edge outside the batch?"""
        q_edge = self.query.edge(query_edge_index)
        for eid in self.graph.find_edges(src_vertex, dst_vertex):
            if eid == exclude_edge or eid in self.batch_edge_ids:
                continue
            if self.match_def.edge_matcher(self.query, self.graph, q_edge, self.graph.edge(eid)):
                return True
        return False

    def degree_ok(self, vertex: int, query_node: int) -> bool:
        if self.degree_filter is None:
            return True
        return self.degree_filter(vertex, query_node)


def degree_requirements_ok(
    graph, out_requirements: dict, in_requirements: dict, vertex: int, query_node: int
) -> bool:
    """The paper's f2/f3 rule: the data vertex's per-label degrees must
    cover the query node's requirements.

    Shared by the live-graph path
    (:meth:`~repro.core.filtering.IndexManager.degree_ok`) and the
    worker-side :class:`ArrayDegreeFilter`, so both backends prune
    identically by construction.
    """
    for label, needed in out_requirements[query_node].items():
        if label == WILDCARD_LABEL:
            if graph.out_degree(vertex) < needed:
                return False
        elif graph.out_label_degree(vertex, label) < needed:
            return False
    for label, needed in in_requirements[query_node].items():
        if label == WILDCARD_LABEL:
            if graph.in_degree(vertex) < needed:
                return False
        elif graph.in_label_degree(vertex, label) < needed:
            return False
    return True


class ArrayDegreeFilter:
    """The f2/f3 label-degree check over an array-view graph, memoised.

    Worker processes cannot call the parent's
    :meth:`~repro.core.filtering.IndexManager.degree_ok` (it closes over
    live parent objects), so they rebuild the same predicate from the
    per-query-node label requirements and the attached
    :class:`~repro.graph.adjacency.CSRGraphView`.  The view computes
    label degrees by scanning an adjacency slice, so results are memoised
    per ``(vertex, query node)`` pair — candidate vertices repeat heavily
    within a batch.
    """

    def __init__(self, graph, out_requirements: dict, in_requirements: dict) -> None:
        self._graph = graph
        self._out_req = out_requirements
        self._in_req = in_requirements
        self._memo: dict[tuple[int, int], bool] = {}

    def __call__(self, vertex: int, query_node: int) -> bool:
        key = (vertex, query_node)
        cached = self._memo.get(key)
        if cached is None:
            cached = degree_requirements_ok(
                self._graph, self._out_req, self._in_req, vertex, query_node
            )
            self._memo[key] = cached
        return cached


@dataclass
class QueryState:
    """The picklable query-side half of an engine, shipped to pool workers once.

    Everything here is fixed for the engine's lifetime (the query and its
    precomputation), so the persistent pool sends it a single time at
    spawn; per-batch messages then carry only the shared-memory snapshot
    descriptor and work-unit arrays.  :meth:`make_context` is the
    worker-side factory that combines this state with the attached
    array views into a ready-to-enumerate :class:`EnumerationContext`.
    """

    query: QueryGraph
    tree: QueryTree
    orders: dict[int, MatchingOrder]
    masks: MaskTable
    match_def: MatchDefinition
    use_degree_filter: bool = True
    out_requirements: dict = field(default_factory=dict)
    in_requirements: dict = field(default_factory=dict)
    kernel: str = "columnar"

    @classmethod
    def build(
        cls,
        query: QueryGraph,
        tree: QueryTree,
        orders: dict[int, MatchingOrder],
        masks: MaskTable,
        match_def: MatchDefinition,
        use_degree_filter: bool,
        kernel: str = "columnar",
    ) -> "QueryState":
        return cls(
            query=query,
            tree=tree,
            orders=orders,
            masks=masks,
            match_def=match_def,
            use_degree_filter=use_degree_filter,
            out_requirements={u: query.out_label_requirement(u) for u in query.nodes()},
            in_requirements={u: query.in_label_requirement(u) for u in query.nodes()},
            kernel=kernel,
        )

    def make_context(
        self,
        graph,
        debi: DEBI,
        batch_edge_ids: set[int],
        positive: bool,
        shared_pool_cache: dict | None = None,
        arena: "EmbeddingArena | None" = None,
    ) -> EnumerationContext:
        """Build an array-view enumeration context for one published snapshot."""
        degree_filter = None
        if self.use_degree_filter and self.match_def.injective:
            degree_filter = ArrayDegreeFilter(
                graph, self.out_requirements, self.in_requirements
            )
        return EnumerationContext(
            query=self.query,
            tree=self.tree,
            graph=graph,
            debi=debi,
            orders=self.orders,
            masks=self.masks,
            match_def=self.match_def,
            batch_edge_ids=batch_edge_ids,
            positive=positive,
            degree_filter=degree_filter,
            shared_pool_cache=shared_pool_cache,
            kernel=self.kernel,
            arena=arena,
        )


# ---------------------------------------------------------------------- work decomposition
def decompose_batch(
    context: EnumerationContext,
    batch_edge_ids: Iterable[int],
) -> list[WorkUnit]:
    """Build the work units for a batch (Section VI, "Work decomposition").

    A unit is created for every (updated edge, query edge) pair whose
    labels match.  Tree-edge units additionally require the DEBI bit to be
    set — if it is not, the edge cannot participate in any embedding and
    the unit would do no work.  Units come out batch-edge major, query-edge
    minor; scheduling, scan counters and embedding order all follow it.

    With the stock ``edge_matcher`` the batch's label columns are gathered
    once and every query edge is one boolean mask over them (ANDed with one
    ``column_mask`` for a tree edge); a custom matcher is asked once per pair.
    """
    query = context.query
    graph = context.graph
    tree = context.tree
    # Per query edge: the DEBI column gating it (None for non-tree edges).
    q_edges = [
        (
            q_edge,
            tree.tree_edge_for(q_edge.index).column if tree.is_tree_edge(q_edge.index) else None,
        )
        for q_edge in query.edges()
    ]
    if not uses_default_edge_matcher(context.match_def):
        edge_matcher = context.match_def.edge_matcher
        debi_get = context.debi.get
        units: list[WorkUnit] = []
        for eid in batch_edge_ids:
            record = graph.edge(eid)
            for q_edge, column in q_edges:
                if not edge_matcher(query, graph, q_edge, record):
                    continue
                if column is not None and not debi_get(eid, column):
                    continue
                units.append(WorkUnit(edge_id=eid, start_edge=q_edge.index))
        return units

    ids = np.fromiter(batch_edge_ids, dtype=np.int64)
    if ids.shape[0] == 0:
        return []
    src_labels, dst_labels = vertex_label_columns(
        graph,
        graph.endpoint_array(ids, take_dst=False),
        graph.endpoint_array(ids, take_dst=True),
    )
    edge_labels = graph.edge_labels(ids)
    matches = np.empty((ids.shape[0], len(q_edges)), dtype=bool)
    for q_edge, column in q_edges:
        mask = default_edge_mask(query, q_edge, src_labels, dst_labels, edge_labels)
        if column is not None:
            mask &= context.debi.column_mask(ids, column)
        matches[:, q_edge.index] = mask
    # Row-major nonzero is batch-edge major, query-edge minor; a query
    # edge's index is its position in ``query.edges()``.
    rows, start_edges = np.nonzero(matches)
    return [
        WorkUnit(edge_id, start_edge)
        for edge_id, start_edge in zip(ids[rows].tolist(), start_edges.tolist())
    ]


# ---------------------------------------------------------------------- backtracking enumerator
def backtracking_enumerate(context: EnumerationContext, unit: WorkUnit) -> Iterator[Embedding]:
    """The default enumerator (the paper's Figure 4, generalised).

    Pins ``unit.edge_id`` onto ``unit.start_edge``, then binds the
    remaining query nodes following the cached matching order, consulting
    DEBI for tree-edge candidates and verifying every other constraint
    between bound nodes.  Injectivity, witness binding and the final
    ``accept`` predicate come from the match definition.
    """
    query = context.query
    graph = context.graph
    match_def = context.match_def
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

    # Duplicate elimination for non-tree starts: the pinned constraint must
    # not already be witnessed outside the batch (see repro.query.masking).
    if mask.require_no_old_witness and context.has_non_batch_witness(
        unit.start_edge, record.src, record.dst, exclude_edge=record.edge_id
    ):
        return

    node_map: dict[int, int] = {start_edge.src: record.src, start_edge.dst: record.dst}
    edge_map: dict[int, int] = {unit.start_edge: record.edge_id}

    if not context.degree_ok(record.src, start_edge.src):
        return
    if not context.degree_ok(record.dst, start_edge.dst):
        return

    def verify_chain(verify_edges: tuple[int, ...], position: int, continuation):
        if position == len(verify_edges):
            yield from continuation()
            return
        q_index = verify_edges[position]
        witnesses = context.verify_nte(q_index, node_map, mask, set(edge_map.values()))
        if not witnesses:
            return
        if match_def.bind_witnesses:
            for witness in witnesses:
                edge_map[q_index] = witness
                yield from verify_chain(verify_edges, position + 1, continuation)
                del edge_map[q_index]
        else:
            yield from verify_chain(verify_edges, position + 1, continuation)

    def extend(step_index: int):
        if step_index == len(order.steps):
            embedding = context.save_embedding(node_map, edge_map, unit.start_edge)
            if match_def.accept(context, embedding):
                yield embedding
            else:
                context.embeddings_found -= 1
            return
        step = order.steps[step_index]
        anchor_vertex = node_map[step.anchor]
        masked = mask.is_masked(step.tree_edge_index)
        used_edges = set(edge_map.values())
        cand_ids, cand_vertices = context.get_candidates_with_endpoints(step, anchor_vertex)
        for eid, new_vertex in zip(cand_ids, cand_vertices):
            if masked and eid in context.batch_edge_ids:
                continue
            if match_def.injective and eid in used_edges:
                continue
            if match_def.injective and new_vertex in node_map.values():
                continue
            if step.node == context.tree.root and not context.debi.is_root(new_vertex):
                continue
            if not context.degree_ok(new_vertex, step.node):
                continue
            node_map[step.node] = new_vertex
            edge_map[step.tree_edge_index] = eid
            yield from verify_chain(step.verify_edges, 0, lambda i=step_index: extend(i + 1))
            del node_map[step.node]
            del edge_map[step.tree_edge_index]

    yield from verify_chain(order.start_verify_edges, 0, lambda: extend(0))


# ---------------------------------------------------------------------- columnar kernel
class EmbeddingArena:
    """Preallocated, double-buffered int64 column blocks for partial embeddings.

    The columnar kernel represents the live frontier of partial
    embeddings as ``(depth, capacity)`` column blocks: row ``d`` of the
    node block holds the data vertex bound to the ``d``-th query node of
    the matching order, one column per live partial embedding.  Each
    expansion step reads the *front* block and scatters survivors into
    the *back* block (``np.take(..., out=...)`` — no per-step
    allocation), then the buffers swap.  Capacity grows geometrically
    and is kept across batches, so steady-state streaming does no
    allocation at all in the extend loop.
    """

    __slots__ = (
        "capacity", "grow_events", "batches_served", "high_water",
        "_caps", "_nodes", "_edges", "_back", "_node_rows", "_edge_rows",
    )

    def __init__(self, capacity: int = 1024) -> None:
        check_positive(capacity, "capacity")
        self.capacity = capacity
        #: geometric growths performed (property-test observability)
        self.grow_events = 0
        #: kernel invocations (``_columnar_run`` calls) served by this arena
        self.batches_served = 0
        #: widest live block ever held
        self.high_water = 0
        self._caps = [capacity, capacity]
        self._nodes: list[np.ndarray | None] = [None, None]
        self._edges: list[np.ndarray | None] = [None, None]
        self._back = 0
        self._node_rows = 0
        self._edge_rows = 0

    def begin(self, node_rows: int, edge_rows: int) -> None:
        """Size the slot dimension for one start-edge group (rows = bound slots)."""
        if node_rows > self._node_rows or edge_rows > self._edge_rows:
            self._node_rows = max(self._node_rows, node_rows)
            self._edge_rows = max(self._edge_rows, edge_rows)
            for i in (0, 1):
                self._nodes[i] = np.empty((self._node_rows, self._caps[i]), dtype=np.int64)
                self._edges[i] = np.empty((self._edge_rows, self._caps[i]), dtype=np.int64)

    def reserve(self, rows: int) -> None:
        """Grow the back buffer geometrically so it can hold ``rows`` columns."""
        self.high_water = max(self.high_water, rows)
        cap = self._caps[self._back]
        if rows <= cap and self._nodes[self._back] is not None:
            return
        while cap < rows:
            cap *= 2
        if cap > self._caps[self._back]:
            self.grow_events += 1
        self._caps[self._back] = cap
        self.capacity = max(self.capacity, cap)
        self._nodes[self._back] = np.empty((self._node_rows, cap), dtype=np.int64)
        self._edges[self._back] = np.empty((self._edge_rows, cap), dtype=np.int64)

    def back(self) -> tuple[np.ndarray, np.ndarray]:
        nodes = self._nodes[self._back]
        edges = self._edges[self._back]
        assert nodes is not None and edges is not None
        return nodes, edges

    def front(self) -> tuple[np.ndarray, np.ndarray]:
        nodes = self._nodes[1 - self._back]
        edges = self._edges[1 - self._back]
        assert nodes is not None and edges is not None
        return nodes, edges

    def swap(self) -> None:
        self._back = 1 - self._back


def columnar_supported(context: EnumerationContext) -> bool:
    """May the columnar kernel replace the tuple path for this context?

    The kernel reproduces exactly the *default* enumerate/accept
    semantics without witness binding; anything customised falls back to
    the reference path.
    """
    match_def = context.match_def
    return (
        context.kernel == "columnar"
        and type(match_def).enumerate is MatchDefinition.enumerate
        and type(match_def).accept is MatchDefinition.accept
        and not match_def.bind_witnesses
    )


def extend_intersect(
    inv: np.ndarray,
    pool_ids: np.ndarray,
    pool_verts: np.ndarray,
    pool_sizes: np.ndarray,
    bound_nodes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batched extend/intersect step — the kernel seam.

    Cross-joins the live embedding block against the step's flat
    candidate pool and applies the one predicate that depends on the
    joined row, vertex injectivity.  Everything that depends on the pool
    entry alone (DEBI bit, batch masking, root candidacy, degree filter)
    has already been applied to the pool by the driver.  Contiguous int64
    arrays in, contiguous int64 arrays out, no callables — this single
    function boundary is where a numba/Cython drop-in would slot.

    ``inv[c]`` is the anchor group of live column ``c``; group ``g`` owns
    ``pool_sizes[g]`` consecutive entries of ``pool_ids``/``pool_verts``
    (candidate edge and the vertex it would bind).  ``bound_nodes`` holds
    the already-bound vertex rows of the front block, ``(slots, n_live)``,
    and is empty (zero slots) when the match is not injective.

    Returns ``(parents, cand_ids, cand_verts)`` for the surviving
    extensions, where ``parents`` indexes columns of the front block.
    """
    # The join is one index gather: column c repeats pool_sizes[inv[c]]
    # times, and its rows walk its group's slice of the flat pool.
    row_sizes = pool_sizes[inv]
    pool_starts = np.cumsum(pool_sizes) - pool_sizes
    entries = expand_ranges(pool_starts[inv], row_sizes)
    parents = np.repeat(np.arange(inv.shape[0], dtype=np.int64), row_sizes)
    cand_verts = pool_verts[entries]
    if bound_nodes.shape[0] and parents.size:
        keep = cand_verts != bound_nodes[0][parents]
        for row in bound_nodes[1:]:
            keep &= cand_verts != row[parents]
        surv = np.nonzero(keep)[0]
        parents, entries, cand_verts = parents[surv], entries[surv], cand_verts[surv]
    return parents, pool_ids[entries], cand_verts


def _push_down(
    context: EnumerationContext,
    step: ExtensionStep,
    masked: bool,
    pool_ids: np.ndarray,
    pool_verts: np.ndarray,
    pool_sizes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the tuple path's per-candidate predicates to the pool, before the join.

    Batch masking, root candidacy and the f2/f3 degree filter read only
    the candidate edge or the vertex it binds, never the partial
    embedding, and none of them charges a counter — so filtering each
    pool entry once rejects exactly the joined rows the tuple path
    rejects one by one.
    """
    keep: np.ndarray | None = None
    if masked:
        keep = ~context.in_batch(pool_ids)
    if step.node == context.tree.root:
        is_root = context.debi.roots_mask(pool_verts)
        keep = is_root if keep is None else keep & is_root
    degree_ok = context.degree_filter
    if degree_ok is not None:
        # One predicate evaluation per distinct vertex still standing.
        node = step.node
        verts = pool_verts if keep is None else pool_verts[keep]
        uniq, inv = np.unique(verts, return_inverse=True)
        allowed = np.fromiter(
            (degree_ok(v, node) for v in uniq.tolist()), dtype=bool, count=uniq.shape[0]
        )[inv]
        if keep is None:
            keep = allowed
        else:
            keep[keep] = allowed
    if keep is None or keep.all():
        return pool_ids, pool_verts, pool_sizes
    return pool_ids[keep], pool_verts[keep], segment_counts(keep, pool_sizes)


def _columnar_run(
    context: EnumerationContext,
    units: list[WorkUnit],
    emit,
    arena: "EmbeddingArena | None" = None,
) -> None:
    """Drive the columnar kernel over ``units``, calling ``emit`` per group.

    ``emit(start_edge, node_slots, edge_slots, nodes, edges, n)`` receives
    the completed embeddings of one start-edge group as arena views:
    ``nodes[i, :n]`` is the data vertex bound to query node
    ``node_slots[i]``, likewise for edges.  Semantics — which candidates
    are fetched, which rows reach a verify scan, every counter increment —
    mirror :func:`backtracking_enumerate` exactly.  What differs is where
    the chargeless predicates run (on the pool, before the join; see
    :func:`_push_down`) and the order embeddings come out in
    (breadth-first over the arena instead of depth-first recursion).
    """
    query = context.query
    graph = context.graph
    match_def = context.match_def
    injective = match_def.injective
    if arena is None:
        arena = context.arena if context.arena is not None else EmbeddingArena(capacity=256)
    arena.batches_served += 1

    groups: dict[int, list[int]] = {}
    for unit in units:
        groups.setdefault(unit.start_edge, []).append(unit.edge_id)

    for start_edge, edge_ids in groups.items():
        order = context.orders[start_edge]
        mask = context.masks.mask_for(start_edge)
        q_start = query.edge(start_edge)
        self_loop_query = q_start.src == q_start.dst

        # -- start pinning.  The shape predicate (self-loop agreement) is
        # evaluated as one vectorized mask over batched endpoint gathers,
        # and the f2/f3 degree checks run once per *unique* endpoint
        # instead of once per unit; both are chargeless predicates, so
        # reordering them around the equally chargeless edge_matcher /
        # has_non_batch_witness keeps the set of rows reaching each
        # charging verify_witnesses call — and with it every counter —
        # identical to the tuple path.
        eids_arr = np.asarray(edge_ids, dtype=np.int64)
        srcs_arr = graph.endpoint_array(eids_arr, False)
        dsts_arr = graph.endpoint_array(eids_arr, True)
        loops = srcs_arr == dsts_arr
        if self_loop_query:
            shape_ok = loops
        elif injective:
            shape_ok = ~loops
        else:
            shape_ok = np.ones(eids_arr.size, dtype=bool)
        src_list = srcs_arr.tolist()
        dst_list = dsts_arr.tolist()

        survivors: list[int] = []
        for i in np.nonzero(shape_ok)[0].tolist():
            eid = edge_ids[i]
            if not match_def.edge_matcher(query, graph, q_start, graph.edge(eid)):
                continue
            if mask.require_no_old_witness and context.has_non_batch_witness(
                start_edge, src_list[i], dst_list[i], exclude_edge=eid
            ):
                continue
            survivors.append(i)

        if survivors and context.degree_filter is not None:
            # Memoised per (vertex, query node); deduplicating first makes
            # the batch pay one predicate evaluation per distinct endpoint.
            src_allowed = {
                v: context.degree_ok(v, q_start.src)
                for v in {src_list[i] for i in survivors}
            }
            dst_allowed = {
                v: context.degree_ok(v, q_start.dst)
                for v in {dst_list[i] for i in survivors}
            }
            survivors = [
                i for i in survivors
                if src_allowed[src_list[i]] and dst_allowed[dst_list[i]]
            ]

        start_specs = [
            (
                query.edge(q_index),
                mask.is_masked(q_index),
                query.edge(q_index).src == q_start.src,
                query.edge(q_index).dst == q_start.src,
            )
            for q_index in order.start_verify_edges
        ]
        pinned_src: list[int] = []
        pinned_dst: list[int] = []
        pinned_eid: list[int] = []
        for i in survivors:
            eid = edge_ids[i]
            if start_specs:
                ok = True
                for q_edge, q_masked, src_is_start_src, dst_is_start_src in start_specs:
                    v_src = src_list[i] if src_is_start_src else dst_list[i]
                    v_dst = src_list[i] if dst_is_start_src else dst_list[i]
                    if not context.verify_witnesses(
                        q_edge, v_src, v_dst, q_masked, {eid}
                    ):
                        ok = False
                        break
                if not ok:
                    continue
            pinned_src.append(src_list[i])
            pinned_dst.append(dst_list[i])
            pinned_eid.append(eid)

        n_live = len(pinned_eid)
        if n_live == 0:
            continue

        node_slots = [q_start.src] if self_loop_query else [q_start.src, q_start.dst]
        edge_slots = [start_edge] + [st.tree_edge_index for st in order.steps]
        slot_of = {node: i for i, node in enumerate(node_slots)}
        total_node_slots = len(node_slots) + len(order.steps)

        arena.begin(total_node_slots, len(edge_slots))
        arena.reserve(n_live)
        nodes_b, edges_b = arena.back()
        nodes_b[0, :n_live] = pinned_src
        if not self_loop_query:
            nodes_b[1, :n_live] = pinned_dst
        edges_b[0, :n_live] = pinned_eid
        arena.swap()
        bound_nodes = len(node_slots)
        bound_edges = 1

        for step in order.steps:
            nodes_f, edges_f = arena.front()
            anchors = nodes_f[slot_of[step.anchor], :n_live]
            uniq, inv = np.unique(anchors, return_inverse=True)
            pool = context.get_candidate_pools(step, uniq)
            pool_ids, pool_verts, pool_sizes = _push_down(
                context, step, mask.is_masked(step.tree_edge_index), *pool
            )
            parents, cand_ids, cand_verts = extend_intersect(
                inv, pool_ids, pool_verts, pool_sizes,
                nodes_f[: bound_nodes if injective else 0, :n_live],
            )
            m = parents.size
            if m == 0:
                n_live = 0
                break
            arena.reserve(m)
            nodes_b, edges_b = arena.back()
            for s in range(bound_nodes):
                np.take(nodes_f[s, :n_live], parents, out=nodes_b[s, :m])
            nodes_b[bound_nodes, :m] = cand_verts
            for s in range(bound_edges):
                np.take(edges_f[s, :n_live], parents, out=edges_b[s, :m])
            edges_b[bound_edges, :m] = cand_ids
            arena.swap()
            node_slots.append(step.node)
            slot_of[step.node] = bound_nodes
            bound_nodes += 1
            bound_edges += 1
            n_live = m

            if step.verify_edges and n_live:
                nodes_f, edges_f = arena.front()
                # Bulk-gather the columns the scan reads — per-spec endpoint
                # rows and the used-edge matrix transposed to row-major —
                # as Python ints up front, so the remaining per-row work is
                # only the (charging) witness scans themselves.
                verify_specs = [
                    (
                        query.edge(qi),
                        mask.is_masked(qi),
                        nodes_f[slot_of[query.edge(qi).src], :n_live].tolist(),
                        nodes_f[slot_of[query.edge(qi).dst], :n_live].tolist(),
                    )
                    for qi in step.verify_edges
                ]
                used_rows = edges_f[:bound_edges, :n_live].T.tolist()
                keep_rows = np.ones(n_live, dtype=bool)
                any_removed = False
                for r in range(n_live):
                    used = set(used_rows[r])
                    for q_edge, q_masked, row_srcs, row_dsts in verify_specs:
                        if not context.verify_witnesses(
                            q_edge, row_srcs[r], row_dsts[r], q_masked, used,
                        ):
                            keep_rows[r] = False
                            any_removed = True
                            break
                if any_removed:
                    surv = np.nonzero(keep_rows)[0]
                    m = surv.size
                    if m == 0:
                        n_live = 0
                        break
                    arena.reserve(m)
                    nodes_b, edges_b = arena.back()
                    for s in range(bound_nodes):
                        np.take(nodes_f[s, :n_live], surv, out=nodes_b[s, :m])
                    for s in range(bound_edges):
                        np.take(edges_f[s, :n_live], surv, out=edges_b[s, :m])
                    arena.swap()
                    n_live = m

        if n_live == 0:
            continue
        context.embeddings_found += n_live
        nodes_f, edges_f = arena.front()
        emit(start_edge, node_slots, edge_slots, nodes_f, edges_f, n_live)


def columnar_enumerate(
    context: EnumerationContext,
    units: list[WorkUnit],
    collect: bool = True,
    arena: "EmbeddingArena | None" = None,
) -> tuple[list[Embedding], int]:
    """Run ``units`` through the columnar kernel; return ``(embeddings, count)``.

    With ``collect=False`` no :class:`Embedding` objects are built at all
    (the caller only wants counts — the harness's default), which is
    where most of the kernel's single-thread win over the tuple path
    comes from on count-only workloads.
    """
    results: list[Embedding] = []
    counts = [0]

    def emit(start_edge, node_slots, edge_slots, nodes, edges, n):
        counts[0] += n
        if not collect:
            return
        node_order = sorted(range(len(node_slots)), key=node_slots.__getitem__)
        edge_order = sorted(range(len(edge_slots)), key=edge_slots.__getitem__)
        node_cols = [(node_slots[j], nodes[j, :n].tolist()) for j in node_order]
        edge_cols = [(edge_slots[j], edges[j, :n].tolist()) for j in edge_order]
        positive = context.positive
        for r in range(n):
            results.append(
                Embedding(
                    node_map=tuple((q, col[r]) for q, col in node_cols),
                    edge_map=tuple((q, col[r]) for q, col in edge_cols),
                    start_edge=start_edge,
                    positive=positive,
                )
            )

    _columnar_run(context, units, emit, arena=arena)
    return results, counts[0]


def columnar_enumerate_packed(
    context: EnumerationContext,
    units: list[WorkUnit],
    arena: "EmbeddingArena | None" = None,
) -> tuple[np.ndarray, int]:
    """Run ``units`` and emit the packed int64 IPC layout directly.

    The layout per embedding is the one :mod:`repro.core.parallel` ships
    over the pool pipes — ``[start_edge, n_node_pairs, n_edge_pairs,
    (qnode, vertex)* sorted, (qedge, eid)* sorted]`` — assembled straight
    from the arena columns, so the process backend's separate pack step
    disappears for kernel-eligible chunks.
    """
    parts: list[np.ndarray] = []
    counts = [0]

    def emit(start_edge, node_slots, edge_slots, nodes, edges, n):
        counts[0] += n
        n_nodes = len(node_slots)
        n_edges = len(edge_slots)
        width = 3 + 2 * n_nodes + 2 * n_edges
        block = np.empty((n, width), dtype=np.int64)
        block[:, 0] = start_edge
        block[:, 1] = n_nodes
        block[:, 2] = n_edges
        col = 3
        for j in sorted(range(n_nodes), key=node_slots.__getitem__):
            block[:, col] = node_slots[j]
            block[:, col + 1] = nodes[j, :n]
            col += 2
        for j in sorted(range(n_edges), key=edge_slots.__getitem__):
            block[:, col] = edge_slots[j]
            block[:, col + 1] = edges[j, :n]
            col += 2
        parts.append(block.reshape(-1))

    _columnar_run(context, units, emit, arena=arena)
    if not parts:
        return np.empty(0, dtype=np.int64), 0
    return np.concatenate(parts), counts[0]
