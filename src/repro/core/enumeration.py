"""Embedding enumeration: work decomposition and the columnar kernel.

Section VI of the paper.  After DEBI has been updated for a batch, every
(updated data edge, matching query edge) pair becomes a *work unit*: an
initial one-edge embedding that is extended to full embeddings by a
join over DEBI candidates.  Work units are independent, so they are
distributed over workers (see :mod:`repro.core.parallel`).

Every :class:`~repro.core.api.MatchDefinition` enumerates through
:func:`columnar_enumerate`: a stock one on the live graph natively
(:mod:`repro.core.native`), any other in the numpy kernel of this module,
where the units of a batch are grouped by start edge and each group
advances as one block of partial embeddings — one candidate fetch, one
join and one witness lookup per matching-order step for the whole block,
cut only where it grows past ``MAX_LIVE`` columns — and leaves as
``EmbeddingBlock``s.

Duplicate elimination follows the masking rule described in
:mod:`repro.query.masking`: the unit starting at query-edge position
``p`` may not map any query edge at a position ``< p`` to an edge of the
current batch, and a unit starting at a *non-tree* position additionally
requires that the pinned constraint has no witness outside the batch.
Under this rule every newly formed (or destroyed) embedding is emitted
by exactly one work unit.  When the match definition binds witnesses the
pinned edge is part of the embedding's identity, so the second condition
does not apply: another witness makes another embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from repro.core import native
from repro.core.api import (
    MatchDefinition,
    default_edge_mask,
    uses_default_edge_matcher,
    vertex_label_columns,
)
from repro.core.debi import DEBI
from repro.core.results import EmbeddingBlock, Embeddings
from repro.graph.adjacency import DynamicGraph, expand_ranges, segment_counts
from repro.query.masking import MaskTable
from repro.query.matching_order import ExtensionStep, MatchingOrder
from repro.query.query_graph import WILDCARD_LABEL, QueryEdge, QueryGraph
from repro.query.query_tree import QueryTree
from repro.utils.bitset import BitMatrix
from repro.utils.validation import check_positive


#: Most columns one join expands at once (:func:`_expand`; measured in docs/architecture.md).
MAX_LIVE = 4096


@dataclass(frozen=True)
class WorkUnit:
    """One unit of enumeration work: a data edge pinned onto a query edge."""

    edge_id: int
    start_edge: int


class WorkUnits:
    """A phase's work units as two int64 columns, in :func:`decompose_batch`'s order.

    Row ``i`` pins data edge ``edge_ids[i]`` onto query edge ``start_edges[i]``.
    The columns travel as they are from the decomposition through dispatch,
    task messages and recovery to the kernel; iterating builds :class:`WorkUnit`s.
    """

    __slots__ = ("edge_ids", "start_edges")

    def __init__(self, edge_ids=(), start_edges=()) -> None:
        self.edge_ids = np.asarray(edge_ids, dtype=np.int64)
        self.start_edges = np.asarray(start_edges, dtype=np.int64)

    @classmethod
    def concat(cls, parts: "list[WorkUnits]") -> "WorkUnits":
        """The units of ``parts`` (at least one), part after part."""
        return cls(
            np.concatenate([part.edge_ids for part in parts]),
            np.concatenate([part.start_edges for part in parts]),
        )

    def __len__(self) -> int:
        return self.edge_ids.shape[0]

    def __getitem__(self, rows) -> "WorkUnits":
        """The units at ``rows`` (a slice, a stride, a mask or an index array)."""
        return WorkUnits(self.edge_ids[rows], self.start_edges[rows])

    def __iter__(self) -> "Iterator[WorkUnit]":
        return map(WorkUnit, self.edge_ids.tolist(), self.start_edges.tolist())

    def groups(self) -> "Iterator[tuple[int, np.ndarray]]":
        """``(start edge, its unit edge ids)``, stably: groups in order of
        first appearance, each group's edges in unit order."""
        starts, first = np.unique(self.start_edges, return_index=True)
        for start in starts[np.argsort(first)].tolist():
            yield start, self.edge_ids[self.start_edges == start]


class EnumerationContext:
    """Everything the kernel needs to enumerate one batch's embeddings.

    A context is built per (query, batch phase); the graph and DEBI it
    wraps are frozen for its lifetime.  It also carries the two counters
    the engine reports: ``candidates_scanned`` and ``embeddings_found``.
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
        degree_requirements: dict[int, list[tuple]] | None = None,
        shared_pool_cache: dict | None = None,
        arena: "EmbeddingArena | None" = None,
        native_plan: native.Plan | None = None,
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
        #: the f2/f3 filter's table (:attr:`QueryState.degree_table`); None = filter off
        self.degree_requirements = degree_requirements
        #: reusable column arena for the numpy kernel (None = transient)
        self.arena = arena
        #: the query encoded for the native kernel (:attr:`QueryState.native_plan`)
        self.native_plan = native_plan
        #: number of candidate edges inspected (enumeration-side traversal metric)
        self.candidates_scanned = 0
        #: number of embeddings produced across all units run on this context
        self.embeddings_found = 0
        # Candidate pools may be narrowed to the query edge's label
        # partition only when the match definition promises its
        # edge_matcher implies label equality (see MatchDefinition).
        self._label_partitioned = getattr(match_def, "label_partitioned", True)
        # Which anchors each (direction, column, label) step key has already
        # paid for.  Work units within a batch re-anchor at the same vertices
        # heavily; a pool is charged once per key per context.
        self._charged_anchors: dict[tuple, set[int]] = {}
        # Cross-query variant, shared by every context of a multi-query
        # batch: (direction, label) -> anchors some query has paid for.  The
        # first query to touch a pool pays the scan; later queries reuse it
        # for free and only pay their own DEBI filtering.
        self._shared_pool_cache: dict | None = shared_pool_cache
        # The sorted batch id array (built lazily, only when a mask needs it).
        self._batch_ids_array: np.ndarray | None = None

    def _pool_label(self, step: ExtensionStep) -> int | None:
        """The adjacency partition a step's pool comes from (None = combined list)."""
        label = step.edge_label
        if not self._label_partitioned or label == WILDCARD_LABEL:
            return None
        return label

    def get_candidate_pools(
        self, step: ExtensionStep, anchors: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kernel's fetch: every anchor's candidates in one call.

        ``anchors`` are the step's distinct anchor vertices in ascending
        order.  Returns ``(flat_ids, flat_verts, sizes)``: the DEBI-filtered
        candidate edge ids of all anchors concatenated in anchor order,
        the non-anchor endpoint of each, and the number of candidates per
        anchor.  One ``candidate_pools``, one ``column_mask`` and one
        ``endpoint_array`` call serve the whole step.

        ``candidates_scanned`` is charged the raw pool size, once per
        ``(anchor, direction, column, label)`` per context, and with a
        live cross-query cache only for the first context to reach
        ``(anchor, direction, label)``.
        """
        label = self._pool_label(step)
        ids, sizes = self.graph.candidate_pools(anchors, step.anchor_is_src, label)
        self._charge_pools((step.anchor_is_src, step.debi_column, label), anchors, sizes)
        if step.debi_column is not None and ids.size:
            hit = self.debi.column_mask(ids, step.debi_column)
            ids, sizes = ids[hit], segment_counts(hit, sizes)
        return ids, self.graph.endpoint_array(ids, step.anchor_is_src), sizes

    def _charge_pools(self, key: tuple, anchors: np.ndarray, sizes: np.ndarray) -> None:
        """Charge each pool of ``anchors`` (distinct, ascending) once under ``key``."""
        seen = self._charged_anchors.setdefault(key, set())
        fresh = set(anchors.tolist()).difference(seen)
        seen |= fresh
        shared = self._shared_pool_cache
        if shared is not None and fresh:
            paid = shared.setdefault((key[0], key[2]), set())
            fresh = fresh.difference(paid)
            paid |= fresh
        if len(fresh) == anchors.size:
            self.candidates_scanned += int(sizes.sum())
        elif fresh:
            rows = np.searchsorted(anchors, np.fromiter(fresh, np.int64, len(fresh)))
            self.candidates_scanned += int(sizes[rows].sum())

    def forget_charges(self) -> None:
        """Charge the next kernel call as a fresh context would: what a pool
        worker's slice is charged must not depend on the slices it ran before."""
        self._charged_anchors = {}

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

    def edge_match_mask(self, q_edge: QueryEdge, edge_ids: np.ndarray) -> np.ndarray:
        """``match_def.edge_matcher(q_edge, ·)`` over an edge-id array, as a bool mask.

        The stock matcher is three label-column comparisons; a custom one
        is asked once per distinct edge.
        """
        graph = self.graph
        if uses_default_edge_matcher(self.match_def):
            src_labels, dst_labels = vertex_label_columns(
                graph,
                graph.endpoint_array(edge_ids, take_dst=False),
                graph.endpoint_array(edge_ids, take_dst=True),
            )
            return default_edge_mask(
                self.query, q_edge, src_labels, dst_labels, graph.edge_labels(edge_ids)
            )
        distinct, inverse = np.unique(edge_ids, return_inverse=True)
        matcher = self.match_def.edge_matcher
        return np.fromiter(
            (matcher(self.query, graph, q_edge, graph.edge(e)) for e in distinct.tolist()),
            dtype=bool,
            count=distinct.shape[0],
        )[inverse]

    def degree_mask(self, vertices: np.ndarray, query_node: int) -> np.ndarray:
        """The paper's f2/f3 rule over a vertex array.

        A data vertex may bind ``query_node`` only if its per-label out- and
        in-degrees cover the query node's.  One ``label_degrees`` read per
        requirement, over the vertices no earlier requirement rejected,
        whatever graph the context is over.
        """
        ok: np.ndarray | None = None
        for out, label, needed in self.degree_requirements[query_node]:
            pending = vertices if ok is None else vertices[ok]
            enough = self.graph.label_degrees(pending, out, label) >= needed
            if ok is None:
                ok = enough
            else:
                ok[ok] = enough
        return np.ones(vertices.shape[0], dtype=bool) if ok is None else ok


@dataclass
class QueryState:
    """The picklable query-side half of an engine, shipped to pool workers once.

    Everything here is fixed for the engine's lifetime (the query and its
    precomputation), so the persistent pool sends it a single time at
    spawn; per-batch messages then carry only the shared-memory snapshot
    descriptor and work-unit arrays.  :meth:`make_context` is the one
    factory of :class:`EnumerationContext`: the parent, the workers and
    the shard scopes combine this state with their graph and DEBI views.
    """

    query: QueryGraph
    tree: QueryTree
    orders: dict[int, MatchingOrder]
    masks: MaskTable
    match_def: MatchDefinition
    use_degree_filter: bool = True
    #: query node -> its ``(out, edge label or None for any, needed degree)`` requirements
    degree_table: dict[int, list[tuple[bool, int | None, int]]] = field(init=False)

    def __post_init__(self) -> None:
        query = self.query
        self.degree_table = {
            node: [
                (out, None if label == WILDCARD_LABEL else label, needed)
                for out, requirement in (
                    (True, query.out_label_requirement(node)),
                    (False, query.in_label_requirement(node)),
                )
                for label, needed in requirement.items()
            ]
            for node in query.nodes()
        }

    @cached_property
    def native_plan(self) -> native.Plan:
        """The query encoded for the native kernel, on first use (so not at set-up)."""
        return native.plan(self)

    def make_context(
        self,
        graph,
        debi: DEBI,
        batch_edge_ids: set[int],
        positive: bool,
        shared_pool_cache: dict | None = None,
        arena: "EmbeddingArena | None" = None,
    ) -> EnumerationContext:
        """Build an enumeration context over ``graph`` (live, array view or shard scope)."""
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
            degree_requirements=self.degree_requirements(),
            shared_pool_cache=shared_pool_cache,
            arena=arena,
            native_plan=self.native_plan,
        )

    def degree_requirements(self) -> dict[int, list[tuple]] | None:
        """The f2/f3 table the kernel filters with, or None.

        The label-degree rules require distinct data edges per query edge,
        which only holds under injective matching; for homomorphism a single
        data edge may witness several query edges, so the filter would
        wrongly prune valid embeddings.
        """
        return self.degree_table if self.use_degree_filter and self.match_def.injective else None


# ---------------------------------------------------------------------- work decomposition
def decompose_batch(
    context: EnumerationContext,
    batch_edge_ids: Iterable[int],
) -> WorkUnits:
    """Build the work units for a batch (Section VI, "Work decomposition").

    A unit is created for every (updated edge, query edge) pair whose
    labels match.  Tree-edge units additionally require the DEBI bit to be
    set — if it is not, the edge cannot participate in any embedding and
    the unit would do no work.  Units come out batch-edge major, query-edge
    minor; scheduling, scan counters and embedding order all follow it.

    Every query edge is one boolean mask over the batch (ANDed with one
    ``column_mask`` for a tree edge): with the stock ``edge_matcher`` a
    comparison of label columns gathered once, with a custom one a call
    per pair (:meth:`EnumerationContext.edge_match_mask`).  With the stock
    matcher, a tree edge, the live graph and an in-memory DEBI it is one
    native call (:func:`repro.core.native.decompose`) instead.
    """
    query = context.query
    graph = context.graph
    tree = context.tree
    ids = np.fromiter(batch_edge_ids, dtype=np.int64)
    if ids.shape[0] == 0:
        return WorkUnits()
    stock = uses_default_edge_matcher(context.match_def)
    if stock and tree.tree_edges and context.native_plan is not None and (
        type(graph) is DynamicGraph and type(context.debi._bits) is BitMatrix
    ) and (lib := native.library()) is not None:
        return WorkUnits(*native.decompose(lib, graph, context.debi, context.native_plan.index, ids))
    if stock:
        src_labels, dst_labels = vertex_label_columns(
            graph,
            graph.endpoint_array(ids, take_dst=False),
            graph.endpoint_array(ids, take_dst=True),
        )
        edge_labels = graph.edge_labels(ids)
    matches = np.empty((ids.shape[0], query.num_edges), dtype=bool)
    for q_edge in query.edges():
        if stock:
            mask = default_edge_mask(query, q_edge, src_labels, dst_labels, edge_labels)
        else:
            mask = context.edge_match_mask(q_edge, ids)
        if tree.is_tree_edge(q_edge.index):
            mask &= context.debi.column_mask(ids, tree.tree_edge_for(q_edge.index).column)
        matches[:, q_edge.index] = mask
    # Row-major nonzero is batch-edge major, query-edge minor; a query
    # edge's index is its position in ``query.edges()``.
    rows, start_edges = np.nonzero(matches)
    return WorkUnits(ids[rows], start_edges)


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
        #: :func:`columnar_enumerate` calls whose numpy kernel this arena served
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


def extend_intersect(
    inv: np.ndarray,
    pool_ids: np.ndarray,
    pool_verts: np.ndarray,
    pool_sizes: np.ndarray,
    bound_nodes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batched extend/intersect step of the numpy kernel.

    Cross-joins the live embedding block against the step's flat
    candidate pool and applies the one predicate that depends on the
    joined row, vertex injectivity.  Everything that depends on the pool
    entry alone (DEBI bit, batch masking, root candidacy, degree filter)
    has already been applied to the pool by the driver.  Contiguous int64
    arrays in, contiguous int64 arrays out, no callables.

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
    """Apply the per-candidate predicates to the pool, before the join.

    Batch masking, root candidacy and the f2/f3 degree filter read only
    the candidate edge or the vertex it binds, never the partial
    embedding, and none of them charges a counter — so filtering each
    pool entry once rejects exactly the joined rows a row-at-a-time
    enumerator rejects one by one.
    """
    keep: np.ndarray | None = None
    if masked:
        keep = ~context.in_batch(pool_ids)
    if step.node == context.tree.root:
        is_root = context.debi.roots_mask(pool_verts)
        keep = is_root if keep is None else keep & is_root
    if context.degree_requirements is not None:
        verts = pool_verts if keep is None else pool_verts[keep]
        allowed = context.degree_mask(verts, step.node)
        if keep is None:
            keep = allowed
        else:
            keep[keep] = allowed
    if keep is None or keep.all():
        return pool_ids, pool_verts, pool_sizes
    return pool_ids[keep], pool_verts[keep], segment_counts(keep, pool_sizes)


def _witness_candidates(
    context: EnumerationContext,
    q_edge: QueryEdge,
    masked: bool,
    srcs: np.ndarray,
    dsts: np.ndarray,
    used: Iterable[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every data edge between the rows' bound endpoints, and which may witness ``q_edge``.

    Row ``r`` has ``srcs[r]`` and ``dsts[r]`` bound to the query edge's
    endpoints; ``used`` holds the edge ids the row may not reuse, one row
    of it per bound edge slot (no rows when the match is not injective).
    Returns ``(ids, rows, ok, sizes)``: row ``r`` owns ``sizes[r]``
    consecutive entries of ``ids`` in ascending order, ``rows`` names each
    entry's row and ``ok`` marks the entries that pass the batch mask, the
    reuse check and the edge matcher.
    """
    ids, sizes = context.graph.find_edges_batch(srcs, dsts)
    rows = np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)
    ok = context.edge_match_mask(q_edge, ids)
    if masked:
        ok &= ~context.in_batch(ids)
    for slot in used:
        ok &= ids != slot[rows]
    return ids, rows, ok, sizes


class _Frontier:
    """The live block of one start-edge group's partial embeddings, on an arena.

    Column ``c`` of the arena's front block is one partial embedding:
    ``nodes[i, c]`` is the data vertex bound to query node
    ``node_slots[i]`` and ``edges[j, c]`` the data edge bound to query
    edge ``edge_slots[j]``.  :meth:`take` is the only way the block
    changes: it selects columns of it and optionally binds one more node
    and/or edge slot.  The gather into the back block runs when the block
    is next read — a finished block whose rows nobody reads (the caller
    only counts) is never copied.
    """

    __slots__ = ("arena", "query", "n", "node_slots", "edge_slots", "_taken")

    def __init__(
        self,
        arena: EmbeddingArena,
        query: QueryGraph,
        nodes: dict[int, np.ndarray],
        edges: dict[int, np.ndarray],
    ) -> None:
        """Put the given rows, keyed by the query node / edge they bind, onto ``arena``."""
        self.arena = arena
        self.query = query
        self.node_slots = list(nodes)
        self.edge_slots = list(edges)
        self.n = int(edges[self.edge_slots[0]].shape[0])
        #: the take not gathered yet: (columns, new node row | None, new edge row | None)
        self._taken: tuple | None = None
        arena.begin(query.num_nodes, query.num_edges)
        arena.reserve(self.n)
        for block, rows in zip(arena.back(), (nodes, edges)):
            for slot, row in enumerate(rows.values()):
                block[slot, : self.n] = row
        arena.swap()

    def part(self, low: int, high: int) -> "_Frontier":
        """Columns ``low:high`` as a frontier of their own, on an arena of their own."""
        nodes = dict(zip(self.node_slots, self.nodes[:, low:high]))
        edges = dict(zip(self.edge_slots, self.edges[:, low:high]))
        return _Frontier(EmbeddingArena(), self.query, nodes, edges)

    @property
    def start_edge(self) -> int:
        return self.edge_slots[0]

    @property
    def nodes(self) -> np.ndarray:
        """The bound vertex rows, ``(len(node_slots), n)``."""
        self._gather()
        return self.arena.front()[0][: len(self.node_slots), : self.n]

    @property
    def edges(self) -> np.ndarray:
        """The bound edge rows, ``(len(edge_slots), n)``."""
        self._gather()
        return self.arena.front()[1][: len(self.edge_slots), : self.n]

    def node(self, query_node: int) -> np.ndarray:
        return self.nodes[self.node_slots.index(query_node)]

    def block(self, positive: bool) -> EmbeddingBlock:
        """The block's columns in ascending slot order, copied out of the arena."""
        node_slots, edge_slots = self.node_slots, self.edge_slots
        return EmbeddingBlock(
            self.start_edge, positive, tuple(sorted(node_slots)), tuple(sorted(edge_slots)),
            self.nodes[np.argsort(node_slots)],  # indexed by an array: numpy copies
            self.edges[np.argsort(edge_slots)],
        )

    def take(
        self,
        columns: np.ndarray,
        node: tuple[int, np.ndarray] | None = None,
        edge: tuple[int, np.ndarray] | None = None,
    ) -> None:
        """Keep ``columns`` (repeats fan a column out) and bind the given new slots."""
        self._gather()  # columns index the block as the last take left it
        self._taken = (columns, node and node[1], edge and edge[1])
        if node is not None:
            self.node_slots.append(node[0])
        if edge is not None:
            self.edge_slots.append(edge[0])
        self.n = int(columns.shape[0])

    def _gather(self) -> None:
        """Carry out the recorded take: front block -> back block, then swap."""
        if self._taken is None:
            return
        columns, new_node, new_edge = self._taken
        self._taken = None
        m = self.n
        nodes_f, edges_f = self.arena.front()
        self.arena.reserve(m)
        nodes_b, edges_b = self.arena.back()
        node_rows = len(self.node_slots) - (new_node is not None)
        edge_rows = len(self.edge_slots) - (new_edge is not None)
        for slot in range(node_rows):
            np.take(nodes_f[slot], columns, out=nodes_b[slot, :m])
        for slot in range(edge_rows):
            np.take(edges_f[slot], columns, out=edges_b[slot, :m])
        if new_node is not None:
            nodes_b[node_rows, :m] = new_node
        if new_edge is not None:
            edges_b[edge_rows, :m] = new_edge
        self.arena.swap()


def _verify(context: EnumerationContext, frontier: _Frontier, q_indexes: Iterable[int]) -> None:
    """Check (or bind) the query edges ``q_indexes``, whose endpoints every row has bound.

    One witness lookup per query edge for the whole block.  Without
    witness binding a row survives when some data edge witnesses the
    constraint; with it the row fans out, one column per witness, and the
    witness fills the query edge's slot.  ``candidates_scanned`` grows as
    a front-to-back scan of each row's run would: up to and including the
    first witness, or the whole run when there is none or all are bound.
    """
    match_def = context.match_def
    mask = context.masks.mask_for(frontier.start_edge)
    for q_index in q_indexes:
        if frontier.n == 0:
            return
        q_edge = context.query.edge(q_index)
        ids, rows, ok, sizes = _witness_candidates(
            context,
            q_edge,
            mask.is_masked(q_index),
            frontier.node(q_edge.src),
            frontier.node(q_edge.dst),
            frontier.edges if match_def.injective else (),
        )
        hits = np.flatnonzero(ok)
        context.candidates_scanned += int(ids.shape[0])
        if match_def.bind_witnesses:
            frontier.take(rows[hits], edge=(q_index, ids[hits]))
            continue
        hit_rows = rows[hits]
        first = np.ones(hits.shape[0], dtype=bool)
        first[1:] = hit_rows[1:] != hit_rows[:-1]
        hits, hit_rows = hits[first], hit_rows[first]
        # what lies behind a row's first witness is never read
        context.candidates_scanned -= int((np.cumsum(sizes)[hit_rows] - 1 - hits).sum())
        if hit_rows.shape[0] < frontier.n:
            frontier.take(hit_rows)


def _expand(
    context: EnumerationContext, frontier: _Frontier, steps: tuple[ExtensionStep, ...]
) -> Iterator[_Frontier]:
    """Run the matching-order ``steps`` on ``frontier``; yield it (or its runs) finished.

    A step fetches the pools of the whole frontier but joins at most
    :data:`MAX_LIVE` columns at a time: a wider frontier is cut into runs
    of columns that each finish the remaining steps before the next is
    joined, so the join temporaries and arena blocks held at once follow
    the run, not how far a hub fans a group out.  Same rows, order, charges.
    """
    mask = context.masks.mask_for(frontier.start_edge)
    for done, step in enumerate(steps):
        if frontier.n == 0:
            break
        uniq, inv = np.unique(frontier.node(step.anchor), return_inverse=True)
        pool = context.get_candidate_pools(step, uniq)
        pool = _push_down(context, step, mask.is_masked(step.tree_edge_index), *pool)
        lows = range(0, frontier.n, MAX_LIVE)
        for low in lows:
            run = frontier.part(low, low + MAX_LIVE) if len(lows) > 1 else frontier
            bound = run.nodes if context.match_def.injective else run.nodes[:0]
            parents, cand_ids, cand_verts = extend_intersect(inv[low : low + run.n], *pool, bound)
            run.take(parents, node=(step.node, cand_verts), edge=(step.tree_edge_index, cand_ids))
            _verify(context, run, step.verify_edges)
            if run is not frontier:
                yield from _expand(context, run, steps[done + 1 :])
        if len(lows) > 1:
            return
    yield frontier


def columnar_enumerate(
    context: EnumerationContext,
    units: WorkUnits,
    collect: bool = True,
    arena: "EmbeddingArena | None" = None,
) -> tuple[Embeddings, int]:
    """Run ``units`` through a kernel; return ``(embeddings, count)``.

    The native kernel takes the call when it loaded, the graph is a live
    :class:`DynamicGraph`, the DEBI an in-memory :class:`BitMatrix` and
    the definition runs no Python callable; the numpy kernel takes the
    rest.  Both return the same rows in the same order and charge the same.

    The numpy kernel emits one :class:`EmbeddingBlock` per start-edge
    group (per run of one that :func:`_expand` cut), copied out of the
    arena as it finishes.  With ``collect=False`` nothing is copied — a
    finished frontier nobody reads is not even gathered — unless an
    overridden ``accept`` has to see it.

    ``units`` are :func:`decompose_batch`'s: each unit's data edge already
    satisfies the edge matcher for its start edge (and, for a tree edge,
    has its DEBI bit).  Per group: pin the unit edges onto the start
    edge, verify the other query edges between its endpoints, then per
    matching-order step fetch the candidates of every distinct anchor at
    once, filter them (:func:`_push_down`), join
    (:func:`extend_intersect`) and verify the query edges the new node
    closes.  Predicates that charge no counter run wherever a whole
    column can be tested at once; the charging ones (pool fetches, witness
    scans) see exactly the rows a row-at-a-time backtracking enumerator
    would bring to them, so ``candidates_scanned`` equals that
    enumerator's to the digit (``tests/reference``).  Rows keep that
    enumerator's order too: within a group they are sorted by unit, then
    by the choice made at each step.
    """
    query = context.query
    graph = context.graph
    match_def = context.match_def
    injective = match_def.injective
    bind = match_def.bind_witnesses
    # An overridden accept is the one slow path: it needs Embedding records.
    custom_accept = type(match_def).accept is not MatchDefinition.accept
    stock = uses_default_edge_matcher(match_def) and not (bind or custom_accept)
    if stock and type(match_def).root_matcher is MatchDefinition.root_matcher and (
        type(graph) is DynamicGraph and type(context.debi._bits) is BitMatrix
    ) and (lib := native.library()) is not None:
        return _native_enumerate(lib, context, units, collect)
    if arena is None:
        arena = context.arena if context.arena is not None else EmbeddingArena(capacity=256)
    arena.batches_served += 1

    found = Embeddings()
    count = 0
    for start_edge, eids in units.groups():
        order = context.orders[start_edge]
        mask = context.masks.mask_for(start_edge)
        q_start = query.edge(start_edge)
        self_loop_query = q_start.src == q_start.dst

        # -- start pinning: every predicate here is chargeless, so each is
        # one mask over the group's unit edges.
        srcs = graph.endpoint_array(eids, False)
        dsts = graph.endpoint_array(eids, True)
        if self_loop_query:
            keep = srcs == dsts
        elif injective:
            keep = srcs != dsts
        else:
            keep = np.ones(eids.shape[0], dtype=bool)
        if mask.require_no_old_witness and not bind:
            # The pinned constraint already held before the batch: the node
            # mapping is not new (or, on deletes, not destroyed).
            _, rows, ok, _ = _witness_candidates(context, q_start, True, srcs, dsts, ())
            keep[rows[ok]] = False
        if context.degree_requirements is not None:
            pinned = np.flatnonzero(keep)
            keep[pinned] = context.degree_mask(srcs[pinned], q_start.src) & context.degree_mask(
                dsts[pinned], q_start.dst
            )
        if not keep.any():
            continue
        ends = {q_start.src: srcs[keep], q_start.dst: dsts[keep]}  # one key on a self-loop
        frontier = _Frontier(arena, query, ends, {start_edge: eids[keep]})
        _verify(context, frontier, order.start_verify_edges)
        for finished in _expand(context, frontier, order.steps):
            # -- emit: the one place a finished block leaves the arena
            n = finished.n
            if n and (collect or custom_accept):
                block = finished.block(context.positive)
                if custom_accept:
                    accepted = [match_def.accept(context, embedding) for embedding in block]
                    if not all(accepted):
                        block = block.take(np.flatnonzero(accepted))
                        n = len(block)
                if collect and n:
                    found.blocks.append(block)
            context.embeddings_found += n
            count += n
    return found, count


def _native_enumerate(
    lib, context: EnumerationContext, units: WorkUnits, collect: bool
) -> tuple[Embeddings, int]:
    """:func:`columnar_enumerate` as one native call; the pools it fetched are charged
    through the context's memos, so mixing native and numpy queries changes no charge."""
    plan = context.native_plan
    count, scanned, groups, rows, charges = native.run(
        lib, context.graph, context.debi, context.batch_edge_ids, plan.program, units, collect
    )
    context.candidates_scanned += scanned
    charges = charges[np.lexsort((charges[:, 1], charges[:, 0]))]
    keys, firsts = np.unique(charges[:, 0], return_index=True)
    for key, low, high in zip(keys.tolist(), firsts.tolist(), [*firsts[1:].tolist(), None]):
        context._charge_pools(plan.charge_keys[key], charges[low:high, 1], charges[low:high, 2])
    found = Embeddings()
    nodes = tuple(sorted(context.query.nodes()))  # a row: its vertices, then its edges
    for start, n, offset in groups.tolist() if collect else ():
        slots = plan.edge_slots[start]
        columns = rows[offset : offset + n * (len(nodes) + len(slots))].reshape(n, -1).T
        vertices, edges = columns[: len(nodes)].copy(), columns[len(nodes) :].copy()
        found.blocks.append(EmbeddingBlock(start, context.positive, nodes, slots, vertices, edges))
    context.embeddings_found += count
    return found, count


def columnar_enumerate_packed(
    context: EnumerationContext,
    units: WorkUnits,
    collect: bool = True,
    arena: "EmbeddingArena | None" = None,
) -> tuple[list[EmbeddingBlock], int]:
    """The pool workers' call: the same kernel, its blocks as the result-queue payload."""
    embeddings, count = columnar_enumerate(context, units, collect, arena)
    return embeddings.blocks, count
