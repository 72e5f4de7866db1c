"""Dynamic adjacency-list multigraph with label-partitioned candidate storage.

This is the data-graph storage layer described in Section II-A and the
"Memory recycling" paragraph of Section IV-A of the paper, extended with
the label-partitioned layout that makes candidate retrieval proportional
to the number of *matching* edges rather than to vertex degree:

* each vertex keeps its outgoing and incoming edge ids twice — once as a
  combined insertion-ordered list (wildcard scans, ``find_edges``) and
  once partitioned by edge label into growable int64 numpy arrays, so a
  labelled query-tree step fetches only same-label candidates in
  O(matches);
* per-vertex / per-label degrees fall out of the partition sizes, so the
  ``f2``/``f3`` label-degree filters are O(1) lookups;
* each edge *instance* has a unique ``edge_id`` used to address its
  attributes and its DEBI row; the endpoint columns are mirrored into
  flat numpy arrays so a whole candidate partition can be DEBI-filtered
  and endpoint-gathered in one vectorized call;
* when an edge is deleted it is located in its adjacency list and label
  partition, swapped with the last entry and popped (O(degree) locate,
  O(1) removal), and its id is pushed on the free list of its source
  vertex;
* when a new edge is later inserted at that vertex the id is reused,
  which keeps the number of edge placeholders — and therefore the DEBI
  size — from growing monotonically (Figure 17).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Iterator

import numpy as np

from repro.graph.edge import EdgeRecord
from repro.graph.stats import PlaceholderStats
from repro.utils.validation import GraphError

_EMPTY_IDS: list[int] = []
_EMPTY_ARRAY = np.empty(0, dtype=np.int64)


def expand_ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Indices of the half-open ranges ``[starts[i], starts[i] + sizes[i])``, concatenated.

    The one-gather replacement for a per-range slice-and-concatenate
    loop: ``array[expand_ranges(starts, sizes)]`` equals
    ``np.concatenate([array[s:s + n] for s, n in zip(starts, sizes)])``.
    """
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) - np.repeat(ends - sizes - starts, sizes)


def concat_candidate_pools(graph, anchors: np.ndarray, out: bool, label: int | None):
    """``candidate_pools`` for a graph facade that only answers per vertex.

    Calls ``graph.candidate_pool`` once per anchor, so per-vertex routing
    and ownership checks of the facade still run for every anchor.
    """
    pools = [
        np.asarray(graph.candidate_pool(vertex, out, label), dtype=np.int64)
        for vertex in anchors.tolist()
    ]
    sizes = np.fromiter(map(len, pools), dtype=np.int64, count=len(pools))
    return (np.concatenate(pools) if pools else _EMPTY_ARRAY), sizes


def _coalesce_ranges(indices: Iterable[int]) -> list[tuple[int, int]]:
    """Turn an index collection into sorted half-open ``(start, stop)`` runs."""
    ordered = sorted(indices)
    if not ordered:
        return []
    runs: list[tuple[int, int]] = []
    start = prev = ordered[0]
    for value in ordered[1:]:
        if value == prev + 1:
            prev = value
            continue
        runs.append((start, prev + 1))
        start = prev = value
    runs.append((start, prev + 1))
    return runs


class IntVector:
    """A growable int64 numpy array with amortized append and swap-pop delete.

    The storage unit of one ``(vertex, direction, label)`` adjacency
    partition.  ``view()`` exposes the live prefix as a zero-copy numpy
    slice, which is what the vectorized candidate pipeline consumes.
    """

    __slots__ = ("_data", "_n")

    def __init__(self, capacity: int = 4) -> None:
        self._data = np.empty(max(capacity, 1), dtype=np.int64)
        self._n = 0

    def append(self, value: int) -> None:
        if self._n == self._data.shape[0]:
            grown = np.empty(self._data.shape[0] * 2, dtype=np.int64)
            grown[: self._n] = self._data
            self._data = grown
        self._data[self._n] = value
        self._n += 1

    def extend(self, values) -> None:
        """Bulk append (amortized); ``values`` is any int64-coercible sequence."""
        arr = np.asarray(values, dtype=np.int64)
        needed = self._n + arr.shape[0]
        if needed > self._data.shape[0]:
            capacity = self._data.shape[0]
            while capacity < needed:
                capacity *= 2
            grown = np.empty(capacity, dtype=np.int64)
            grown[: self._n] = self._data[: self._n]
            self._data = grown
        self._data[self._n : needed] = arr
        self._n = needed

    def swap_pop(self, value: int) -> bool:
        """Remove one occurrence of ``value`` (swap-with-last); False if absent."""
        live = self._data[: self._n]
        hits = np.nonzero(live == value)[0]
        if hits.shape[0] == 0:
            return False
        self._n -= 1
        live[hits[0]] = self._data[self._n]
        return True

    def view(self) -> np.ndarray:
        """Zero-copy int64 view of the live entries (do not mutate)."""
        return self._data[: self._n]

    def tolist(self) -> list[int]:
        return self._data[: self._n].tolist()

    def __len__(self) -> int:
        return self._n


class DynamicGraph:
    """A directed labelled multigraph supporting streaming updates.

    Parameters
    ----------
    recycle_edge_ids:
        When True (default, the paper's design) edge ids of deleted edges
        are reused for later insertions at the same source vertex.  When
        False every insertion allocates a fresh id; this mode exists to
        reproduce the "without reclaiming" curve of Figure 17.
    """

    #: dirty-vertex fraction above which a full CSR rebuild beats splicing
    INCREMENTAL_EXPORT_MAX_DIRTY_FRACTION = 0.125

    def __init__(self, recycle_edge_ids: bool = True) -> None:
        self.recycle_edge_ids = recycle_edge_ids

        # Edge columns indexed by edge_id.  The Python lists serve the
        # scalar hot paths (EdgeRecord construction, find_edges); the
        # numpy mirrors serve the vectorized endpoint gather.
        self._src: list[int] = []
        self._dst: list[int] = []
        self._label: list[int] = []
        self._timestamp: list[float] = []
        self._alive: list[bool] = []
        self._src_col = np.empty(1024, dtype=np.int64)
        self._dst_col = np.empty(1024, dtype=np.int64)

        # Vertex state.  Combined lists keep insertion order (wildcard
        # pools, find_edges); partitions key edge ids by edge label.
        self._vertex_labels: dict[int, int] = {}
        self._vertex_order: list[int] = []
        self._vertex_position: dict[int, int] = {}
        self._out: dict[int, list[int]] = defaultdict(list)
        self._in: dict[int, list[int]] = defaultdict(list)
        self._out_by_label: dict[int, dict[int, IntVector]] = {}
        self._in_by_label: dict[int, dict[int, IntVector]] = {}

        # Edge-id recycling: free ids keyed by the source vertex that owned them.
        self._free_ids: dict[int, list[int]] = defaultdict(list)
        # Total ids across all free lists: lets the columnar insert path
        # skip the per-event recycling replay when nothing is recyclable.
        self._num_free_ids = 0

        # Resolution of (src, dst, label) triples to live edge ids (multi-edge aware).
        self._triple_index: dict[tuple[int, int, int], list[int]] = defaultdict(list)

        self._num_live_edges = 0
        self.stats = PlaceholderStats()

        # Per-epoch delta journal: everything touched since the last CSR
        # export.  Small batches then splice their changes into the cached
        # export (see export_csr_delta) instead of rebuilding O(V + E)
        # arrays from the Python adjacency structures.
        self._journal_edges: set[int] = set()
        self._journal_vertices: set[int] = set()
        self._csr_cache: "CSRSnapshot | None" = None
        # Monotone export counter: the shared-snapshot writer uses it to
        # detect interloping exports (anything that consumed the journal
        # between two publishes) before trusting a dirty-slice copy.
        self._export_count = 0

    # ------------------------------------------------------------------ pickling
    def __getstate__(self) -> dict:
        """Drop the transient CSR export cache when pickling (checkpoints).

        The cached snapshot is an optimisation keyed to the delta journal;
        a restored graph starts from a clean full-export state.  Everything
        else — including the edge-id free lists, which make replayed
        insertions allocate the same ids the original run used — survives
        the round trip.
        """
        state = self.__dict__.copy()
        state["_csr_cache"] = None
        state["_journal_edges"] = set()
        state["_journal_vertices"] = set()
        return state

    def __setstate__(self, state: dict) -> None:
        state.setdefault("_export_count", 0)
        self.__dict__.update(state)

    # ------------------------------------------------------------------ vertices
    def add_vertex(self, vertex: int, label: int = 0) -> None:
        """Register ``vertex`` with ``label``; later calls may not change the label."""
        existing = self._vertex_labels.get(vertex)
        if existing is None:
            self._vertex_position[vertex] = len(self._vertex_order)
            self._vertex_order.append(vertex)
            self._vertex_labels[vertex] = label
        elif existing != label and label != 0:
            raise GraphError(
                f"vertex {vertex} already has label {existing}, cannot relabel to {label}"
            )

    def has_vertex(self, vertex: int) -> bool:
        return vertex in self._vertex_labels

    def vertex_label(self, vertex: int) -> int:
        """Return the label of ``vertex`` (0 for unlabelled/unknown vertices)."""
        return self._vertex_labels.get(vertex, 0)

    def vertices(self) -> Iterator[int]:
        return iter(self._vertex_labels)

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_labels)

    # ------------------------------------------------------------------ edges
    def add_edge(
        self,
        src: int,
        dst: int,
        label: int = 0,
        timestamp: float = 0.0,
        src_label: int | None = None,
        dst_label: int | None = None,
        edge_id: int | None = None,
    ) -> int:
        """Insert a new edge instance and return its ``edge_id``.

        Parallel edges (same ``src``/``dst``/``label``) are distinct
        instances with distinct ids — this is the multigraph property the
        paper relies on for context-aware matching.

        ``edge_id`` forces the id instead of allocating one: the
        partitioned mutation API.  Engine shards share one global id
        space (a router-level allocator hands out ids, so DEBI rows and
        embedding identities agree across shards); a shard storing only
        part of that space pads the skipped ids with dead placeholder
        rows, exactly like deleted-but-unrecycled edges.
        """
        self.add_vertex(src, src_label if src_label is not None else self.vertex_label(src))
        self.add_vertex(dst, dst_label if dst_label is not None else self.vertex_label(dst))

        if edge_id is None:
            edge_id = self._allocate_id(src)
        elif edge_id < len(self._src) and self._alive[edge_id]:
            raise GraphError(f"edge id {edge_id} is already a live edge")
        else:
            while len(self._src) < edge_id:
                self._src.append(0)
                self._dst.append(0)
                self._label.append(0)
                self._timestamp.append(0.0)
                self._alive.append(False)
        if edge_id == len(self._src):
            self._src.append(src)
            self._dst.append(dst)
            self._label.append(label)
            self._timestamp.append(timestamp)
            self._alive.append(True)
        else:
            self._src[edge_id] = src
            self._dst[edge_id] = dst
            self._label[edge_id] = label
            self._timestamp[edge_id] = timestamp
            self._alive[edge_id] = True
        if edge_id >= self._src_col.shape[0]:
            self._src_col = self._grow_column(self._src_col, edge_id + 1)
            self._dst_col = self._grow_column(self._dst_col, edge_id + 1)
        self._src_col[edge_id] = src
        self._dst_col[edge_id] = dst

        self._out[src].append(edge_id)
        self._in[dst].append(edge_id)
        self._partition(self._out_by_label, src, label).append(edge_id)
        self._partition(self._in_by_label, dst, label).append(edge_id)
        self._triple_index[(src, dst, label)].append(edge_id)
        self._num_live_edges += 1
        self._journal_edges.add(edge_id)
        self._journal_vertices.add(src)
        self._journal_vertices.add(dst)
        self.stats.record_insert(placeholders=len(self._src), live=self._num_live_edges)
        return edge_id

    @staticmethod
    def _grow_column(column: np.ndarray, needed: int) -> np.ndarray:
        grown = np.empty(max(needed, column.shape[0] * 2), dtype=np.int64)
        grown[: column.shape[0]] = column
        return grown

    @staticmethod
    def _partition(by_label: dict[int, dict[int, IntVector]], vertex: int, label: int) -> IntVector:
        partitions = by_label.get(vertex)
        if partitions is None:
            partitions = by_label[vertex] = {}
        vec = partitions.get(label)
        if vec is None:
            vec = partitions[label] = IntVector()
        return vec

    def _allocate_id(self, src: int) -> int:
        if self.recycle_edge_ids:
            free = self._free_ids.get(src)
            if free:
                self.stats.record_recycle()
                self._num_free_ids -= 1
                return free.pop()
        return len(self._src)

    def delete_edge(self, edge_id: int) -> EdgeRecord:
        """Delete the edge instance ``edge_id`` and return its last record."""
        record = self.edge(edge_id)
        src, dst, label = record.src, record.dst, record.label

        self._remove_from_list(self._out[src], edge_id)
        self._remove_from_list(self._in[dst], edge_id)
        if not self._out_by_label[src][label].swap_pop(edge_id):
            raise GraphError(f"edge {edge_id} missing from out-label partition")
        if not self._in_by_label[dst][label].swap_pop(edge_id):
            raise GraphError(f"edge {edge_id} missing from in-label partition")
        self._remove_from_list(self._triple_index[(src, dst, label)], edge_id)
        if not self._triple_index[(src, dst, label)]:
            del self._triple_index[(src, dst, label)]

        self._alive[edge_id] = False
        self._num_live_edges -= 1
        if self.recycle_edge_ids:
            self._free_ids[src].append(edge_id)
            self._num_free_ids += 1
        self._journal_edges.add(edge_id)
        self._journal_vertices.add(src)
        self._journal_vertices.add(dst)
        self.stats.record_delete(placeholders=len(self._src), live=self._num_live_edges)
        return record

    def delete_edge_instance(self, src: int, dst: int, label: int = 0) -> EdgeRecord:
        """Delete the most recently inserted live edge matching the triple.

        Stream deletions are expressed as triples (the paper negates the
        endpoints on the wire); this resolves the triple to a concrete
        edge instance.
        """
        ids = self._triple_index.get((src, dst, label))
        if not ids:
            raise GraphError(f"no live edge ({src}, {dst}, {label}) to delete")
        return self.delete_edge(ids[-1])

    @staticmethod
    def _remove_from_list(lst: list[int], edge_id: int) -> None:
        # Swap-with-last removal, as described in the paper's memory
        # recycling paragraph: O(position) to find, O(1) to remove.
        try:
            idx = lst.index(edge_id)
        except ValueError as exc:
            raise GraphError(f"edge {edge_id} not present in adjacency list") from exc
        lst[idx] = lst[-1]
        lst.pop()

    # ------------------------------------------------------------------ accessors
    def edge(self, edge_id: int) -> EdgeRecord:
        """Return the :class:`EdgeRecord` for a *live* ``edge_id``."""
        if not self.is_alive(edge_id):
            raise GraphError(f"edge id {edge_id} is not a live edge")
        return EdgeRecord(
            edge_id,
            self._src[edge_id],
            self._dst[edge_id],
            self._label[edge_id],
            self._timestamp[edge_id],
        )

    def is_alive(self, edge_id: int) -> bool:
        return 0 <= edge_id < len(self._src) and self._alive[edge_id]

    def out_edges(self, vertex: int) -> list[int]:
        """Edge ids of live edges leaving ``vertex`` (do not mutate)."""
        return self._out.get(vertex, [])

    def in_edges(self, vertex: int) -> list[int]:
        """Edge ids of live edges entering ``vertex`` (do not mutate)."""
        return self._in.get(vertex, [])

    def out_edges_with_label(self, vertex: int, label: int) -> np.ndarray:
        """Live out-edges of ``vertex`` carrying ``label`` (zero-copy int64 view)."""
        partitions = self._out_by_label.get(vertex)
        if partitions is None:
            return _EMPTY_ARRAY
        vec = partitions.get(label)
        return _EMPTY_ARRAY if vec is None else vec.view()

    def in_edges_with_label(self, vertex: int, label: int) -> np.ndarray:
        """Live in-edges of ``vertex`` carrying ``label`` (zero-copy int64 view)."""
        partitions = self._in_by_label.get(vertex)
        if partitions is None:
            return _EMPTY_ARRAY
        vec = partitions.get(label)
        return _EMPTY_ARRAY if vec is None else vec.view()

    def candidate_pool(self, vertex: int, out: bool, label: int | None = None):
        """The candidate edge pool for one extension step.

        ``label=None`` (wildcard) returns the combined insertion-ordered
        list; a concrete label returns the zero-copy partition view, so a
        labelled step touches O(matching edges) instead of O(degree).
        """
        if label is None:
            return (self._out if out else self._in).get(vertex, _EMPTY_IDS)
        if out:
            return self.out_edges_with_label(vertex, label)
        return self.in_edges_with_label(vertex, label)

    def candidate_pools(self, anchors: np.ndarray, out: bool, label: int | None = None):
        """Batched :meth:`candidate_pool`: ``(flat_ids, sizes)`` for an anchor array.

        ``flat_ids`` is the anchors' pools concatenated in anchor order
        (each in :meth:`candidate_pool` order) and ``sizes[i]`` the length
        of anchor ``i``'s pool; unknown vertices and empty partitions
        contribute nothing.  One call per matching-order step replaces
        one :meth:`candidate_pool` call per distinct anchor.
        """
        vertices = anchors.tolist()
        if label is None:
            adjacency = self._out if out else self._in
            pools = [adjacency.get(v, _EMPTY_IDS) for v in vertices]
            sizes = np.fromiter(map(len, pools), dtype=np.int64, count=len(pools))
            flat = np.fromiter(
                chain.from_iterable(pools), dtype=np.int64, count=int(sizes.sum())
            )
            return flat, sizes
        by_label = self._out_by_label if out else self._in_by_label
        views = []
        for v in vertices:
            partitions = by_label.get(v)
            vec = None if partitions is None else partitions.get(label)
            views.append(_EMPTY_ARRAY if vec is None else vec.view())
        sizes = np.fromiter(map(len, views), dtype=np.int64, count=len(views))
        return (np.concatenate(views) if views else _EMPTY_ARRAY), sizes

    def endpoint_array(self, edge_ids: np.ndarray, take_dst: bool) -> np.ndarray:
        """Vectorized endpoint gather: dst (or src) vertex per edge id."""
        column = self._dst_col if take_dst else self._src_col
        return column[edge_ids]

    def endpoint_list(self, edge_ids, take_dst: bool) -> list[int]:
        """Scalar endpoint gather for small candidate lists."""
        column = self._dst if take_dst else self._src
        return [column[e] for e in edge_ids]

    def edge_labels(self, edge_ids) -> np.ndarray:
        """Edge-label gather for an id array, without building records."""
        lab = self._label
        ids = edge_ids.tolist() if hasattr(edge_ids, "tolist") else edge_ids
        return np.fromiter((lab[e] for e in ids), dtype=np.int64, count=len(ids))

    def incident_edges(self, vertex: int) -> Iterator[int]:
        """All live edge ids touching ``vertex`` (out first, then in)."""
        yield from self.out_edges(vertex)
        yield from self.in_edges(vertex)

    def out_degree(self, vertex: int) -> int:
        return len(self._out.get(vertex, ()))

    def in_degree(self, vertex: int) -> int:
        return len(self._in.get(vertex, ()))

    def degree(self, vertex: int) -> int:
        return self.out_degree(vertex) + self.in_degree(vertex)

    def out_label_degree(self, vertex: int, label: int) -> int:
        """Number of live out-edges of ``vertex`` carrying ``label`` (O(1))."""
        partitions = self._out_by_label.get(vertex)
        if partitions is None:
            return 0
        vec = partitions.get(label)
        return 0 if vec is None else len(vec)

    def in_label_degree(self, vertex: int, label: int) -> int:
        """Number of live in-edges of ``vertex`` carrying ``label`` (O(1))."""
        partitions = self._in_by_label.get(vertex)
        if partitions is None:
            return 0
        vec = partitions.get(label)
        return 0 if vec is None else len(vec)

    def edges(self) -> Iterator[EdgeRecord]:
        """Iterate over all live edge records."""
        for edge_id in range(len(self._src)):
            if self._alive[edge_id]:
                yield EdgeRecord(
                    edge_id,
                    self._src[edge_id],
                    self._dst[edge_id],
                    self._label[edge_id],
                    self._timestamp[edge_id],
                )

    def find_edges(self, src: int, dst: int, label: int | None = None) -> list[int]:
        """Return live edge ids from ``src`` to ``dst`` (optionally with ``label``)."""
        if label is not None:
            return list(self._triple_index.get((src, dst, label), ()))
        return [e for e in self._out.get(src, ()) if self._dst[e] == dst]

    @property
    def num_edges(self) -> int:
        """Number of currently live edge instances."""
        return self._num_live_edges

    @property
    def num_placeholders(self) -> int:
        """Number of edge slots ever allocated (live + dead, i.e. DEBI rows)."""
        return len(self._src)

    # ------------------------------------------------------------------ bulk helpers
    def apply_insert_columns(
        self,
        src,
        dst,
        label=None,
        timestamp=None,
        src_label=None,
        dst_label=None,
        edge_ids=None,
    ) -> list[int]:
        """Insert a whole batch from contiguous columns; returns the edge ids.

        The columnar counterpart of calling :meth:`add_edge` per event.
        Columns are int64 (``timestamp`` float64) arrays of equal length;
        missing columns default to zeros.  The resulting graph state —
        including the **edge-id sequence** — is bit-identical to the
        per-edge path: the per-source LIFO free-list replay below hands
        out exactly the ids :meth:`_allocate_id` would, and fresh ids are
        consecutive, which is what lets the fresh majority of a batch be
        appended with one bulk extend per column.

        ``edge_ids`` forces the ids (the sharded path, where a router-level
        allocator owns the id space); forced ids follow the same pad /
        overwrite / liveness rules as :meth:`add_edge`.
        """
        src_arr = np.asarray(src, dtype=np.int64)
        n = int(src_arr.shape[0])
        if n == 0:
            return []
        dst_arr = np.asarray(dst, dtype=np.int64)
        label_arr = (
            np.zeros(n, dtype=np.int64) if label is None
            else np.asarray(label, dtype=np.int64)
        )
        ts_arr = (
            np.zeros(n, dtype=np.float64) if timestamp is None
            else np.asarray(timestamp, dtype=np.float64)
        )
        slab_arr = (
            np.zeros(n, dtype=np.int64) if src_label is None
            else np.asarray(src_label, dtype=np.int64)
        )
        dlab_arr = (
            np.zeros(n, dtype=np.int64) if dst_label is None
            else np.asarray(dst_label, dtype=np.int64)
        )

        src_list = src_arr.tolist()
        dst_list = dst_arr.tolist()
        label_list = label_arr.tolist()
        ts_list = ts_arr.tolist()

        # -- vertices (same per-event src-then-dst order and relabel rules
        #    as add_vertex, so _vertex_order comes out identical)
        labels = self._vertex_labels
        order = self._vertex_order
        position = self._vertex_position
        slab_list = slab_arr.tolist()
        dlab_list = dlab_arr.tolist()
        # Steady-state fast path: every endpoint already registered.  The
        # per-event loop then only *checks* labels, never mutates, so the
        # whole pass collapses to one vectorized conflict test per batch
        # (falling back to the loop to raise the per-event error on a hit).
        uniq_v, inverse = np.unique(
            np.concatenate([src_arr, dst_arr]), return_inverse=True
        )
        known = [labels.get(v) for v in uniq_v.tolist()]
        if None not in known:
            existing_ev = np.asarray(known, dtype=np.int64)[inverse]
            ev_lab = np.concatenate([slab_arr, dlab_arr])
            conflicts = bool(((ev_lab != 0) & (existing_ev != ev_lab)).any())
        else:
            conflicts = True  # new vertices: take the registering loop
        if conflicts:
            for i in range(n):
                for vertex, lab in (
                    (src_list[i], slab_list[i]),
                    (dst_list[i], dlab_list[i]),
                ):
                    existing = labels.get(vertex)
                    if existing is None:
                        position[vertex] = len(order)
                        order.append(vertex)
                        labels[vertex] = lab
                    elif existing != lab and lab != 0:
                        raise GraphError(
                            f"vertex {vertex} already has label {existing}, "
                            f"cannot relabel to {lab}"
                        )

        # -- edge-id assignment + edge columns
        old_len = len(self._src)
        stats = self.stats
        if edge_ids is not None:
            ids_arr = np.asarray(edge_ids, dtype=np.int64)
            ids_list = ids_arr.tolist()
            # forced ids (shard path): replay add_edge's pad/overwrite rules
            # event by event — gaps and overwrites are order-sensitive
            for i, eid in enumerate(ids_list):
                if eid < len(self._src) and self._alive[eid]:
                    raise GraphError(f"edge id {eid} is already a live edge")
                while len(self._src) < eid:
                    self._src.append(0)
                    self._dst.append(0)
                    self._label.append(0)
                    self._timestamp.append(0.0)
                    self._alive.append(False)
                if eid == len(self._src):
                    self._src.append(src_list[i])
                    self._dst.append(dst_list[i])
                    self._label.append(label_list[i])
                    self._timestamp.append(ts_list[i])
                    self._alive.append(True)
                else:
                    self._src[eid] = src_list[i]
                    self._dst[eid] = dst_list[i]
                    self._label[eid] = label_list[i]
                    self._timestamp[eid] = ts_list[i]
                    self._alive[eid] = True
        else:
            # replay _allocate_id exactly: per-source LIFO recycling first,
            # then consecutive fresh ids starting at the current length
            ids_arr = np.empty(n, dtype=np.int64)
            next_id = old_len
            num_recycled = 0
            if self.recycle_edge_ids and self._num_free_ids > 0:
                free_ids = self._free_ids
                for i, s in enumerate(src_list):
                    free = free_ids.get(s)
                    if free:
                        ids_arr[i] = free.pop()
                        stats.record_recycle()
                        num_recycled += 1
                    else:
                        ids_arr[i] = next_id
                        next_id += 1
                self._num_free_ids -= num_recycled
            else:
                ids_arr[:] = np.arange(old_len, old_len + n, dtype=np.int64)
                next_id = old_len + n
            ids_list = ids_arr.tolist()
            if num_recycled == 0:
                self._src.extend(src_list)
                self._dst.extend(dst_list)
                self._label.extend(label_list)
                self._timestamp.extend(ts_list)
                self._alive.extend([True] * n)
            else:
                fresh = (ids_arr >= old_len).tolist()
                self._src.extend(
                    [src_list[i] for i in range(n) if fresh[i]]
                )
                self._dst.extend(
                    [dst_list[i] for i in range(n) if fresh[i]]
                )
                self._label.extend(
                    [label_list[i] for i in range(n) if fresh[i]]
                )
                self._timestamp.extend(
                    [ts_list[i] for i in range(n) if fresh[i]]
                )
                self._alive.extend([True] * (n - num_recycled))
                for i in range(n):
                    if fresh[i]:
                        continue
                    eid = ids_list[i]
                    self._src[eid] = src_list[i]
                    self._dst[eid] = dst_list[i]
                    self._label[eid] = label_list[i]
                    self._timestamp[eid] = ts_list[i]
                    self._alive[eid] = True

        # -- numpy endpoint mirrors: grow once, scatter once
        max_id = int(ids_arr.max())
        if max_id >= self._src_col.shape[0]:
            self._src_col = self._grow_column(self._src_col, max_id + 1)
            self._dst_col = self._grow_column(self._dst_col, max_id + 1)
        self._src_col[ids_arr] = src_arr
        self._dst_col[ids_arr] = dst_arr

        # -- adjacency: one tight pass, everything hoisted.  Streaming
        #    batches rarely repeat a (vertex, label) pair often enough for
        #    group-then-extend to pay for building the groups, so this
        #    appends straight into the target structures — the same five
        #    appends add_edge performs, shorn of its per-event overhead
        #    (id allocation, stats, journal and column scatter all happen
        #    in bulk above/below).
        out_adj = self._out
        in_adj = self._in
        out_by_label = self._out_by_label
        in_by_label = self._in_by_label
        triple_index = self._triple_index
        for eid, s, d, lb in zip(ids_list, src_list, dst_list, label_list):
            out_adj[s].append(eid)
            in_adj[d].append(eid)
            parts = out_by_label.get(s)
            if parts is None:
                parts = out_by_label[s] = {}
            vec = parts.get(lb)
            if vec is None:
                vec = parts[lb] = IntVector()
            vec.append(eid)
            parts = in_by_label.get(d)
            if parts is None:
                parts = in_by_label[d] = {}
            vec = parts.get(lb)
            if vec is None:
                vec = parts[lb] = IntVector()
            vec.append(eid)
            triple_index[(s, d, lb)].append(eid)

        # -- accounting (bulk-equivalent to the per-event record_insert calls:
        #    placeholders and live counts grow monotonically within an insert
        #    batch, so the running peak maxes equal the final-value maxes)
        self._num_live_edges += n
        self._journal_edges.update(ids_list)
        self._journal_vertices.update(src_list)
        self._journal_vertices.update(dst_list)
        stats.inserts += n
        stats.peak_placeholders = max(stats.peak_placeholders, len(self._src))
        stats.peak_live = max(stats.peak_live, self._num_live_edges)
        return ids_list

    def apply_delete_columns(self, edge_ids) -> list[EdgeRecord]:
        """Delete a batch of edge ids (in order) and return their records.

        Deletion is inherently order-sensitive — swap-pop positions and
        the per-source free-list order both depend on the event sequence —
        so this delegates to :meth:`delete_edge` per id; the batch win on
        the delete side lives in the bulk DEBI mask capture / row clears
        that the pipeline performs around this call.
        """
        ids = np.asarray(edge_ids, dtype=np.int64)
        return [self.delete_edge(eid) for eid in ids.tolist()]

    def apply_insertions(self, triples: Iterable[tuple]) -> list[int]:
        """Insert many edges; each item is (src, dst, label[, timestamp[, src_label, dst_label]]).

        .. deprecated::
            Thin shim over :meth:`apply_insert_columns`, kept for callers
            that still hold per-event tuples.  New code should decode the
            batch into columns once (``EventColumns``) and call the
            columnar API directly.
        """
        rows = [tuple(item) for item in triples]
        n = len(rows)
        if n == 0:
            return []
        src = np.fromiter((r[0] for r in rows), dtype=np.int64, count=n)
        dst = np.fromiter((r[1] for r in rows), dtype=np.int64, count=n)
        label = np.fromiter(
            (r[2] if len(r) > 2 else 0 for r in rows), dtype=np.int64, count=n
        )
        timestamp = np.fromiter(
            (r[3] if len(r) > 3 else 0.0 for r in rows), dtype=np.float64, count=n
        )
        src_label = np.fromiter(
            (r[4] if len(r) > 4 else 0 for r in rows), dtype=np.int64, count=n
        )
        dst_label = np.fromiter(
            (r[5] if len(r) > 5 else 0 for r in rows), dtype=np.int64, count=n
        )
        return self.apply_insert_columns(
            src, dst, label, timestamp, src_label, dst_label
        )

    def copy(self) -> "DynamicGraph":
        """Deep copy of the live graph (dead placeholders are preserved)."""
        clone = DynamicGraph(recycle_edge_ids=self.recycle_edge_ids)
        clone._src = list(self._src)
        clone._dst = list(self._dst)
        clone._label = list(self._label)
        clone._timestamp = list(self._timestamp)
        clone._alive = list(self._alive)
        clone._src_col = self._src_col.copy()
        clone._dst_col = self._dst_col.copy()
        clone._vertex_labels = dict(self._vertex_labels)
        clone._vertex_order = list(self._vertex_order)
        clone._vertex_position = dict(self._vertex_position)
        clone._out = defaultdict(list, {k: list(v) for k, v in self._out.items()})
        clone._in = defaultdict(list, {k: list(v) for k, v in self._in.items()})
        for source, target in (
            (self._out_by_label, clone._out_by_label),
            (self._in_by_label, clone._in_by_label),
        ):
            for vertex, partitions in source.items():
                copied = target[vertex] = {}
                for label, vec in partitions.items():
                    fresh = IntVector(capacity=max(len(vec), 1))
                    fresh._data[: len(vec)] = vec.view()
                    fresh._n = len(vec)
                    copied[label] = fresh
        clone._free_ids = defaultdict(list, {k: list(v) for k, v in self._free_ids.items()})
        clone._num_free_ids = self._num_free_ids
        clone._triple_index = defaultdict(list, {k: list(v) for k, v in self._triple_index.items()})
        clone._num_live_edges = self._num_live_edges
        return clone

    # ------------------------------------------------------------------ flat-array export
    def export_csr(self) -> "CSRSnapshot":
        """Export the live graph as flat CSR numpy arrays.

        The arrays are the transport format of the shared-memory parallel
        backend (see :mod:`repro.core.shared_snapshot`): they can be copied
        into a ``multiprocessing.shared_memory`` segment with one memcpy
        each and re-attached zero-copy in worker processes, where
        :class:`CSRGraphView` turns them back into the read API of this
        class.  Two layouts ship side by side so that a view enumerates
        candidates in exactly the same order as the live graph:

        * the combined CSR (``out_indptr``/``out_indices`` and the ``in_``
          pair) preserves adjacency-list insertion order (wildcard pools);
        * the label-partitioned CSR groups each vertex's edge ids by edge
          label in partition order: ``*_group_vptr`` maps a vertex to its
          range of ``(label, slice)`` groups, ``*_group_labels`` /
          ``*_group_indptr`` describe each group, and ``*_label_indices``
          holds the edge ids (labelled pools).

        The export is cached and the delta journal reset, so a following
        :meth:`export_csr_delta` only has to splice in what changed.
        """
        vertex_ids = self._vertex_order
        num_vertices = len(vertex_ids)

        def build_csr(adj: dict[int, list[int]]) -> tuple[np.ndarray, np.ndarray]:
            indptr = np.zeros(num_vertices + 1, dtype=np.int64)
            for i, vid in enumerate(vertex_ids):
                indptr[i + 1] = indptr[i] + len(adj.get(vid, ()))
            indices = np.fromiter(
                (eid for vid in vertex_ids for eid in adj.get(vid, ())),
                dtype=np.int64,
                count=int(indptr[-1]),
            )
            return indptr, indices

        def build_label_csr(
            by_label: dict[int, dict[int, IntVector]],
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
            group_vptr = np.zeros(num_vertices + 1, dtype=np.int64)
            group_labels: list[int] = []
            group_sizes: list[int] = []
            chunks: list[np.ndarray] = []
            for i, vid in enumerate(vertex_ids):
                partitions = by_label.get(vid)
                if partitions:
                    for label, vec in partitions.items():
                        if len(vec) == 0:
                            continue
                        group_labels.append(label)
                        group_sizes.append(len(vec))
                        chunks.append(vec.view())
                group_vptr[i + 1] = len(group_labels)
            group_indptr = np.zeros(len(group_labels) + 1, dtype=np.int64)
            np.cumsum(group_sizes, out=group_indptr[1:])
            indices = (
                np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            )
            return (
                group_vptr,
                np.array(group_labels, dtype=np.int64),
                group_indptr,
                indices,
            )

        out_indptr, out_indices = build_csr(self._out)
        in_indptr, in_indices = build_csr(self._in)
        out_group_vptr, out_group_labels, out_group_indptr, out_label_indices = (
            build_label_csr(self._out_by_label)
        )
        in_group_vptr, in_group_labels, in_group_indptr, in_label_indices = (
            build_label_csr(self._in_by_label)
        )
        self._export_count += 1
        snapshot = CSRSnapshot(
            vertex_ids=np.array(vertex_ids, dtype=np.int64),
            vertex_labels=np.fromiter(
                self._vertex_labels.values(), dtype=np.int64, count=num_vertices
            ),
            out_indptr=out_indptr,
            out_indices=out_indices,
            in_indptr=in_indptr,
            in_indices=in_indices,
            out_group_vptr=out_group_vptr,
            out_group_labels=out_group_labels,
            out_group_indptr=out_group_indptr,
            out_label_indices=out_label_indices,
            in_group_vptr=in_group_vptr,
            in_group_labels=in_group_labels,
            in_group_indptr=in_group_indptr,
            in_label_indices=in_label_indices,
            edge_src=self._src_col[: len(self._src)].copy(),
            edge_dst=self._dst_col[: len(self._dst)].copy(),
            edge_label=np.array(self._label, dtype=np.int64),
            edge_timestamp=np.array(self._timestamp, dtype=np.float64),
            edge_alive=np.array(self._alive, dtype=np.uint8),
            num_live_edges=self._num_live_edges,
        )
        self._csr_cache = snapshot
        self._journal_edges.clear()
        self._journal_vertices.clear()
        return snapshot

    def export_csr_delta(self) -> "CSRSnapshot":
        """Export the live graph, splicing small deltas into the cached export.

        The delta journal records every edge id and endpoint vertex
        touched since the last export.  When the dirty-vertex set is a
        small fraction of the graph the cached arrays are patched —
        unchanged per-vertex slices are block-copied (memcpy) and only
        the dirty vertices' adjacency is rebuilt from the Python
        structures — instead of the full O(V + E) Python-loop rebuild of
        :meth:`export_csr`.  Falls back to the full rebuild when there is
        no cache or the batch touched too much of the graph.  The result
        is always element-identical to :meth:`export_csr`.
        """
        prev = self._csr_cache
        num_vertices = len(self._vertex_order)
        if (
            prev is None
            or num_vertices == 0
            or len(self._journal_vertices)
            > num_vertices * self.INCREMENTAL_EXPORT_MAX_DIRTY_FRACTION
        ):
            return self.export_csr()
        snapshot = self._splice_csr(prev)
        self._export_count += 1
        self._csr_cache = snapshot
        self._journal_edges.clear()
        self._journal_vertices.clear()
        return snapshot

    @property
    def export_count(self) -> int:
        """Number of CSR exports performed (full or spliced) over this graph's life."""
        return self._export_count

    def _splice_csr(self, prev: "CSRSnapshot") -> "CSRSnapshot":
        """Build a fresh :class:`CSRSnapshot` by patching ``prev`` with the journal."""
        order = self._vertex_order
        num_vertices = len(order)
        prev_v = prev.vertex_ids.shape[0]

        # Vertices are append-only (never relabelled, never removed), so
        # the previous vertex arrays are a prefix of the new ones.
        if num_vertices == prev_v:
            vertex_ids = prev.vertex_ids
            vertex_labels = prev.vertex_labels
        else:
            tail = order[prev_v:]
            vertex_ids = np.concatenate(
                [prev.vertex_ids, np.array(tail, dtype=np.int64)]
            )
            vertex_labels = np.concatenate(
                [
                    prev.vertex_labels,
                    np.array([self._vertex_labels[v] for v in tail], dtype=np.int64),
                ]
            )

        position = self._vertex_position
        dirty_pos = sorted(
            p for p in (position[v] for v in self._journal_vertices) if p < prev_v
        )

        out_indptr, out_indices = self._splice_combined(
            self._out, prev.out_indptr, prev.out_indices, dirty_pos, prev_v
        )
        in_indptr, in_indices = self._splice_combined(
            self._in, prev.in_indptr, prev.in_indices, dirty_pos, prev_v
        )
        out_label = self._splice_label_csr(
            self._out_by_label,
            prev.out_group_vptr,
            prev.out_group_labels,
            prev.out_group_indptr,
            prev.out_label_indices,
            dirty_pos,
            prev_v,
        )
        in_label = self._splice_label_csr(
            self._in_by_label,
            prev.in_group_vptr,
            prev.in_group_labels,
            prev.in_group_indptr,
            prev.in_label_indices,
            dirty_pos,
            prev_v,
        )

        prev_n = prev.edge_src.shape[0]
        n = len(self._src)
        dirty_old = [e for e in self._journal_edges if e < prev_n]
        edge_src = self._patch_numpy_column(prev.edge_src, self._src_col, n, dirty_old)
        edge_dst = self._patch_numpy_column(prev.edge_dst, self._dst_col, n, dirty_old)
        edge_label = self._patch_list_column(
            prev.edge_label, self._label, n, dirty_old, np.int64
        )
        edge_timestamp = self._patch_list_column(
            prev.edge_timestamp, self._timestamp, n, dirty_old, np.float64
        )
        edge_alive = self._patch_list_column(
            prev.edge_alive, self._alive, n, dirty_old, np.uint8
        )

        # Dirty-slice spec for the shared-snapshot writer.  Everything the
        # splice rebuilt lives at or after the first dirty vertex position
        # (per-array suffixes); edge columns change only at patched old ids
        # plus the appended tail.  Conservative supersets are always safe.
        first_dirty = dirty_pos[0] if dirty_pos else prev_v

        def suffix(start, stop) -> list[tuple[int, int]]:
            start, stop = int(start), int(stop)
            return [(start, stop)] if start < stop else []

        edge_ranges = _coalesce_ranges(dirty_old)
        if n > prev_n:
            edge_ranges.append((prev_n, n))
        out_g0 = int(out_label[0][first_dirty])
        in_g0 = int(in_label[0][first_dirty])
        dirty_spec: dict = {
            "vertex_ids": suffix(prev_v, num_vertices),
            "vertex_labels": suffix(prev_v, num_vertices),
            "out_indptr": suffix(first_dirty, num_vertices + 1),
            "in_indptr": suffix(first_dirty, num_vertices + 1),
            "out_indices": suffix(out_indptr[first_dirty], out_indices.shape[0]),
            "in_indices": suffix(in_indptr[first_dirty], in_indices.shape[0]),
            "out_group_vptr": suffix(first_dirty, num_vertices + 1),
            "out_group_labels": suffix(out_g0, out_label[1].shape[0]),
            "out_group_indptr": suffix(out_g0, out_label[2].shape[0]),
            "out_label_indices": suffix(
                out_label[2][out_g0], out_label[3].shape[0]
            ),
            "in_group_vptr": suffix(first_dirty, num_vertices + 1),
            "in_group_labels": suffix(in_g0, in_label[1].shape[0]),
            "in_group_indptr": suffix(in_g0, in_label[2].shape[0]),
            "in_label_indices": suffix(in_label[2][in_g0], in_label[3].shape[0]),
            "edge_src": edge_ranges,
            "edge_dst": edge_ranges,
            "edge_label": edge_ranges,
            "edge_timestamp": edge_ranges,
            "edge_alive": edge_ranges,
        }

        return CSRSnapshot(
            vertex_ids=vertex_ids,
            vertex_labels=vertex_labels,
            out_indptr=out_indptr,
            out_indices=out_indices,
            in_indptr=in_indptr,
            in_indices=in_indices,
            out_group_vptr=out_label[0],
            out_group_labels=out_label[1],
            out_group_indptr=out_label[2],
            out_label_indices=out_label[3],
            in_group_vptr=in_label[0],
            in_group_labels=in_label[1],
            in_group_indptr=in_label[2],
            in_label_indices=in_label[3],
            edge_src=edge_src,
            edge_dst=edge_dst,
            edge_label=edge_label,
            edge_timestamp=edge_timestamp,
            edge_alive=edge_alive,
            num_live_edges=self._num_live_edges,
            dirty=dirty_spec,
        )

    def _splice_combined(
        self,
        adj: dict[int, list[int]],
        prev_indptr: np.ndarray,
        prev_indices: np.ndarray,
        dirty_pos: list[int],
        prev_v: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Splice one combined CSR: dirty rows rebuilt, clean runs memcpy'd."""
        order = self._vertex_order
        num_vertices = len(order)
        lengths = np.diff(prev_indptr)
        if dirty_pos:
            lengths = lengths.copy()
            lengths[dirty_pos] = [
                len(adj.get(order[p], _EMPTY_IDS)) for p in dirty_pos
            ]
        if num_vertices > prev_v:
            lengths = np.concatenate(
                [
                    lengths,
                    np.array(
                        [len(adj.get(v, _EMPTY_IDS)) for v in order[prev_v:]],
                        dtype=np.int64,
                    ),
                ]
            )
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        run_start = 0
        for p in dirty_pos:
            if p > run_start:
                indices[indptr[run_start] : indptr[p]] = prev_indices[
                    prev_indptr[run_start] : prev_indptr[p]
                ]
            row = adj.get(order[p], _EMPTY_IDS)
            if row:
                indices[indptr[p] : indptr[p + 1]] = row
            run_start = p + 1
        if prev_v > run_start:
            indices[indptr[run_start] : indptr[prev_v]] = prev_indices[
                prev_indptr[run_start] : prev_indptr[prev_v]
            ]
        for i in range(prev_v, num_vertices):
            row = adj.get(order[i], _EMPTY_IDS)
            if row:
                indices[indptr[i] : indptr[i + 1]] = row
        return indptr, indices

    def _splice_label_csr(
        self,
        by_label: dict[int, dict[int, IntVector]],
        prev_gvptr: np.ndarray,
        prev_glabels: np.ndarray,
        prev_gindptr: np.ndarray,
        prev_indices: np.ndarray,
        dirty_pos: list[int],
        prev_v: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Splice one label-partitioned CSR at (vertex, label)-group granularity."""
        order = self._vertex_order
        num_vertices = len(order)

        def vertex_groups(vertex: int) -> tuple[list[int], list[IntVector]]:
            partitions = by_label.get(vertex)
            if not partitions:
                return [], []
            labels: list[int] = []
            vecs: list[IntVector] = []
            for label, vec in partitions.items():
                if len(vec):
                    labels.append(label)
                    vecs.append(vec)
            return labels, vecs

        gcounts = np.diff(prev_gvptr)
        prev_gsizes = np.diff(prev_gindptr)
        dirty_groups: dict[int, tuple[list[int], list[IntVector]]] = {}
        if dirty_pos:
            gcounts = gcounts.copy()
            for p in dirty_pos:
                groups = vertex_groups(order[p])
                dirty_groups[p] = groups
                gcounts[p] = len(groups[0])
        tail_groups = [vertex_groups(v) for v in order[prev_v:]]
        if tail_groups:
            gcounts = np.concatenate(
                [
                    gcounts,
                    np.array([len(labels) for labels, _ in tail_groups], dtype=np.int64),
                ]
            )
        gvptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(gcounts, out=gvptr[1:])
        total_groups = int(gvptr[-1])
        glabels = np.empty(total_groups, dtype=np.int64)
        gsizes = np.empty(total_groups, dtype=np.int64)

        def fill_vertex_groups(p: int, groups: tuple[list[int], list[IntVector]]) -> None:
            labels, vecs = groups
            g0 = int(gvptr[p])
            for j, (label, vec) in enumerate(zip(labels, vecs)):
                glabels[g0 + j] = label
                gsizes[g0 + j] = len(vec)

        run_start = 0
        for p in dirty_pos:
            if p > run_start:
                glabels[gvptr[run_start] : gvptr[p]] = prev_glabels[
                    prev_gvptr[run_start] : prev_gvptr[p]
                ]
                gsizes[gvptr[run_start] : gvptr[p]] = prev_gsizes[
                    prev_gvptr[run_start] : prev_gvptr[p]
                ]
            fill_vertex_groups(p, dirty_groups[p])
            run_start = p + 1
        if prev_v > run_start:
            glabels[gvptr[run_start] : gvptr[prev_v]] = prev_glabels[
                prev_gvptr[run_start] : prev_gvptr[prev_v]
            ]
            gsizes[gvptr[run_start] : gvptr[prev_v]] = prev_gsizes[
                prev_gvptr[run_start] : prev_gvptr[prev_v]
            ]
        for i, groups in enumerate(tail_groups):
            fill_vertex_groups(prev_v + i, groups)

        gindptr = np.zeros(total_groups + 1, dtype=np.int64)
        np.cumsum(gsizes, out=gindptr[1:])
        indices = np.empty(int(gindptr[-1]), dtype=np.int64)

        def fill_vertex_indices(p: int, groups: tuple[list[int], list[IntVector]]) -> None:
            _, vecs = groups
            g0 = int(gvptr[p])
            for j, vec in enumerate(vecs):
                indices[gindptr[g0 + j] : gindptr[g0 + j + 1]] = vec.view()

        run_start = 0
        for p in dirty_pos:
            if p > run_start:
                src0 = prev_gindptr[prev_gvptr[run_start]]
                src1 = prev_gindptr[prev_gvptr[p]]
                dst0 = gindptr[gvptr[run_start]]
                indices[dst0 : dst0 + (src1 - src0)] = prev_indices[src0:src1]
            fill_vertex_indices(p, dirty_groups[p])
            run_start = p + 1
        if prev_v > run_start:
            src0 = prev_gindptr[prev_gvptr[run_start]]
            src1 = prev_gindptr[prev_gvptr[prev_v]]
            dst0 = gindptr[gvptr[run_start]]
            indices[dst0 : dst0 + (src1 - src0)] = prev_indices[src0:src1]
        for i, groups in enumerate(tail_groups):
            fill_vertex_indices(prev_v + i, groups)
        return gvptr, glabels, gindptr, indices

    @staticmethod
    def _patch_numpy_column(
        prev_col: np.ndarray, live_col: np.ndarray, n: int, dirty_old: list[int]
    ) -> np.ndarray:
        """Edge column rebuilt as: prev prefix (memcpy) + dirty patches + new tail."""
        prev_n = prev_col.shape[0]
        col = np.empty(n, dtype=prev_col.dtype)
        col[:prev_n] = prev_col
        if n > prev_n:
            col[prev_n:] = live_col[prev_n:n]
        if dirty_old:
            col[dirty_old] = live_col[dirty_old]
        return col

    @staticmethod
    def _patch_list_column(
        prev_col: np.ndarray, live_list: list, n: int, dirty_old: list[int], dtype
    ) -> np.ndarray:
        """Like :meth:`_patch_numpy_column` for columns kept as Python lists."""
        prev_n = prev_col.shape[0]
        col = np.empty(n, dtype=dtype)
        col[:prev_n] = prev_col
        if n > prev_n:
            col[prev_n:] = live_list[prev_n:]
        for e in dirty_old:
            col[e] = live_list[e]
        return col

    @property
    def journal_size(self) -> tuple[int, int]:
        """(dirty vertices, dirty edges) accumulated since the last CSR export."""
        return len(self._journal_vertices), len(self._journal_edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"placeholders={self.num_placeholders})"
        )


@dataclass(frozen=True)
class CSRSnapshot:
    """A :class:`DynamicGraph` frozen into flat numpy arrays.

    ``out_indptr``/``out_indices`` (and the ``in_`` pair) are standard CSR:
    the live out-edge ids of the ``i``-th vertex of ``vertex_ids`` are
    ``out_indices[out_indptr[i]:out_indptr[i + 1]]``.  The label-partitioned
    mirror keys the same edge ids by ``(vertex, label)`` group: vertex ``i``
    owns groups ``out_group_vptr[i]:out_group_vptr[i + 1]``; group ``g``
    carries label ``out_group_labels[g]`` and edge ids
    ``out_label_indices[out_group_indptr[g]:out_group_indptr[g + 1]]``.
    The ``edge_*`` columns are indexed by edge id and cover every
    placeholder (live or dead); ``edge_alive`` disambiguates.
    """

    vertex_ids: np.ndarray  #: int64 [V] — vertex ids in insertion order
    vertex_labels: np.ndarray  #: int64 [V]
    out_indptr: np.ndarray  #: int64 [V + 1]
    out_indices: np.ndarray  #: int64 [live out-edges]
    in_indptr: np.ndarray  #: int64 [V + 1]
    in_indices: np.ndarray  #: int64 [live in-edges]
    out_group_vptr: np.ndarray  #: int64 [V + 1] — (vertex, label) group ranges
    out_group_labels: np.ndarray  #: int64 [G_out]
    out_group_indptr: np.ndarray  #: int64 [G_out + 1]
    out_label_indices: np.ndarray  #: int64 [live out-edges]
    in_group_vptr: np.ndarray  #: int64 [V + 1]
    in_group_labels: np.ndarray  #: int64 [G_in]
    in_group_indptr: np.ndarray  #: int64 [G_in + 1]
    in_label_indices: np.ndarray  #: int64 [live in-edges]
    edge_src: np.ndarray  #: int64 [placeholders]
    edge_dst: np.ndarray  #: int64 [placeholders]
    edge_label: np.ndarray  #: int64 [placeholders]
    edge_timestamp: np.ndarray  #: float64 [placeholders]
    edge_alive: np.ndarray  #: uint8 [placeholders]
    num_live_edges: int
    #: dirty-slice spec for the shared-snapshot writer: per array name, the
    #: half-open element ranges that may differ from the *previous* export
    #: (a conservative superset), or ``None`` per-name / for the whole dict
    #: meaning "treat as fully dirty".  Only the incremental splice path
    #: produces ranges; a full rebuild publishes with ``dirty=None``.
    dirty: "dict[str, list[tuple[int, int]] | None] | None" = field(
        default=None, repr=False, compare=False
    )

    def arrays(self) -> dict[str, np.ndarray]:
        """The array fields keyed by name (the shared-memory publication set)."""
        return {
            "vertex_ids": self.vertex_ids,
            "vertex_labels": self.vertex_labels,
            "out_indptr": self.out_indptr,
            "out_indices": self.out_indices,
            "in_indptr": self.in_indptr,
            "in_indices": self.in_indices,
            "out_group_vptr": self.out_group_vptr,
            "out_group_labels": self.out_group_labels,
            "out_group_indptr": self.out_group_indptr,
            "out_label_indices": self.out_label_indices,
            "in_group_vptr": self.in_group_vptr,
            "in_group_labels": self.in_group_labels,
            "in_group_indptr": self.in_group_indptr,
            "in_label_indices": self.in_label_indices,
            "edge_src": self.edge_src,
            "edge_dst": self.edge_dst,
            "edge_label": self.edge_label,
            "edge_timestamp": self.edge_timestamp,
            "edge_alive": self.edge_alive,
        }


class CSRGraphView:
    """Read-only :class:`DynamicGraph` lookalike over :class:`CSRSnapshot` arrays.

    Worker processes build one per published snapshot.  The snapshot
    arrays are zero-copy views into the shared-memory segment; because
    the backtracking enumerator is a pure-Python loop, the view converts
    what it touches into plain Python ints (numpy scalars are ~3x slower
    to index, hash and compare there).  Adjacency slices are converted
    lazily per vertex — a worker only materialises the neighbourhoods
    its work units actually visit — while the edge scalar columns are
    converted once up front because the hot loop indexes them by
    arbitrary edge id.  Labelled candidate pools stay numpy: the fused
    pipeline filters and gathers them vectorized, so no per-edge Python
    conversion happens for them.  Mutating methods are intentionally
    absent.
    """

    def __init__(self, snapshot: CSRSnapshot) -> None:
        self._snapshot = snapshot
        ids = snapshot.vertex_ids.tolist()
        self._position = {vid: i for i, vid in enumerate(ids)}
        self._vertex_ids = ids
        self._vertex_label_list = snapshot.vertex_labels.tolist()
        self._out_indptr = snapshot.out_indptr.tolist()
        self._in_indptr = snapshot.in_indptr.tolist()
        self._out_indices = snapshot.out_indices
        self._in_indices = snapshot.in_indices
        self._out_group_vptr = snapshot.out_group_vptr.tolist()
        self._out_group_labels = snapshot.out_group_labels.tolist()
        self._out_group_indptr = snapshot.out_group_indptr.tolist()
        self._in_group_vptr = snapshot.in_group_vptr.tolist()
        self._in_group_labels = snapshot.in_group_labels.tolist()
        self._in_group_indptr = snapshot.in_group_indptr.tolist()
        self._out_cache: dict[int, list[int]] = {}
        self._in_cache: dict[int, list[int]] = {}
        self._src = snapshot.edge_src.tolist()
        self._dst = snapshot.edge_dst.tolist()
        self._label = snapshot.edge_label.tolist()
        self._timestamp = snapshot.edge_timestamp.tolist()
        self._alive = snapshot.edge_alive.tolist()

    # ------------------------------------------------------------------ vertices
    def has_vertex(self, vertex: int) -> bool:
        return vertex in self._position

    def vertex_label(self, vertex: int) -> int:
        pos = self._position.get(vertex)
        return 0 if pos is None else self._vertex_label_list[pos]

    def vertices(self) -> Iterator[int]:
        return iter(self._vertex_ids)

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_ids)

    # ------------------------------------------------------------------ edges
    def edge(self, edge_id: int) -> EdgeRecord:
        if not self.is_alive(edge_id):
            raise GraphError(f"edge id {edge_id} is not a live edge")
        return EdgeRecord(
            edge_id,
            self._src[edge_id],
            self._dst[edge_id],
            self._label[edge_id],
            self._timestamp[edge_id],
        )

    def is_alive(self, edge_id: int) -> bool:
        return 0 <= edge_id < len(self._src) and bool(self._alive[edge_id])

    def out_edges(self, vertex: int) -> list[int]:
        """Edge ids of live edges leaving ``vertex`` (do not mutate)."""
        edges = self._out_cache.get(vertex)
        if edges is None:
            pos = self._position.get(vertex)
            if pos is None:
                return _EMPTY_IDS
            edges = self._out_indices[
                self._out_indptr[pos] : self._out_indptr[pos + 1]
            ].tolist()
            self._out_cache[vertex] = edges
        return edges

    def in_edges(self, vertex: int) -> list[int]:
        """Edge ids of live edges entering ``vertex`` (do not mutate)."""
        edges = self._in_cache.get(vertex)
        if edges is None:
            pos = self._position.get(vertex)
            if pos is None:
                return _EMPTY_IDS
            edges = self._in_indices[
                self._in_indptr[pos] : self._in_indptr[pos + 1]
            ].tolist()
            self._in_cache[vertex] = edges
        return edges

    def _label_slice(
        self,
        vertex: int,
        label: int,
        group_vptr: list[int],
        group_labels: list[int],
        group_indptr: list[int],
        indices: np.ndarray,
    ) -> np.ndarray:
        pos = self._position.get(vertex)
        if pos is None:
            return _EMPTY_ARRAY
        for g in range(group_vptr[pos], group_vptr[pos + 1]):
            if group_labels[g] == label:
                return indices[group_indptr[g] : group_indptr[g + 1]]
        return _EMPTY_ARRAY

    def out_edges_with_label(self, vertex: int, label: int) -> np.ndarray:
        """Live out-edges of ``vertex`` carrying ``label`` (zero-copy int64 view)."""
        return self._label_slice(
            vertex,
            label,
            self._out_group_vptr,
            self._out_group_labels,
            self._out_group_indptr,
            self._snapshot.out_label_indices,
        )

    def in_edges_with_label(self, vertex: int, label: int) -> np.ndarray:
        """Live in-edges of ``vertex`` carrying ``label`` (zero-copy int64 view)."""
        return self._label_slice(
            vertex,
            label,
            self._in_group_vptr,
            self._in_group_labels,
            self._in_group_indptr,
            self._snapshot.in_label_indices,
        )

    def candidate_pool(self, vertex: int, out: bool, label: int | None = None):
        """Candidate pool for one extension step (see :meth:`DynamicGraph.candidate_pool`)."""
        if label is None:
            return self.out_edges(vertex) if out else self.in_edges(vertex)
        if out:
            return self.out_edges_with_label(vertex, label)
        return self.in_edges_with_label(vertex, label)

    def candidate_pools(self, anchors: np.ndarray, out: bool, label: int | None = None):
        """Batched :meth:`candidate_pool` (see :meth:`DynamicGraph.candidate_pools`).

        Index arithmetic over the snapshot arrays only: the anchors' CSR
        ranges (wildcard) or their ``(vertex, label)`` group ranges are
        located with gathers and expanded into one index array, so no
        per-anchor slice is ever taken.
        """
        snapshot = self._snapshot
        n = anchors.shape[0]
        sizes = np.zeros(n, dtype=np.int64)
        position = np.fromiter(
            map(self._position.get, anchors.tolist(), repeat(-1)), dtype=np.int64, count=n
        )
        known = np.nonzero(position >= 0)[0]
        if known.size == 0:
            return _EMPTY_ARRAY, sizes
        position = position[known]
        starts = np.zeros(n, dtype=np.int64)
        if label is None:
            indptr = snapshot.out_indptr if out else snapshot.in_indptr
            indices = snapshot.out_indices if out else snapshot.in_indices
            starts[known] = indptr[position]
            sizes[known] = indptr[position + 1] - indptr[position]
            return indices[expand_ranges(starts, sizes)], sizes
        if out:
            vptr, labels = snapshot.out_group_vptr, snapshot.out_group_labels
            indptr, indices = snapshot.out_group_indptr, snapshot.out_label_indices
        else:
            vptr, labels = snapshot.in_group_vptr, snapshot.in_group_labels
            indptr, indices = snapshot.in_group_indptr, snapshot.in_label_indices
        # Every group of every known anchor, then the (at most one per
        # anchor) group carrying the step's label.
        group_counts = vptr[position + 1] - vptr[position]
        groups = expand_ranges(vptr[position], group_counts)
        hit = labels[groups] == label
        owner = np.repeat(known, group_counts)[hit]
        group = groups[hit]
        starts[owner] = indptr[group]
        sizes[owner] = indptr[group + 1] - indptr[group]
        return indices[expand_ranges(starts, sizes)], sizes

    def endpoint_array(self, edge_ids: np.ndarray, take_dst: bool) -> np.ndarray:
        """Vectorized endpoint gather: dst (or src) vertex per edge id."""
        snapshot = self._snapshot
        column = snapshot.edge_dst if take_dst else snapshot.edge_src
        return column[edge_ids]

    def endpoint_list(self, edge_ids, take_dst: bool) -> list[int]:
        """Scalar endpoint gather for small candidate lists."""
        column = self._dst if take_dst else self._src
        return [column[e] for e in edge_ids]

    def edge_labels(self, edge_ids) -> np.ndarray:
        """Edge-label gather for an id array, without building records."""
        return self._snapshot.edge_label[edge_ids]

    def incident_edges(self, vertex: int) -> Iterator[int]:
        yield from self.out_edges(vertex)
        yield from self.in_edges(vertex)

    def out_degree(self, vertex: int) -> int:
        pos = self._position.get(vertex)
        if pos is None:
            return 0
        return self._out_indptr[pos + 1] - self._out_indptr[pos]

    def in_degree(self, vertex: int) -> int:
        pos = self._position.get(vertex)
        if pos is None:
            return 0
        return self._in_indptr[pos + 1] - self._in_indptr[pos]

    def degree(self, vertex: int) -> int:
        return self.out_degree(vertex) + self.in_degree(vertex)

    def _label_group_size(
        self,
        vertex: int,
        label: int,
        group_vptr: list[int],
        group_labels: list[int],
        group_indptr: list[int],
    ) -> int:
        pos = self._position.get(vertex)
        if pos is None:
            return 0
        for g in range(group_vptr[pos], group_vptr[pos + 1]):
            if group_labels[g] == label:
                return group_indptr[g + 1] - group_indptr[g]
        return 0

    def out_label_degree(self, vertex: int, label: int) -> int:
        """Number of live out-edges with ``label`` (O(labels at vertex))."""
        return self._label_group_size(
            vertex, label, self._out_group_vptr, self._out_group_labels, self._out_group_indptr
        )

    def in_label_degree(self, vertex: int, label: int) -> int:
        """Number of live in-edges with ``label`` (O(labels at vertex))."""
        return self._label_group_size(
            vertex, label, self._in_group_vptr, self._in_group_labels, self._in_group_indptr
        )

    def edges(self) -> Iterator[EdgeRecord]:
        for edge_id, alive in enumerate(self._alive):
            if alive:
                yield EdgeRecord(
                    edge_id,
                    self._src[edge_id],
                    self._dst[edge_id],
                    self._label[edge_id],
                    self._timestamp[edge_id],
                )

    def find_edges(self, src: int, dst: int, label: int | None = None) -> list[int]:
        dsts = self._dst
        if label is None:
            return [e for e in self.out_edges(src) if dsts[e] == dst]
        labels = self._label
        return [e for e in self.out_edges(src) if dsts[e] == dst and labels[e] == label]

    @property
    def num_edges(self) -> int:
        return self._snapshot.num_live_edges

    @property
    def num_placeholders(self) -> int:
        return len(self._src)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRGraphView(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"placeholders={self.num_placeholders})"
        )
