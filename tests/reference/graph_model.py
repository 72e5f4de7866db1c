"""The per-edge dict-of-lists graph store, kept as the oracle of ``DynamicGraph``.

This is the ``add_edge`` / ``delete_edge`` logic the product used before
its storage moved to numpy columns and pooled partition arenas: Python
lists indexed by edge id, one adjacency list per ``(vertex, label)``, the
per-source LIFO free lists and a triple index that keeps a triple's
instances in insertion order.  It decides the same things the product must
decide identically — which id an insert gets, which record a delete
returns, which parallel instances a triple resolves to (and in which
order), which instance a stream deletion takes — in the plainest way
available.  Pool *order* after a delete is not part of the contract (the
product keeps insertion order, this model swaps with the last entry), so
pools are compared as multisets.
"""

from __future__ import annotations

from collections import defaultdict

from repro.graph.edge import EdgeRecord
from repro.graph.stats import PlaceholderStats
from repro.utils.validation import GraphError


class GraphModel:
    def __init__(self, recycle_edge_ids: bool = True) -> None:
        self.recycle_edge_ids = recycle_edge_ids
        self.src: list[int] = []
        self.dst: list[int] = []
        self.label: list[int] = []
        self.timestamp: list[float] = []
        self.alive: list[bool] = []
        self.vertex_labels: dict[int, int] = {}
        #: (vertex, label) -> edge ids, per direction
        self.out: dict[tuple[int, int], list[int]] = defaultdict(list)
        self.into: dict[tuple[int, int], list[int]] = defaultdict(list)
        self.free_ids: dict[int, list[int]] = defaultdict(list)
        self.triple_index: dict[tuple[int, int, int], list[int]] = defaultdict(list)
        self.num_edges = 0
        self.stats = PlaceholderStats()

    @property
    def num_placeholders(self) -> int:
        return len(self.src)

    @property
    def free_id_count(self) -> int:
        return sum(map(len, self.free_ids.values()))

    def add_vertex(self, vertex: int, label: int) -> None:
        existing = self.vertex_labels.get(vertex)
        if existing is None:
            self.vertex_labels[vertex] = label
        elif existing != label and label != 0:
            raise GraphError(f"vertex {vertex} cannot be relabelled")

    def add_edge(self, src, dst, label=0, timestamp=0.0, src_label=0, dst_label=0):
        self.add_vertex(src, src_label)
        self.add_vertex(dst, dst_label)
        free = self.free_ids.get(src) if self.recycle_edge_ids else None
        if free:
            self.stats.record_recycle()
            edge_id = free.pop()
        else:
            edge_id = len(self.src)
            self.src.append(0)
            self.dst.append(0)
            self.label.append(0)
            self.timestamp.append(0.0)
            self.alive.append(False)
        self.src[edge_id] = src
        self.dst[edge_id] = dst
        self.label[edge_id] = label
        self.timestamp[edge_id] = timestamp
        self.alive[edge_id] = True
        self.out[(src, label)].append(edge_id)
        self.into[(dst, label)].append(edge_id)
        self.triple_index[(src, dst, label)].append(edge_id)
        self.num_edges += 1
        self.stats.record_insert(placeholders=len(self.src), live=self.num_edges)
        return edge_id

    def is_alive(self, edge_id: int) -> bool:
        return 0 <= edge_id < len(self.src) and self.alive[edge_id]

    def edge(self, edge_id: int) -> EdgeRecord:
        if not self.is_alive(edge_id):
            raise GraphError(f"edge id {edge_id} is not a live edge")
        return EdgeRecord(
            edge_id, self.src[edge_id], self.dst[edge_id],
            self.label[edge_id], self.timestamp[edge_id],
        )

    @staticmethod
    def _swap_remove(ids: list[int], edge_id: int) -> None:
        ids[ids.index(edge_id)] = ids[-1]
        ids.pop()

    def delete_edge(self, edge_id: int) -> EdgeRecord:
        record = self.edge(edge_id)
        _, src, dst, label, _ = record
        self._swap_remove(self.out[(src, label)], edge_id)
        self._swap_remove(self.into[(dst, label)], edge_id)
        self.triple_index[(src, dst, label)].remove(edge_id)  # order kept: oldest first
        if not self.triple_index[(src, dst, label)]:
            del self.triple_index[(src, dst, label)]
        self.alive[edge_id] = False
        self.num_edges -= 1
        if self.recycle_edge_ids:
            self.free_ids[src].append(edge_id)
        self.stats.record_delete(placeholders=len(self.src), live=self.num_edges)
        return record

    def find_edges(self, src: int, dst: int, label: int | None = None) -> list[int]:
        if label is not None:
            return list(self.triple_index.get((src, dst, label), ()))
        return [
            e for (vertex, _), ids in self.out.items() if vertex == src
            for e in ids if self.dst[e] == dst
        ]

    def resolve_deletions(self, events) -> list[int]:
        """Which live edge each ``(src, dst, label, timestamp)`` deletion takes, in order.

        Of the triple's instances no earlier event took: the oldest one with
        the event's timestamp, else the most recently inserted one.  Raises
        when an event is left without an instance.
        """
        taken: list[int] = []
        for src, dst, label, timestamp in events:
            left = [e for e in self.triple_index.get((src, dst, label), ()) if e not in taken]
            if not left:
                raise GraphError(f"deletion of ({src}, {dst}, {label}) matches no live edge")
            stamped = [e for e in left if self.timestamp[e] == timestamp]
            taken.append(stamped[0] if stamped else left[-1])
        return taken

    def edges(self) -> list[EdgeRecord]:
        return [self.edge(e) for e in range(len(self.src)) if self.alive[e]]
