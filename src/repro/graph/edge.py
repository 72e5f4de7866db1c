"""Edge value types shared between the graph store, streams and engine."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, NamedTuple

import numpy as np


class Endpoint(IntEnum):
    """Which endpoint of a directed edge a query-tree step extends from."""

    SOURCE = 0
    DESTINATION = 1

    def other(self) -> "Endpoint":
        return Endpoint.DESTINATION if self is Endpoint.SOURCE else Endpoint.SOURCE


class EdgeRecord(NamedTuple):
    """An immutable view of a stored data-graph edge instance.

    Attributes
    ----------
    edge_id:
        The unique (possibly recycled) identifier of this edge instance.
    src, dst:
        Endpoint vertex ids.
    label:
        Integer edge label (relationship type / protocol / activity).
    timestamp:
        Event time of the edge; 0.0 for untimed streams.
    """

    edge_id: int
    src: int
    dst: int
    label: int
    timestamp: float

    def endpoint(self, which: Endpoint) -> int:
        """Return the vertex id at ``which`` endpoint."""
        return self.src if which is Endpoint.SOURCE else self.dst

    def reversed(self) -> "EdgeRecord":
        """Return the same edge with endpoints swapped (for undirected use)."""
        return EdgeRecord(self.edge_id, self.dst, self.src, self.label, self.timestamp)


class EdgeColumns(NamedTuple):
    """A batch of stored edges as aligned columns, row ``i`` one edge (what a batch
    deletion returns): int64 arrays, ``timestamp`` float64."""

    edge_id: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    label: np.ndarray
    timestamp: np.ndarray

    def records(self) -> Iterator[EdgeRecord]:
        """One :class:`EdgeRecord` per row, for callers that want objects."""
        return map(EdgeRecord, *map(np.ndarray.tolist, self))


@dataclass(frozen=True)
class EdgeTriple:
    """A (src, dst, label) triple as it appears on the input stream.

    Stream events identify edges by their endpoints and label; the graph
    store resolves a triple to a concrete live ``edge_id`` on deletion.
    """

    src: int
    dst: int
    label: int = 0

    def key(self) -> tuple[int, int, int]:
        return (self.src, self.dst, self.label)
