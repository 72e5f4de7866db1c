"""Stream event model and wire encodings.

Every element of an input stream is a :class:`StreamEvent`: an edge
insertion or deletion carrying the endpoint ids, endpoint labels, the
edge label and an event timestamp.

The LSBench dataset used in the paper encodes deletions by negating both
endpoints of a previously inserted triple — ``(-1, -3, l)`` deletes
``(1, 3, l)``.  :func:`decode_lsbench_triple` / :func:`encode_lsbench_triple`
implement that convention so synthetic LSBench streams round-trip through
the same wire format.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import repeat
from typing import Sequence

import numpy as np

from repro.utils.validation import ConfigurationError, GraphError


class EventKind(IntEnum):
    """Whether a stream event inserts or deletes an edge instance."""

    INSERT = 0
    DELETE = 1


@dataclass(frozen=True)
class StreamEvent:
    """One edge-level event on the input stream."""

    kind: EventKind
    src: int
    dst: int
    label: int = 0
    timestamp: float = 0.0
    src_label: int = 0
    dst_label: int = 0

    @property
    def is_insert(self) -> bool:
        return self.kind is EventKind.INSERT

    @property
    def is_delete(self) -> bool:
        return self.kind is EventKind.DELETE

    def as_triple(self) -> tuple[int, int, int]:
        return (self.src, self.dst, self.label)

    @staticmethod
    def insert(src: int, dst: int, label: int = 0, timestamp: float = 0.0,
               src_label: int = 0, dst_label: int = 0) -> "StreamEvent":
        """Convenience constructor for an insertion event."""
        return StreamEvent(EventKind.INSERT, src, dst, label, timestamp, src_label, dst_label)

    @staticmethod
    def delete(src: int, dst: int, label: int = 0, timestamp: float = 0.0,
               src_label: int = 0, dst_label: int = 0) -> "StreamEvent":
        """Convenience constructor for a deletion event."""
        return StreamEvent(EventKind.DELETE, src, dst, label, timestamp, src_label, dst_label)


def coerce_insert(event: "StreamEvent | tuple") -> StreamEvent:
    """An insertion event from an event or a bare ``(src, dst[, ...])`` tuple.

    The one coercion behind every engine's ``load_initial`` /
    ``batch_inserts``: deletion events are rejected, not silently
    reinterpreted.
    """
    if isinstance(event, StreamEvent):
        if event.kind is not EventKind.INSERT:
            raise ConfigurationError("expected an insertion event, got a deletion")
        return event
    return StreamEvent.insert(*event)


def _vertex_ids(values: list) -> np.ndarray:
    """Vertex ids as an int64 column; what the cast would change is refused.

    ``1.5`` stored into int64 is vertex ``1``: a fractional value, a NaN or
    a non-number raises :class:`GraphError` before any layer sees the batch.
    """
    column = np.array(values)
    if column.dtype.kind == "f":
        fractional = column != np.floor(column)
        if fractional.any():
            raise GraphError(f"vertex id {column[fractional][0]} is not an integer")
    elif column.dtype.kind not in "iub":
        raise GraphError(f"vertex ids must be integers, got {column.dtype} values")
    return column.astype(np.int64, copy=False)


@dataclass
class EventColumns:
    """A same-kind event batch decoded once into contiguous columns.

    The columnar ingest path decodes a sealed batch's events into int64
    (and one float64) numpy columns exactly once, then threads the column
    arrays through graph mutation (`DynamicGraph.apply_insert_columns`),
    index maintenance (`IndexManager.handle_insert_columns`) and journal
    sealing — instead of re-reading ``StreamEvent`` attributes per edge at
    every layer.  All events in one ``EventColumns`` share ``kind``; the
    batcher already splits insertions from deletions.
    """

    kind: EventKind
    src: np.ndarray
    dst: np.ndarray
    label: np.ndarray
    timestamp: np.ndarray
    src_label: np.ndarray
    dst_label: np.ndarray

    @classmethod
    def from_events(cls, kind: EventKind, events: Sequence[StreamEvent]) -> "EventColumns":
        """Decode ``events`` (all of ``kind``) into contiguous columns."""
        return cls(
            kind,
            _vertex_ids([event.src for event in events]),
            _vertex_ids([event.dst for event in events]),
            np.array([event.label for event in events], dtype=np.int64),
            np.array([event.timestamp for event in events], dtype=np.float64),
            np.array([event.src_label for event in events], dtype=np.int64),
            np.array([event.dst_label for event in events], dtype=np.int64),
        )

    def __len__(self) -> int:
        return int(self.src.shape[0])

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.src, self.dst, self.label, self.timestamp, self.src_label, self.dst_label)

    def take(self, rows, kind: EventKind | None = None) -> "EventColumns":
        """The rows at ``rows`` (an index array or a slice) as a new batch, of ``kind`` if given."""
        kind = self.kind if kind is None else kind
        return EventColumns(kind, *(column[rows] for column in self._columns()))

    def extended(self, other: "EventColumns") -> "EventColumns":
        """This batch followed by ``other``'s rows."""
        return EventColumns(
            self.kind, *map(np.concatenate, zip(self._columns(), other._columns()))
        )

    def to_events(self) -> list[StreamEvent]:
        """One :class:`StreamEvent` per row, for consumers that want objects."""
        return list(map(
            StreamEvent, repeat(self.kind), self.src.tolist(), self.dst.tolist(),
            self.label.tolist(), self.timestamp.tolist(), self.src_label.tolist(),
            self.dst_label.tolist(),
        ))

    def event_tuples(self) -> list[tuple]:
        """The journal payload: one plain tuple per row (native ints/floats pickle compactly)."""
        return list(zip(
            repeat(int(self.kind)), self.src.tolist(), self.dst.tolist(), self.label.tolist(),
            self.timestamp.tolist(), self.src_label.tolist(), self.dst_label.tolist(),
        ))

    @classmethod
    def from_tuples(cls, rows: Sequence[tuple]) -> "EventColumns | None":
        """Inverse of :meth:`event_tuples` (None for no rows)."""
        if not rows:
            return None
        kind, src, dst, label, timestamp, src_label, dst_label = zip(*rows)
        return cls(
            EventKind(kind[0]), np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
            np.array(label, dtype=np.int64), np.array(timestamp, dtype=np.float64),
            np.array(src_label, dtype=np.int64), np.array(dst_label, dtype=np.int64),
        )


def encode_lsbench_triple(event: StreamEvent) -> tuple[int, int, int]:
    """Encode an event using the LSBench convention (negated endpoints = delete).

    Vertex ids are shifted by one on the wire so that vertex 0 remains
    representable (``-0`` would be ambiguous).
    """
    src, dst = event.src + 1, event.dst + 1
    if event.is_delete:
        return (-src, -dst, event.label)
    return (src, dst, event.label)


def decode_lsbench_triple(triple: tuple[int, int, int], timestamp: float = 0.0) -> StreamEvent:
    """Decode a wire triple produced by :func:`encode_lsbench_triple`."""
    src, dst, label = triple
    if (src < 0) != (dst < 0):
        raise ValueError(f"malformed LSBench triple {triple!r}: endpoint signs disagree")
    if src < 0:
        return StreamEvent.delete(-src - 1, -dst - 1, label, timestamp)
    return StreamEvent.insert(src - 1, dst - 1, label, timestamp)
