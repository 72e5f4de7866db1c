"""Snapshot generation from an event stream.

The snapshot generator is the first of the three Mnemonic components
(Figure 2).  It groups the raw event stream into *snapshots*: each
snapshot carries the batch of insertions and deletions to be applied on
top of the previous graph state.

Three behaviours are implemented, selected by
:class:`repro.streams.StreamConfig.stream_type`:

* **insert_only** — every ``batch_size`` insertion events become one
  snapshot; deletion events are rejected.
* **insert_delete** — events of both kinds are grouped; deletions that
  cancel an insertion from the *same* batch are elided (the pair is a
  net no-op and the engine never sees it).
* **sliding_window** — events must arrive in non-decreasing timestamp
  order.  The window advances by ``stride`` time units per snapshot; the
  snapshot contains the events whose timestamps fall inside the new
  stride plus synthetic deletions for every edge that has slid out of
  the ``window``.

The first two share one incremental implementation,
:class:`SnapshotBatcher`, which also supports *adaptive batching*
(:attr:`~repro.streams.StreamConfig.max_batch_delay`): a snapshot is
sealed when the size cap is reached **or** its first event has been
pending longer than the delay, whichever comes first.  When the source
is a :class:`~repro.streams.broker.StreamBroker` the generator polls
with a deadline so a partial batch is flushed even while the stream is
idle, and every snapshot is stamped with the arrival time of its first
event — the anchor of ingest-to-result latency accounting.  With
``max_batch_delay=None`` (the default) batching is fixed-size and
bit-identical to the historical generator.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.streams.broker import POLL_TIMEOUT, StreamBroker
from repro.streams.clock import Clock
from repro.streams.config import StreamConfig, StreamType
from repro.streams.events import EventColumns, EventKind, StreamEvent
from repro.streams.sources import ListSource, StreamSource
from repro.utils.validation import ConfigurationError


class Snapshot:
    """One unit of work handed to the engine's main loop.

    Either half may be handed over already decoded (``insert_columns`` /
    ``delete_columns``): sealed batches are immutable, so the decode
    happens once per batch no matter how many consumers ask — engine
    ingest, shard fan-out and the journal all share the same arrays.  A
    generator that never held deletion *events* (the sliding window) gives
    the columns alone; ``deletions`` is then built when something reads it.
    """

    def __init__(
        self, number: int, insertions: list[StreamEvent] | None = None,
        deletions: list[StreamEvent] | None = None, watermark: float = 0.0,
        first_arrival: float | None = None, sealed_at: float | None = None,
        insert_columns: EventColumns | None = None, delete_columns: EventColumns | None = None,
    ) -> None:
        self.number = number
        self.insertions = [] if insertions is None else insertions
        self._deletions = [] if deletions is None and delete_columns is None else deletions
        #: largest event timestamp included so far (window high edge)
        self.watermark = watermark
        #: arrival stamp (broker clock) of the batch's first event, when known
        self.first_arrival = first_arrival
        #: arrival stamp at which the batch was sealed (size cap, deadline or EOS)
        self.sealed_at = sealed_at
        self._insert_cols = insert_columns
        self._delete_cols = delete_columns

    @property
    def deletions(self) -> list[StreamEvent]:
        if self._deletions is None:
            self._deletions = self._delete_cols.to_events()
        return self._deletions

    @property
    def insert_batch_size(self) -> int:
        return len(self.insertions)

    @property
    def delete_batch_size(self) -> int:
        return len(self._delete_cols if self._deletions is None else self._deletions)

    @property
    def is_empty(self) -> bool:
        return not self.insertions and not self.delete_batch_size

    def insert_columns(self) -> EventColumns | None:
        """Decoded int64 columns for ``insertions`` (cached, None when empty)."""
        if self._insert_cols is None and self.insertions:
            self._insert_cols = EventColumns.from_events(EventKind.INSERT, self.insertions)
        return self._insert_cols

    def delete_columns(self) -> EventColumns | None:
        """Decoded int64 columns for ``deletions`` (cached, None when empty)."""
        if self._delete_cols is None and self._deletions:
            self._delete_cols = EventColumns.from_events(EventKind.DELETE, self._deletions)
        return self._delete_cols


class SnapshotBatcher:
    """Incremental insert/insert-delete batching shared by pull and push paths.

    :class:`SnapshotGenerator` drives it from an iterator;
    :class:`~repro.core.service.MnemonicService` drives it one event at
    a time from ``submit()``/``poll()``.  Sealing rules:

    * size: a batch reaching ``config.batch_size`` events seals at once;
    * delay (only when ``config.max_batch_delay`` is set): an incoming
      event whose arrival is ``max_batch_delay`` or more after the open
      batch's first arrival seals the pending batch *before* joining the
      next one, and :meth:`flush` seals a partial batch when the caller's
      deadline (see :meth:`poll_timeout`) expires with no event.

    With ``max_batch_delay=None`` only the size rule fires, which is
    exactly the historical fixed-size behaviour.

    On insert/delete streams a delete cancels the *latest* insertion of
    the same ``(src, dst, label)`` still pending in the open batch (one
    index lookup); the other insertions keep their order, and only live
    events count towards the size cap.
    """

    def __init__(
        self,
        config: StreamConfig,
        next_number: Callable[[], int],
    ) -> None:
        if config.stream_type is StreamType.SLIDING_WINDOW:
            raise ConfigurationError(
                "SnapshotBatcher handles insert_only / insert_delete streams; "
                "sliding windows are generated by SnapshotGenerator directly"
            )
        self.config = config
        self._insert_delete = config.stream_type is StreamType.INSERT_DELETE
        self._next_number = next_number
        #: pending insertions keyed by arrival number (dicts keep insertion
        #: order, so removing a cancelled one leaves the survivors in place)
        self._inserts: dict[int, StreamEvent] = {}
        self._arrivals = 0
        #: insert/delete streams only: triple -> arrival numbers of its
        #: pending insertions, oldest first
        self._pending_by_triple: dict[tuple[int, int, int], list[int]] = {}
        self._deletes: list[StreamEvent] = []
        #: monotone max event timestamp over the whole stream (not per batch)
        self._watermark = 0.0
        self._first_arrival: float | None = None
        self._last_arrival: float | None = None

    # ------------------------------------------------------------------ state
    @property
    def pending_events(self) -> int:
        """Events in the open (unsealed) batch."""
        return len(self._inserts) + len(self._deletes)

    def deadline(self) -> float | None:
        """Arrival time at which the open batch must flush (None: no deadline)."""
        if self.config.max_batch_delay is None or self._first_arrival is None:
            return None
        return self._first_arrival + self.config.max_batch_delay

    def poll_timeout(self, now: float) -> float | None:
        """How long a broker poll may wait before the open batch must flush."""
        deadline = self.deadline()
        if deadline is None:
            return None
        return max(deadline - now, 0.0)

    def deadline_expired(self, now: float) -> bool:
        deadline = self.deadline()
        return deadline is not None and now >= deadline

    # ------------------------------------------------------------------ feeding
    def offer(self, event: StreamEvent, arrival: float) -> list[Snapshot]:
        """Feed one event; returns the snapshots this event sealed (0, 1 or 2)."""
        if not self._insert_delete and event.kind is not EventKind.INSERT:
            raise ConfigurationError(
                "insert_only stream received a deletion event; "
                "use stream_type='insert_delete' instead"
            )
        sealed: list[Snapshot] = []
        delay = self.config.max_batch_delay
        if (
            delay is not None
            and self._first_arrival is not None
            and arrival - self._first_arrival >= delay
        ):
            sealed.append(self._seal(sealed_at=self._last_arrival))
        if self._first_arrival is None:
            self._first_arrival = arrival
        self._last_arrival = arrival
        if event.timestamp > self._watermark:
            self._watermark = event.timestamp
        if event.kind is EventKind.DELETE:
            # Cancel the latest same-triple insertion pending in this batch,
            # if any: the pair is a net no-op the engine never sees.
            triple = (event.src, event.dst, event.label)
            pending = self._pending_by_triple.get(triple)
            if pending is None:
                self._deletes.append(event)
            else:
                del self._inserts[pending.pop()]
                if not pending:
                    del self._pending_by_triple[triple]
                if self.pending_events == 0:
                    # The cancellation emptied the open batch: drop its arrival
                    # stamp, or the dead deadline would pin broker polls to a
                    # zero timeout (a hot spin while idle) and the next event
                    # would seal an empty snapshot with a bogus latency.
                    self._first_arrival = None
        else:
            if self._insert_delete:
                self._pending_by_triple.setdefault(
                    (event.src, event.dst, event.label), []
                ).append(self._arrivals)
            self._inserts[self._arrivals] = event
            self._arrivals += 1
        if self.pending_events >= self.config.batch_size:
            sealed.append(self._seal(sealed_at=arrival))
        return sealed

    def flush(self, sealed_at: float | None = None) -> Snapshot | None:
        """Seal the open batch (deadline expiry or end of stream); None when empty."""
        if self.pending_events == 0:
            return None
        return self._seal(sealed_at=sealed_at if sealed_at is not None else self._last_arrival)

    def _seal(self, sealed_at: float | None) -> Snapshot:
        snapshot = Snapshot(
            self._next_number(),
            insertions=list(self._inserts.values()),
            deletions=self._deletes,
            watermark=self._watermark,
            first_arrival=self._first_arrival,
            sealed_at=sealed_at,
        )
        self._inserts, self._deletes = {}, []
        self._pending_by_triple.clear()
        self._first_arrival = None
        return snapshot


class SnapshotGenerator:
    """Turns a :class:`StreamSource` into an iterator of :class:`Snapshot` objects."""

    def __init__(self, source: StreamSource, config: StreamConfig) -> None:
        self.source = source
        self.config = config
        self._snapshot_counter = 0

    # ------------------------------------------------------------------ public
    @property
    def clock(self) -> Clock | None:
        """The arrival clock for latency stamping — broker sources only.

        Only a broker-fed stream stamps snapshots with *clock* arrival
        times; plain sources (including a bare :class:`ReplaySource`,
        which also carries a ``clock`` attribute for pacing) fall back
        to event timestamps, and subtracting those from a clock reading
        would fabricate nonsense latencies — so no clock is exposed.
        """
        if isinstance(self.source, StreamBroker):
            return self.source.clock
        return None

    def __iter__(self) -> Iterator[Snapshot]:
        if self.config.stream_type is StreamType.SLIDING_WINDOW:
            yield from self._iter_sliding_window()
        else:
            yield from self._iter_batched()

    def snapshots(self) -> list[Snapshot]:
        """Materialise the whole stream as a list of snapshots."""
        return list(self)

    # ------------------------------------------------------------------ modes
    def _next_number(self) -> int:
        number = self._snapshot_counter
        self._snapshot_counter += 1
        return number

    def _iter_batched(self) -> Iterator[Snapshot]:
        """Insert-only / insert-delete batching (fixed-size or adaptive)."""
        batcher = SnapshotBatcher(self.config, self._next_number)
        if isinstance(self.source, StreamBroker):
            yield from self._iter_broker(batcher, self.source)
        else:
            # Plain sources have no arrival clock; event time doubles as
            # arrival time, so an adaptive delay follows the events' own
            # timestamps (deterministic, replayable).
            for event in self.source:
                yield from batcher.offer(event, arrival=event.timestamp)
        final = batcher.flush()
        if final is not None:
            yield final

    def _iter_broker(self, batcher: SnapshotBatcher, broker: StreamBroker) -> Iterator[Snapshot]:
        """Deadline-driven consumption: poll with the open batch's time budget.

        A poll that times out means the open batch's first event has
        been pending for ``max_batch_delay``: flush it even though the
        size cap was never reached.  ``poll`` returning None means the
        broker is closed and drained; the trailing partial batch is
        flushed by the caller.
        """
        clock = broker.clock
        while True:
            item = broker.poll(batcher.poll_timeout(clock.now()))
            if item is None:
                return
            if item is POLL_TIMEOUT:
                snapshot = batcher.flush(sealed_at=clock.now())
                if snapshot is not None:
                    yield snapshot
                continue
            event, arrival = item
            yield from batcher.offer(event, arrival)

    def _iter_sliding_window(self) -> Iterator[Snapshot]:
        window = float(self.config.window)  # type: ignore[arg-type]
        stride = float(self.config.stride)  # type: ignore[arg-type]
        #: the inserted events still inside the window, decoded, oldest first
        live = EventColumns.from_events(EventKind.INSERT, [])
        pending: list[StreamEvent] = []
        stride_end: float | None = None
        last_ts = float("-inf")

        def build_snapshot(upper: float) -> Snapshot:
            nonlocal live
            inserts = list(pending)
            pending.clear()
            decoded = EventColumns.from_events(EventKind.INSERT, inserts)
            # Timestamps never decrease, so what has slid out of the window —
            # edges of earlier snapshots first, then new ones that already
            # expired — is a prefix of the window plus this stride.
            in_window = live.extended(decoded)
            expired = int(np.searchsorted(in_window.timestamp, upper - window, "right"))
            live = in_window.take(slice(expired, None))
            return Snapshot(
                self._next_number(), insertions=inserts, watermark=upper, insert_columns=decoded,
                delete_columns=in_window.take(slice(0, expired), kind=EventKind.DELETE),
            )

        for event in self.source:
            if event.kind is not EventKind.INSERT:
                raise ConfigurationError(
                    "sliding_window streams manage deletions implicitly; "
                    "explicit deletion events are not allowed"
                )
            if not event.timestamp >= last_ts:  # a NaN is after nothing
                raise ConfigurationError(
                    "sliding_window streams require non-decreasing timestamps "
                    f"(got {event.timestamp} after {last_ts})"
                )
            last_ts = event.timestamp
            if stride_end is None:
                stride_end = event.timestamp + stride
            while event.timestamp >= stride_end:
                yield build_snapshot(stride_end)
                stride_end += stride
            pending.append(event)
        if pending and stride_end is not None:
            yield build_snapshot(stride_end)


def initialize_stream(
    source: "StreamSource | Sequence[StreamEvent]", config: StreamConfig
) -> SnapshotGenerator:
    """Wrap ``source`` (a stream source or a plain event list) in a snapshot generator."""
    if isinstance(source, (list, tuple)):
        source = ListSource(source)
    return SnapshotGenerator(source, config)
