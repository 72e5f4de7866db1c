"""Stream sources: finite, replayable adapters for ``engine.run``.

* :class:`ListSource` / :class:`IterableSource` — finite in-memory
  sources (the benchmark harness and tests);
* :class:`CSVTraceSource` — a replayable file-backed trace;
* :class:`ReplaySource` — rate-controlled replay of a finite source on
  a :class:`~repro.streams.clock.Clock`, against real time
  (``WallClock``) or a deterministic virtual timeline (``VirtualClock``).

A source is replayed to completion by one ``engine.run`` call.  Live
traffic — events that arrive while the engine works — goes through
:class:`~repro.core.service.MnemonicService` instead, the one live
ingest path.
"""

from __future__ import annotations

import csv
from typing import Iterable, Iterator, Protocol, Sequence

from repro.streams.clock import Clock, WallClock
from repro.streams.events import EventKind, StreamEvent
from repro.utils.validation import ConfigurationError, check_positive


class StreamSource(Protocol):
    """Anything that can be iterated to yield :class:`StreamEvent` objects."""

    def __iter__(self) -> Iterator[StreamEvent]:  # pragma: no cover - protocol
        ...


class ListSource:
    """A finite, replayable in-memory source (used heavily in tests)."""

    def __init__(self, events: Iterable[StreamEvent]) -> None:
        self._events = list(events)

    def __iter__(self) -> Iterator[StreamEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)


class IterableSource:
    """Wraps a one-shot iterable (e.g. a generator over a trace file).

    The underlying iterable is materialised on first iteration, so the
    source is safely replayable: historically a second pass over a
    generator-backed source silently yielded nothing, which made a
    re-run (e.g. a benchmark warm-up followed by the measured pass)
    process an empty stream without any error.  For traces too large to
    materialise, submit them to a
    :class:`~repro.core.service.MnemonicService` in chunks instead.
    """

    def __init__(self, iterable: Iterable[StreamEvent]) -> None:
        self._iterable: Iterable[StreamEvent] | None = iterable
        self._events: list[StreamEvent] | None = None

    def __iter__(self) -> Iterator[StreamEvent]:
        if self._events is None:
            self._events = list(self._iterable)
            self._iterable = None  # release the exhausted generator
        return iter(self._events)

    def __len__(self) -> int:
        if self._events is None:
            raise TypeError(
                "IterableSource has no length until its first iteration "
                "materialises the underlying iterable"
            )
        return len(self._events)


#: on-disk column order used by :class:`CSVTraceSource`
CSV_FIELDS = ("kind", "src", "dst", "label", "timestamp", "src_label", "dst_label")
_KIND_TOKENS = {
    "insert": EventKind.INSERT, "i": EventKind.INSERT, "+": EventKind.INSERT,
    "0": EventKind.INSERT,
    "delete": EventKind.DELETE, "d": EventKind.DELETE, "-": EventKind.DELETE,
    "1": EventKind.DELETE,
}


class CSVTraceSource:
    """A replayable trace file: one event per row, ``CSV_FIELDS`` column order.

    The file is re-opened on every iteration, so the source behaves like
    :class:`ListSource` without holding the trace in memory.  Rows
    starting with ``#`` and a leading header row (``kind,src,...``) are
    skipped; the ``kind`` column accepts ``insert``/``delete``, ``i``/``d``,
    ``+``/``-`` or the :class:`~repro.streams.events.EventKind` integers.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def __iter__(self) -> Iterator[StreamEvent]:
        with open(self.path, newline="", encoding="utf-8") as fh:
            seen_data = False
            for row_number, row in enumerate(csv.reader(fh), start=1):
                if not row or row[0].startswith("#"):
                    continue
                if not seen_data and row[0].strip().lower() == "kind":
                    continue  # header row (wherever comments left it)
                seen_data = True
                yield self._parse(row, row_number)

    def _parse(self, row: Sequence[str], row_number: int) -> StreamEvent:
        if not 3 <= len(row) <= len(CSV_FIELDS):
            raise ConfigurationError(
                f"{self.path}:{row_number}: expected 3-{len(CSV_FIELDS)} columns "
                f"({', '.join(CSV_FIELDS)}), got {len(row)}"
            )
        kind = _KIND_TOKENS.get(row[0].strip().lower())
        if kind is None:
            raise ConfigurationError(
                f"{self.path}:{row_number}: unknown event kind {row[0]!r}"
            )
        try:
            src, dst = int(row[1]), int(row[2])
            label = int(row[3]) if len(row) > 3 else 0
            timestamp = float(row[4]) if len(row) > 4 else 0.0
            src_label = int(row[5]) if len(row) > 5 else 0
            dst_label = int(row[6]) if len(row) > 6 else 0
        except ValueError as exc:
            raise ConfigurationError(f"{self.path}:{row_number}: {exc}") from None
        return StreamEvent(kind, src, dst, label, timestamp, src_label, dst_label)

    @staticmethod
    def write(path: str, events: Iterable[StreamEvent]) -> int:
        """Write ``events`` in the source's format; returns the row count."""
        count = 0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_FIELDS)
            for event in events:
                writer.writerow([
                    "insert" if event.is_insert else "delete",
                    event.src, event.dst, event.label, event.timestamp,
                    event.src_label, event.dst_label,
                ])
                count += 1
        return count


class ReplaySource:
    """Rate-controlled replay of a finite source against a clock.

    Exactly one pacing mode must be chosen:

    ``events_per_second``
        Uniform offered load: event ``i`` is due ``i / rate`` seconds
        after the replay starts.
    ``speed``
        Timestamp-faithful replay: inter-event gaps follow the events'
        own timestamps, scaled by ``speed`` (2.0 = twice as fast).

    With a :class:`~repro.streams.clock.WallClock` the replay really
    sleeps; with a :class:`~repro.streams.clock.VirtualClock` sleeping
    advances the virtual timeline instantly, so tests exercise the exact
    same pacing logic deterministically.  The source is replayable; each
    iteration restarts the schedule at the clock's current time.
    """

    def __init__(
        self,
        events: Iterable[StreamEvent],
        events_per_second: float | None = None,
        speed: float | None = None,
        clock: Clock | None = None,
    ) -> None:
        if (events_per_second is None) == (speed is None):
            raise ConfigurationError(
                "ReplaySource needs exactly one of events_per_second or speed"
            )
        if events_per_second is not None:
            check_positive(events_per_second, "events_per_second")
        if speed is not None:
            check_positive(speed, "speed")
        self._events = list(events)
        self.events_per_second = events_per_second
        self.speed = speed
        self.clock: Clock = clock or WallClock()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[StreamEvent]:
        if not self._events:
            return
        start = self.clock.now()
        first_ts = self._events[0].timestamp
        for index, event in enumerate(self._events):
            if self.events_per_second is not None:
                due = start + index / self.events_per_second
            else:
                due = start + max(event.timestamp - first_ts, 0.0) / self.speed
            lag = due - self.clock.now()
            if lag > 0:
                self.clock.sleep(lag)
            yield event

