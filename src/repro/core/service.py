"""The service facade: push events in, pull matched embeddings out.

:class:`~repro.core.engine.MnemonicEngine` and
:class:`~repro.core.registry.MultiQueryEngine` replay a finite source in
one blocking ``run()`` call.  A live service is shaped differently —
application threads hand events over as they happen and periodically
collect whatever results became ready.  :class:`MnemonicService` is that
shape and the one live ingest path (``engine.run`` refuses a broker),
built from the same parts replay uses (so semantics can never diverge):

* :meth:`submit` stamps events through a bounded
  :class:`~repro.streams.broker.StreamBroker`, giving the service
  backpressure and arrival times for free;
* a :class:`~repro.streams.generator.SnapshotBatcher` applies the
  engine's :class:`~repro.streams.StreamConfig` — including adaptive
  ``max_batch_delay`` batching — to decide when a snapshot is sealed;
* :meth:`poll` pumps arrived events through the batcher, processes any
  sealed snapshots on the engine, and returns their results, each
  stamped with ingest-to-result latency on the service's clock — the
  one place ``ingest_latency_seconds`` is filled;
* :meth:`drain` additionally flushes the open partial batch, so every
  submitted event's outcome is accounted for.

The facade is deliberately *caller-pumped* (no background consumer
thread): results are produced on the thread that calls ``poll``/
``drain``, which keeps engine access single-threaded — the engines are
not thread-safe — and makes service behaviour deterministic under a
:class:`~repro.streams.clock.VirtualClock` in tests.  ``import`` it
from :mod:`repro.core.api` (the lazy facade) or :mod:`repro` directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Union

from repro.core.registry import MultiQueryEngine
from repro.streams.broker import StreamBroker
from repro.streams.clock import Clock
from repro.streams.config import StreamType
from repro.streams.events import StreamEvent
from repro.streams.generator import SnapshotBatcher
from repro.utils.validation import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.registry import MultiSnapshotResult, SnapshotResult

    ServiceResult = Union[SnapshotResult, MultiSnapshotResult]


class MnemonicService:
    """submit()/poll()/drain() over a single- or multi-query engine.

    Parameters
    ----------
    engine:
        A constructed :class:`~repro.core.registry.MultiQueryEngine` (a
        :class:`~repro.core.engine.MnemonicEngine` is one).  Its
        ``config.stream`` decides batching (``batch_size`` cap and
        optional adaptive ``max_batch_delay``); sliding-window configs
        are rejected — windows need a totally ordered replay, not a
        live ingest path.  The service does not own the engine: closing
        the service leaves the engine (and its worker pool) usable.
    capacity:
        Broker bound: :meth:`submit` blocks once this many events are
        waiting unprocessed (backpressure instead of unbounded memory).
    clock:
        Arrival/latency time source; defaults to the wall clock, tests
        pass a :class:`~repro.streams.clock.VirtualClock`.
    overload:
        The broker's full-buffer policy: ``"block"`` (default,
        backpressure), ``"shed-oldest"`` (drop the stalest buffered
        event) or ``"reject"`` (refuse the submit with
        :class:`~repro.streams.broker.BrokerOverloadError`).  Shed and
        reject counts surface through :meth:`stats`.
    """

    def __init__(
        self,
        engine: MultiQueryEngine,
        capacity: int = 8192,
        clock: Clock | None = None,
        overload: str = "block",
    ) -> None:
        stream_config = engine.config.stream
        if stream_config.stream_type is StreamType.SLIDING_WINDOW:
            raise ConfigurationError(
                "MnemonicService supports insert_only / insert_delete streams; "
                "sliding-window replay should go through engine.run()"
            )
        self.engine = engine
        self.broker = StreamBroker(capacity=capacity, clock=clock, overload=overload)
        self.clock: Clock = self.broker.clock
        self._batcher = SnapshotBatcher(stream_config, self._next_number)
        self._number = 0
        self._processed = 0
        self._closed = False

    # ------------------------------------------------------------------ durability
    @classmethod
    def open(
        cls,
        directory,
        capacity: int = 8192,
        clock: Clock | None = None,
    ) -> "MnemonicService":
        """Recover a durable engine from ``directory`` and wrap it in a service.

        :meth:`~repro.core.registry.MultiQueryEngine.open` rebuilds the
        engine the state directory's ``meta.json`` records — its class (a
        :class:`~repro.core.engine.MnemonicEngine` for single-query
        state) and its whole config, so the service batches the stream as
        the one that wrote it did.  The recovered engine is owned by the
        caller, exactly as with the normal constructor —
        reach it as ``service.engine`` (its ``recovery_info`` says where
        to resume the upstream feed: refeed everything after
        ``last_sealed_number``).  Snapshot numbering continues from the
        last sealed epoch so refed batches journal under fresh numbers.
        """
        engine = MultiQueryEngine.open(directory)
        service = cls(engine, capacity=capacity, clock=clock)
        last = (engine.recovery_info or {}).get("last_sealed_number")
        if last is not None:
            service._number = last + 1
        return service

    # ------------------------------------------------------------------ ingest
    def submit(
        self,
        events: StreamEvent | tuple | Iterable[StreamEvent | tuple],
        timeout: float | None = None,
    ) -> int:
        """Enqueue one event or an iterable of them; returns how many were accepted.

        Tuples are coerced to insertion events
        (``(src, dst[, label, timestamp, src_label, dst_label])``).
        Blocks (up to ``timeout`` clock-seconds per event) while the
        broker is full — overload surfaces as backpressure here, not as
        unbounded queueing.  Submission alone never processes anything;
        call :meth:`poll` or :meth:`drain` to turn events into results.
        When a ``put`` fails partway (overload, timeout, closed broker)
        the events queued before it stay queued and count as
        :attr:`pending`.
        """
        if self._closed:
            raise ConfigurationError("cannot submit to a closed MnemonicService")
        if isinstance(events, StreamEvent):
            events = [events]
        elif isinstance(events, tuple) and not any(
            isinstance(field, StreamEvent) for field in events
        ):
            # A bare field tuple is one insertion; a tuple *of events* is
            # a sequence (coercing it would silently nest StreamEvents
            # into the src/dst fields of a corrupt event).
            events = [events]
        accepted = 0
        for event in events:
            if not isinstance(event, StreamEvent):
                event = StreamEvent.insert(*event)
            self.broker.put(event, timeout=timeout)
            accepted += 1
        return accepted

    # ------------------------------------------------------------------ results
    def poll(self) -> "list[ServiceResult]":
        """Process every sealed batch and return its results (possibly none).

        Pumps all currently arrived events through the batcher; a batch
        seals when it hits ``batch_size`` or (with ``max_batch_delay``)
        when its first event has been pending longer than the delay —
        including while the stream is idle, so latency stays bounded
        under trickle load.  Events still inside an unsealed batch stay
        pending; :meth:`drain` forces them through.
        """
        results: "list[ServiceResult]" = []
        while (item := self.broker.poll()) is not None:
            event, arrival = item
            for snapshot in self._batcher.offer(event, arrival):
                results.append(self._process(snapshot))
        if self._batcher.deadline_expired(self.clock.now()):
            snapshot = self._batcher.flush(sealed_at=self.clock.now())
            if snapshot is not None:
                results.append(self._process(snapshot))
        return results

    def drain(self) -> "list[ServiceResult]":
        """Like :meth:`poll`, but also flush the open partial batch.

        After ``drain`` returns, every event submitted so far is
        reflected in some returned (or previously returned) result —
        except insert/delete pairs elided within one batch, which are
        net no-ops the engine never sees.  The service stays usable for
        further submissions.
        """
        results = self.poll()
        snapshot = self._batcher.flush(sealed_at=self.clock.now())
        if snapshot is not None:
            results.append(self._process(snapshot))
        return results

    def _process(self, snapshot) -> "ServiceResult":
        result = self.engine.process_snapshot(snapshot)
        self._processed += 1
        latency = None
        if snapshot.first_arrival is not None:
            latency = max(self.clock.now() - snapshot.first_arrival, 0.0)
        result.ingest_latency_seconds = latency
        per_query = getattr(result, "per_query", None)
        if per_query is not None:  # multi-query: stamp each query's row too
            for query_result in per_query.values():
                query_result.ingest_latency_seconds = latency
        return result

    def _next_number(self) -> int:
        number = self._number
        self._number += 1
        return number

    # ------------------------------------------------------------------ introspection
    @property
    def pending(self) -> int:
        """Events still awaiting processing: queued in the broker or in the open batch.

        An insert/delete pair elided *inside* one batch (a net no-op the
        engine never sees) counts as resolved the moment the delete
        cancels the insert, not as forever-pending.  Events a full
        broker shed or rejected are not waiting and do not count.
        """
        return self.broker.depth + self._batcher.pending_events

    @property
    def watermark(self) -> float:
        """Largest event timestamp submitted so far (-inf before the first)."""
        return self.broker.watermark

    def stats(self) -> dict[str, float]:
        """Broker ingest counters plus batcher and pool-fault state.

        ``snapshots_processed`` counts the batches this service delivered;
        ``next_snapshot_number`` is the number the next sealed batch gets,
        which a reopened durable service continues past the last sealed
        epoch.  The fault counters (``fault_faults``, ``fault_recovered_epochs``,
        ``fault_level``) are the engine's :meth:`fault_stats`: whether the
        worker pool broke, how many in-flight epochs were recovered, and
        which backend enumerates now.
        """
        stats = self.broker.stats()
        stats["open_batch_events"] = self._batcher.pending_events
        stats["snapshots_processed"] = self._processed
        stats["next_snapshot_number"] = self._number
        for key, value in self.engine.fault_stats().items():
            stats[f"fault_{key}"] = value  # type: ignore[assignment]
        return stats

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> "list[ServiceResult]":
        """Drain everything, then refuse further submissions.

        Returns the final results.  The engine is left open — it belongs
        to the caller (close it separately, or construct it in a ``with``
        block that outlives the service).
        """
        if self._closed:
            return []
        results = self.drain()
        self._closed = True
        self.broker.close()
        return results

    def __enter__(self) -> "MnemonicService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            # Unwinding: drop the ingest queue without processing more.
            self._closed = True
            self.broker.close()
