"""The stream broker: the service's bounded ingest queue.

The paper's harness iterates a pre-materialised event list, so "ingest"
is free and instantaneous.  A service is different: events *arrive*
while the engine is busy mutating the graph and enumerating, and the
two sides must be decoupled without letting an unbounded backlog hide
overload.

:class:`StreamBroker` is that decoupling point inside
:class:`~repro.core.service.MnemonicService`, the one live ingest path:

* a **bounded ring buffer** of ``(event, arrival)`` pairs — arrival is
  stamped from the broker's :class:`~repro.streams.clock.Clock` at
  enqueue time and is the anchor of end-to-end latency accounting;
* **backpressure**: a full buffer blocks :meth:`put` (or sheds, or
  rejects — see ``overload``) instead of buffering without bound, so
  offered load beyond the engine's capacity shows up as submitter
  stall (counted in :attr:`blocked_puts`), not as silent memory growth;
* **watermark tracking**: the largest *event* timestamp enqueued so
  far, for consumers that reason about event time rather than arrival
  time.

The consumer side is :meth:`poll`, which never waits: it hands over the
next buffered pair or None.  Deadline sealing lives in the service's
batcher, which checks its deadline on every ``poll``.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.streams.clock import Clock, WallClock
from repro.streams.events import StreamEvent
from repro.utils.validation import ReproError, check_in, check_positive


class BrokerClosedError(ReproError):
    """Raised when putting into a broker that has been closed."""


class BrokerOverloadError(ReproError):
    """Raised by :meth:`StreamBroker.put` under the ``reject`` overload policy."""


#: how a full broker treats an incoming event (see :class:`StreamBroker`)
OVERLOAD_POLICIES = ("block", "shed-oldest", "reject")


class StreamBroker:
    """A bounded, clock-stamping ingest queue between submitters and the service.

    Parameters
    ----------
    capacity:
        Ring-buffer bound; what happens when it is reached is decided by
        ``overload``.
    clock:
        Arrival-stamp time source (defaults to :class:`WallClock`).
    overload:
        Full-buffer policy.  ``"block"`` (default) applies backpressure:
        the submitter waits for space.  ``"shed-oldest"`` drops the oldest
        *buffered* event to make room — bounded staleness for sources
        where the newest data matters most (counted in
        :attr:`shed_events`).  ``"reject"`` refuses the incoming event
        with :class:`BrokerOverloadError` — load shedding at the door,
        the policy a network front door maps to 429s (counted in
        :attr:`rejected_puts`).
    """

    def __init__(
        self,
        capacity: int = 4096,
        clock: Clock | None = None,
        overload: str = "block",
    ) -> None:
        check_positive(capacity, "capacity")
        check_in(overload, OVERLOAD_POLICIES, "overload")
        self.capacity = capacity
        self.overload = overload
        self.clock: Clock = clock or WallClock()
        self._buffer: deque[tuple[StreamEvent, float]] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        #: largest event timestamp enqueued so far (event time, not arrival time)
        self.watermark = float("-inf")
        self.enqueued = 0
        self.dequeued = 0
        #: put() calls that had to wait for space at least once (backpressure)
        self.blocked_puts = 0
        #: buffered events dropped by the "shed-oldest" overload policy
        self.shed_events = 0
        #: incoming events refused by the "reject" overload policy
        self.rejected_puts = 0
        self.max_depth = 0

    # ------------------------------------------------------------------ submitter side
    def put(self, event: StreamEvent, timeout: float | None = None) -> float:
        """Enqueue one event, blocking while the buffer is full; returns its arrival stamp.

        ``timeout`` bounds the wait in clock-seconds; on expiry the event
        is rejected with a ``TimeoutError`` so callers can surface
        overload instead of blocking forever.  Under a
        :class:`~repro.streams.clock.VirtualClock` a timed wait elapses
        instantly without yielding to other threads (the determinism
        contract), so a bounded-timeout put on a full buffer fails even
        if a concurrent consumer would have freed a slot in time — use
        the wall clock where real cross-thread timing matters.
        """
        with self._not_full:
            if len(self._buffer) >= self.capacity and not self._closed:
                if self.overload == "reject":
                    self.rejected_puts += 1
                    raise BrokerOverloadError(
                        f"broker buffer full ({self.capacity} events); "
                        "event rejected by the 'reject' overload policy"
                    )
                if self.overload == "shed-oldest":
                    # Make room by dropping the oldest *buffered* event:
                    # the submitter never stalls, at the cost of losing the
                    # stalest data.  The ledger invariant becomes
                    # ``enqueued - dequeued - shed_events == depth``.
                    self._buffer.popleft()
                    self.shed_events += 1
                else:
                    self.blocked_puts += 1
            deadline = None if timeout is None else self.clock.now() + timeout
            while len(self._buffer) >= self.capacity and not self._closed:
                remaining = None if deadline is None else deadline - self.clock.now()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"broker buffer full ({self.capacity} events) for {timeout} seconds"
                    )
                self.clock.wait(self._not_full, remaining)
            if self._closed:
                raise BrokerClosedError("cannot put into a closed broker")
            arrival = self.clock.now()
            self._buffer.append((event, arrival))
            self.enqueued += 1
            self.max_depth = max(self.max_depth, len(self._buffer))
            if event.timestamp > self.watermark:
                self.watermark = event.timestamp
            return arrival

    def close(self) -> None:
        """No further events will arrive; consumers drain what is buffered.

        A submitter blocked on backpressure wakes into
        :class:`BrokerClosedError`.
        """
        with self._lock:
            self._closed = True
            self._not_full.notify_all()

    # ------------------------------------------------------------------ consumer side
    def poll(self) -> tuple[StreamEvent, float] | None:
        """The next buffered ``(event, arrival)`` pair, or None when nothing is buffered.

        Never waits: the service pumps the broker empty on every
        ``poll`` and then checks its batch deadline itself.
        """
        with self._lock:
            if not self._buffer:
                return None
            item = self._buffer.popleft()
            self.dequeued += 1
            self._not_full.notify()
            return item

    # ------------------------------------------------------------------ introspection
    @property
    def depth(self) -> int:
        """Events currently buffered (enqueued but not yet consumed)."""
        with self._lock:
            return len(self._buffer)

    def stats(self) -> dict[str, float]:
        """Ingest counters for benchmark tables and service dashboards."""
        with self._lock:
            return {
                "enqueued": self.enqueued,
                "dequeued": self.dequeued,
                "depth": len(self._buffer),
                "max_depth": self.max_depth,
                "blocked_puts": self.blocked_puts,
                "shed_events": self.shed_events,
                "rejected_puts": self.rejected_puts,
                "watermark": self.watermark,
            }

