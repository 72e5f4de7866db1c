"""Clocks for the streaming service layer.

Every time-dependent component of the ingest path — the
:class:`~repro.streams.broker.StreamBroker`'s arrival stamps, the
rate-controlled :class:`~repro.streams.sources.ReplaySource`, adaptive
batch-delay flushing, and end-to-end latency accounting — reads time
through a :class:`Clock` instead of calling :func:`time.monotonic`
directly.  Production code uses :class:`WallClock`; tests use
:class:`VirtualClock`, which advances only when someone sleeps or waits
on it, so time-based behaviour (delay flushes, replay pacing, latency
stamps) is exactly reproducible without real sleeps.
"""

from __future__ import annotations

import threading
import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """The time source used across the ingest path.

    ``wait(condition, timeout)`` is the broker's building block for
    backpressure waits: it must return after at most ``timeout`` clock-seconds
    (or when the condition is notified), with the condition's lock held
    on entry and exit, exactly like :meth:`threading.Condition.wait`.
    """

    def now(self) -> float:  # pragma: no cover - protocol
        ...

    def sleep(self, seconds: float) -> None:  # pragma: no cover - protocol
        ...

    def wait(self, condition: threading.Condition, timeout: float | None) -> None:  # pragma: no cover
        ...


class WallClock:
    """Real time: monotonic reads, real sleeps, real condition waits."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def wait(self, condition: threading.Condition, timeout: float | None) -> None:
        condition.wait(timeout)


class VirtualClock:
    """Deterministic manual time: sleeping *is* advancing.

    ``sleep`` and timed ``wait`` advance the clock immediately instead
    of blocking, so a rate-controlled replay or a batch-delay flush runs
    in microseconds of real time while observing exactly the virtual
    timeline the test scripted.  ``advance`` is the explicit test hook.
    The clock is thread-safe: a thread submitting events and the thread
    polling the service may share one instance.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds`` (never backwards); returns now."""
        if seconds < 0:
            raise ValueError(f"cannot advance a clock by {seconds!r} seconds")
        with self._lock:
            self._now += seconds
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self.advance(seconds)

    def wait(self, condition: threading.Condition, timeout: float | None) -> None:
        # A timed wait on virtual time costs no real time: the timeout
        # elapses instantly (the caller's retry loop re-checks state and
        # sees the deadline passed) and the condition's lock is never
        # released — a concurrently running thread gets no window to
        # change the waited-on state, so e.g. a bounded-timeout
        # `broker.put` on a full buffer times out deterministically even
        # if a consumer would have freed a slot "in time".  That is the
        # determinism contract; use a WallClock where real cross-thread
        # timing matters.  An untimed wait has no deadline to advance
        # to, so it blocks for real until notified.
        if timeout is None:
            condition.wait()
        else:
            self.advance(timeout)
