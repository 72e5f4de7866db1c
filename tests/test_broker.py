"""Unit tests for the stream broker, clocks and the replayable sources."""

import threading

import pytest

from repro.streams.broker import BrokerClosedError, BrokerOverloadError, StreamBroker
from repro.streams.clock import VirtualClock, WallClock
from repro.streams.events import StreamEvent
from repro.streams.sources import CSVTraceSource, ReplaySource
from repro.utils.validation import ConfigurationError


def _insert(i, ts=0.0):
    return StreamEvent.insert(i, i + 1, timestamp=ts)


def _drain(broker):
    """Sources of every event still buffered, oldest first."""
    sources = []
    while (item := broker.poll()) is not None:
        sources.append(item[0].src)
    return sources


class TestVirtualClock:
    def test_sleep_advances_instantly(self):
        clock = VirtualClock()
        clock.sleep(2.5)
        assert clock.now() == 2.5
        clock.sleep(0.0)
        assert clock.now() == 2.5

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_wall_clock_monotone(self):
        clock = WallClock()
        a = clock.now()
        clock.sleep(0.0)
        assert clock.now() >= a


class TestBrokerQueue:
    def test_put_poll_roundtrip_with_arrival_stamps(self):
        clock = VirtualClock()
        broker = StreamBroker(capacity=4, clock=clock)
        broker.put(_insert(1, ts=10.0))
        clock.advance(1.0)
        broker.put(_insert(2, ts=5.0))
        event, arrival = broker.poll()
        assert (event.src, arrival) == (1, 0.0)
        event, arrival = broker.poll()
        assert (event.src, arrival) == (2, 1.0)
        # watermark follows event time, not arrival time
        assert broker.watermark == 10.0

    def test_poll_on_an_empty_broker_returns_none_without_waiting(self):
        broker = StreamBroker(capacity=4, clock=VirtualClock())
        assert broker.poll() is None
        assert broker.clock.now() == 0.0  # polling never waits, not even on virtual time
        assert broker.stats()["dequeued"] == 0
        broker.put(_insert(1))
        assert broker.poll()[0].src == 1
        assert broker.poll() is None

    def test_close_drains_buffered_events(self):
        empty = StreamBroker(capacity=4)
        empty.close()
        assert empty.poll() is None
        broker = StreamBroker(capacity=4)
        broker.put(_insert(1))
        broker.put(_insert(2))
        broker.close()
        assert _drain(broker) == [1, 2]
        assert broker.poll() is None
        with pytest.raises(BrokerClosedError):
            broker.put(_insert(3))

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            StreamBroker(capacity=0)


class TestBrokerBackpressure:
    def test_full_buffer_blocks_producer_until_consumed(self):
        broker = StreamBroker(capacity=2)
        broker.put(_insert(0))
        broker.put(_insert(1))
        third_in = threading.Event()

        def producer():
            broker.put(_insert(2))  # must block until a slot frees up
            third_in.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not third_in.wait(0.05)
        assert broker.blocked_puts == 1
        event, _ = broker.poll()
        assert event.src == 0
        assert third_in.wait(2.0)
        thread.join(2.0)
        assert broker.depth == 2
        assert broker.max_depth == 2

    def test_put_timeout_raises_instead_of_blocking_forever(self):
        broker = StreamBroker(capacity=1, clock=VirtualClock())
        broker.put(_insert(0))
        with pytest.raises(TimeoutError):
            broker.put(_insert(1), timeout=0.5)


class TestBrokerCloseRaces:
    """put()/close() interleavings must resolve deterministically."""

    def test_put_after_close_always_raises(self):
        # Empty, partially full and completely full buffers: a put that
        # starts after close() must raise, never enqueue or block.
        for preload in (0, 1, 2):
            broker = StreamBroker(capacity=2)
            for i in range(preload):
                broker.put(_insert(i))
            broker.close()
            with pytest.raises(BrokerClosedError):
                broker.put(_insert(99))
            assert broker.enqueued == preload
            assert broker.depth == preload

    def test_close_wakes_blocked_producer_into_closed_error(self):
        broker = StreamBroker(capacity=1)
        broker.put(_insert(0))
        outcome: list = []

        def producer():
            try:
                broker.put(_insert(1))
                outcome.append("enqueued")
            except BrokerClosedError:
                outcome.append("closed")

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        while broker.blocked_puts == 0:  # producer is parked on backpressure
            pass
        broker.close()
        thread.join(2.0)
        assert outcome == ["closed"]
        # The blocked event was refused: the ledger never saw it.
        assert broker.enqueued == 1
        assert broker.depth == 1

    def test_counters_consistent_when_consumer_stops_mid_backpressure(self):
        """A consumer abandoning the queue must leave blocked_puts /
        max_depth / depth telling one coherent story."""
        broker = StreamBroker(capacity=2)
        broker.put(_insert(0))
        broker.put(_insert(1))
        consumed, _ = broker.poll()  # consumer takes one event...
        assert consumed.src == 0
        parked = threading.Event()

        def producer():
            parked.set()
            broker.put(_insert(2))  # refills the freed slot
            try:
                broker.put(_insert(3), timeout=0.2)  # ...then stops consuming
            except TimeoutError:
                pass

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert parked.wait(2.0)
        thread.join(5.0)
        assert not thread.is_alive()
        stats = broker.stats()
        assert stats["enqueued"] == 3
        assert stats["dequeued"] == 1
        assert stats["depth"] == 2  # == enqueued - dequeued: nothing lost
        assert stats["max_depth"] == 2  # never exceeded capacity
        assert stats["blocked_puts"] == 1  # only the timed-out put waited


class TestBrokerOverloadPolicies:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamBroker(capacity=4, overload="drop-newest")

    def test_shed_oldest_drops_stalest_and_keeps_ledger_invariant(self):
        broker = StreamBroker(capacity=3, overload="shed-oldest")
        for i in range(5):
            broker.put(_insert(i))  # never blocks
        stats = broker.stats()
        assert stats["shed_events"] == 2
        assert stats["blocked_puts"] == 0
        # Shed events were enqueued but neither dequeued nor buffered:
        # enqueued - dequeued - shed_events == depth.
        assert stats["enqueued"] - stats["dequeued"] - stats["shed_events"] == stats["depth"]
        broker.close()
        assert _drain(broker) == [2, 3, 4]  # newest survive

    def test_reject_refuses_at_the_door(self):
        broker = StreamBroker(capacity=2, overload="reject")
        broker.put(_insert(0))
        broker.put(_insert(1))
        with pytest.raises(BrokerOverloadError):
            broker.put(_insert(2))
        stats = broker.stats()
        assert stats["rejected_puts"] == 1
        assert stats["enqueued"] == 2
        assert stats["depth"] == 2
        # Overload is transient: space freed by the consumer re-admits.
        broker.poll()
        broker.put(_insert(3))
        broker.close()
        assert _drain(broker) == [1, 3]

    def test_block_is_default_policy(self):
        assert StreamBroker(capacity=1).overload == "block"


class TestReplaySource:
    def test_uniform_rate_on_virtual_clock(self):
        clock = VirtualClock()
        source = ReplaySource([_insert(i) for i in range(5)],
                              events_per_second=10.0, clock=clock)
        due = []
        for _ in source:
            due.append(clock.now())
        assert due == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])

    def test_timestamp_faithful_speed(self):
        clock = VirtualClock(start=100.0)
        events = [_insert(0, ts=0.0), _insert(1, ts=4.0), _insert(2, ts=6.0)]
        source = ReplaySource(events, speed=2.0, clock=clock)
        due = []
        for _ in source:
            due.append(clock.now())
        assert due == pytest.approx([100.0, 102.0, 103.0])

    def test_replayable(self):
        clock = VirtualClock()
        source = ReplaySource([_insert(i) for i in range(3)],
                              events_per_second=100.0, clock=clock)
        assert [e.src for e in source] == [0, 1, 2]
        assert [e.src for e in source] == [0, 1, 2]
        assert len(source) == 3

    def test_exactly_one_pacing_mode(self):
        with pytest.raises(ConfigurationError):
            ReplaySource([], events_per_second=1.0, speed=1.0)
        with pytest.raises(ConfigurationError):
            ReplaySource([])

    def test_put_into_a_broker_stamps_scheduled_arrivals(self):
        clock = VirtualClock()
        source = ReplaySource([_insert(i) for i in range(4)],
                              events_per_second=2.0, clock=clock)
        broker = StreamBroker(capacity=16, clock=clock)
        for event in source:
            broker.put(event)
        arrivals = []
        while (item := broker.poll()) is not None:
            arrivals.append(item[1])
        assert arrivals == pytest.approx([0.0, 0.5, 1.0, 1.5])


class TestCSVTraceSource:
    def test_roundtrip_and_replay(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        events = [
            StreamEvent.insert(1, 2, 3, 4.5, 6, 7),
            StreamEvent.delete(1, 2, 3, 4.5, 6, 7),
        ]
        assert CSVTraceSource.write(path, events) == 2
        source = CSVTraceSource(path)
        assert list(source) == events
        assert list(source) == events  # file re-opened: replayable

    def test_header_after_leading_comments(self, tmp_path):
        # Regression: the header was only skipped as the physical first
        # row, so a comment above it made the file unreadable.
        path = tmp_path / "trace.csv"
        path.write_text("# my trace\n# generated 2026-07-27\n"
                        "kind,src,dst,label,timestamp,src_label,dst_label\n"
                        "insert,1,2,0,0.0,0,0\n")
        events = list(CSVTraceSource(str(path)))
        assert [(e.src, e.dst) for e in events] == [(1, 2)]

    def test_short_rows_and_comments(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("# a comment\ninsert,1,2\nd,3,4,7\n+,5,6,0,2.5\n")
        events = list(CSVTraceSource(str(path)))
        assert [(e.kind.name, e.src, e.dst, e.label, e.timestamp) for e in events] == [
            ("INSERT", 1, 2, 0, 0.0),
            ("DELETE", 3, 4, 7, 0.0),
            ("INSERT", 5, 6, 0, 2.5),
        ]

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frobnicate,1,2\n")
        with pytest.raises(ConfigurationError):
            list(CSVTraceSource(str(path)))
        path.write_text("insert,1\n")
        with pytest.raises(ConfigurationError):
            list(CSVTraceSource(str(path)))
        path.write_text("insert,one,2\n")
        with pytest.raises(ConfigurationError):
            list(CSVTraceSource(str(path)))

