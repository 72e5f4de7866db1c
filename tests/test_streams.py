"""Unit tests for stream events, configuration and snapshot generation."""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.streams.config import StreamConfig, StreamType
from repro.streams.events import (
    EventKind,
    StreamEvent,
    coerce_insert,
    decode_lsbench_triple,
    encode_lsbench_triple,
)
from repro.streams.generator import (
    Snapshot,
    SnapshotBatcher,
    SnapshotGenerator,
    initialize_stream,
)
from repro.streams.sources import IterableSource, ListSource
from repro.utils.validation import ConfigurationError


class TestEvents:
    def test_insert_delete_constructors(self):
        insert = StreamEvent.insert(1, 2, 3, 4.0, 5, 6)
        delete = StreamEvent.delete(1, 2, 3)
        assert insert.is_insert and not insert.is_delete
        assert delete.is_delete and not delete.is_insert
        assert insert.as_triple() == (1, 2, 3)
        assert insert.src_label == 5 and insert.dst_label == 6

    def test_lsbench_roundtrip(self):
        insert = StreamEvent.insert(0, 3, 7)
        delete = StreamEvent.delete(0, 3, 7)
        assert decode_lsbench_triple(encode_lsbench_triple(insert)) == insert
        decoded = decode_lsbench_triple(encode_lsbench_triple(delete))
        assert decoded.kind is EventKind.DELETE
        assert decoded.as_triple() == (0, 3, 7)

    def test_lsbench_malformed(self):
        with pytest.raises(ValueError):
            decode_lsbench_triple((-1, 3, 0))

    def test_coerce_insert(self):
        event = StreamEvent.insert(1, 2, 3, 4.0, 5, 6)
        assert coerce_insert(event) is event
        assert coerce_insert((1, 2, 3, 4.0, 5, 6)) == event
        assert coerce_insert((1, 2)) == StreamEvent.insert(1, 2)
        with pytest.raises(ConfigurationError, match="insertion"):
            coerce_insert(StreamEvent.delete(1, 2))


class TestStreamConfig:
    def test_defaults(self):
        config = StreamConfig()
        assert config.stream_type is StreamType.INSERT_ONLY
        assert config.batch_size > 0

    def test_string_stream_type_coerced(self):
        config = StreamConfig(stream_type="insert_delete")
        assert config.stream_type is StreamType.INSERT_DELETE

    def test_sliding_window_requires_window_and_stride(self):
        with pytest.raises(ConfigurationError):
            StreamConfig(stream_type=StreamType.SLIDING_WINDOW)
        with pytest.raises(ConfigurationError):
            StreamConfig(stream_type=StreamType.SLIDING_WINDOW, window=10.0, stride=20.0)
        config = StreamConfig(stream_type=StreamType.SLIDING_WINDOW, window=10.0, stride=5.0)
        assert config.window == 10.0

    def test_invalid_batch_size(self):
        with pytest.raises(ConfigurationError):
            StreamConfig(batch_size=0)


class TestSources:
    def test_list_source_is_replayable(self):
        source = ListSource([StreamEvent.insert(1, 2)])
        assert len(source) == 1
        assert list(source) == list(source)

    def test_iterable_source_replays_generator(self):
        # Regression: a generator-backed source used to yield nothing on a
        # second pass (the generator was exhausted), so a re-run silently
        # processed an empty stream.  The first pass now materialises it.
        def trace():
            yield StreamEvent.insert(1, 2)
            yield StreamEvent.insert(2, 3)

        source = IterableSource(trace())
        first = list(source)
        assert len(first) == 2
        assert list(source) == first
        assert len(source) == 2

    def test_iterable_source_len_before_iteration(self):
        source = IterableSource(iter([StreamEvent.insert(1, 2)]))
        with pytest.raises(TypeError):
            len(source)


class TestInitializeStream:
    def test_lists_and_sources_batch_alike(self):
        events = [StreamEvent.insert(i, i + 1) for i in range(5)]
        config = StreamConfig(batch_size=2)
        from_list = initialize_stream(events, config)
        from_source = initialize_stream(ListSource(events), config)
        assert isinstance(from_list.source, ListSource)
        assert [s.insertions for s in from_list] == [s.insertions for s in from_source]
        assert [len(s.insertions) for s in from_list] == [2, 2, 1]


class TestInsertOnlySnapshots:
    def test_batching(self):
        events = [StreamEvent.insert(i, i + 1) for i in range(10)]
        generator = SnapshotGenerator(ListSource(events), StreamConfig(batch_size=4))
        snapshots = generator.snapshots()
        assert [len(s.insertions) for s in snapshots] == [4, 4, 2]
        assert [s.number for s in snapshots] == [0, 1, 2]
        assert all(not s.deletions for s in snapshots)

    def test_rejects_deletions(self):
        events = [StreamEvent.delete(1, 2)]
        generator = SnapshotGenerator(ListSource(events), StreamConfig(batch_size=4))
        with pytest.raises(ConfigurationError):
            list(generator)

    def test_empty_stream(self):
        generator = SnapshotGenerator(ListSource([]), StreamConfig(batch_size=4))
        assert generator.snapshots() == []


class TestInsertDeleteSnapshots:
    def _config(self, batch_size=4):
        return StreamConfig(stream_type=StreamType.INSERT_DELETE, batch_size=batch_size)

    def test_mixed_batching(self):
        events = [
            StreamEvent.insert(1, 2),
            StreamEvent.insert(2, 3),
            StreamEvent.delete(1, 2),
            StreamEvent.insert(3, 4),
        ]
        snapshots = SnapshotGenerator(ListSource(events), self._config(batch_size=10)).snapshots()
        assert len(snapshots) == 1
        snap = snapshots[0]
        # The delete cancels the pending insert of (1, 2) inside the batch.
        assert [(e.src, e.dst) for e in snap.insertions] == [(2, 3), (3, 4)]
        assert snap.deletions == []

    def test_delete_of_older_edge_survives(self):
        events = [StreamEvent.insert(1, 2), StreamEvent.insert(2, 3)]
        later = [StreamEvent.delete(1, 2), StreamEvent.insert(4, 5)]
        snapshots = SnapshotGenerator(
            ListSource(events + later), self._config(batch_size=2)
        ).snapshots()
        assert len(snapshots) == 2
        assert [(e.src, e.dst) for e in snapshots[1].deletions] == [(1, 2)]

    def test_snapshot_is_empty_property(self):
        events = [StreamEvent.insert(1, 2)]
        snap = SnapshotGenerator(ListSource(events), self._config()).snapshots()[0]
        assert not snap.is_empty
        assert snap.insert_batch_size == 1
        assert snap.delete_batch_size == 0


class TestSlidingWindowSnapshots:
    def _config(self, window=10.0, stride=5.0, batch_size=100):
        return StreamConfig(stream_type=StreamType.SLIDING_WINDOW, window=window,
                            stride=stride, batch_size=batch_size)

    def test_window_expiry_generates_deletions(self):
        events = [StreamEvent.insert(i, i + 1, timestamp=float(t))
                  for i, t in enumerate([0, 1, 6, 12, 18])]
        snapshots = SnapshotGenerator(ListSource(events), self._config()).snapshots()
        # Strides end at t=5, 10, 15, 20 (first event at t=0 -> stride_end 5).
        all_deletes = [(e.src, e.dst) for s in snapshots for e in s.deletions]
        all_inserts = [(e.src, e.dst) for s in snapshots for e in s.insertions]
        assert all_inserts == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        # Edges at t=0 and t=1 must have expired by the time the window is at 18.
        assert (0, 1) in all_deletes and (1, 2) in all_deletes
        # The most recent edge must not be deleted.
        assert (4, 5) not in all_deletes

    def test_deletions_reference_original_timestamps(self):
        events = [StreamEvent.insert(1, 2, timestamp=0.0),
                  StreamEvent.insert(3, 4, timestamp=30.0)]
        snapshots = SnapshotGenerator(ListSource(events), self._config()).snapshots()
        deletes = [e for s in snapshots for e in s.deletions]
        assert any(e.as_triple() == (1, 2, 0) and e.timestamp == 0.0 for e in deletes)

    def test_out_of_order_timestamps_rejected(self):
        events = [StreamEvent.insert(1, 2, timestamp=5.0),
                  StreamEvent.insert(2, 3, timestamp=1.0)]
        with pytest.raises(ConfigurationError):
            SnapshotGenerator(ListSource(events), self._config()).snapshots()

    def test_explicit_deletes_rejected(self):
        events = [StreamEvent.delete(1, 2, timestamp=0.0)]
        with pytest.raises(ConfigurationError):
            SnapshotGenerator(ListSource(events), self._config()).snapshots()

    def test_live_count_never_exceeds_window_span(self):
        events = [StreamEvent.insert(i, i + 1, timestamp=float(i)) for i in range(40)]
        snapshots = SnapshotGenerator(ListSource(events), self._config(window=8, stride=4)).snapshots()
        live = set()
        for snap in snapshots:
            for e in snap.insertions:
                live.add((e.src, e.dst))
            for e in snap.deletions:
                live.discard((e.src, e.dst))
            timestamps = [t for (s, d) in live for t in [s]]  # src == timestamp index here
            if timestamps:
                assert max(timestamps) - min(timestamps) <= 8

    # ------------------------------------------------------------------ edge cases
    def test_stride_larger_than_window_rejected(self):
        # A stride beyond the window would skip time spans entirely: edges
        # inserted and expired inside the gap would never be reported.
        with pytest.raises(ConfigurationError):
            StreamConfig(stream_type=StreamType.SLIDING_WINDOW, window=5.0, stride=5.1)
        # The boundary case stride == window is a tumbling window: legal.
        config = StreamConfig(stream_type=StreamType.SLIDING_WINDOW, window=5.0, stride=5.0)
        assert config.stride == config.window

    def test_out_of_order_rejection_is_strict_not_equal(self):
        # Equal timestamps are fine (non-decreasing); only regressions fail.
        ok = [StreamEvent.insert(1, 2, timestamp=3.0),
              StreamEvent.insert(2, 3, timestamp=3.0)]
        snapshots = SnapshotGenerator(ListSource(ok), self._config()).snapshots()
        assert sum(s.insert_batch_size for s in snapshots) == 2
        bad = ok + [StreamEvent.insert(3, 4, timestamp=2.999)]
        with pytest.raises(ConfigurationError) as excinfo:
            SnapshotGenerator(ListSource(bad), self._config()).snapshots()
        assert "non-decreasing" in str(excinfo.value)

    def test_empty_strides_between_sparse_events_still_advance_window(self):
        # Events at t=0 and t=26 with stride 5: the quiet strides in
        # between must still produce snapshots (their expiry deletions
        # keep the engine's live set honest), numbered contiguously.
        events = [StreamEvent.insert(1, 2, timestamp=0.0),
                  StreamEvent.insert(3, 4, timestamp=26.0)]
        snapshots = SnapshotGenerator(ListSource(events), self._config()).snapshots()
        # Strides end at 5, 10, 15, 20, 25 and the trailing flush at 30.
        assert [s.number for s in snapshots] == [0, 1, 2, 3, 4, 5]
        assert [s.watermark for s in snapshots] == [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
        assert [s.insert_batch_size for s in snapshots] == [1, 0, 0, 0, 0, 1]
        # The t=0 edge (window 10, inclusive low edge) expires in the
        # stride ending at 10, i.e. as soon as timestamp <= upper - window.
        expiry_by_snapshot = [[(e.src, e.dst) for e in s.deletions] for s in snapshots]
        assert expiry_by_snapshot == [[], [(1, 2)], [], [], [], []]

    def test_trailing_partial_stride_is_flushed(self):
        # Events that never reach the next stride boundary must still be
        # emitted by a final partial-stride snapshot, with expiries for
        # anything their window position pushes out.
        events = [StreamEvent.insert(1, 2, timestamp=0.0),
                  StreamEvent.insert(2, 3, timestamp=6.0),
                  StreamEvent.insert(3, 4, timestamp=7.0)]
        snapshots = SnapshotGenerator(ListSource(events), self._config()).snapshots()
        assert len(snapshots) == 2
        trailing = snapshots[1]
        assert [(e.src, e.dst) for e in trailing.insertions] == [(2, 3), (3, 4)]
        assert trailing.watermark == 10.0  # the partial stride's nominal end
        # The t=0 edge sits exactly on the (inclusive) low edge at
        # upper=10: the trailing flush also reports its expiry.
        assert [(e.src, e.dst) for e in trailing.deletions] == [(1, 2)]

    def test_trailing_event_older_than_its_own_window_expires_immediately(self):
        # An insert whose timestamp has already slid out by the stride it
        # lands in is reported and immediately expired in that snapshot.
        events = [StreamEvent.insert(1, 2, timestamp=0.0),
                  StreamEvent.insert(2, 3, timestamp=14.0),
                  StreamEvent.insert(3, 4, timestamp=14.5)]
        snapshots = SnapshotGenerator(
            ListSource(events), self._config(window=2.0, stride=2.0)
        ).snapshots()
        flat_deletes = [(e.src, e.dst) for s in snapshots for e in s.deletions]
        assert (1, 2) in flat_deletes
        last = snapshots[-1]
        assert [(e.src, e.dst) for e in last.insertions] == [(2, 3), (3, 4)]
        # upper = 16, low = 14: the t=14 insert is already out of window.
        assert [(e.src, e.dst) for e in last.deletions] == [(2, 3)]

    def test_single_event_stream_flushes_one_snapshot(self):
        events = [StreamEvent.insert(1, 2, timestamp=3.0)]
        snapshots = SnapshotGenerator(ListSource(events), self._config()).snapshots()
        assert len(snapshots) == 1
        assert snapshots[0].insert_batch_size == 1
        assert snapshots[0].watermark == 8.0  # first stride ends at ts + stride


class TestAdaptiveBatching:
    def _config(self, batch_size=4, max_batch_delay=None, stream_type=StreamType.INSERT_ONLY):
        return StreamConfig(stream_type=stream_type, batch_size=batch_size,
                            max_batch_delay=max_batch_delay)

    def test_max_batch_delay_validation(self):
        with pytest.raises(ConfigurationError):
            StreamConfig(max_batch_delay=0.0)
        with pytest.raises(ConfigurationError):
            StreamConfig(stream_type=StreamType.SLIDING_WINDOW, window=5.0,
                         stride=1.0, max_batch_delay=1.0)
        assert StreamConfig(max_batch_delay=0.5).max_batch_delay == 0.5

    def test_max_batch_size_alias(self):
        assert StreamConfig(batch_size=7).max_batch_size == 7

    def test_delay_splits_batches_on_event_time_gaps(self):
        events = [StreamEvent.insert(i, i + 1, timestamp=ts)
                  for i, ts in enumerate([0.0, 0.1, 0.2, 3.0, 3.1, 9.0])]
        snapshots = SnapshotGenerator(
            ListSource(events), self._config(batch_size=100, max_batch_delay=1.0)
        ).snapshots()
        assert [s.insert_batch_size for s in snapshots] == [3, 2, 1]
        assert [s.first_arrival for s in snapshots] == [0.0, 3.0, 9.0]
        assert [s.number for s in snapshots] == [0, 1, 2]

    def test_size_cap_still_applies_with_delay(self):
        events = [StreamEvent.insert(i, i + 1, timestamp=0.0) for i in range(5)]
        snapshots = SnapshotGenerator(
            ListSource(events), self._config(batch_size=2, max_batch_delay=100.0)
        ).snapshots()
        assert [s.insert_batch_size for s in snapshots] == [2, 2, 1]

    def test_insert_delete_cancellation_respects_adaptive_boundaries(self):
        # The delete arrives 2s after the batch opened: the batch seals
        # first, so the insert is NOT cancelled — both survive as a real
        # insert + a real delete, exactly like a size-driven split.
        events = [
            StreamEvent.insert(1, 2, timestamp=0.0),
            StreamEvent.delete(1, 2, timestamp=2.0),
        ]
        snapshots = SnapshotGenerator(
            ListSource(events),
            self._config(batch_size=100, max_batch_delay=1.0,
                         stream_type=StreamType.INSERT_DELETE),
        ).snapshots()
        assert len(snapshots) == 2
        assert snapshots[0].insert_batch_size == 1
        assert snapshots[1].delete_batch_size == 1

    def test_delay_none_keeps_arrival_stamps_but_fixed_boundaries(self):
        events = [StreamEvent.insert(i, i + 1, timestamp=float(i)) for i in range(5)]
        snapshots = SnapshotGenerator(
            ListSource(events), self._config(batch_size=2)
        ).snapshots()
        assert [s.insert_batch_size for s in snapshots] == [2, 2, 1]
        assert [s.first_arrival for s in snapshots] == [0.0, 2.0, 4.0]
        assert [s.sealed_at for s in snapshots] == [1.0, 3.0, 4.0]


class QuadraticBatcher:
    """The insert/delete batcher as shipped before the triple index: the
    same sealing rules, cancellation by a backward scan of the open batch.
    Reference for :class:`TestBatcherCancellation` only."""

    def __init__(self, config, next_number):
        self.config = config
        self._next_number = next_number
        self._inserts = []
        self._deletes = []
        self._watermark = 0.0
        self._first_arrival = None
        self._last_arrival = None

    @property
    def pending_events(self):
        return len(self._inserts) + len(self._deletes)

    def offer(self, event, arrival):
        sealed = []
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
            if not self._cancel_matching_insert(event):
                self._deletes.append(event)
            elif self.pending_events == 0:
                self._first_arrival = None
        else:
            self._inserts.append(event)
        if self.pending_events >= self.config.batch_size:
            sealed.append(self._seal(sealed_at=arrival))
        return sealed

    def flush(self, sealed_at=None):
        if self.pending_events == 0:
            return None
        return self._seal(sealed_at=sealed_at if sealed_at is not None else self._last_arrival)

    def _seal(self, sealed_at):
        snapshot = Snapshot(
            self._next_number(), insertions=self._inserts, deletions=self._deletes,
            watermark=self._watermark, first_arrival=self._first_arrival, sealed_at=sealed_at,
        )
        self._inserts, self._deletes = [], []
        self._first_arrival = None
        return snapshot

    def _cancel_matching_insert(self, delete):
        inserts = self._inserts
        for idx in range(len(inserts) - 1, -1, -1):
            if inserts[idx].as_triple() == delete.as_triple():
                inserts.pop(idx)
                return True
        return False


def assert_same_snapshot(got, expected):
    assert (got is None) == (expected is None)
    if got is None:
        return
    assert got.number == expected.number
    # the same event objects in the same order, not merely equal ones
    assert [id(e) for e in got.insertions] == [id(e) for e in expected.insertions]
    assert [id(e) for e in got.deletions] == [id(e) for e in expected.deletions]
    assert got.watermark == expected.watermark
    assert got.first_arrival == expected.first_arrival
    assert got.sealed_at == expected.sealed_at


#: (is_delete, src, dst, label, seconds since the previous event, flush afterwards);
#: two vertices and two labels, so triples repeat and parallel edges are common
_batcher_steps = st.lists(
    st.tuples(
        st.booleans(), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
        st.sampled_from([0.0, 0.25, 1.0, 3.0]), st.sampled_from([False] * 9 + [True]),
    ),
    max_size=120,
)


class TestBatcherCancellation:
    @settings(max_examples=300, deadline=None)
    @given(
        steps=_batcher_steps,
        batch_size=st.integers(1, 64),
        max_batch_delay=st.sampled_from([None, 0.5, 2.0]),
    )
    def test_matches_the_quadratic_scan_snapshot_for_snapshot(
        self, steps, batch_size, max_batch_delay
    ):
        config = StreamConfig(stream_type=StreamType.INSERT_DELETE, batch_size=batch_size,
                              max_batch_delay=max_batch_delay)
        batcher = SnapshotBatcher(config, itertools.count().__next__)
        reference = QuadraticBatcher(config, itertools.count().__next__)
        now = 0.0
        for is_delete, src, dst, label, gap, flush_after in steps:
            now += gap
            make = StreamEvent.delete if is_delete else StreamEvent.insert
            event = make(src, dst, label, timestamp=now)
            got, expected = batcher.offer(event, now), reference.offer(event, now)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert_same_snapshot(a, b)
            assert batcher.pending_events == reference.pending_events
            assert batcher.deadline() == (
                None if max_batch_delay is None or reference._first_arrival is None
                else reference._first_arrival + max_batch_delay
            )
            if flush_after:
                assert_same_snapshot(batcher.flush(now + 0.125), reference.flush(now + 0.125))
                assert batcher.pending_events == reference.pending_events == 0
        assert_same_snapshot(batcher.flush(), reference.flush())

    def test_cancels_the_latest_of_several_pending_parallel_insertions(self):
        config = StreamConfig(stream_type=StreamType.INSERT_DELETE, batch_size=100)
        batcher = SnapshotBatcher(config, itertools.count().__next__)
        first, other, second, third = (
            StreamEvent.insert(1, 2, 0, 0.0), StreamEvent.insert(3, 4, 0, 1.0),
            StreamEvent.insert(1, 2, 0, 2.0), StreamEvent.insert(1, 2, 0, 3.0),
        )
        for event in (first, other, second, third):
            batcher.offer(event, event.timestamp)
        batcher.offer(StreamEvent.delete(1, 2, 0, 4.0), 4.0)
        batcher.offer(StreamEvent.delete(1, 2, 0, 5.0), 5.0)
        assert batcher.pending_events == 2
        snapshot = batcher.flush()
        assert [id(e) for e in snapshot.insertions] == [id(first), id(other)]
        assert snapshot.deletions == []

    @pytest.mark.timeout(10)
    def test_deletes_of_absent_triples_cost_constant_time_each(self):
        # A backward scan of the open batch per delete is 9e8 steps here
        # (minutes); the index answers each one with a single lookup.
        n = 30_000
        config = StreamConfig(stream_type=StreamType.INSERT_DELETE, batch_size=10**6)
        batcher = SnapshotBatcher(config, itertools.count().__next__)
        inserts = [StreamEvent.insert(i, i + 1, 0, float(i)) for i in range(n)]
        deletes = [StreamEvent.delete(n + i, i, 0, float(n + i)) for i in range(n)]
        start = time.perf_counter()
        for event in inserts + deletes:
            assert batcher.offer(event, event.timestamp) == []
        elapsed = time.perf_counter() - start
        assert batcher.pending_events == 2 * n
        snapshot = batcher.flush()
        assert snapshot.insertions == inserts and snapshot.deletions == deletes
        assert elapsed < 5.0  # the watchdog where pytest-timeout is not installed
