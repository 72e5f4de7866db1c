"""Tests for the streaming service layer: the MnemonicService facade (the
one live ingest path), its parity with ``engine.run`` replays, adaptive
batching end to end, and latency accounting."""

import threading

import pytest

from repro.bench.harness import run_service_stream
from repro.core.api import MnemonicService as LazyMnemonicService
from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.registry import MultiQueryEngine
from repro.core.service import MnemonicService
from repro.query.query_graph import QueryGraph
from repro.streams.broker import BrokerClosedError, BrokerOverloadError, StreamBroker
from repro.streams.clock import VirtualClock
from repro.streams.config import StreamConfig, StreamType
from repro.streams.events import StreamEvent
from repro.streams.generator import SnapshotGenerator
from repro.streams.sources import ListSource, ReplaySource
from repro.utils.stats import latency_summary, percentile
from repro.utils.validation import ConfigurationError

A, B, C = 1, 2, 3


def path_query():
    return QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: A, 1: B, 2: C})


def path_events(n=6, ts0=0.0):
    """Disjoint A->B->C chains: every completed event pair is one new match."""
    events = []
    for i in range(n):
        pair = i // 2
        if i % 2 == 0:
            events.append(StreamEvent.insert(100 + pair, 500 + pair, timestamp=ts0 + i,
                                             src_label=A, dst_label=B))
        else:
            events.append(StreamEvent.insert(500 + pair, 900 + pair, timestamp=ts0 + i,
                                             src_label=B, dst_label=C))
    return events


def hub_events(n=30):
    """A->B and B->C edges over a few hub vertices, every triple unique:
    most insertions complete several matches at once."""
    events = []
    for i in range(n):
        if i % 2 == 0:
            src, dst, labels = 100 + i % 5, 500 + i % 3, (A, B)
        else:
            src, dst, labels = 500 + i % 3, 900 + i % 7, (B, C)
        events.append(StreamEvent.insert(src, dst, timestamp=float(i),
                                         src_label=labels[0], dst_label=labels[1]))
    return events


def _delete(event):
    return StreamEvent.delete(event.src, event.dst, event.label, event.timestamp,
                              event.src_label, event.dst_label)


def interleaved_mixed_events():
    """Inserts with a delete of the insert three back after every fourth one:
    under batch size 4 some deletes cancel in-batch, others do not."""
    inserts = hub_events()
    events = []
    for i, event in enumerate(inserts):
        events.append(event)
        if i % 4 == 3:
            events.append(_delete(inserts[i - 3]))
    return events


def boundary_invariant_mixed_events():
    """Inserts, then deletes of the first ten: every delete is more than a
    batch (of up to 4 live events) after its insert, on a unique triple, so
    the result sets cannot depend on where batches split."""
    inserts = hub_events()
    return inserts + [_delete(event) for event in inserts[:10]]


def _engine(batch_size=4, max_batch_delay=None, stream_type=StreamType.INSERT_ONLY):
    return MnemonicEngine(
        path_query(),
        config=EngineConfig(
            stream=StreamConfig(
                stream_type=stream_type,
                batch_size=batch_size,
                max_batch_delay=max_batch_delay,
            )
        ),
    )


class TestStatsHelpers:
    def test_percentile_interpolates(self):
        values = [0.0, 1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 0.0
        assert percentile(values, 50) == 2.0
        assert percentile(values, 95) == pytest.approx(3.8)
        assert percentile(values, 100) == 4.0
        assert percentile([7.0], 99) == 7.0

    def test_percentile_validates(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_latency_summary(self):
        summary = latency_summary([3.0, 1.0, 2.0])
        assert summary["count"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["p50"] == 2.0
        assert summary["max"] == 3.0
        assert latency_summary([]) is None


def _signed_identities(results):
    """(positive, negative) identity sets over a list of SnapshotResults."""
    return (
        {e.identity() for r in results for e in r.positive_embeddings},
        {e.identity() for r in results for e in r.negative_embeddings},
    )


def _serve(engine, events, chunk=3):
    """Submit ``events`` in chunks, polling after each; drain at the end."""
    service = MnemonicService(engine, clock=VirtualClock())
    results = []
    for low in range(0, len(events), chunk):
        service.submit(events[low:low + chunk])
        results.extend(service.poll())
    results.extend(service.drain())
    assert service.pending == 0
    return results


class TestEngineRunRefusesABroker:
    @pytest.mark.parametrize("engine_kind", ["single", "multi"])
    def test_run_on_a_broker_names_the_service_and_leaves_the_graph(self, engine_kind):
        broker = StreamBroker(capacity=4)
        broker.put(path_events(1)[0])
        if engine_kind == "single":
            engine = _engine()
        else:
            engine = MultiQueryEngine(config=EngineConfig(stream=StreamConfig(batch_size=4)))
            engine.register(path_query())
        with engine:
            with pytest.raises(ConfigurationError, match="MnemonicService"):
                engine.run(broker)
            assert engine.graph.num_edges == 0
        assert broker.depth == 1  # nothing was consumed


class TestServiceMatchesReplay:
    """Fixed batching seals the same batches whether the events are
    replayed by ``engine.run`` or submitted to the service."""

    @pytest.mark.parametrize("stream_type", [StreamType.INSERT_ONLY, StreamType.INSERT_DELETE])
    def test_single_query(self, stream_type):
        events = (
            hub_events() if stream_type is StreamType.INSERT_ONLY
            else interleaved_mixed_events()
        )
        with _engine(batch_size=4, stream_type=stream_type) as engine:
            expected = engine.run(list(events))
        with _engine(batch_size=4, stream_type=stream_type) as engine:
            results = _serve(engine, events)
        positive, negative = _signed_identities(results)
        assert positive and positive == _signed_identities(expected.snapshots)[0]
        assert negative == _signed_identities(expected.snapshots)[1]
        if stream_type is StreamType.INSERT_DELETE:
            assert negative
        assert [r.num_insertions for r in results] == [
            s.num_insertions for s in expected.snapshots
        ]
        assert sum(r.candidates_scanned for r in results) == expected.total_candidates_scanned
        assert all(r.ingest_latency_seconds is not None for r in results)
        assert expected.latency_summary() is None  # a replay has no arrival stamps

    @pytest.mark.parametrize("stream_type", [StreamType.INSERT_ONLY, StreamType.INSERT_DELETE])
    def test_multi_query(self, stream_type):
        events = (
            hub_events() if stream_type is StreamType.INSERT_ONLY
            else interleaved_mixed_events()
        )
        queries = [path_query(), QueryGraph.from_edges([(0, 1)], node_labels={0: A, 1: B})]
        config = EngineConfig(stream=StreamConfig(stream_type=stream_type, batch_size=4))

        def engine_with_queries():
            engine = MultiQueryEngine(config=config)
            return engine, [engine.register(query) for query in queries]

        engine, qids = engine_with_queries()
        with engine:
            expected = engine.run(list(events))
        engine, _ = engine_with_queries()
        with engine:
            results = _serve(engine, events)
        for qid in qids:
            rows = [r.per_query[qid] for r in results]
            want = expected.per_query[qid]
            assert _signed_identities(rows) == _signed_identities(want.snapshots)
            assert _signed_identities(rows)[0]
            assert sum(r.candidates_scanned for r in rows) == want.total_candidates_scanned
            assert all(r.ingest_latency_seconds is not None for r in rows)

    @pytest.mark.parametrize("stream_type", [StreamType.INSERT_ONLY, StreamType.INSERT_DELETE])
    def test_adaptive_open_loop_on_a_virtual_clock(self, stream_type):
        # Insert-only results never depend on batch cuts; insert/delete ones
        # do not on this stream either (see boundary_invariant_mixed_events).
        events = (
            hub_events() if stream_type is StreamType.INSERT_ONLY
            else boundary_invariant_mixed_events()
        )
        rate, delay = 100.0, 2.5 / 100.0  # seals every third arrival
        with _engine(batch_size=4, stream_type=stream_type) as engine:
            expected = engine.run(list(events))
        run = run_service_stream(
            path_query(), events, batch_size=4, max_batch_delay=delay,
            stream_type=stream_type, events_per_second=rate,
            collect_embeddings=True, clock=VirtualClock(),
        )
        got = _signed_identities(run.run_result.snapshots)
        assert got == _signed_identities(expected.snapshots)
        assert got[0]
        assert bool(got[1]) == (stream_type is StreamType.INSERT_DELETE)
        # the deadline, not the size cap, drew the boundaries
        assert len(run.run_result.snapshots) > len(expected.snapshots)
        assert run.latency["count"] == run.extra["snapshots"]
        assert run.latency["max"] <= delay + 1.0 / rate + 1e-9
        assert run.extra["broker"]["enqueued"] == len(events)


class TestAdaptiveBatchingPlainSources:
    def test_bare_replay_source_reports_no_latency(self):
        # Regression: a ReplaySource carries a `clock` attribute for
        # pacing; using it for completion stamps against event-time
        # arrival stamps fabricated nonsense latencies.  Only the service
        # measures latency.
        source = ReplaySource(path_events(4), events_per_second=1000.0,
                              clock=VirtualClock())
        with _engine(batch_size=2) as engine:
            result = engine.run(source)
        assert result.total_positive == 2
        assert result.latency_summary() is None

    def test_event_time_drives_delay_without_a_broker(self):
        # Plain list: arrival time falls back to the events' timestamps.
        events = [
            StreamEvent.insert(1, 2, timestamp=0.0),
            StreamEvent.insert(2, 3, timestamp=0.2),
            StreamEvent.insert(3, 4, timestamp=5.0),   # > 1s after batch open
            StreamEvent.insert(4, 5, timestamp=5.5),
        ]
        config = StreamConfig(batch_size=100, max_batch_delay=1.0)
        snapshots = SnapshotGenerator(ListSource(events), config).snapshots()
        assert [len(s.insertions) for s in snapshots] == [2, 2]
        assert snapshots[0].first_arrival == 0.0
        assert snapshots[1].first_arrival == 5.0

    def test_delay_none_is_bit_identical_to_fixed_batching(self):
        events = [StreamEvent.insert(i, i + 1, timestamp=float(i)) for i in range(10)]
        fixed = SnapshotGenerator(ListSource(events), StreamConfig(batch_size=4)).snapshots()
        assert [len(s.insertions) for s in fixed] == [4, 4, 2]
        assert [s.watermark for s in fixed] == [3.0, 7.0, 9.0]


class TestMnemonicService:
    def test_lazy_api_export(self):
        assert LazyMnemonicService is MnemonicService

    def test_submit_poll_drain_roundtrip(self):
        clock = VirtualClock()
        with _engine(batch_size=2) as engine:
            service = MnemonicService(engine, clock=clock)
            events = path_events(5)
            assert service.submit(events[:4]) == 4
            results = service.poll()  # two full batches of 2
            assert [r.number for r in results] == [0, 1]
            assert sum(r.num_positive for r in results) == 2
            assert service.pending == 0
            service.submit(events[4])
            assert service.poll() == []  # open batch below the size cap
            assert service.pending == 1
            final = service.drain()
            assert len(final) == 1 and service.pending == 0
            assert service.stats()["snapshots_processed"] == 3

    def test_adaptive_delay_flush_while_idle(self):
        clock = VirtualClock()
        with _engine(batch_size=100, max_batch_delay=1.0) as engine:
            service = MnemonicService(engine, clock=clock)
            service.submit(path_events(2))
            assert service.poll() == []  # deadline not reached yet
            clock.advance(1.0)
            results = service.poll()  # idle flush: no new events needed
            assert len(results) == 1
            assert results[0].ingest_latency_seconds == pytest.approx(1.0)

    def test_one_poll_seals_full_batches_then_the_expired_partial_one(self):
        clock = VirtualClock()
        with _engine(batch_size=2, max_batch_delay=1.0) as engine:
            service = MnemonicService(engine, clock=clock)
            service.submit(path_events(5))
            clock.advance(1.0)
            results = service.poll()
            # two size-sealed batches while pumping, then the deadline flush
            assert [r.num_insertions for r in results] == [2, 2, 1]
            assert [r.ingest_latency_seconds for r in results] == [1.0, 1.0, 1.0]
            assert service.pending == 0

    def test_tuple_coercion_and_latency_stamps(self):
        clock = VirtualClock()
        with _engine(batch_size=2) as engine:
            service = MnemonicService(engine, clock=clock)
            service.submit([(10, 11, 0, 0.0, A, B), (11, 12, 0, 0.0, B, C)])
            results = service.poll()
            assert len(results) == 1
            assert results[0].num_positive == 1
            assert results[0].ingest_latency_seconds == 0.0

    def test_multi_query_engine_results_are_stamped_per_query(self):
        clock = VirtualClock()
        config = EngineConfig(stream=StreamConfig(batch_size=2))
        with MultiQueryEngine(config=config) as engine:
            qid = engine.register(path_query())
            service = MnemonicService(engine, clock=clock)
            service.submit(path_events(2))
            clock.advance(0.25)
            results = service.drain()
            assert len(results) == 1
            multi = results[0]
            assert multi.ingest_latency_seconds == pytest.approx(0.25)
            assert multi.per_query[qid].ingest_latency_seconds == pytest.approx(0.25)
            assert multi.per_query[qid].num_positive == 1

    def test_cancelled_batch_resets_deadline_and_pending(self):
        # Regression: an insert/delete pair elided inside the open batch
        # used to leave the batch's arrival stamp behind — a dead
        # deadline that sealed an empty snapshot on the next event (with
        # a bogus latency) and left service.pending overcounting forever.
        clock = VirtualClock()
        with _engine(batch_size=100, max_batch_delay=1.0,
                     stream_type=StreamType.INSERT_DELETE) as engine:
            service = MnemonicService(engine, clock=clock)
            service.submit(StreamEvent.insert(1, 2, timestamp=0.0))
            service.submit(StreamEvent.delete(1, 2, timestamp=0.0))
            assert service.poll() == []  # the pair annihilated in-batch
            assert service.pending == 0
            clock.advance(5.0)
            assert service.poll() == []  # no empty snapshot from a dead deadline
            # a fresh event past the old deadline opens a NEW batch
            service.submit(StreamEvent.insert(3, 4, timestamp=0.0))
            clock.advance(1.0)
            results = service.poll()
            assert len(results) == 1
            assert results[0].num_insertions == 1
            assert results[0].ingest_latency_seconds == pytest.approx(1.0)

    def test_cancelled_batch_clears_its_deadline(self):
        from repro.streams.generator import SnapshotBatcher

        config = StreamConfig(stream_type=StreamType.INSERT_DELETE,
                              batch_size=100, max_batch_delay=1.0)
        batcher = SnapshotBatcher(config, lambda: 0)
        assert batcher.offer(StreamEvent.insert(1, 2), arrival=0.0) == []
        assert batcher.deadline() == pytest.approx(1.0)
        assert batcher.offer(StreamEvent.delete(1, 2), arrival=0.5) == []
        # batch is empty again: no deadline, no pending flush
        assert batcher.deadline() is None
        assert not batcher.deadline_expired(10.0)
        assert batcher.flush() is None
        # and the next event opens a batch with its OWN arrival stamp
        assert batcher.offer(StreamEvent.insert(3, 4), arrival=7.0) == []
        assert batcher.deadline() == pytest.approx(8.0)

    def test_submit_takes_a_tuple_of_events(self):
        # Regression: a bare tuple OF StreamEvents was treated as one
        # coercible field-tuple, nesting events into a corrupt event.
        clock = VirtualClock()
        with _engine(batch_size=2) as engine:
            service = MnemonicService(engine, clock=clock)
            events = tuple(path_events(2))
            assert service.submit(events) == 2
            results = service.poll()
            assert len(results) == 1 and results[0].num_positive == 1

    def test_insert_delete_service(self):
        clock = VirtualClock()
        with _engine(batch_size=10, stream_type=StreamType.INSERT_DELETE) as engine:
            service = MnemonicService(engine, clock=clock)
            events = path_events(4)
            service.submit(events)
            service.submit(StreamEvent.delete(events[0].src, events[0].dst,
                                              timestamp=events[0].timestamp))
            results = service.drain()
            # insert of events[0] was cancelled in-batch by the delete
            assert sum(r.num_insertions for r in results) == 3
            assert sum(r.num_positive for r in results) == 1

    def test_sliding_window_rejected(self):
        config = EngineConfig(stream=StreamConfig(
            stream_type=StreamType.SLIDING_WINDOW, window=10.0, stride=5.0
        ))
        with MnemonicEngine(path_query(), config=config) as engine:
            with pytest.raises(ConfigurationError):
                MnemonicService(engine)

    def test_close_refuses_further_submissions(self):
        with _engine(batch_size=2) as engine:
            service = MnemonicService(engine, clock=VirtualClock())
            service.submit(path_events(2))
            final = service.close()
            assert len(final) == 1
            assert service.close() == []  # idempotent
            with pytest.raises(ConfigurationError):
                service.submit(path_events(2))

    def test_context_manager_drains_on_exit(self):
        clock = VirtualClock()
        with _engine(batch_size=100) as engine:
            with MnemonicService(engine, clock=clock) as service:
                service.submit(path_events(2))
            assert service.pending == 0  # exit drained the partial batch
            assert engine.graph.num_edges == 2

    def test_exceptional_exit_stops_ingest_without_processing(self):
        clock = VirtualClock()
        with _engine(batch_size=100) as engine:
            with pytest.raises(RuntimeError):
                with MnemonicService(engine, clock=clock) as service:
                    service.submit(path_events(2))
                    raise RuntimeError("application bug")
            assert engine.graph.num_edges == 0  # nothing was force-processed

    @pytest.mark.parametrize("failure", ["reject", "timeout", "closed"])
    def test_a_submit_failing_partway_counts_what_it_queued(self, failure):
        # Regression: the accepted count was booked only after the whole
        # loop, so a put raising on the third event left the first two
        # queued but uncounted (pending 0, then -2 after drain).
        events = path_events(3)
        with _engine(batch_size=100) as engine:
            service = MnemonicService(
                engine, capacity=2, clock=VirtualClock(),
                overload="reject" if failure == "reject" else "block",
            )

            def feed():
                yield from events[:2]
                if failure == "closed":
                    service.broker.close()
                yield events[2]

            error = {"reject": BrokerOverloadError, "timeout": TimeoutError,
                     "closed": BrokerClosedError}[failure]
            with pytest.raises(error):
                service.submit(feed(), timeout=0.5)
            assert service.pending == 2
            results = service.drain()
            assert sum(r.num_insertions for r in results) == 2
            assert service.pending == 0

    def test_a_submitting_thread_and_a_polling_thread_keep_the_ledger(self):
        events = path_events(400)
        with _engine(batch_size=8) as engine:
            service = MnemonicService(engine, capacity=16)
            failures = []

            def producer():
                try:
                    for low in range(0, len(events), 5):
                        service.submit(events[low:low + 5])
                except BaseException as exc:  # surfaced by the main thread
                    failures.append(exc)

            thread = threading.Thread(target=producer, daemon=True)
            thread.start()
            results = []
            while thread.is_alive():
                results.extend(service.poll())
                stats = service.broker.stats()
                assert stats["enqueued"] == stats["dequeued"] + stats["depth"]
                assert stats["depth"] <= 16
            thread.join(5.0)
            assert not failures
            results.extend(service.drain())
            stats = service.broker.stats()
            assert stats["enqueued"] == stats["dequeued"] == len(events)
            assert stats["depth"] == 0 and service.pending == 0
            assert sum(r.num_insertions for r in results) == len(events)
            assert sum(r.num_positive for r in results) == len(events) // 2

    def test_pending_leaves_out_events_a_full_broker_shed(self):
        # Shed events are no longer waiting: counting them as submitted
        # but never pumped left `pending` above zero after a drain.
        with _engine(batch_size=100) as engine:
            service = MnemonicService(engine, capacity=2, clock=VirtualClock(),
                                      overload="shed-oldest")
            assert service.submit(path_events(5)) == 5
            assert service.stats()["shed_events"] == 3
            assert service.pending == 2
            results = service.drain()
            assert sum(r.num_insertions for r in results) == 2
            assert service.pending == 0

    def test_close_wakes_a_submitter_blocked_on_backpressure(self):
        with _engine(batch_size=100) as engine:
            service = MnemonicService(engine, capacity=1)
            service.submit(path_events(1))
            outcome = []

            def submitter():
                try:
                    service.submit(path_events(2)[1:])
                    outcome.append("queued")
                except BrokerClosedError:
                    outcome.append("closed")

            thread = threading.Thread(target=submitter, daemon=True)
            thread.start()
            while service.broker.stats()["blocked_puts"] == 0 and thread.is_alive():
                pass  # wait until the submitter is parked on the full broker
            final = service.close()
            thread.join(5.0)
            # The parked submit either took the slot close()'s drain freed
            # or was refused once the broker closed; every accepted event
            # is processed or still buffered, never lost from the ledger.
            assert outcome in (["queued"], ["closed"])
            processed = sum(r.num_insertions for r in final)
            assert processed + service.broker.depth == 1 + (outcome == ["queued"])
            assert engine.graph.num_edges == processed
