"""Tests for the shared batch pipeline and epoch-aware pool execution.

The contract: ``pipeline="pipelined"`` overlaps batch k+1's mutations
with batch k's pool enumeration but produces bit-identical positive and
negative result sets on every workload, publishes exactly one epoch per
pool-dispatched phase, and recovers dispatched epochs parent-side when
the pool dies mid-stream.
"""

from __future__ import annotations

import pytest

from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.parallel import ParallelConfig, PoolBrokenError, SharedMemoryPool
from repro.core.registry import MultiQueryEngine
from repro.datasets import NetFlowConfig, generate_netflow_stream, graph_from_events
from repro.query.generator import QueryGenerator
from repro.streams.config import StreamConfig, StreamType
from repro.streams.events import EventKind, StreamEvent
from repro.utils.validation import ConfigurationError

pytestmark = pytest.mark.usefixtures("small_slices")


def mixed_workload():
    """A query plus an insert+delete stream over a warm initial graph."""
    stream = generate_netflow_stream(NetFlowConfig(num_events=900, num_hosts=70, seed=13))
    graph = graph_from_events(stream[:500])
    query = QueryGenerator(graph, seed=2).tree_query(3)
    suffix = stream[500:]
    deletes = [
        StreamEvent.delete(e.src, e.dst, e.label, timestamp=e.timestamp)
        for e in suffix[::2]
        if e.kind is EventKind.INSERT
    ]
    return query, stream[:500], list(suffix) + deletes


def run_engine(query, initial, events, pipeline, parallel=None, batch_size=64):
    config = EngineConfig(
        stream=StreamConfig(batch_size=batch_size, stream_type=StreamType.INSERT_DELETE),
        parallel=parallel or ParallelConfig(),
        pipeline=pipeline,
    )
    with MnemonicEngine(query, config=config) as engine:
        engine.load_initial(initial)
        result = engine.run(events)
        counters = (
            engine.snapshot_exports,
            engine.enumeration_phases_with_units,
            engine.pool_enumeration_phases,
        )
    pos = {e.identity() for s in result.snapshots for e in s.positive_embeddings}
    neg = {e.identity() for s in result.snapshots for e in s.negative_embeddings}
    return pos, neg, result, counters


class TestPipelineConfig:
    def test_unknown_mode_rejected(self):
        from repro.query.query_graph import QueryGraph

        query = QueryGraph.from_edges([(0, 1)], node_labels={0: 1, 1: 2})
        with pytest.raises(ConfigurationError):
            MnemonicEngine(query, config=EngineConfig(pipeline="overlapped"))

    def test_serial_is_default(self):
        assert EngineConfig().pipeline == "serial"


class TestPipelinedParity:
    def test_pipelined_serial_backend_degenerates(self):
        """Without a pool there is nothing to overlap; results must match."""
        query, initial, events = mixed_workload()
        sp, sn, sr, _ = run_engine(query, initial, events, "serial")
        pp, pn, pr, _ = run_engine(query, initial, events, "pipelined")
        assert pp == sp and pn == sn
        assert pr.total_positive == sr.total_positive
        assert pr.total_negative == sr.total_negative

    def test_pipelined_pool_results_bit_identical(self):
        pytest.importorskip("multiprocessing.shared_memory")
        query, initial, events = mixed_workload()
        parallel = ParallelConfig(backend="process", num_workers=2)
        sp, sn, sr, _ = run_engine(query, initial, events, "serial")
        pp, pn, pr, counters = run_engine(query, initial, events, "pipelined", parallel)
        assert pp == sp and pn == sn
        exports, phases, pool_phases = counters
        assert pool_phases > 0, "workload must actually exercise the pool"
        assert exports == pool_phases, "exactly one epoch per dispatched phase"
        # Per-snapshot counts line up too, not just the union of identities.
        assert [s.num_positive for s in pr.snapshots] == [
            s.num_positive for s in sr.snapshots
        ]
        assert [s.num_negative for s in pr.snapshots] == [
            s.num_negative for s in sr.snapshots
        ]

    def test_pipelined_footprints_match_serial(self):
        """live_edges / debi_bits are captured at mutation time, so the
        pipelined look-ahead must not leak later batches into them."""
        pytest.importorskip("multiprocessing.shared_memory")
        query, initial, events = mixed_workload()
        parallel = ParallelConfig(backend="process", num_workers=2)
        _, _, sr, _ = run_engine(query, initial, events, "serial")
        _, _, pr, _ = run_engine(query, initial, events, "pipelined", parallel)
        assert [s.live_edges for s in pr.snapshots] == [s.live_edges for s in sr.snapshots]
        assert [s.debi_bits for s in pr.snapshots] == [s.debi_bits for s in sr.snapshots]

    def test_multi_query_pipelined_matches_serial(self):
        pytest.importorskip("multiprocessing.shared_memory")
        stream = generate_netflow_stream(NetFlowConfig(num_events=900, num_hosts=70, seed=13))
        graph = graph_from_events(stream[:500])
        gen = QueryGenerator(graph, seed=2)
        queries = [gen.tree_query(3), gen.tree_query(4)]
        _, initial, events = mixed_workload()

        def run_multi(pipeline, parallel):
            config = EngineConfig(
                stream=StreamConfig(batch_size=64, stream_type=StreamType.INSERT_DELETE),
                parallel=parallel,
                pipeline=pipeline,
            )
            with MultiQueryEngine(config=config) as engine:
                ids = [engine.register(q) for q in queries]
                engine.load_initial(initial)
                result = engine.run(events)
            return {
                qid: (
                    {e.identity() for s in rr.snapshots for e in s.positive_embeddings},
                    {e.identity() for s in rr.snapshots for e in s.negative_embeddings},
                )
                for qid, rr in ((qid, result.per_query[qid]) for qid in ids)
            }

        serial = run_multi("serial", ParallelConfig())
        pipelined = run_multi(
            "pipelined", ParallelConfig(backend="process", num_workers=2)
        )
        assert pipelined == serial


class TestEpochDispatch:
    def test_dispatch_bounded_by_writer_slots(self):
        pytest.importorskip("multiprocessing.shared_memory")
        query, initial, events = mixed_workload()
        config = EngineConfig(
            parallel=ParallelConfig(backend="process", num_workers=2)
        )
        with MnemonicEngine(query, config=config) as engine:
            pool = engine.multi._pool
            if pool is None:
                pytest.skip("pool could not spawn in this environment")
            assert pool.max_epochs_in_flight == 2
            engine.load_initial(initial)
            inserts = [e for e in events if e.kind is EventKind.INSERT][:120]
            ids = [
                engine.graph.add_edge(
                    e.src, e.dst, e.label, e.timestamp,
                    src_label=e.src_label, dst_label=e.dst_label,
                )
                for e in inserts
            ]
            engine.index_manager.handle_insertions(ids)
            context = engine.runtime.make_context(engine.graph, batch_edge_ids=set(ids), positive=True)
            from repro.core.enumeration import decompose_batch

            units = decompose_batch(context, ids)
            first = pool.dispatch({0: context}, {0: units})
            second = pool.dispatch({0: context}, {0: units})
            with pytest.raises(PoolBrokenError, match="in flight"):
                pool.dispatch({0: context}, {0: units})
            # Out-of-order drain: the newer epoch first, then the older one.
            newer = pool.drain(second)
            older = pool.drain(first)
            assert newer.outcomes[0].num_embeddings == older.outcomes[0].num_embeddings
            assert pool.epochs_in_flight == 0

    def test_drain_unknown_epoch_rejected(self):
        pytest.importorskip("multiprocessing.shared_memory")
        from repro.query.query_graph import QueryGraph

        query = QueryGraph.from_edges([(0, 1)], node_labels={0: 1, 1: 2})
        config = EngineConfig(
            parallel=ParallelConfig(backend="process", num_workers=2)
        )
        with MnemonicEngine(query, config=config) as engine:
            if engine.multi._pool is None:
                pytest.skip("pool could not spawn in this environment")
            with pytest.raises(PoolBrokenError, match="not in flight"):
                engine.multi._pool.drain(99)


class TestSmallBatchSerialGate:
    def test_small_phases_with_healthy_pool_run_serially(self):
        """A phase too small to amortise a publication must run serially,
        without publishing a snapshot, while the persistent pool stays up."""
        pytest.importorskip("multiprocessing.shared_memory")
        query, initial, events = mixed_workload()
        config = EngineConfig(
            # batch_size 2 stays far below the 2 * num_workers amortisation floor
            stream=StreamConfig(batch_size=2, stream_type=StreamType.INSERT_DELETE),
            parallel=ParallelConfig(backend="process", num_workers=2),
        )
        with MnemonicEngine(query, config=config) as engine:
            if engine.multi._pool is None:
                pytest.skip("pool could not spawn in this environment")
            engine.load_initial(initial)
            result = engine.run(events[:40])
            assert engine.snapshot_exports == 0, "tiny phases must not publish"
            assert engine.pool_enumeration_phases == 0
            assert engine.multi._pool.usable
        assert result.total_positive > 0


class TestProcessBackendWithoutPool:
    """The per-batch fork fallback is gone: no pool means serial enumeration."""

    @pytest.mark.parametrize("spawn", ["returns_none", "raises"])
    def test_runs_serially_with_one_spawn_attempt(self, monkeypatch, recwarn, spawn):
        pytest.importorskip("multiprocessing.shared_memory")
        import multiprocessing.pool

        monkeypatch.setattr(
            multiprocessing.pool.Pool, "__init__",
            lambda *a, **k: pytest.fail("no per-batch multiprocessing.Pool may be created"),
        )
        attempts = []
        if spawn == "returns_none":
            monkeypatch.setattr(
                SharedMemoryPool, "create_multi",
                classmethod(lambda cls, states, config: attempts.append(1)),
            )
        else:
            def refuse(self, *args, **kwargs):
                attempts.append(1)
                raise OSError("fork refused")

            monkeypatch.setattr(SharedMemoryPool, "__init__", refuse)
        query, initial, events = mixed_workload()
        sp, sn, serial, _ = run_engine(query, initial, events, "serial")
        pp, pn, pooled, counters = run_engine(
            query, initial, events, "serial",
            parallel=ParallelConfig(backend="process", num_workers=2),
        )
        assert sp and sn, "the stream must form and destroy embeddings"
        assert (pp, pn) == (sp, sn)
        assert pooled.total_candidates_scanned == serial.total_candidates_scanned
        assert counters[0] == 0 and counters[2] == 0, "nothing was published or dispatched"
        assert len(attempts) == 1, "the spawn is attempted once per engine, not per batch"
        spawn_warnings = [w for w in recwarn if "pool spawn failed" in str(w.message)]
        assert len(spawn_warnings) == (1 if spawn == "raises" else 0)


class TestSnapshotExportAccounting:
    def test_exports_survive_pool_break(self):
        """snapshot_exports must keep counting epochs published by a pool
        that later broke and was released."""
        pytest.importorskip("multiprocessing.shared_memory")
        query, initial, events = mixed_workload()
        config = EngineConfig(
            stream=StreamConfig(batch_size=64, stream_type=StreamType.INSERT_DELETE),
            parallel=ParallelConfig(backend="process", num_workers=2),
        )
        with MnemonicEngine(query, config=config) as engine:
            if engine.multi._pool is None:
                pytest.skip("pool could not spawn in this environment")
            engine.load_initial(initial)
            generator = engine.initialize_stream(events)
            first = next(iter(generator))
            engine.process_snapshot(first)
            exported = engine.snapshot_exports
            assert exported > 0, "first batch must publish at this scale"
            engine.multi.pipeline_pool_broken()  # what a mid-run failure triggers
            assert engine.multi._pool is None
            assert engine.snapshot_exports == exported


class TestMidRunRegistrationRows:
    def test_sink_registered_query_gets_no_rows_for_earlier_batches(self):
        """A query registered by a sink mid-run must not receive spurious
        empty rows for batches applied before it existed."""
        engine = MultiQueryEngine(
            config=EngineConfig(stream=StreamConfig(batch_size=2))
        )
        late_ids = []

        def registering_sink(query_id, result):
            if not late_ids:
                from repro.query.query_graph import QueryGraph

                late = QueryGraph.from_edges([(0, 1)], node_labels={0: 1, 1: 2})
                late_ids.append(engine.register(late))

        from repro.query.query_graph import QueryGraph

        first = QueryGraph.from_edges(
            [(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 2}
        )
        engine.register(first, sink=registering_sink)
        events = [
            StreamEvent.insert(10, 11, src_label=0, dst_label=1),
            StreamEvent.insert(11, 12, src_label=1, dst_label=2),
            StreamEvent.insert(20, 21, src_label=0, dst_label=1),
            StreamEvent.insert(21, 22, src_label=1, dst_label=2),
        ]
        run = engine.run(events)
        (late_id,) = late_ids
        late_result = engine.registry.get(late_id).run_result
        # Registered after batch 0's delivery: rows start at batch 1.
        assert len(late_result.snapshots) == 1
        assert run.per_query[late_id].snapshots[0].number == 1
        engine.close()


class TestPoolBrokenRecovery:
    def test_worker_death_mid_pipeline_recovers_bit_identically(self):
        pytest.importorskip("multiprocessing.shared_memory")
        query, initial, events = mixed_workload()
        parallel = ParallelConfig(backend="process", num_workers=2)
        sp, sn, _, _ = run_engine(query, initial, events, "serial")
        config = EngineConfig(
            stream=StreamConfig(batch_size=64, stream_type=StreamType.INSERT_DELETE),
            parallel=parallel,
            pipeline="pipelined",
        )
        with pytest.warns(RuntimeWarning, match="pool failed"):
            with MnemonicEngine(query, config=config) as engine:
                if engine.multi._pool is None:
                    pytest.skip("pool could not spawn in this environment")
                engine.load_initial(initial)
                results = []
                for batch in engine.multi._pipeline.run_stream(
                    engine.initialize_stream(events)
                ):
                    results.append(engine.multi._result_from_batch(batch).per_query[0])
                    if len(results) == 1 and engine.multi._pool is not None:
                        # Kill the whole pool: a single dead worker can go
                        # unnoticed when the survivor drains every chunk.
                        for worker in engine.multi._pool._workers:
                            worker.terminate()
        pos = {e.identity() for s in results for e in s.positive_embeddings}
        neg = {e.identity() for s in results for e in s.negative_embeddings}
        assert pos == sp
        assert neg == sn


class TestPoolLifecycleHelper:
    """The shared pool-ownership mixin both engines now use."""

    def test_detach_returns_pool_and_clears_reference(self):
        from repro.core.parallel import PoolOwnerMixin

        class Owner(PoolOwnerMixin):
            pass

        class FakePool:
            closed = False

            def close(self):
                self.closed = True

        owner = Owner()
        pool = FakePool()
        owner._pool = pool
        owner._pool_finalizer = None
        assert owner._detach_pool() is pool
        assert owner._pool is None
        assert not pool.closed
        assert owner._detach_pool() is None  # idempotent

    def test_close_pool_closes_once(self):
        from repro.core.parallel import PoolOwnerMixin

        class Owner(PoolOwnerMixin):
            pass

        class FakePool:
            close_calls = 0

            def close(self):
                self.close_calls += 1

        owner = Owner()
        pool = FakePool()
        owner._pool = pool
        owner._pool_finalizer = None
        owner._close_pool()
        owner._close_pool()
        assert pool.close_calls == 1
        assert owner._pool is None

    def test_adopt_arms_finalizer(self):
        from repro.core.parallel import PoolOwnerMixin

        class Owner(PoolOwnerMixin):
            pass

        owner = Owner()
        assert owner._adopt_pool(None) is None
        assert owner._pool_finalizer is None
        pool = SharedMemoryPool.__new__(SharedMemoryPool)  # no spawn needed
        pool._closed = True  # close() becomes a no-op
        assert owner._adopt_pool(pool) is pool
        assert owner._pool_finalizer is not None
        owner._detach_pool()
        assert owner._pool_finalizer is None
