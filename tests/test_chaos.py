"""Chaos tests: the process pool's one fault response under injected faults.

The contract under test (see ``repro.core.pipeline``): a pool that
breaks — a killed worker, a torn result message — must never change a
result.  The pipeline terminates the pool, re-enumerates every in-flight
epoch parent-side from its frozen shared-memory segments, closes the
pool, and the engine enumerates serially for the rest of its life.  All
of it happens under the default configuration: there is nothing to opt
into.

Faults are injected deterministically through ``repro.utils.faults``:
the plan is armed in the parent, consumed per pool at spawn time, and
inherited by the forked workers.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import warnings

import pytest

from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.parallel import ParallelConfig, PoolBrokenError, SharedMemoryPool
from repro.core.registry import MultiQueryEngine
from repro.datasets import NetFlowConfig, generate_netflow_stream, graph_from_events
from repro.query.generator import QueryGenerator
from repro.streams.config import StreamConfig, StreamType
from repro.streams.events import EventKind, StreamEvent
from repro.utils import faults

pytestmark = pytest.mark.usefixtures("small_slices")

pytest.importorskip("multiprocessing.shared_memory")

POOL = ParallelConfig(backend="process", num_workers=2)
#: one fault of each kind, in the first (and only) pool an engine spawns
PLANS = {
    "kill": lambda: faults.FaultPlan(kill_at_unit=2, kills=1),
    "torn": lambda: faults.FaultPlan(torn_at_unit=1, torn_messages=1),
}
MODES = ("serial", "pipelined")


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No armed plan may leak between tests, even when one fails."""
    yield
    faults.clear()


@pytest.fixture(autouse=True)
def _fast_liveness_poll(monkeypatch):
    """Notice a dead worker after 0.1 s of silence instead of 1 s.

    Only how soon the parent looks is changed: a live worker is never
    reported dead, so every outcome stays the same.
    """
    monkeypatch.setattr(SharedMemoryPool, "_POLL_SECONDS", 0.1)


def mixed_workload():
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


def chaos_config(pipeline="pipelined", parallel=None):
    return EngineConfig(
        stream=StreamConfig(batch_size=64, stream_type=StreamType.INSERT_DELETE),
        parallel=parallel or ParallelConfig(),
        pipeline=pipeline,
    )


def identities(run_result):
    pos = {e.identity() for s in run_result.snapshots for e in s.positive_embeddings}
    neg = {e.identity() for s in run_result.snapshots for e in s.negative_embeddings}
    return pos, neg


def run_engine(query, initial, events, pipeline="pipelined", parallel=None):
    with MnemonicEngine(query, config=chaos_config(pipeline, parallel)) as engine:
        if parallel is not None and engine._pool is None:
            pytest.skip("pool could not spawn in this environment")
        engine.load_initial(initial)
        result = engine.run(events)
        stats = engine.fault_stats()
        assert engine._pool is None or stats["faults"] == 0
    pos, neg = identities(result)
    return pos, neg, stats


def pool_phases(run_result):
    """Enumeration phases a pool worker ran (recovered ones carry no worker stats)."""
    return sum(
        1 for s in run_result.snapshots for o in s.enumeration_outcomes if o.worker_stats
    )


def kill_workers(pool, count=None):
    """SIGKILL the first ``count`` workers (all by default) and reap them."""
    victims = pool._workers[:count]
    for worker in victims:
        os.kill(worker.pid, signal.SIGKILL)
    for worker in victims:
        worker.join(timeout=5)


def shm_segments():
    return {n for n in os.listdir("/dev/shm") if n.startswith("mnemonic_")}


def assert_went_serial(stats):
    assert stats["faults"] == 1
    assert stats["recovered_epochs"] >= 1
    assert stats["level"] == "serial"


@pytest.fixture(scope="module")
def chaos_baseline():
    """Fault-free serial identities every chaos run must reproduce."""
    query, initial, events = mixed_workload()
    pos, neg, stats = run_engine(query, initial, events, pipeline="serial")
    assert pos and neg, "chaos baseline must be non-vacuous"
    assert stats == {"faults": 0, "recovered_epochs": 0, "level": "process"}
    return query, initial, events, pos, neg


@pytest.fixture(scope="module")
def two_queries():
    stream = generate_netflow_stream(NetFlowConfig(num_events=900, num_hosts=70, seed=13))
    generator = QueryGenerator(graph_from_events(stream[:500]), seed=7)
    return [generator.tree_query(3), generator.tree_query(4)]


class TestOneFaultResponse:
    @pytest.mark.parametrize("pipeline", MODES)
    @pytest.mark.parametrize("kind", sorted(PLANS))
    def test_fault_recovers_bit_identically_then_goes_serial(
        self, chaos_baseline, kind, pipeline
    ):
        query, initial, events, base_pos, base_neg = chaos_baseline
        with pytest.warns(RuntimeWarning, match="pool failed") as record:
            with faults.injected(PLANS[kind]()):
                pos, neg, stats = run_engine(
                    query, initial, events, pipeline=pipeline, parallel=POOL
                )
        assert pos == base_pos
        assert neg == base_neg
        assert_went_serial(stats)
        assert sum("pool failed" in str(w.message) for w in record) == 1

    @pytest.mark.parametrize("kind", sorted(PLANS))
    def test_broken_pool_unlinks_every_shared_segment(self, chaos_baseline, kind):
        """No /dev/shm leak across terminate + parent-side recovery + close.

        Regression test: parent-side epoch recovery used to install the
        worker-side resource-tracker patches in the *parent*, turning
        every later segment unlink into a silent no-op — each broken
        pool then leaked its writer segments until reboot.
        """
        if not os.path.isdir("/dev/shm"):
            pytest.skip("POSIX shared memory is not file-backed here")
        query, initial, events, _, _ = chaos_baseline
        before = {n for n in os.listdir("/dev/shm") if n.startswith("mnemonic_")}
        with pytest.warns(RuntimeWarning, match="pool failed"):
            with faults.injected(PLANS[kind]()):
                _, _, stats = run_engine(query, initial, events, parallel=POOL)
        assert_went_serial(stats)
        after = {n for n in os.listdir("/dev/shm") if n.startswith("mnemonic_")}
        assert after - before == set()

    @pytest.mark.parametrize("pipeline", MODES)
    def test_late_kill_keeps_pool_results_and_recovers_the_rest(
        self, chaos_baseline, pipeline
    ):
        """A kill after several pool epochs: what the pool already
        delivered and what the parent re-enumerates add up to the
        fault-free result."""
        query, initial, events, base_pos, base_neg = chaos_baseline
        with pytest.warns(RuntimeWarning, match="pool failed"):
            with faults.injected(faults.FaultPlan(kill_at_unit=60, kills=1)):
                with MnemonicEngine(query, config=chaos_config(pipeline, POOL)) as engine:
                    if engine._pool is None:
                        pytest.skip("pool could not spawn in this environment")
                    engine.load_initial(initial)
                    result = engine.run(events)
                    stats = engine.fault_stats()
        assert pool_phases(result) >= 3, "the kill fired before the pool did any work"
        assert identities(result) == (base_pos, base_neg)
        assert_went_serial(stats)

    @pytest.mark.parametrize("pipeline", MODES)
    def test_unspent_kill_budget_never_fires(self, chaos_baseline, pipeline):
        """A plan that would kill three pools breaks exactly one: the
        engine never spawns a second pool for the rest to hit."""
        query, initial, events, base_pos, base_neg = chaos_baseline
        plan = faults.FaultPlan(kill_at_unit=2, kills=3)
        with pytest.warns(RuntimeWarning, match="pool failed") as record:
            with faults.injected(plan):
                pos, neg, stats = run_engine(
                    query, initial, events, pipeline=pipeline, parallel=POOL
                )
        assert plan.kills == 2, "a second pool was spawned"
        assert (pos, neg) == (base_pos, base_neg)
        assert_went_serial(stats)
        assert sum("pool failed" in str(w.message) for w in record) == 1

    @pytest.mark.parametrize("pipeline", MODES)
    def test_failed_publish_recovers_bit_identically(
        self, chaos_baseline, pipeline, monkeypatch
    ):
        """A snapshot publication that raises breaks the pool like a dead
        worker: epochs already in flight are recovered, the phase that
        could not be published runs serially."""
        from repro.core.shared_snapshot import SharedSnapshotWriter

        query, initial, events, base_pos, base_neg = chaos_baseline
        original = SharedSnapshotWriter.publish
        calls = []

        def failing_publish(writer, *args, **kwargs):
            calls.append(writer)
            if len(calls) == 3:
                raise OSError("no space left on device")
            return original(writer, *args, **kwargs)

        monkeypatch.setattr(SharedSnapshotWriter, "publish", failing_publish)
        with pytest.warns(RuntimeWarning, match="snapshot publication failed"):
            pos, neg, stats = run_engine(
                query, initial, events, pipeline=pipeline, parallel=POOL
            )
        assert len(calls) == 3, "the engine published again after the failure"
        assert (pos, neg) == (base_pos, base_neg)
        assert stats["faults"] == 1 and stats["level"] == "serial"
        # Serial mode drains every epoch before publishing the next, so
        # only the pipelined mode has an epoch in flight to recover.
        assert stats["recovered_epochs"] == (0 if pipeline == "serial" else 1)

    def test_healthy_pool_run_reports_no_fault(self, chaos_baseline):
        query, initial, events, base_pos, base_neg = chaos_baseline
        with MnemonicEngine(query, config=chaos_config("pipelined", POOL)) as engine:
            if engine._pool is None:
                pytest.skip("pool could not spawn in this environment")
            engine.load_initial(initial)
            result = engine.run(events)
            assert engine._pool is not None and engine._pool.usable
            assert engine.fault_stats() == {
                "faults": 0, "recovered_epochs": 0, "level": "process",
            }
        assert pool_phases(result) > 0
        assert identities(result) == (base_pos, base_neg)


class TestExternalWorkerDeath:
    """Workers killed from outside the engine, not by an injected plan."""

    @pytest.mark.parametrize("pipeline", MODES)
    @pytest.mark.parametrize("victims", ["every", "one"])
    def test_workers_killed_between_runs_never_change_results(self, pipeline, victims):
        """With every worker dead the next epoch breaks the pool.  With
        one dead, the survivor may pull every slice before the liveness
        poll looks; either way the results are the fault-free ones."""
        query, initial, events = mixed_workload()
        half = len(events) // 2

        def run(parallel, between=None):
            with MnemonicEngine(query, config=chaos_config(pipeline, parallel)) as engine:
                if parallel is not None and engine._pool is None:
                    pytest.skip("pool could not spawn in this environment")
                engine.load_initial(initial)
                head = engine.run(events[:half])
                if between is not None:
                    between(engine._pool)
                tail = engine.run(events[half:])
                stats = engine.fault_stats()
            head_pos, head_neg = identities(head)
            tail_pos, tail_neg = identities(tail)
            return (head_pos | tail_pos, head_neg | tail_neg), stats

        baseline, _ = run(None)
        count = None if victims == "every" else 1
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            chaotic, stats = run(POOL, between=lambda pool: kill_workers(pool, count))
        assert chaotic == baseline
        assert all(baseline), "vacuous comparison"
        failures = [str(w.message) for w in record if "pool failed" in str(w.message)]
        assert stats["faults"] == len(failures) <= 1
        if victims == "every":
            assert_went_serial(stats)
            assert "SIGKILL" in failures[0]

    def test_close_recovers_an_epoch_in_flight_on_a_dead_pool(self, chaos_baseline):
        """A pipelined run abandoned with epochs in flight, then every
        worker killed: ``close()`` joins those epochs, hits the dead pool,
        recovers them parent-side and still unlinks every segment."""
        if not os.path.isdir("/dev/shm"):
            pytest.skip("POSIX shared memory is not file-backed here")
        query, initial, events, _, _ = chaos_baseline
        before = shm_segments()
        engine = MnemonicEngine(query, config=chaos_config("pipelined", POOL))
        try:
            if engine._pool is None:
                pytest.skip("pool could not spawn in this environment")
            engine.load_initial(initial)
            batches = engine._pipeline.run_stream(engine.initialize_stream(events))
            next(batches)
            assert engine._pipeline._pending, "no epoch in flight to recover"
            kill_workers(engine._pool)
            with pytest.warns(RuntimeWarning, match="pool failed"):
                engine.close()
            assert_went_serial(engine.fault_stats())
            assert not engine._pipeline._pending
        finally:
            engine.close()
        assert shm_segments() - before == set()


class TestMultiQueryChaos:
    @staticmethod
    def run_multi(queries, parallel, pipeline):
        _, initial, events = mixed_workload()
        with MultiQueryEngine(config=chaos_config(pipeline, parallel)) as engine:
            ids = [engine.register(q) for q in queries]
            engine.load_initial(initial)
            result = engine.run(events)
            stats = engine.fault_stats()
        return {qid: identities(result.per_query[qid]) for qid in ids}, stats

    @pytest.mark.parametrize("pipeline", MODES)
    @pytest.mark.parametrize("kind", sorted(PLANS))
    def test_fault_recovers_per_query(self, two_queries, kind, pipeline):
        baseline, _ = self.run_multi(two_queries, ParallelConfig(), "serial")
        with pytest.warns(RuntimeWarning, match="pool failed"):
            with faults.injected(PLANS[kind]()):
                chaotic, stats = self.run_multi(two_queries, POOL, pipeline)
        assert chaotic == baseline
        assert_went_serial(stats)

    def test_register_after_fault_starts_no_worker(self, two_queries, monkeypatch):
        """The serial fallback is for the engine's life: a membership
        change after the fault, which would replace a healthy pool, must
        not spawn one, and both queries still match a fault-free run."""
        _, initial, events = mixed_workload()
        half = len(events) // 2
        first_query, late_query = two_queries

        def run(parallel):
            with MultiQueryEngine(config=chaos_config("pipelined", parallel)) as engine:
                first = engine.register(first_query)
                engine.load_initial(initial)
                head = engine.run(events[:half])
                assert engine.fault_stats()["faults"] == (1 if parallel else 0)
                late = engine.register(late_query)
                tail = engine.run(events[half:])
                assert engine._pool is None
                stats = engine.fault_stats()
            head_pos, head_neg = identities(head.per_query[first])
            tail_pos, tail_neg = identities(tail.per_query[first])
            return {
                first: (head_pos | tail_pos, head_neg | tail_neg),
                late: identities(tail.per_query[late]),
            }, stats

        baseline, _ = run(None)
        spawned = []
        original = SharedMemoryPool.__init__

        def counting_init(pool, *args, **kwargs):
            spawned.append(pool)
            original(pool, *args, **kwargs)

        monkeypatch.setattr(SharedMemoryPool, "__init__", counting_init)
        with pytest.warns(RuntimeWarning, match="pool failed"):
            with faults.injected(PLANS["kill"]()):
                chaotic, stats = run(POOL)
        assert len(spawned) == 1, "a worker pool started after the fault"
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("mnemonic-pool")]
        assert chaotic == baseline
        assert all(pos for pos, _ in baseline.values()), "vacuous comparison"
        assert_went_serial(stats)

    def test_unregister_after_fault_starts_no_worker(self, two_queries, monkeypatch):
        """Dropping a query after the fault changes the membership too;
        the query that stays keeps matching a fault-free run, serially."""
        _, initial, events = mixed_workload()
        half = len(events) // 2

        def run(parallel):
            with MultiQueryEngine(config=chaos_config("pipelined", parallel)) as engine:
                kept, dropped = (engine.register(q) for q in two_queries)
                engine.load_initial(initial)
                head = engine.run(events[:half])
                engine.unregister(dropped)
                tail = engine.run(events[half:])
                assert engine._pool is None
                assert list(tail.per_query) == [kept]
                stats = engine.fault_stats()
            head_pos, head_neg = identities(head.per_query[kept])
            tail_pos, tail_neg = identities(tail.per_query[kept])
            return (head_pos | tail_pos, head_neg | tail_neg), stats

        baseline, _ = run(None)
        spawned = []
        original = SharedMemoryPool.__init__

        def counting_init(pool, *args, **kwargs):
            spawned.append(pool)
            original(pool, *args, **kwargs)

        monkeypatch.setattr(SharedMemoryPool, "__init__", counting_init)
        with pytest.warns(RuntimeWarning, match="pool failed"):
            with faults.injected(PLANS["kill"]()):
                chaotic, stats = run(POOL)
        assert len(spawned) == 1, "a worker pool started after the fault"
        assert chaotic == baseline
        assert all(baseline), "vacuous comparison"
        assert_went_serial(stats)


class TestBrokenPoolTeardown:
    """What the recovery path relies on: a terminated pool's frozen
    epochs stay attachable until :meth:`SharedMemoryPool.close`."""

    def test_terminate_keeps_segments_attachable_until_close(self):
        from repro.core.shared_snapshot import SnapshotAttachment

        if not os.path.isdir("/dev/shm"):
            pytest.skip("POSIX shared memory is not file-backed here")
        query, initial, events = mixed_workload()
        with MnemonicEngine(query, config=EngineConfig(parallel=POOL)) as engine:
            pool = engine._pool
            if pool is None:
                pytest.skip("pool could not spawn in this environment")
            engine.load_initial(initial)
            handle = _dispatch_batch(engine, events)
            pool.terminate()
            assert not any(worker.is_alive() for worker in pool._workers)
            segment = handle.descriptor["name"]
            assert segment in shm_segments()
            attachment = SnapshotAttachment()
            tree = engine.pipeline_slots()[0].query_state.tree
            graph, debis, batch_ids = attachment.views(handle.descriptor, {0: tree})
            assert len(batch_ids) == 120
            assert graph.num_edges == engine.graph.num_edges
            attachment.detach()
        assert segment not in shm_segments()

    def test_terminated_pool_refuses_dispatch(self):
        query, initial, events = mixed_workload()
        with MnemonicEngine(query, config=EngineConfig(parallel=POOL)) as engine:
            pool = engine._pool
            if pool is None:
                pytest.skip("pool could not spawn in this environment")
            engine.load_initial(initial)
            pool.terminate()
            pool.terminate()  # idempotent
            assert not pool.usable
            with pytest.raises(PoolBrokenError, match="closed or broken"):
                _dispatch_batch(engine, events)
            assert pool.publish_count == 0
            pool.close()
            pool.close()  # idempotent after terminate, too


class TestTornMessages:
    def test_torn_message_breaks_pool_with_diagnosis(self):
        """Pool-level view: a truncated result tuple must surface as
        PoolBrokenError naming the torn write, not as an unpack crash."""
        query, initial, events = mixed_workload()
        config = EngineConfig(parallel=POOL)
        with faults.injected(PLANS["torn"]()):
            with MnemonicEngine(query, config=config) as engine:
                pool = engine._pool
                if pool is None:
                    pytest.skip("pool could not spawn in this environment")
                engine.load_initial(initial)
                handle = _dispatch_batch(engine, events)
                with pytest.raises(PoolBrokenError, match="torn write"):
                    pool.drain(handle)
                assert not pool.usable


class TestWorkerDeathDiagnostics:
    """PoolBrokenError must say which worker died and how."""

    def test_dead_worker_message_names_signal_and_pid(self):
        query, initial, events = mixed_workload()
        config = EngineConfig(parallel=POOL)
        with MnemonicEngine(query, config=config) as engine:
            pool = engine._pool
            if pool is None:
                pytest.skip("pool could not spawn in this environment")
            engine.load_initial(initial)
            handle = _dispatch_batch(engine, events)
            pids = [worker.pid for worker in pool._workers]
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(PoolBrokenError) as excinfo:
                pool.drain(handle)
            message = str(excinfo.value)
            assert "SIGKILL" in message, message
            assert any(f"pid {pid}" in message for pid in pids), message

    def test_clean_exit_code_reported_without_signal_name(self):
        class Proc:
            name, pid, exitcode = "worker-3", 4242, 7

            def is_alive(self):
                return False

        detail = SharedMemoryPool._describe_death(Proc())
        assert "exited with code 7" in detail
        assert "worker-3" in detail and "pid 4242" in detail

    def test_signal_death_described_by_name(self):
        class Proc:
            name, pid, exitcode = "worker-0", 99, -signal.SIGTERM

            def is_alive(self):
                return False

        assert "killed by SIGTERM" in SharedMemoryPool._describe_death(Proc())


class TestFaultInjectionFramework:
    def test_budgets_consumed_per_pool(self):
        faults.install(faults.FaultPlan(kill_at_unit=1, kills=2))
        faults.pool_spawning()
        assert faults._ARMED.kill_at_unit == 1  # first pool armed
        faults.pool_spawning()
        assert faults._ARMED.kill_at_unit == 1  # second pool armed
        faults.pool_spawning()
        assert faults._ARMED.kill_at_unit is None  # budget exhausted
        faults.clear()

    def test_injected_context_clears_on_exit(self):
        with faults.injected(faults.FaultPlan(kill_at_unit=1, kills=1)) as plan:
            assert faults.active() is plan
        assert faults.active() is None
        faults.pool_spawning()  # no plan: must stay disarmed
        assert faults._ARMED is None

    def test_hooks_are_noops_when_disarmed(self):
        faults.clear()
        faults.worker_units(0, 8)
        message = ("ok",) * 10
        assert faults.worker_message(message) is message


class TestServiceFaultStats:
    @staticmethod
    def fault_keys(stats):
        return {k: v for k, v in stats.items() if k.startswith("fault_")}

    def test_service_stats_surface_supervisor_counters(self):
        from repro.core.service import MnemonicService
        from repro.query.query_graph import QueryGraph

        query = QueryGraph.from_edges([(0, 1)], node_labels={0: 1, 1: 2})
        with MnemonicEngine(query, config=EngineConfig()) as engine:
            service = MnemonicService(engine, capacity=16)
            assert self.fault_keys(service.stats()) == {
                "fault_faults": 0, "fault_recovered_epochs": 0, "fault_level": "process",
            }
            service.close()

    def test_service_stats_after_a_kill(self, chaos_baseline):
        from repro.core.service import MnemonicService

        query, initial, events, _, _ = chaos_baseline
        with faults.injected(PLANS["kill"]()):
            with MnemonicEngine(query, config=chaos_config("serial", POOL)) as engine:
                if engine._pool is None:
                    pytest.skip("pool could not spawn in this environment")
                engine.load_initial(initial)
                with pytest.warns(RuntimeWarning, match="pool failed"):
                    engine.run(events)
                service = MnemonicService(engine, capacity=16)
                stats = self.fault_keys(service.stats())
                service.close()
        assert stats["fault_faults"] == 1
        assert stats["fault_recovered_epochs"] >= 1
        assert stats["fault_level"] == "serial"


def _dispatch_batch(engine, events, count=120):
    """Insert ``count`` events and dispatch one enumeration epoch."""
    from repro.core.enumeration import decompose_batch

    inserts = [e for e in events if e.kind is EventKind.INSERT][:count]
    ids = [
        engine.graph.add_edge(
            e.src, e.dst, e.label, e.timestamp, src_label=e.src_label, dst_label=e.dst_label
        )
        for e in inserts
    ]
    engine.index_manager.handle_insertions(ids)
    context = engine.runtime.make_context(engine.graph, batch_edge_ids=set(ids), positive=True)
    units = decompose_batch(context, ids)
    return engine._pool.dispatch({0: context}, {0: units})
