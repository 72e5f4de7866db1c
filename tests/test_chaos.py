"""Chaos tests: the self-healing execution layer under injected faults.

The contract under test (see ``repro.core.supervisor``): killed, hung or
message-corrupting pool workers must never change a result.  With a
respawn budget the supervisor replaces the pool and redispatches the
in-flight epochs from their frozen shared-memory segments, so recovery
is bit-identical to a fault-free run; when the budget is exhausted the
engine degrades ``process -> serial``, still bit-identical.

Faults are injected deterministically through ``repro.utils.faults``:
the plan is armed in the parent, consumed per pool *generation* at
spawn time, and inherited by the forked workers.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.parallel import (
    EnumerationOutcome,
    EpochDeadlineError,
    ParallelConfig,
    PoolBrokenError,
    WorkerStats,
)
from repro.core.registry import MultiQueryEngine
from repro.core.supervisor import FaultPolicy, PoolSupervisor
from repro.datasets import NetFlowConfig, generate_netflow_stream, graph_from_events
from repro.query.generator import QueryGenerator
from repro.streams.config import StreamConfig, StreamType
from repro.streams.events import EventKind, StreamEvent
from repro.utils import faults
from repro.utils.validation import ConfigurationError

pytestmark = pytest.mark.usefixtures("small_slices")

pytest.importorskip("multiprocessing.shared_memory")

POOL = ParallelConfig(backend="process", num_workers=2)
#: no backoff sleeps in tests; generous budget unless a test overrides it
HEAL = FaultPolicy(max_respawns=4, backoff_initial_seconds=0.0)


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No armed plan may leak between tests, even when one fails."""
    yield
    faults.clear()


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


def run_engine(query, initial, events, pipeline="pipelined", parallel=None,
               fault=None, batch_size=64):
    config = EngineConfig(
        stream=StreamConfig(batch_size=batch_size, stream_type=StreamType.INSERT_DELETE),
        parallel=parallel or ParallelConfig(),
        pipeline=pipeline,
        fault=fault or FaultPolicy(),
    )
    with MnemonicEngine(query, config=config) as engine:
        if parallel is not None and engine.multi._pool is None:
            pytest.skip("pool could not spawn in this environment")
        engine.load_initial(initial)
        result = engine.run(events)
        stats = engine.fault_stats()
        totals = engine.multi._supervisor.worker_totals
    pos = {e.identity() for s in result.snapshots for e in s.positive_embeddings}
    neg = {e.identity() for s in result.snapshots for e in s.negative_embeddings}
    return pos, neg, stats, totals


@pytest.fixture(scope="module")
def chaos_baseline():
    """Fault-free serial identities every chaos run must reproduce."""
    query, initial, events = mixed_workload()
    pos, neg, _, _ = run_engine(query, initial, events, pipeline="serial")
    assert pos and neg, "chaos baseline must be non-vacuous"
    return query, initial, events, pos, neg


class TestKillRespawnRedispatch:
    @pytest.mark.parametrize("pipeline", ["serial", "pipelined"])
    @pytest.mark.parametrize("kills", [1, 2, 3])
    def test_killed_workers_recover_bit_identically(
        self, chaos_baseline, pipeline, kills
    ):
        query, initial, events, base_pos, base_neg = chaos_baseline
        with faults.injected(faults.FaultPlan(kill_at_unit=2, kills=kills)):
            pos, neg, stats, _ = run_engine(
                query, initial, events, pipeline=pipeline, parallel=POOL, fault=HEAL
            )
        assert pos == base_pos
        assert neg == base_neg
        assert stats["respawns"] >= 1
        assert stats["faults"] >= kills
        assert stats["redispatched_epochs"] >= 1
        assert stats["level"] == "process"
        assert stats["degradations"] == []

    def test_respawn_is_silent_under_budget(self, chaos_baseline):
        """Self-healing is not an error: no RuntimeWarning while the
        budget holds (the legacy warning fires only on degradation)."""
        import warnings

        query, initial, events, base_pos, _ = chaos_baseline
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with faults.injected(faults.FaultPlan(kill_at_unit=2, kills=1)):
                pos, _, stats, _ = run_engine(
                    query, initial, events, parallel=POOL, fault=HEAL
                )
        assert pos == base_pos
        assert stats["respawns"] == 1


class TestDeadlines:
    def test_hung_worker_cut_off_by_epoch_deadline(self, chaos_baseline):
        """A wedged worker must not deadlock the drain: the deadline
        declares the pool broken and the respawn path recovers."""
        query, initial, events, base_pos, base_neg = chaos_baseline
        policy = FaultPolicy(
            max_respawns=2, backoff_initial_seconds=0.0, epoch_deadline_seconds=0.5
        )
        with faults.injected(
            faults.FaultPlan(hang_at_unit=1, hangs=1, hang_seconds=60.0)
        ):
            pos, neg, stats, _ = run_engine(
                query, initial, events, parallel=POOL, fault=policy
            )
        assert pos == base_pos
        assert neg == base_neg
        assert stats["deadline_expiries"] >= 1
        assert stats["respawns"] >= 1
        assert stats["level"] == "process"

    def test_pool_drain_raises_epoch_deadline_error(self):
        """Pool-level view: a drain past its deadline raises the typed
        subclass (so policy code can tell hangs from crashes)."""
        query, initial, events = mixed_workload()
        config = EngineConfig(parallel=POOL)
        with faults.injected(
            faults.FaultPlan(hang_at_unit=1, hangs=1, hang_seconds=60.0)
        ):
            with MnemonicEngine(query, config=config) as engine:
                pool = engine.multi._pool
                if pool is None:
                    pytest.skip("pool could not spawn in this environment")
                engine.load_initial(initial)
                handle = _dispatch_batch(engine, events)
                with pytest.raises(EpochDeadlineError, match="deadline"):
                    pool.drain(handle, deadline_seconds=0.3)
                assert pool.deadline_expiries == 1
                assert not pool.usable

    def test_deadline_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FaultPolicy(epoch_deadline_seconds=0.0)


class TestDegradationLadder:
    def test_budget_exhaustion_degrades_to_serial(self, chaos_baseline):
        """More kills than respawns: the run must finish enumerating
        serially with the degradation recorded — and identical results."""
        query, initial, events, base_pos, base_neg = chaos_baseline
        policy = FaultPolicy(max_respawns=1, backoff_initial_seconds=0.0)
        with pytest.warns(RuntimeWarning, match="pool failed"):
            with faults.injected(faults.FaultPlan(kill_at_unit=2, kills=3)):
                pos, neg, stats, _ = run_engine(
                    query, initial, events, parallel=POOL, fault=policy
                )
        assert pos == base_pos
        assert neg == base_neg
        assert stats["level"] == "serial"
        assert stats["degradations"] == ["process->serial"]
        assert stats["respawns"] == 1

    def test_degraded_run_unlinks_every_shared_segment(self, chaos_baseline):
        """No /dev/shm leak across retire + parent-side recovery + degrade.

        Regression test: parent-side epoch recovery used to install the
        worker-side resource-tracker patches in the *parent*, turning
        every later segment unlink into a silent no-op — each degraded
        run then leaked its writer segments until reboot.
        """
        if not os.path.isdir("/dev/shm"):
            pytest.skip("POSIX shared memory is not file-backed here")
        query, initial, events, _, _ = chaos_baseline
        before = {n for n in os.listdir("/dev/shm") if n.startswith("mnemonic_")}
        policy = FaultPolicy(max_respawns=1, backoff_initial_seconds=0.0)
        with pytest.warns(RuntimeWarning, match="pool failed"):
            with faults.injected(faults.FaultPlan(kill_at_unit=2, kills=3)):
                run_engine(query, initial, events, parallel=POOL, fault=policy)
        after = {n for n in os.listdir("/dev/shm") if n.startswith("mnemonic_")}
        assert after - before == set()

    def test_degradation_is_one_way(self):
        supervisor = PoolSupervisor(FaultPolicy(), factory=None)
        assert supervisor.level == "process"
        assert supervisor.replace(None) is None
        assert supervisor.level == "serial"
        # Further faults cannot climb back up or step anywhere new.
        assert supervisor.replace(None) is None
        assert supervisor.level == "serial"
        assert supervisor.stats.degradations == ["process->serial"]


class TestTornMessages:
    def test_torn_message_breaks_pool_with_diagnosis(self):
        """Pool-level view: a truncated result tuple must surface as
        PoolBrokenError naming the torn write, not as an unpack crash."""
        query, initial, events = mixed_workload()
        config = EngineConfig(parallel=POOL)
        with faults.injected(faults.FaultPlan(torn_at_unit=1, torn_messages=1)):
            with MnemonicEngine(query, config=config) as engine:
                pool = engine.multi._pool
                if pool is None:
                    pytest.skip("pool could not spawn in this environment")
                engine.load_initial(initial)
                handle = _dispatch_batch(engine, events)
                with pytest.raises(PoolBrokenError, match="torn write"):
                    pool.drain(handle)
                assert not pool.usable

    def test_torn_message_recovers_bit_identically(self, chaos_baseline):
        query, initial, events, base_pos, base_neg = chaos_baseline
        with faults.injected(faults.FaultPlan(torn_at_unit=1, torn_messages=1)):
            pos, neg, stats, _ = run_engine(
                query, initial, events, parallel=POOL, fault=HEAL
            )
        assert pos == base_pos
        assert neg == base_neg
        assert stats["faults"] >= 1
        assert stats["respawns"] >= 1


class TestMultiQueryChaos:
    def test_killed_workers_recover_per_query(self):
        _, initial, events = mixed_workload()
        stream = generate_netflow_stream(NetFlowConfig(num_events=900, num_hosts=70, seed=13))
        graph = graph_from_events(stream[:500])
        generator = QueryGenerator(graph, seed=7)
        queries = [generator.tree_query(3), generator.tree_query(4)]

        def run_multi(parallel, fault=None):
            config = EngineConfig(
                stream=StreamConfig(batch_size=64, stream_type=StreamType.INSERT_DELETE),
                parallel=parallel,
                pipeline="pipelined",
                fault=fault or FaultPolicy(),
            )
            with MultiQueryEngine(config=config) as engine:
                ids = [engine.register(q) for q in queries]
                engine.load_initial(initial)
                result = engine.run(events)
                stats = engine.fault_stats()
            identities = {
                qid: {
                    e.identity()
                    for s in result.per_query[qid].snapshots
                    for e in s.positive_embeddings
                }
                for qid in ids
            }
            return identities, stats

        baseline, _ = run_multi(ParallelConfig())
        with faults.injected(faults.FaultPlan(kill_at_unit=2, kills=1)):
            chaotic, stats = run_multi(POOL, fault=HEAL)
        if stats["respawns"] == 0 and stats["faults"] == 0:
            pytest.skip("pool could not spawn in this environment")
        assert chaotic == baseline
        assert stats["respawns"] >= 1
        assert stats["level"] == "process"


class TestWorkerDeathDiagnostics:
    """Satellite: PoolBrokenError must say which worker died and how."""

    def test_dead_worker_message_names_signal_and_pid(self):
        query, initial, events = mixed_workload()
        config = EngineConfig(parallel=POOL)
        with MnemonicEngine(query, config=config) as engine:
            pool = engine.multi._pool
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
        from repro.core.parallel import SharedMemoryPool

        class Proc:
            name, pid, exitcode = "worker-3", 4242, 7

            def is_alive(self):
                return False

        detail = SharedMemoryPool._describe_death(Proc())
        assert "exited with code 7" in detail
        assert "worker-3" in detail and "pid 4242" in detail

    def test_signal_death_described_by_name(self):
        from repro.core.parallel import SharedMemoryPool

        class Proc:
            name, pid, exitcode = "worker-0", 99, -signal.SIGTERM

            def is_alive(self):
                return False

        assert "killed by SIGTERM" in SharedMemoryPool._describe_death(Proc())


class TestWorkerStatsAcrossGenerations:
    """Satellite: per-worker accounting must survive a respawn."""

    def test_supervisor_accumulates_totals_per_generation(self):
        supervisor = PoolSupervisor(FaultPolicy(), factory=None)
        gen0 = EnumerationOutcome(
            embeddings=[],
            worker_stats=[
                WorkerStats(worker_id=0, units_processed=5, embeddings_found=2,
                            busy_seconds=0.5, generation=0),
                WorkerStats(worker_id=1, units_processed=3, busy_seconds=0.1,
                            generation=0),
            ],
            wall_seconds=1.0,
        )
        gen1 = EnumerationOutcome(
            embeddings=[],
            worker_stats=[
                WorkerStats(worker_id=0, units_processed=7, embeddings_found=1,
                            busy_seconds=0.2, generation=1),
            ],
            wall_seconds=1.0,
        )
        supervisor.record_outcome(gen0)
        supervisor.record_outcome(gen1)
        supervisor.record_outcome(gen1)  # accumulation, not replacement
        totals = supervisor.worker_totals
        assert totals[(0, 0)] == {"units": 5, "embeddings": 2, "busy_seconds": 0.5}
        assert totals[(0, 1)]["units"] == 3
        assert totals[(1, 0)] == {"units": 14, "embeddings": 2, "busy_seconds": 0.4}

    def test_mean_utilisation_over_mixed_generation_stats(self):
        outcome = EnumerationOutcome(
            embeddings=[],
            worker_stats=[
                WorkerStats(worker_id=0, busy_seconds=0.8, generation=0),
                WorkerStats(worker_id=0, busy_seconds=0.2, generation=1),
                WorkerStats(worker_id=1, busy_seconds=2.0, generation=1),
            ],
            wall_seconds=1.0,
        )
        assert 0.0 <= outcome.mean_utilisation() <= 1.0

    def test_engine_totals_span_generations_after_respawn(self, chaos_baseline):
        """Killing the pool after it completed work must leave both the
        old and the new generation visible in the supervisor's totals."""
        query, initial, events, base_pos, _ = chaos_baseline
        # Batches small enough that generation 0 completes phases before
        # its armed kill (unit 60) fires.
        with faults.injected(faults.FaultPlan(kill_at_unit=60, kills=1)):
            pos, _, stats, totals = run_engine(
                query, initial, events, parallel=POOL, fault=HEAL, batch_size=16
            )
        assert pos == base_pos
        generations = {generation for generation, _ in totals}
        if stats["respawns"] == 0:
            pytest.skip("kill unit was never reached at this workload size")
        assert len(generations) >= 2, totals
        assert all(entry["units"] >= 0 for entry in totals.values())


class TestFaultPolicyValidation:
    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPolicy(max_respawns=-1)

    def test_backoff_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPolicy(backoff_initial_seconds=-0.1)
        with pytest.raises(ConfigurationError):
            FaultPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            FaultPolicy(backoff_initial_seconds=1.0, backoff_max_seconds=0.5)

    def test_backoff_schedule_caps(self):
        policy = FaultPolicy(
            max_respawns=5, backoff_initial_seconds=0.1,
            backoff_multiplier=2.0, backoff_max_seconds=0.3,
        )
        assert policy.backoff_seconds(1) == pytest.approx(0.1)
        assert policy.backoff_seconds(2) == pytest.approx(0.2)
        assert policy.backoff_seconds(3) == pytest.approx(0.3)  # capped
        assert policy.backoff_seconds(4) == pytest.approx(0.3)

    def test_default_policy_is_conservative(self):
        policy = FaultPolicy()
        assert policy.max_respawns == 0
        assert policy.epoch_deadline_seconds is None


class TestFaultInjectionFramework:
    def test_budgets_consumed_per_generation(self):
        faults.install(faults.FaultPlan(kill_at_unit=1, kills=2))
        faults.pool_spawning()
        assert faults._ARMED.kill_at_unit == 1  # generation 0 armed
        faults.pool_spawning()
        assert faults._ARMED.kill_at_unit == 1  # generation 1 armed
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
    def test_service_stats_surface_supervisor_counters(self):
        from repro.core.service import MnemonicService
        from repro.query.query_graph import QueryGraph

        query = QueryGraph.from_edges([(0, 1)], node_labels={0: 1, 1: 2})
        with MnemonicEngine(query, config=EngineConfig()) as engine:
            service = MnemonicService(engine, capacity=16)
            stats = service.stats()
            assert stats["fault_level"] == "process"
            assert stats["fault_respawns"] == 0
            assert stats["fault_degradations"] == 0
            service.close()


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
    return engine.multi._pool.dispatch({0: context}, {0: units})
