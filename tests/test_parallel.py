"""Unit tests for the parallel enumeration backends."""

import numpy as np
import pytest

from repro.core import parallel as parallel_module
from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.enumeration import WorkUnits
from repro.core.parallel import ParallelConfig, slice_units
from repro.datasets import NetFlowConfig, generate_netflow_stream, graph_from_events
from repro.query.generator import QueryGenerator
from repro.streams.config import StreamConfig
from repro.utils.validation import ConfigurationError


POOL = ParallelConfig(backend="process", num_workers=2)


def build_workload():
    stream = generate_netflow_stream(NetFlowConfig(num_events=600, num_hosts=60, seed=13))
    graph = graph_from_events(stream[:400])
    query = QueryGenerator(graph, seed=2).tree_query(3)
    return query, stream


def run_with(parallel: ParallelConfig):
    query, stream = build_workload()
    config = EngineConfig(stream=StreamConfig(batch_size=128), parallel=parallel)
    with MnemonicEngine(query, config=config) as engine:
        engine.load_initial(stream[:400])
        result = engine.run(stream[400:])
    return {e.identity() for s in result.snapshots for e in s.positive_embeddings}, result


class TestParallelConfig:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(backend="gpu")

    def test_exactly_two_backends(self):
        assert ParallelConfig().backend == "serial"
        assert ParallelConfig(backend="process").backend == "process"
        with pytest.raises(ConfigurationError, match="'serial' or 'process'"):
            ParallelConfig(backend="thread")

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(num_workers=0)

    def test_chunk_size_is_gone(self):
        """Slices follow from the batch (``slice_units``); there is nothing to set."""
        with pytest.raises(TypeError):
            ParallelConfig(chunk_size=8)


class TestUtilisationEdgeCases:
    """Division edge cases: zero wall-clock windows and empty worker lists."""

    def test_zero_wall_busy_worker_is_fully_utilised(self):
        from repro.core.parallel import WorkerStats

        stats = WorkerStats(worker_id=0, busy_seconds=0.5)
        assert stats.utilisation(0.0) == 1.0
        assert stats.utilisation(-1.0) == 1.0

    def test_zero_wall_idle_worker_is_idle(self):
        from repro.core.parallel import WorkerStats

        stats = WorkerStats(worker_id=0, busy_seconds=0.0)
        assert stats.utilisation(0.0) == 0.0

    def test_utilisation_capped_at_one(self):
        from repro.core.parallel import WorkerStats

        # Busy time can exceed a noisy tiny wall measurement; never report > 1.
        stats = WorkerStats(worker_id=0, busy_seconds=2.0)
        assert stats.utilisation(1.0) == 1.0
        assert stats.utilisation(4.0) == 0.5

    def test_mean_utilisation_empty_worker_list(self):
        from repro.core.parallel import EnumerationOutcome

        outcome = EnumerationOutcome(embeddings=[], worker_stats=[], wall_seconds=0.0)
        assert outcome.mean_utilisation() == 0.0

    def test_mean_utilisation_zero_wall(self):
        from repro.core.parallel import EnumerationOutcome, WorkerStats

        outcome = EnumerationOutcome(
            embeddings=[],
            worker_stats=[
                WorkerStats(worker_id=0, busy_seconds=0.1),
                WorkerStats(worker_id=1, busy_seconds=0.0),
            ],
            wall_seconds=0.0,
        )
        # One fully-utilised worker, one idle: the mean stays in [0, 1].
        assert outcome.mean_utilisation() == 0.5


@pytest.mark.usefixtures("small_slices")
class TestBackendsAgree:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_backend_matches_serial(self, workers):
        serial_embeddings, serial_result = run_with(ParallelConfig(backend="serial"))
        other_embeddings, other_result = run_with(
            ParallelConfig(backend="process", num_workers=workers)
        )
        assert other_embeddings == serial_embeddings
        assert serial_result.total_positive == other_result.total_positive

    @pytest.mark.parametrize("parallel", [
        ParallelConfig(), ParallelConfig(backend="process", num_workers=3),
    ], ids=["serial", "process"])
    def test_worker_stats_recorded(self, parallel):
        _, result = run_with(parallel)
        outcomes = [o for s in result.snapshots for o in s.enumeration_outcomes if o.worker_stats]
        assert outcomes, "expected at least one enumeration outcome with worker stats"
        assert any(w.units_processed > 0 for o in outcomes for w in o.worker_stats)
        assert all(0.0 <= o.mean_utilisation() <= 1.0 for o in outcomes)
        for stats in (w for o in outcomes for w in o.worker_stats):
            assert stats.kernel_calls >= 1 and stats.result_bytes >= 0
            assert stats.busy_seconds == pytest.approx(stats.attach_seconds + stats.kernel_seconds)

    def test_both_workers_receive_work(self):
        """With ``small_slices`` the suite's tiny phases are multi-slice epochs."""
        _, result = run_with(POOL)
        outcomes = [o for s in result.snapshots for o in s.enumeration_outcomes]
        assert max(sum(w.kernel_calls for w in o.worker_stats) for o in outcomes) > 1
        assert {w.worker_id for o in outcomes for w in o.worker_stats} == {0, 1}

    def test_pool_scan_counter_repeats(self):
        """What a slice is charged does not depend on which worker pulled what."""
        _, serial = run_with(ParallelConfig())
        totals = {run_with(POOL)[1].total_candidates_scanned for _ in range(3)}
        assert len(totals) == 1
        assert serial.total_candidates_scanned <= totals.pop() <= (
            2 * POOL.num_workers * serial.total_candidates_scanned
        )


def test_single_slice_phases_charge_what_serial_charges():
    """Below ``2 * MIN_SLICE_UNITS`` units a phase is one offloaded kernel call."""
    _, serial = run_with(ParallelConfig())
    _, pooled = run_with(POOL)
    outcomes = [o for s in pooled.snapshots for o in s.enumeration_outcomes]
    assert any(len(o.worker_stats) == 1 and o.worker_stats[0].generation == 0
               and o.worker_stats[0].attach_seconds > 0 for o in outcomes), "no pool phase"
    assert all(sum(w.kernel_calls for w in o.worker_stats) == 1 for o in outcomes)
    assert pooled.total_candidates_scanned == serial.total_candidates_scanned


class TestSlicing:
    @pytest.mark.parametrize("num_workers", [2, 3, 8])
    @pytest.mark.parametrize("n_units", [0, 1, 255, 256, 257, 1000, 5000])
    def test_slices_partition_the_units_evenly(self, n_units, num_workers):
        units = WorkUnits(np.arange(n_units), np.arange(n_units) % 5)
        slices = slice_units(units, num_workers)
        assert len(slices) == min(
            max(n_units // parallel_module.MIN_SLICE_UNITS, 1), 2 * num_workers
        )
        # disjoint, and together the units: every edge id exactly once, rows intact
        assert sorted(np.concatenate([s.edge_ids for s in slices]).tolist()) == list(range(n_units))
        assert all((s.start_edges == s.edge_ids % 5).all() for s in slices)
        sizes = [len(s) for s in slices]
        assert max(sizes) - min(sizes) <= 1

    def test_a_pool_phase_is_a_few_kernel_calls(self):
        """One 4096-event batch of the dense T_6: one kernel call per slice, at
        most ``2 * num_workers`` per (epoch, query) — not one per 64 units."""
        from benchmarks.e2e.queries import query_graph
        from benchmarks.e2e.workloads import generate_netflow, to_events

        events = to_events(generate_netflow(7, 4000 + 4096, 2000))
        found = {}
        for name, parallel in (("serial", ParallelConfig()), ("pool", POOL)):
            config = EngineConfig(stream=StreamConfig(batch_size=4096), parallel=parallel)
            with MnemonicEngine(query_graph("netflow_t6_dense"), config=config) as engine:
                engine.load_initial(events[:4000])
                (found[name],) = engine.run(events[4000:]).snapshots
                pool_phases = engine.pool_enumeration_phases
        serial, pooled = found["serial"], found["pool"]
        assert pooled.work_units == serial.work_units >= 4 * parallel_module.MIN_SLICE_UNITS
        (outcome,) = pooled.enumeration_outcomes
        assert pool_phases == 1
        assert 1 < sum(w.kernel_calls for w in outcome.worker_stats) <= 2 * POOL.num_workers
        assert sum(w.result_bytes for w in outcome.worker_stats) > 0
        assert set(pooled.positive_embeddings.identities()) == set(
            serial.positive_embeddings.identities()
        )
        assert pooled.num_positive == serial.num_positive > 0
