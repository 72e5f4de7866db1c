"""Unit tests for the parallel enumeration backends."""

import pytest

from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.parallel import ParallelConfig
from repro.datasets import NetFlowConfig, generate_netflow_stream, graph_from_events
from repro.query.generator import QueryGenerator
from repro.streams.config import StreamConfig
from repro.utils.validation import ConfigurationError


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
        with pytest.raises(ConfigurationError):
            ParallelConfig(chunk_size=0)


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


class TestBackendsAgree:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_backend_matches_serial(self, workers):
        serial_embeddings, serial_result = run_with(ParallelConfig(backend="serial"))
        other_embeddings, other_result = run_with(
            ParallelConfig(backend="process", num_workers=workers, chunk_size=8)
        )
        assert other_embeddings == serial_embeddings
        assert serial_result.total_positive == other_result.total_positive

    @pytest.mark.parametrize("parallel", [
        ParallelConfig(), ParallelConfig(backend="process", num_workers=3, chunk_size=8),
    ], ids=["serial", "process"])
    def test_worker_stats_recorded(self, parallel):
        _, result = run_with(parallel)
        outcomes = [o for s in result.snapshots for o in s.enumeration_outcomes if o.worker_stats]
        assert outcomes, "expected at least one enumeration outcome with worker stats"
        assert any(w.units_processed > 0 for o in outcomes for w in o.worker_stats)
        assert all(0.0 <= o.mean_utilisation() <= 1.0 for o in outcomes)
