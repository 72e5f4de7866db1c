"""Unit tests for the benchmark harness, metrics and reporting helpers."""

import pytest

from repro.bench.harness import (
    BenchRun,
    run_bigjoin_inserts,
    run_ceci_per_snapshot,
    run_litcs_stream,
    run_mnemonic_stream,
    run_service_stream,
    run_turboflux_stream,
)
from repro.bench.metrics import cpu_usage_timeline, mean_runtime, speedup_table, traversals_per_update
from repro.bench.reporting import format_series, format_table
from repro.core.parallel import ParallelConfig
from repro.datasets import NetFlowConfig, generate_netflow_stream, graph_from_events
from repro.matchers import HomomorphismMatcher
from repro.query.generator import QueryGenerator
from repro.streams.clock import VirtualClock


@pytest.fixture(scope="module")
def workload():
    stream = generate_netflow_stream(NetFlowConfig(num_events=800, num_hosts=80, seed=31))
    graph = graph_from_events(stream[:600])
    query = QueryGenerator(graph, seed=7).tree_query(3)
    return query, stream


class TestHarnessRunners:
    def test_mnemonic_runner(self, workload):
        query, stream = workload
        run = run_mnemonic_stream(query, stream, initial_prefix=600, batch_size=64,
                                  query_name="T_3")
        assert run.system == "Mnemonic"
        assert run.seconds > 0
        assert run.extra["snapshots"] > 0
        assert run.run_result is not None
        assert run.throughput >= 0

    def test_throughput_clamps_zero_duration(self):
        # Regression: a timed section that rounded to <= 0 seconds used to
        # report throughput 0.0 even though embeddings were found.
        run = BenchRun(system="x", query_name="q", seconds=0.0, embeddings=5)
        assert run.throughput > 0
        run = BenchRun(system="x", query_name="q", seconds=-0.0, embeddings=3,
                       negative_embeddings=2)
        assert run.throughput > 0
        # No embeddings still reports 0, and a real duration divides normally.
        assert BenchRun("x", "q", seconds=0.0, embeddings=0).throughput == 0.0
        assert BenchRun("x", "q", seconds=2.0, embeddings=4).throughput == 2.0

    def test_service_runner(self, workload):
        query, stream = workload
        baseline = run_mnemonic_stream(query, stream, initial_prefix=600,
                                       batch_size=64, collect_embeddings=True)
        run = run_service_stream(query, stream, initial_prefix=600, batch_size=64,
                                 collect_embeddings=True, query_name="T_3")
        assert run.system == "Mnemonic-service"
        assert run.embeddings == baseline.embeddings
        assert run.extra["candidates_scanned"] == baseline.extra["candidates_scanned"]
        assert run.latency  # every service result carries an ingest latency
        assert run.latency["count"] == run.extra["snapshots"]
        assert run.latency["p50"] <= run.latency["p95"] <= run.latency["p99"]
        assert run.extra["broker"]["enqueued"] == len(stream) - 600

    def test_service_runner_paces_arrivals_on_a_virtual_clock(self, workload):
        query, stream = workload
        clock = VirtualClock()
        run = run_service_stream(query, stream, initial_prefix=600, batch_size=64,
                                 events_per_second=1000.0, clock=clock)
        # event i is due at i / 1000 s; processing costs no virtual time, so
        # a full batch waits exactly for its 63 later arrivals
        assert clock.now() == pytest.approx((len(stream) - 600 - 1) / 1000.0)
        assert run.latency["max"] == pytest.approx(63 / 1000.0)
        assert run.latency["count"] == run.extra["snapshots"] == -(-(len(stream) - 600) // 64)

    def test_turboflux_runner(self, workload):
        query, stream = workload
        run = run_turboflux_stream(query, stream, initial_prefix=600, query_name="T_3")
        assert run.system == "TurboFlux"
        assert run.seconds > 0
        assert run.extra["traversed_edges"] > 0

    def test_runners_agree_on_embedding_counts(self, workload):
        query, stream = workload
        mnemonic = run_mnemonic_stream(query, stream, initial_prefix=600, batch_size=64)
        turboflux = run_turboflux_stream(query, stream, initial_prefix=600)
        # The NetFlow generator can emit parallel edges, which Mnemonic counts
        # per instance and TurboFlux collapses, so Mnemonic finds at least as many.
        assert mnemonic.embeddings >= turboflux.embeddings

    def test_bigjoin_runner(self, workload):
        query, stream = workload
        run = run_bigjoin_inserts(query, stream, match_def=HomomorphismMatcher(),
                                  initial_prefix=700, batch_size=50)
        assert run.system == "BigJoin"
        assert run.extra["intersections"] > 0

    def test_ceci_runner(self, workload):
        query, stream = workload
        run = run_ceci_per_snapshot(query, stream, snapshot_points=[600, 700, 800])
        assert run.system == "CECI"
        assert run.extra["snapshots"] == 3
        assert run.seconds >= 0

    def test_litcs_runner(self):
        from repro.datasets import LANLConfig, generate_lanl_stream, build_query_workload

        stream = generate_lanl_stream(LANLConfig(num_events=600, num_entities=80, seed=17))
        workload = build_query_workload(stream, tree_sizes=(3,), graph_sizes=(),
                                        queries_per_suite=1, with_timestamps=True, seed=2)
        query = workload.queries("T_3")[0]
        run = run_litcs_stream(query, stream, query_name="T_3")
        assert run.system == "Li et al."
        assert run.extra["peak_stored_partials"] >= 0

    def test_mnemonic_parallel_and_window_options(self, workload):
        query, stream = workload
        run = run_mnemonic_stream(
            query, stream, initial_prefix=700, batch_size=32,
            parallel=ParallelConfig(backend="process", num_workers=2),
        )
        assert run.seconds > 0


class TestMetrics:
    def test_speedup_table(self):
        baseline = {"T_3": 10.0, "T_6": 20.0}
        system = {"T_3": 2.0, "T_6": 40.0, "T_9": 1.0}
        speedups = speedup_table(baseline, system)
        assert speedups["T_3"] == pytest.approx(5.0)
        assert speedups["T_6"] == pytest.approx(0.5)
        assert "T_9" not in speedups

    def test_cpu_usage_timeline(self, workload):
        query, stream = workload
        run = run_mnemonic_stream(query, stream, initial_prefix=600, batch_size=64,
                                  parallel=ParallelConfig(backend="process", num_workers=2))
        series = cpu_usage_timeline(run.run_result, buckets=10)
        assert len(series) == 10
        assert all(0.0 <= value <= 1.0 for _, value in series)

    def test_traversals_per_update(self, workload):
        query, stream = workload
        run = run_mnemonic_stream(query, stream, initial_prefix=600, batch_size=64)
        assert traversals_per_update(run.run_result) > 0

    def test_mean_runtime(self):
        assert mean_runtime([]) == 0.0
        assert mean_runtime([1.0, 3.0]) == 2.0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table("Title", ["name", "value"], [["a", 1.5], ["bbbb", 2]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        text = format_series("S", {"x1": 1.0, "x2": 2.0}, value_name="runtime")
        assert "runtime" in text
        assert "x2" in text


class TestResultTables:
    """``benchmarks/conftest.py:write_result`` must not dirty the tree over wall-clock jitter."""

    @staticmethod
    def table(runtime=9.1852, backend="process", embeddings=21270):
        return format_table("T", ["suite", "backend", "runtime_s", "embeddings"],
                            [["T_9", "serial", 0.0201, 21270], ["T_9", backend, runtime, embeddings]])

    @pytest.fixture
    def results(self, tmp_path, monkeypatch):
        import benchmarks.conftest as bench_conftest

        monkeypatch.setattr(bench_conftest, "RESULTS_DIR", str(tmp_path))
        bench_conftest.write_result("table", self.table())
        return bench_conftest.write_result, tmp_path / "table.txt"

    def test_timing_jitter_leaves_the_file_alone(self, results):
        write_result, path = results
        slower = self.table(runtime=12345.6789)  # wider than its header: the layout moves too
        assert len(slower.splitlines()[2]) > len(self.table().splitlines()[2])
        write_result("table", slower)
        assert path.read_text() == self.table() + "\n"

    @pytest.mark.parametrize("moved", [
        {"embeddings": 21271}, {"backend": "thread"}, {"runtime": 9},
    ], ids=["count", "text", "float-to-integer"])
    def test_counts_and_text_force_a_rewrite(self, results, moved):
        write_result, path = results
        write_result("table", self.table(**moved))
        assert path.read_text() == self.table(**moved) + "\n"
