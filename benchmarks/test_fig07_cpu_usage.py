"""Figure 7: per-worker utilisation over the lifetime of one query.

The paper samples per-core CPU usage while a T_9 query is processed and
shows that Mnemonic keeps all cores busy (fine-grained pull-based work
units) whereas TurboFlux is strictly sequential.  The reproduction runs
the same stream on the 4-worker pull-based process pool, derives the
utilisation timeline from the workers' busy intervals, and contrasts it
with the sequential baseline (which by construction can keep at most one
worker busy, i.e. 1/4 of the pool).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.bench.harness import run_mnemonic_stream, run_turboflux_stream
from repro.bench.metrics import cpu_usage_timeline
from repro.bench.reporting import format_series
from repro.core.parallel import ParallelConfig

WORKERS = 4
SUFFIX = 600
BATCH_SIZE = 128


def _pick_query(workload):
    # The paper uses a T_9 query; fall back to the largest available suite.
    suites = sorted((s for s in workload.suite_names() if s.startswith("T_")),
                    key=lambda s: int(s.split("_")[1]))
    return suites[-1], workload.queries(suites[-1])[0]


def _run(stream, workload):
    suite, query = _pick_query(workload)
    prefix = len(stream) - SUFFIX
    mnemonic = run_mnemonic_stream(
        query, stream, initial_prefix=prefix, batch_size=BATCH_SIZE, query_name=suite,
        parallel=ParallelConfig(backend="process", num_workers=WORKERS),
    )
    turboflux = run_turboflux_stream(query, stream, initial_prefix=prefix, query_name=suite)
    series = cpu_usage_timeline(mnemonic.run_result, buckets=20)
    mean_util = sum(v for _, v in series) / len(series)
    return suite, series, mean_util, mnemonic, turboflux


@pytest.mark.benchmark(group="fig07")
def test_fig07_cpu_usage(benchmark, netflow_workload):
    stream, workload = netflow_workload
    suite, series, mean_util, mnemonic, turboflux = benchmark.pedantic(
        _run, args=(stream, workload), rounds=1, iterations=1
    )
    text = format_series(
        f"Figure 7 - worker utilisation over normalised runtime ({suite}, {WORKERS} workers)",
        [(f"{x:.2f}", v) for x, v in series],
        value_name="mean_utilisation",
    )
    text += (
        f"\nmean worker utilisation (Mnemonic, pull-based): {mean_util:.2f}"
        f"\nsequential baseline utilisation bound (1/{WORKERS} workers): {1.0 / WORKERS:.2f}"
        f"\nTurboFlux runtime {turboflux.seconds:.3f} s vs Mnemonic {mnemonic.seconds:.3f} s"
    )
    write_result("fig07_cpu_usage", text)
    # Shape check: the pull-based decomposition keeps the pool busier than a
    # strictly sequential system ever could (> 1/WORKERS on average).
    assert mean_util > 1.0 / WORKERS
