"""Service latency vs offered load: the figure the paper never measured.

The paper evaluates Mnemonic as a batch replayer — throughput over a
pre-materialised trace, with ingest assumed free.  A live service is
judged on a different axis: how long an event waits between *arriving*
and its matches being *available*, as a function of offered load.  This
benchmark drives :class:`~repro.core.service.MnemonicService`, the one
live ingest path, in an open loop at several uniform offered loads (event
``i`` due at ``i / rate`` on the real wall clock, submitted when due and
polled for results) with adaptive batching enabled, and reports the
p50/p95/p99 ingest-to-result latency rollup next to throughput.

Expected shape: at low load the adaptive ``max_batch_delay`` dominates —
batches flush on time, so p50 sits near the delay and grows only mildly
with load; as offered load approaches service capacity, queueing in the
broker pushes the tail percentiles up first.  Latency
*values* on shared CI runners are noise, so assertions only cover
structure: every run reports a full rollup over every snapshot, and
percentiles are ordered.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.bench.harness import run_service_stream
from repro.bench.reporting import format_table
from repro.streams.config import StreamType

SUFFIX = 400
BATCH_SIZE = 64
MAX_BATCH_DELAY = 0.02
#: uniform offered loads (events/second); ~0.2s and ~0.05s of streaming
LOADS = (2000.0, 8000.0)


def _run(stream, workload):
    prefix = len(stream) - SUFFIX
    suite, query = next(iter(workload))  # T_3: the latency-bound (small) query
    rows = []
    summaries = {}
    for load in LOADS:
        run = run_service_stream(
            query, stream, initial_prefix=prefix, batch_size=BATCH_SIZE,
            max_batch_delay=MAX_BATCH_DELAY, stream_type=StreamType.INSERT_ONLY,
            events_per_second=load, query_name=suite,
        )
        latency = run.latency
        summaries[load] = run
        rows.append([
            suite, f"{load:.0f}",
            latency.get("p50", 0.0) * 1e3, latency.get("p95", 0.0) * 1e3,
            latency.get("p99", 0.0) * 1e3, latency.get("max", 0.0) * 1e3,
            run.embeddings, run.seconds,
        ])
    return rows, summaries


@pytest.mark.benchmark(group="fig18_service_latency")
def test_fig18_service_latency(benchmark, netflow_workload):
    stream, workload = netflow_workload
    rows, summaries = benchmark.pedantic(
        _run, args=(stream, workload), rounds=1, iterations=1
    )
    table = format_table(
        "Service latency vs offered load - MnemonicService open loop, adaptive batching "
        f"(delay {MAX_BATCH_DELAY * 1e3:.0f}ms, cap {BATCH_SIZE})",
        ["suite", "load_ev_s", "p50_ms", "p95_ms",
         "p99_ms", "max_ms", "embeddings", "wall_s"],
        rows,
    )
    write_result("fig18_service_latency", table)
    # How many batches the deadline sealed and how deep the broker queue got
    # follow the wall clock; as integers they would dirty the committed table
    # on every run, so they are printed and bounded below, not written.
    for load, run in summaries.items():
        print(f"fig18 {load:.0f} ev/s: {run.extra['snapshots']} batches, "
              f"peak queue {run.extra['broker']['max_depth']}")

    embeddings = {load: run.embeddings for load, run in summaries.items()}
    assert len(set(embeddings.values())) == 1, (
        f"offered load changed the results: {embeddings}"
    )
    for load, run in summaries.items():
        latency = run.latency
        assert latency, f"{load}: service run reported no latency rollup"
        # every processed snapshot must carry an ingest->result latency
        assert latency["count"] == run.extra["snapshots"]
        # the size cap alone needs SUFFIX / BATCH_SIZE batches; a deadline only adds some
        assert -(-SUFFIX // BATCH_SIZE) <= run.extra["snapshots"] <= SUFFIX
        assert 0.0 <= latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]
        # ingest really went through the service's bounded broker
        assert run.extra["broker"]["enqueued"] == SUFFIX
        assert 1 <= run.extra["broker"]["max_depth"] <= 4096
