"""Figure 7 companion: ingest throughput of the mutation path.

The paper's update/filter/enumerate CPU split (fig07) is why ingest is
columnar: graph mutation and DEBI maintenance are the two phases a
streaming system pays on *every* batch, enumeration only where matches
exist.  This benchmark runs the fig06 netflow stream from a cold graph
and tables the phase split, the ingest wall (update + filter) and the
derived events/sec per batch size.  (Bit-identity with a per-edge loop is
a test: ``tests/test_columnar_ingest.py``.)

The shape check is that batching pays: a larger batch amortises the
per-batch fixed costs, so events/sec must not fall as the batch grows.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.bench.harness import run_mnemonic_stream
from repro.bench.reporting import format_table

BATCH_SIZES = (256, 512, 1024)
#: best-of samples per batch size — one sample is too exposed to a stray GC
#: pause to compare two ~30 ms walls
SAMPLES = 3


def _pick_query(workload):
    suites = sorted((s for s in workload.suite_names() if s.startswith("T_")),
                    key=lambda s: int(s.split("_")[1]))
    return suites[-1], workload.queries(suites[-1])[0]


def _run(stream, workload):
    suite, query = _pick_query(workload)
    rows = []
    for batch in BATCH_SIZES:
        samples = []
        for _ in range(SAMPLES):
            run = run_mnemonic_stream(
                query, stream, initial_prefix=0, batch_size=batch, query_name=suite,
            )
            split = run.extra["phase_split"]
            samples.append((split["update_seconds"] + split["filter_seconds"], split, run))
        ingest_wall, split, run = min(samples, key=lambda s: s[0])
        rows.append([
            batch, split["update_seconds"], split["filter_seconds"],
            split["enumerate_seconds"], ingest_wall,
            len(stream) / ingest_wall, run.embeddings,
        ])
    return suite, rows


@pytest.mark.benchmark(group="fig07")
def test_fig07_ingest_throughput(benchmark, netflow_workload):
    stream, workload = netflow_workload
    suite, rows = benchmark.pedantic(_run, args=(stream, workload), rounds=1, iterations=1)
    text = format_table(
        f"Figure 7 companion - ingest phase split and throughput ({suite}, cold graph)",
        ["batch", "update_s", "filter_s", "enumerate_s",
         "ingest_wall_s", "events_per_s", "embeddings"],
        rows,
    )
    write_result("fig07_ingest_throughput", text)
    assert len({row[6] for row in rows}) == 1, "embedding count depends on the batch size"
    # Shape check only (wall-clock on shared runners is noisy): the largest
    # batch must ingest at least as fast as the smallest.
    assert rows[-1][5] > rows[0][5], f"batching does not pay: {rows}"
