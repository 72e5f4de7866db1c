"""Figure 13: speedup over worker count (batch size fixed).

The paper parallelises frontier computation, filtering and enumeration
with OpenMP and reports a 5.22x average speedup at 24 threads.  This
benchmark sweeps the worker count of the one parallel backend, the
shared-memory ``process`` pool, against ``serial``.

What it shows here is the mechanism, not the paper's result: the serial
kernel finishes this batch in tens of milliseconds, so one snapshot
publication plus the IPC round trip costs several times the enumeration
it distributes, and every pool row is slower than serial at this scale
(``benchmarks/e2e``'s ``netflow-pool-pipelined`` measures the same at
20k events).  The assertions therefore pin correctness — every row finds
the same embeddings — and that the one-worker configuration, which runs
the serial path, costs what serial costs.  A native thread backend is
not measured because there is none: Python threads convoy on the GIL
around the kernel's short numpy calls (see ``docs/parallelism.md``).

The workload is a single large insertion batch of the most
enumeration-heavy suite so that worker start-up costs are amortised the
same way the paper's per-query measurement does.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.bench.harness import run_mnemonic_stream
from repro.bench.reporting import format_table
from repro.core.parallel import ParallelConfig

WORKER_COUNTS = (1, 2, 4, 8)
SUFFIX = 800


def _pick_query(workload):
    suites = sorted((s for s in workload.suite_names() if s.startswith("T_")),
                    key=lambda s: int(s.split("_")[1]))
    return suites[-1], workload.queries(suites[-1])[0]


def _run(stream, workload):
    suite, query = _pick_query(workload)
    prefix = len(stream) - SUFFIX
    baseline = run_mnemonic_stream(query, stream, initial_prefix=prefix,
                                   batch_size=SUFFIX, query_name=suite)
    rows = [[suite, "serial", 1, baseline.seconds, 1.0, baseline.embeddings]]
    for workers in WORKER_COUNTS:
        run = run_mnemonic_stream(
            query, stream, initial_prefix=prefix, batch_size=SUFFIX, query_name=suite,
            parallel=ParallelConfig(backend="process", num_workers=workers, chunk_size=16),
        )
        speedup = baseline.seconds / run.seconds if run.seconds > 0 else 0.0
        rows.append([suite, "process", workers, run.seconds, speedup, run.embeddings])
    return rows


@pytest.mark.benchmark(group="fig13")
def test_fig13_thread_scaling(benchmark, netflow_workload):
    stream, workload = netflow_workload
    rows = benchmark.pedantic(_run, args=(stream, workload), rounds=1, iterations=1)
    table = format_table(
        "Figure 13 - speedup over worker count (single large batch)",
        ["suite", "backend", "workers", "runtime_s", "speedup_vs_serial", "embeddings"],
        rows,
    )
    write_result("fig13_thread_scaling", table)
    assert rows[0][5] > 0
    assert {row[5] for row in rows} == {rows[0][5]}, "a backend found different embeddings"
    one_worker = rows[1]
    assert one_worker[4] > 0.5, f"process@1 runs the serial path but cost {one_worker[3]:.3f}s"
