"""Figure 13: speedup over worker count (batch size fixed).

The paper parallelises frontier computation, filtering and enumeration
with OpenMP and reports a 5.22x average speedup at 24 threads.  This
benchmark sweeps the worker count of the one parallel backend, the
shared-memory ``process`` pool, against ``serial``.

``fig13_thread_scaling`` shows the mechanism at the figure suite's
scale, not the paper's result: the serial kernel finishes this 800-event
batch in tens of milliseconds, so one snapshot publication plus the IPC
round trip costs several times the enumeration it distributes and every
pool row is slower than serial.  ``fig13_pool_slicing`` is the same
comparison at ``benchmarks/e2e``'s size (``netflow-dense-enum``'s 20k +
20k stream and dense T_6), where a batch holds thousands of units: serial
at two batch sizes on the native kernel (where it builds), serial on the
numpy kernel, and the two-worker pool, pipelined, whose workers run the
numpy kernel over graph views — with the kernel calls each made and the
workers' attach / kernel split.  The assertions pin correctness and counts
— every row finds the same embeddings, the one-worker configuration runs
the serial path, a pool phase makes at most ``2 * num_workers`` kernel
calls — never a time.  A thread backend is not measured because there is
none: Python threads convoy on the GIL around the numpy kernel's short
calls (see ``docs/parallelism.md``).

The thread-scaling workload is a single large insertion batch of the
most enumeration-heavy suite so that worker start-up costs are amortised
the same way the paper's per-query measurement does.
"""

from __future__ import annotations

from unittest import mock

import pytest

from benchmarks.conftest import SPLIT_COLUMNS, split_cells, write_result
from repro.bench.harness import run_mnemonic_stream
from repro.bench.reporting import format_table
from repro.core import native
from repro.core.parallel import ParallelConfig

WORKER_COUNTS = (1, 2, 4, 8)
SUFFIX = 800
#: passes per ``fig13_pool_slicing`` row; the fastest is reported
PASSES = 2


def _pick_query(workload):
    suites = sorted((s for s in workload.suite_names() if s.startswith("T_")),
                    key=lambda s: int(s.split("_")[1]))
    return suites[-1], workload.queries(suites[-1])[0]


def _run(stream, workload):
    suite, query = _pick_query(workload)
    prefix = len(stream) - SUFFIX
    baseline = run_mnemonic_stream(query, stream, initial_prefix=prefix,
                                   batch_size=SUFFIX, query_name=suite)
    rows = [[suite, "serial", 1, baseline.seconds, 1.0, baseline.embeddings,
             *split_cells(baseline)]]
    for workers in WORKER_COUNTS:
        run = run_mnemonic_stream(
            query, stream, initial_prefix=prefix, batch_size=SUFFIX, query_name=suite,
            parallel=ParallelConfig(backend="process", num_workers=workers),
        )
        speedup = baseline.seconds / run.seconds if run.seconds > 0 else 0.0
        rows.append([suite, "process", workers, run.seconds, speedup, run.embeddings,
                     *split_cells(run)])
    return rows


@pytest.mark.benchmark(group="fig13")
def test_fig13_thread_scaling(benchmark, netflow_workload):
    stream, workload = netflow_workload
    rows = benchmark.pedantic(_run, args=(stream, workload), rounds=1, iterations=1)
    table = format_table(
        "Figure 13 - speedup over worker count (single large batch)",
        ["suite", "backend", "workers", "runtime_s", "speedup_vs_serial", "embeddings",
         *SPLIT_COLUMNS],
        rows,
    )
    write_result("fig13_thread_scaling", table)
    assert rows[0][5] > 0
    assert {row[5] for row in rows} == {rows[0][5]}, "a backend found different embeddings"
    one_worker = rows[1]
    assert one_worker[4] > 0.5, f"process@1 runs the serial path but cost {one_worker[3]:.3f}s"


def _run_slicing():
    from benchmarks.e2e.queries import query_graph
    from benchmarks.e2e.workloads import WORKLOADS, build_inputs

    workload = WORKLOADS["netflow-dense-enum"]
    size = workload.full
    inputs = build_inputs(workload, seed=7, size=size)
    stream = inputs.prefix + inputs.timed
    query = query_graph(workload.queries[0])
    pool = ParallelConfig(backend="process", num_workers=2)
    native_kernel = "native" if native.library() is not None else "numpy"
    rows = []
    for backend, kernel, batch_size, parallel, pipeline in (
        ("serial", native_kernel, 1024, None, "serial"),
        ("serial", native_kernel, 4096, None, "serial"),
        ("serial", "numpy", 4096, None, "serial"),
        ("process x2", "numpy", 4096, pool, "pipelined"),
    ):
        # clearing the loaded library is what makes the serial engine run numpy
        with mock.patch.object(native, "_library", None if kernel == "numpy" else native._library):
            run = min(
                (
                    run_mnemonic_stream(
                        query, stream, initial_prefix=size.prefix, batch_size=batch_size,
                        parallel=parallel, pipeline=pipeline, query_name="T_6 dense",
                    )
                    for _ in range(PASSES)
                ),
                key=lambda run: run.seconds,
            )
        rows.append([
            backend, kernel, pipeline, batch_size, run.seconds, size.timed / run.seconds,
            run.embeddings, run.extra["pool_phases"], *split_cells(run),
        ])
    return rows


@pytest.mark.benchmark(group="fig13")
def test_fig13_pool_slicing(benchmark):
    rows = benchmark.pedantic(_run_slicing, rounds=1, iterations=1)
    table = format_table(
        "Figure 13 - serial vs the sliced pool at benchmarks/e2e size "
        f"(netflow 20k + 20k, dense T_6, 2 vCPUs, best of {PASSES} passes)",
        ["backend", "kernel", "pipeline", "batch", "runtime_s", "events_per_s", "embeddings",
         "pool_phases", *SPLIT_COLUMNS],
        rows,
    )
    write_result("fig13_pool_slicing", table)
    serial_1024, serial_4096, numpy_4096, pooled = rows
    assert {row[6] for row in rows} == {serial_1024[6]}, "a backend found different embeddings"
    # one kernel call per serial batch; at most 2 * num_workers slices per pool phase
    assert (serial_1024[8], serial_4096[8], numpy_4096[8]) == (20, 5, 5)
    assert pooled[7] == 5 and 5 < pooled[8] <= 5 * 2 * 2
    assert pooled[11] == 0, "count-only results carry no embedding blocks"
