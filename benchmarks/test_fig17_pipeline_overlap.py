"""Pipeline overlap: serial vs pipelined batch execution on the fig06 stream.

The serial batch loop leaves the worker pool idle during every
graph-mutation, DEBI-update and snapshot-publish phase (visible as the
fig07 CPU-usage gaps and the sub-linear fig13 tail).  The pipelined mode
overlaps batch k+1's mutation/DEBI/publish work with batch k's pool
enumeration: workers only ever read the published (double-buffered)
shared-memory epoch, so the coordinator mutates the live graph while
they enumerate the previous frozen one.

This benchmark runs the fig06 NetFlow insert-only workload through both
modes on the process backend and reports wall-clock plus throughput.
Results are bit-identical by construction (gated every CI run by
``benchmarks/perf_smoke.py``'s ``pipeline_parity`` job); here we assert
it once more on the measured runs, and — core-gated like fig13, because
a single-core host cannot overlap anything — that pipelining does not
lose throughput.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import SPLIT_COLUMNS, split_cells, write_result
from repro.bench.harness import run_mnemonic_stream
from repro.bench.reporting import format_table
from repro.core.parallel import ParallelConfig

SUFFIX = 800
BATCH_SIZE = 128
WORKERS = 2


def _effective_cores() -> int:
    """Cores this process is allowed to run on (affinity beats cpu_count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _positive_identities(run) -> set:
    return set(run.run_result.all_positive().identities())


def _run(stream, workload):
    prefix = len(stream) - SUFFIX
    rows = []
    ratios: dict[str, float] = {}
    identical: dict[str, bool] = {}
    for suite, query in workload:
        runs = {}
        for mode in ("serial", "pipelined"):
            runs[mode] = run_mnemonic_stream(
                query, stream, initial_prefix=prefix, batch_size=BATCH_SIZE,
                query_name=suite, collect_embeddings=True, pipeline=mode,
                parallel=ParallelConfig(backend="process", num_workers=WORKERS),
            )
        serial, pipelined = runs["serial"], runs["pipelined"]
        ratio = serial.seconds / pipelined.seconds if pipelined.seconds > 0 else 0.0
        ratios[suite] = ratio
        identical[suite] = (
            _positive_identities(serial) == _positive_identities(pipelined)
        )
        rows.append([
            suite, serial.seconds, pipelined.seconds, ratio,
            serial.embeddings, pipelined.embeddings, identical[suite],
            *split_cells(pipelined),
        ])
    return rows, ratios, identical


@pytest.mark.benchmark(group="fig17_pipeline")
def test_fig17_pipeline_overlap(benchmark, netflow_workload):
    stream, workload = netflow_workload
    rows, ratios, identical = benchmark.pedantic(
        _run, args=(stream, workload), rounds=1, iterations=1
    )
    table = format_table(
        "Pipeline overlap - serial vs pipelined batch execution (fig06 stream)",
        ["suite", "serial_s", "pipelined_s", "speedup", "serial_emb",
         "pipelined_emb", "bit_identical", *SPLIT_COLUMNS],
        rows,
    )
    write_result("fig17_pipeline_overlap", table)
    # Correctness is unconditional: overlap must never change results.
    assert all(identical.values()), f"modes diverged: {identical}"
    # Throughput is core-gated like fig13: overlapping coordinator work
    # with worker enumeration needs at least coordinator + 1 worker truly
    # in parallel.  Aggregate over suites — per-suite wall-clock on loaded
    # hosts is too noisy for individual floors.
    cores = _effective_cores()
    if cores >= 2:
        mean_ratio = sum(ratios.values()) / len(ratios)
        assert mean_ratio >= 0.9, (
            f"pipelined mode lost throughput on {cores} cores: {ratios}"
        )
