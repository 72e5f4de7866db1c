"""Figure 8: filtering traversals per edge update as a function of batch size.

The unified traversal frontier shares the top-down / bottom-up filtering
work across all edges of a batch, so the number of edges traversed *per
updated edge* drops as the batch grows (the paper shows roughly an order
of magnitude between batch=1 and batch=16K, and sub-linear growth with
query size).  The reproduction measures the engine's traversal counters
for batch sizes 1, 16 and 512 on every query suite, once with the DEBI
maintained by the native kernel and once by the numpy code: the two must
count the same traversals, and the table records what each spends on
filtering per update.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.bench.harness import run_mnemonic_stream
from repro.bench.metrics import traversals_per_update
from repro.bench.reporting import format_table
from repro.core import native

BATCH_SIZES = (1, 16, 512)
SUFFIX = 500


def _run(stream, workload, monkeypatch):
    rows = []
    per_suite: dict[str, dict[int, float]] = {}
    prefix = len(stream) - SUFFIX
    library = native.library()
    kernels = {"native": library, "numpy": None} if library is not None else {"numpy": None}
    for suite, query in workload:
        per_suite[suite] = {}
        for batch_size in BATCH_SIZES:
            totals = set()
            for kernel, loaded in kernels.items():
                monkeypatch.setattr(native, "_library", loaded)
                run = run_mnemonic_stream(query, stream, initial_prefix=prefix,
                                          batch_size=batch_size, query_name=suite)
                value = traversals_per_update(run.run_result)
                per_suite[suite][batch_size] = value
                totals.add(run.extra["filter_traversals"])
                filter_us = run.run_result.total_filter_seconds / SUFFIX * 1e6
                rows.append([suite, batch_size, kernel, value, run.extra["filter_traversals"],
                             filter_us])
            assert len(totals) == 1, f"{suite} at batch {batch_size}: the kernels disagree"
    return rows, per_suite


@pytest.mark.benchmark(group="fig08")
def test_fig08_traversals_per_update(benchmark, netflow_workload, monkeypatch):
    stream, workload = netflow_workload
    rows, per_suite = benchmark.pedantic(
        _run, args=(stream, workload, monkeypatch), rounds=1, iterations=1
    )
    table = format_table(
        "Figure 8 - filtering traversals per edge update vs batch size (native and numpy DEBI "
        "maintenance)",
        ["suite", "batch_size", "kernel", "traversals_per_update", "total_traversals",
         "filter_us_per_update"],
        rows,
    )
    write_result("fig08_traversals_per_update", table)
    # Shape check: larger batches never traverse more per update, and the
    # largest batch traverses strictly less than per-edge processing for at
    # least one suite (sharing kicks in where update regions overlap).
    improved = 0
    for suite, values in per_suite.items():
        assert values[BATCH_SIZES[-1]] <= values[BATCH_SIZES[0]] * 1.05
        if values[BATCH_SIZES[-1]] < values[BATCH_SIZES[0]] * 0.9:
            improved += 1
    assert improved >= 1
