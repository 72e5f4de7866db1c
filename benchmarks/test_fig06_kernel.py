"""Figure 6 kernel gate: single-thread wall-clock of the two kernels and the reference.

The fig06 suites streamed three ways on the same host, the three sides
interleaved ``REPEATS`` times and each timed by its fastest run: the
tuple-at-a-time reference (``tests/reference``: per-edge
ingest and depth-first backtracking in Python), the numpy kernel, and the
native kernel that serves the serial engine where a C compiler is present
(the row repeats the numpy one where none is, and says so).  T_9 — the
suite where per-tuple Python overhead dominates — keeps the numpy
kernel's ≥3x floor over the reference; every row must find the
reference's embeddings.  The shallow suites are reported, not gated:
per-batch fixed costs dilute any kernel there.
"""

from __future__ import annotations

import time
from unittest import mock

import pytest

from benchmarks.conftest import write_result
from repro.bench.harness import run_mnemonic_stream
from repro.bench.reporting import format_table
from repro.core import native
from tests.reference.tuple_kernel import ReferenceEngine

SUFFIX = 500
BATCH = 256
#: timed runs per side of each suite
REPEATS = 5
#: single-thread T_9 floor of the numpy kernel over the reference
T9_SPEEDUP_FLOOR = 3.0


def _reference(query, stream, prefix):
    """``(seconds, embeddings)`` of the reference over the suffix, in BATCH-event batches."""
    engine = ReferenceEngine([(query, None)])
    engine.batch_inserts(stream[:prefix])
    suffix = stream[prefix:]
    start = time.perf_counter()
    found = sum(
        len(embeddings)
        for at in range(0, len(suffix), BATCH)
        for embeddings, _ in engine.batch_inserts(suffix[at : at + BATCH])
    )
    return time.perf_counter() - start, found


def _kernel(query, stream, prefix, suite, library):
    """``(seconds, embeddings)`` of one engine run on ``library`` (None: the numpy kernel)."""
    with mock.patch.object(native, "_library", library):
        run = run_mnemonic_stream(query, stream, initial_prefix=prefix, batch_size=BATCH,
                                  query_name=suite)
    return run.seconds, run.embeddings


def _run(stream, workload):
    prefix = len(stream) - SUFFIX
    library = native.library()
    rows = []
    for suite in workload.suite_names():
        query = workload.queries(suite)[0]
        # The three sides run interleaved and each is timed by its fastest
        # repeat: the host only ever slows a run down, so the minima are what
        # compare.  Every repeat of a side must find the same embeddings.
        sides = ([], [], [])
        for _ in range(REPEATS):
            sides[0].append(_reference(query, stream, prefix))
            sides[1].append(_kernel(query, stream, prefix, suite, None))
            sides[2].append(_kernel(query, stream, prefix, suite, library))
        for runs in sides:
            assert len({found for _, found in runs}) == 1, f"{suite}: repeats disagree"
        reference, numpy_run, native_run = (min(runs) for runs in sides)
        rows.append([
            suite, reference[0], numpy_run[0], native_run[0], reference[0] / numpy_run[0],
            reference[0] / native_run[0], "native" if library is not None else "numpy",
            reference[1], numpy_run[1], native_run[1],
        ])
    return rows


@pytest.mark.benchmark(group="fig06")
def test_fig06_kernel_speedup(benchmark, netflow_workload):
    stream, workload = netflow_workload
    rows = benchmark.pedantic(_run, args=(stream, workload), rounds=1, iterations=1)
    table = format_table(
        f"Figure 6 - kernel single-thread wall-clock (best of {REPEATS}, sides interleaved)",
        ["suite", "reference_s", "numpy_s", "native_s", "numpy_speedup", "native_speedup",
         "native_row_ran", "ref_embeddings", "numpy_embeddings", "native_embeddings"],
        rows,
    )
    write_result("fig06_kernel_speedup", table)
    for row in rows:
        assert row[7] == row[8] == row[9], f"{row[0]}: the kernels disagree with the reference"
    speedups = {row[0]: row[4] for row in rows}
    assert speedups["T_9"] >= T9_SPEEDUP_FLOOR, (
        f"numpy kernel only {speedups['T_9']:.2f}x over the reference on T_9 "
        f"(floor {T9_SPEEDUP_FLOOR}x): {speedups}"
    )
