"""Figure 17: edge placeholders over the sliding window with / without reclaiming.

Even when the number of live events inside a 24-hour window stays flat,
the number of allocated edge slots (and therefore DEBI rows) grows
steadily unless the slots of deleted edges are recycled.  The paper
reports growth dropping from 67% to 23% over 90 snapshots with
reclaiming.  The reproduction runs the same sliding window twice — with
recycling on and off — and samples, per snapshot, the live edge count
(the "search space") and the allocated placeholders.  Each variant runs
once with the graph mutated by the native kernel and once by the numpy
code: the series must be identical, and the table adds each one's
mutation time per event (insert, resolve and delete, with reclaiming).
"""

from __future__ import annotations

import contextlib

import pytest

from benchmarks.conftest import write_result
from repro.bench.reporting import format_table
from repro.core import native
from repro.core.engine import EngineConfig, MnemonicEngine
from repro.streams.config import StreamConfig, StreamType

WINDOW = 24 * 60.0
STRIDE = 2 * 60.0


def _pick_query(workload):
    suites = sorted((s for s in workload.suite_names() if s.startswith("T_")),
                    key=lambda s: int(s.split("_")[1]))
    return workload.queries(suites[0])[0]


@contextlib.contextmanager
def _kernel(name: str):
    """Mutate the graph with the native kernel (where it loads) or the numpy code."""
    loaded = native.library()
    native._library = loaded if name == "native" else None
    try:
        yield
    finally:
        native._library = loaded


def _run_variant(query, stream, recycle: bool, kernel: str):
    """``((snapshot, live_edges, placeholders) per snapshot, recycle rate, mutation µs
    per event per snapshot)``."""
    with _kernel(kernel):
        engine = MnemonicEngine(query, config=EngineConfig(
            stream=StreamConfig(stream_type=StreamType.SLIDING_WINDOW, window=WINDOW,
                                stride=STRIDE),
            collect_embeddings=False, recycle_edge_ids=recycle,
        ))
        samples, mutate_us = [], []
        for snapshot in engine.initialize_stream(stream):
            result = engine.process_snapshot(snapshot)
            samples.append((snapshot.number, engine.graph.num_edges, engine.graph.num_placeholders))
            events = len(snapshot.insertions) + len(snapshot.deletions)
            mutate_us.append(1e6 * result.graph_update_seconds / max(events, 1))
    return samples, engine.graph.stats.recycle_rate, mutate_us


def _run(stream, workload):
    query = _pick_query(workload)
    runs = {(kernel, recycle): _run_variant(query, stream, recycle, kernel)
            for kernel in ("native", "numpy") for recycle in (True, False)}
    for recycle in (True, False):
        (series, rate, _), (numpy_series, numpy_rate, _) = (
            runs["native", recycle], runs["numpy", recycle])
        assert series == numpy_series and rate == numpy_rate, "the kernels disagree"
    with_recycling, recycle_rate, native_us = runs["native", True]
    without_recycling, _, _ = runs["native", False]
    numpy_us = runs["numpy", True][2]
    rows = []
    for (num, live, ph_with), (_, _, ph_without), fast, slow in zip(
            with_recycling, without_recycling, native_us, numpy_us):
        if num % 3 == 0 or num == with_recycling[-1][0]:
            rows.append([num, live, ph_with, ph_without, fast, slow])
    summary = {
        "snapshots": len(with_recycling),
        "final_live": with_recycling[-1][1],
        "final_with": with_recycling[-1][2],
        "final_without": without_recycling[-1][2],
        "recycle_rate": recycle_rate,
    }
    return rows, summary


@pytest.mark.benchmark(group="fig17")
def test_fig17_memory_reclaiming(benchmark, lanl_workload):
    stream, workload = lanl_workload
    rows, summary = benchmark.pedantic(_run, args=(stream, workload), rounds=1, iterations=1)
    table = format_table(
        "Figure 17 - edge placeholders per snapshot (search space vs with/without reclaiming)",
        ["snapshot", "live_edges", "placeholders_with_reclaiming", "placeholders_without",
         "mutate_us_per_event_native", "mutate_us_per_event_numpy"],
        rows,
    )
    table += (
        f"\nsnapshots={summary['snapshots']}  final live={summary['final_live']}  "
        f"with reclaiming={summary['final_with']}  without={summary['final_without']}  "
        f"recycle rate={summary['recycle_rate']:.1%}"
    )
    write_result("fig17_memory_reclaiming", table)
    # Shape checks: reclaiming cuts placeholder growth substantially (the
    # paper: 67% -> 23% growth over 90 snapshots), while the non-reclaiming
    # run keeps one slot per streamed insertion.  Reuse is per source vertex,
    # so the reclaimed count sits between the live search space and the
    # non-reclaiming ceiling.
    assert summary["final_with"] < 0.75 * summary["final_without"]
    assert summary["final_with"] >= summary["final_live"]
    assert summary["recycle_rate"] > 0.2
