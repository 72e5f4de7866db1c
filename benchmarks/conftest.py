"""Shared fixtures for the figure/table benchmarks.

Workloads are generated once per session at a laptop-friendly scale (the
paper streams millions of events on a 24-core server; we stream a few
thousand on whatever runs the suite).  EXPERIMENTS.md records the scale
mapping and compares the measured *shapes* against the paper's reported
numbers.

Every benchmark writes its paper-shaped table both to stdout and to
``benchmarks/results/<name>.txt`` so the tables survive pytest's output
capture and can be pasted into EXPERIMENTS.md.
"""

from __future__ import annotations

import os

import pytest

from repro.datasets import (
    LANLConfig,
    LSBenchConfig,
    NetFlowConfig,
    build_query_workload,
    generate_lanl_stream,
    generate_lsbench_stream,
    generate_netflow_stream,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: query suites used across the benchmarks (scaled from the paper's
#: T_3..T_12 / G_6..G_12 to keep Python-scale runtimes in seconds)
TREE_SUITES = (3, 6, 9)
GRAPH_SUITES = (6,)


def _is_timing(cell: str) -> bool:
    """A cell that parses as a number but not as an integer: a wall-clock reading or a ratio of two."""
    try:
        float(cell)
    except ValueError:
        return False
    return not cell.lstrip("+-").isdigit()


def _only_timings_moved(old: str, new: str) -> bool:
    """Do two rendered tables hold the same cells except for non-integer floats?

    Column widths and rule lengths follow the cells, so layout is ignored.
    """
    def cells(text: str) -> list[str]:
        return [cell for cell in text.split() if cell.strip("-")]

    before, after = cells(old), cells(new)
    return len(before) == len(after) and all(
        a == b or (_is_timing(a) and _is_timing(b)) for a, b in zip(before, after)
    )


#: the worker-side split every pool table prints (``WorkerStats`` totals of a run)
SPLIT_COLUMNS = ["kernel_calls", "attach_s", "kernel_s", "result_bytes"]


def split_cells(run) -> list:
    """``run_mnemonic_stream``'s ``extra["worker_split"]`` as the cells of :data:`SPLIT_COLUMNS`."""
    split = run.extra["worker_split"]
    return [split["kernel_calls"], split["attach_seconds"], split["kernel_seconds"],
            split["result_bytes"]]


def write_result(name: str, text: str) -> None:
    """Persist a rendered table under benchmarks/results/ and echo it.

    The checked-in tables are rewritten only when something countable
    moved — embeddings, scans, traversals, a backend name.  Wall-clock
    jitter alone leaves the file (and the working tree) untouched; the
    fresh timings are still echoed.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    try:
        with open(path, encoding="utf-8") as fh:
            unchanged = _only_timings_moved(fh.read(), text)
    except FileNotFoundError:
        unchanged = False
    if not unchanged:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print("\n" + text)


@pytest.fixture(scope="session")
def netflow_workload():
    """NetFlow-like insert-only stream plus a small T_k / G_k query workload."""
    stream = generate_netflow_stream(
        NetFlowConfig(num_events=3000, num_hosts=450, attachment=0.65,
                      repeat_probability=0.10, seed=101)
    )
    workload = build_query_workload(
        stream, tree_sizes=TREE_SUITES, graph_sizes=GRAPH_SUITES,
        queries_per_suite=1, prefix=2000, seed=11,
    )
    return stream, workload


@pytest.fixture(scope="session")
def lsbench_workload():
    """LSBench-like insert+delete stream plus its query workload."""
    stream = generate_lsbench_stream(
        LSBenchConfig(num_events=2500, num_users=350, prefix_fraction=0.8,
                      delete_fraction=0.15, seed=103)
    )
    workload = build_query_workload(
        stream, tree_sizes=TREE_SUITES, graph_sizes=GRAPH_SUITES,
        queries_per_suite=1, prefix=1800, seed=13,
    )
    return stream, workload


@pytest.fixture(scope="session")
def lanl_workload():
    """LANL-like timestamped stream plus a timestamped query workload."""
    stream = generate_lanl_stream(
        LANLConfig(num_events=4000, num_entities=500, num_days=3.0, seed=107)
    )
    workload = build_query_workload(
        stream, tree_sizes=TREE_SUITES, graph_sizes=GRAPH_SUITES,
        queries_per_suite=1, prefix=2500, with_timestamps=True, seed=17,
    )
    return stream, workload
