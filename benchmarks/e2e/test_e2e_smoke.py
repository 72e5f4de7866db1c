"""Smoke test of the end-to-end benchmark at ``--smoke`` sizes (a few seconds).

Asserts the benchmark's own contract, not performance: every workload and
metric named in ``BENCHMARK.json`` is produced with its unit, every shim
target resolves at this commit, spans nest, and the oracle check runs.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from benchmarks.e2e import run, trace
from benchmarks.e2e.workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_benchmark_produces():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert BENCHMARK["command"][-1] == "benchmarks/e2e/run.py"
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]


def test_every_shim_target_resolves_and_is_restored():
    from repro.core import enumeration
    from repro.streams.events import EventColumns

    before = (enumeration.extend_intersect, vars(EventColumns)["from_events"])
    with trace.Tracer() as tracer:
        assert tracer.missing == []
        assert enumeration.extend_intersect is not before[0]
    assert (enumeration.extend_intersect, vars(EventColumns)["from_events"]) == before


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_every_metric_and_passes_the_oracle(name):
    detail = run.measure(WORKLOADS[name], seed=run.DEFAULT_SEED, seconds=0.2, traced=True,
                         smoke=True)
    assert detail["problems"] == [] and detail["correct"] and detail["failed"] == 0
    # the oracle pass ran, on every query of the workload, and found matches
    assert set(detail["check"]["queries"]) == set(WORKLOADS[name].queries)
    assert detail["check"]["live_edges"] > 0
    if name != "lanl-window-slide":  # its final window may hold no match at this size
        assert sum(detail["check"]["queries"].values()) > 0
    for metric in run.END_TO_END:
        assert detail["end_to_end"][metric] > 0, metric
    assert set(detail["per_layer"]) == set(run.PER_LAYER)
    assert detail["per_layer"]["bench.missing_targets"] == 0

    # spans nest: a child starts after and ends before its parent, which precedes it
    rows = detail["spans"]["spans"]
    assert rows, "a traced pass records spans"
    for index, (_, start, end, parent, _, self_s) in enumerate(rows):
        assert start <= end and self_s >= -1e-6
        if parent >= 0:
            assert parent < index
            assert rows[parent][1] <= start and end <= rows[parent][2] + 1e-6

    line = json.loads(run.result_line(detail, traced=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.END_TO_END


def test_command_line_prints_the_result_as_its_last_line():
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "lsbench-churn", "--seed", "3",
         "--seconds", "0.2", "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == run.PER_LAYER


def test_command_line_leaves_no_process_behind():
    """The pool workload starts workers and a resource tracker; none outlives the command."""
    with subprocess.Popen(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "netflow-pool-pipelined",
         "--seed", "3", "--seconds", "0.2", "--trace", "0", "--smoke"],
        stdout=subprocess.DEVNULL, start_new_session=True,
    ) as done:
        assert done.wait(timeout=120) == 0
    sessions = {}
    for entry in run.Path("/proc").iterdir():
        if entry.name.isdigit():
            try:  # fields after "(comm)": state ppid pgrp session
                sessions[entry.name] = (entry / "stat").read_text().rpartition(")")[2].split()[3]
            except OSError:
                pass
    assert [pid for pid, session in sessions.items() if session == str(done.pid)] == []
