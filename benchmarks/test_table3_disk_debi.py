"""Table III: storage / runtime trade-off of the disk-backed DEBI.

The paper reports, per query suite, the memory and disk footprint of
keeping DEBI partially on disk, plus the (single-digit percent) overhead
added to index maintenance and enumeration.  The reproduction runs each
suite two ways over the LANL-like stream:

* fully in memory (the baseline the rest of the benchmarks use), and
* durably: every DEBI row lives in one mmap'd file per query (the page
  cache decides what stays resident), the epoch journal grows on disk,
  and checkpoints are cut mid-stream.

Each side runs ``REPEATS`` times, the two interleaved, and the overhead
compares the sides' fastest runs.  The runs must find the *identical*
embedding multiset — where the words live is an implementation detail of
the index, never a semantics knob — and the durable run must report
real, nonzero disk bytes and rows in the DEBI file.  Columns: ``memory_MiB`` is the in-memory run's DEBI
bytes (what the file takes off the heap), ``disk_MiB`` the DEBI file plus
the journal, and ``spilled_rows`` the rows held in the DEBI file.
"""

from __future__ import annotations

from collections import Counter

import pytest

from benchmarks.conftest import write_result
from repro.bench.harness import run_mnemonic_stream
from repro.bench.reporting import format_table
from repro.storage.config import StorageConfig
from repro.streams.config import StreamType

BATCH = 256
#: timed runs per side of each suite
REPEATS = 5


def _identities(run):
    counts: Counter = Counter()
    for snapshot in run.run_result.snapshots:
        counts.update(snapshot.positive_embeddings.identities())
        counts.update(snapshot.negative_embeddings.identities())
    return counts


@pytest.mark.benchmark(group="table3")
def test_table3_disk_debi(benchmark, lanl_workload, tmp_path):
    stream, workload = lanl_workload
    rows = []
    for suite, query in workload:

        def run(storage=None, query=query, suite=suite):
            return run_mnemonic_stream(
                query, stream, batch_size=BATCH, stream_type=StreamType.INSERT_ONLY,
                collect_embeddings=True, storage=storage, query_name=suite,
            )

        # The two sides run interleaved and each is timed by its fastest
        # repeat: the host only ever slows a run down, so the minima are
        # what compare.
        memory_runs, durable_runs = [], []
        for repeat in range(REPEATS):
            memory_runs.append(run())
            storage = StorageConfig(
                directory=tmp_path / f"{suite}-{repeat}", checkpoint_interval=4
            )
            if suite == workload.suite_names()[0] and repeat == 0:
                durable_runs.append(
                    benchmark.pedantic(run, args=(storage,), rounds=1, iterations=1)
                )
            else:
                durable_runs.append(run(storage))
        memory_run, durable_run = memory_runs[0], durable_runs[-1]

        # Bit-identity: the DEBI file and the journal must be invisible
        # to enumeration.
        for each in durable_runs:
            assert _identities(each) == _identities(memory_run), suite

        extra = durable_run.extra
        spilled_rows = extra["spilled_rows"]
        memory_mib = memory_run.extra["debi_bytes"] / (1024 * 1024)
        disk_mib = (extra["debi_disk_bytes"] + extra["journal_bytes"]) / (1024 * 1024)
        memory_s = min(each.seconds for each in memory_runs)
        durable_s = min(each.seconds for each in durable_runs)
        overhead_pct = (durable_s - memory_s) / memory_s * 100 if memory_s > 0 else 0.0
        rows.append([
            suite, memory_mib, disk_mib, overhead_pct, spilled_rows,
            extra["checkpoints_written"], durable_run.embeddings,
        ])
        assert spilled_rows > 0, f"{suite}: no DEBI row reached the file"
        assert extra["debi_disk_bytes"] > 0 and extra["journal_bytes"] > 0, suite
        assert extra["checkpoints_written"] > 1, suite

    table = format_table(
        "Table III - storage/runtime trade-off for the disk-backed DEBI",
        ["suite", "memory_MiB", "disk_MiB", "durable_overhead_%",
         "spilled_rows", "checkpoints", "positives"],
        rows,
    )
    write_result("table3_disk_debi", table)
    # Durability cost stays moderate at this scale (the paper reports
    # 3-10% on the server-scale runs; allow slack for tiny Python runs).
    for row in rows:
        assert row[3] < 500.0, f"{row[0]}: durable run {row[3]:.0f}% slower"
