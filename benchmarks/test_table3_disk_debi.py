"""Table III: storage / runtime trade-off of the disk-backed DEBI.

The paper reports, per query suite, the memory and disk footprint of
keeping DEBI partially on disk, plus the (single-digit percent) overhead
added to index maintenance and enumeration.  The reproduction runs each
suite twice over the LANL-like stream:

* fully in memory (the baseline the rest of the benchmarks use), and
* durably, with a deliberately small DEBI hot-row budget so the bulk of
  the index lives in mmap'd cold segments, the epoch journal grows on
  disk, and checkpoints are cut mid-stream.

The two runs must find the *identical* embedding multiset — spilling is
an implementation detail of the index, never a semantics knob — and the
durable run must report real, nonzero disk bytes and spilled rows.
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
#: small enough that every suite pushes most DEBI rows onto the cold tier
HOT_ROWS = 512
SEGMENT_ROWS = 1024


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
        memory_run = run_mnemonic_stream(
            query, stream, batch_size=BATCH, stream_type=StreamType.INSERT_ONLY,
            collect_embeddings=True, query_name=suite,
        )
        storage = StorageConfig(
            directory=tmp_path / suite, checkpoint_interval=4,
            debi_hot_rows=HOT_ROWS, debi_segment_rows=SEGMENT_ROWS,
        )

        def run_durable(query=query, suite=suite, storage=storage):
            return run_mnemonic_stream(
                query, stream, batch_size=BATCH, stream_type=StreamType.INSERT_ONLY,
                collect_embeddings=True, storage=storage, query_name=suite,
            )

        if suite == workload.suite_names()[0]:
            durable_run = benchmark.pedantic(run_durable, rounds=1, iterations=1)
        else:
            durable_run = run_durable()

        # Bit-identity: the cold tier and the journal must be invisible
        # to enumeration.
        assert _identities(durable_run) == _identities(memory_run), suite

        extra = durable_run.extra
        spilled_rows = extra["spilled_rows"]
        memory_mib = extra["debi_hot_bytes"] / (1024 * 1024)
        disk_mib = (extra["debi_disk_bytes"] + extra["journal_bytes"]) / (1024 * 1024)
        overhead_pct = (
            (durable_run.seconds - memory_run.seconds) / memory_run.seconds * 100
            if memory_run.seconds > 0 else 0.0
        )
        rows.append([
            suite, memory_mib, disk_mib, overhead_pct, spilled_rows,
            extra["checkpoints_written"], durable_run.embeddings,
        ])
        assert spilled_rows > 0, f"{suite}: hot-row budget did not force spilling"
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
