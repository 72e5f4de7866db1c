"""Figure 13 (shard rows): per-shard work over engine-shard count.

The thread-scaling benchmark splits *enumeration* over workers; the
partition-parallel :class:`~repro.core.shard_router.ShardedEngine`
additionally splits the parts the pool never touched — mutation
application, DEBI maintenance, snapshot export, and the stored graph
itself — across N shards.  On one machine that is a capacity claim, not
a latency claim, so the honest assertions here are about *work per
shard*, measured on the engine's own counters:

* the maximum per-shard mutation count strictly decreases as shards
  grow (the router splits the stream, replicas included);
* the maximum per-shard stored-edge count and DEBI bit count strictly
  decrease (each shard's heap holds a shrinking slice of the graph);
* results stay bit-identical to the single engine (the shard_parity CI
  gate re-proves this; here it guards the benchmark's own workload);
* wall-clock speedup is only asserted where it can exist — with the
  per-shard process pools enabled on a multi-core host — and then only
  as a "did not collapse" bound, because scatter-gather forwarding on a
  hash-partitioned graph is pure overhead at this workload scale.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import write_result
from repro.bench.harness import run_mnemonic_stream, run_sharded_stream
from repro.bench.reporting import format_table

SHARD_COUNTS = (1, 2, 4, 8)
SUFFIX = 800
#: cross-shard traffic of the T_9 run per shard count: (frontier_forwards,
#: frontier_rows, frontier_lookups).  Forwards and rows are what they were
#: before the degree filter read degrees in batches (PR 16); lookups were
#: 1750 / 3461 / 4735 then, when a scope re-probed a foreign vertex's degree
#: once per query node that tested it.
FRONTIER_TRAFFIC = {1: (0, 0, 0), 2: (335, 843, 1298), 4: (627, 1613, 2693), 8: (827, 2132, 3844)}


def _effective_cores() -> int:
    """Cores this process is allowed to run on (affinity beats cpu_count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _pick_query(workload):
    suites = sorted((s for s in workload.suite_names() if s.startswith("T_")),
                    key=lambda s: int(s.split("_")[1]))
    return suites[-1], workload.queries(suites[-1])[0]


def _run(stream, workload):
    suite, query = _pick_query(workload)
    prefix = len(stream) - SUFFIX
    single = run_mnemonic_stream(
        query, stream, initial_prefix=prefix, batch_size=SUFFIX,
        collect_embeddings=True, query_name=suite,
    )
    rows = []
    samples = {}
    for shards in SHARD_COUNTS:
        run = run_sharded_stream(
            query, stream, shards=shards, initial_prefix=prefix,
            batch_size=SUFFIX, collect_embeddings=True, query_name=suite,
        )
        stats = run.extra["shard_stats"]
        sample = {
            "seconds": run.seconds,
            "max_mutations": max(s["mutations_applied"] for s in stats),
            "max_stored_edges": max(s["stored_edges"] for s in stats),
            "max_debi_bits": max(s["debi_bits_set"] for s in stats),
            "frontier_rows": run.extra["frontier"]["frontier_rows"],
            "positive": run.embeddings,
            "run": run,
        }
        samples[shards] = sample
        rows.append([
            suite, shards, run.seconds, sample["max_mutations"],
            sample["max_stored_edges"], sample["max_debi_bits"],
            sample["frontier_rows"],
        ])
    return single, samples, rows, suite


@pytest.mark.benchmark(group="fig13")
def test_fig13_shard_scaling(benchmark, netflow_workload):
    stream, workload = netflow_workload
    single, samples, rows, suite = benchmark.pedantic(
        _run, args=(stream, workload), rounds=1, iterations=1
    )
    table = format_table(
        "Figure 13 (shards) - per-shard work over shard count",
        ["suite", "shards", "runtime_s", "max_mutations/shard",
         "max_edges/shard", "max_debi_bits/shard", "frontier_rows"],
        rows,
    )
    write_result("fig13_shard_scaling", table)

    def identities(run):
        return set(run.run_result.all_positive().identities())

    # Bit-identity on the benchmark's own workload: the capacity numbers
    # below mean nothing if the shards compute a different answer.
    base = identities(single)
    assert base, "vacuous benchmark: the single engine found no embeddings"
    for shards, sample in samples.items():
        assert identities(sample["run"]) == base, (
            f"shards={shards} changed the result set"
        )

    # The capacity claim, on deterministic counters: every per-shard
    # work metric strictly decreases as the shard count grows.
    for metric in ("max_mutations", "max_stored_edges", "max_debi_bits"):
        values = [samples[n][metric] for n in SHARD_COUNTS]
        assert all(a > b for a, b in zip(values, values[1:])), (
            f"per-shard {metric} must strictly decrease over shards "
            f"{SHARD_COUNTS}: {values}"
        )

    # Forwarding only exists across a partition boundary: one shard must
    # never forward, and more shards must not forward less.
    assert samples[1]["frontier_rows"] == 0
    assert samples[2]["frontier_rows"] > 0, (
        "hash partitioning at shards=2 produced no cross-shard frontier "
        "traffic; the scatter-gather path was never exercised"
    )

    # The traffic itself is deterministic; how the kernel batches its reads
    # must not change what crosses a shard boundary.
    for shards, sample in samples.items():
        frontier = sample["run"].extra["frontier"]
        assert (frontier["frontier_forwards"], frontier["frontier_rows"],
                frontier["frontier_lookups"]) == FRONTIER_TRAFFIC[shards], f"shards={shards}"

    # Wall-clock: serial shard execution adds routing and forwarding
    # overhead on one core, so the honest bound is "did not collapse",
    # and only on hosts where the work could in principle spread out.
    if _effective_cores() >= 4:
        slowdown = samples[4]["seconds"] / max(single.seconds, 1e-9)
        assert slowdown < 5.0, (
            f"shards=4 is {slowdown:.1f}x slower than the single engine; "
            "routing overhead has regressed far beyond scatter-gather cost"
        )
