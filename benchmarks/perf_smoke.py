"""Perf smoke job: fast fig06/fig08 runs gated on candidates-scanned regression.

Runs the fig06 insert-only NetFlow workload at stream=500, the fig08
traversals-per-update sweep, and a multi-query scenario (8 standing
queries sharing one engine), and emits ``BENCH_pr.json`` with per-suite
runtime, ``candidates_scanned`` and ``filter_traversals`` totals.  The
job then compares ``candidates_scanned`` against the checked-in baseline
(``benchmarks/perf_baseline.json``) and **fails on a >20% regression**
for any suite.  Runtimes are reported but never gated — wall-clock on
shared CI runners is noise; the scanned-candidates counter is
deterministic.

The multi-query scenario additionally gates the sharing contract
itself, not just its drift: the 8 standing queries must scan strictly
fewer candidates than 8 independent engines, their per-query result
sets must be identical to the independent runs, and the process-backend
pass must publish exactly one shared-memory snapshot per enumeration
phase (instead of one per query per batch).

The ``kernel_parity`` rows (the name is the baseline file's) run the
fig06 insert-only stream and a fig08-style insert+delete stream on the
serial and the process backend: the pool run must produce positive and
negative identity sets bit-identical to the serial run, and both rows'
``candidates_scanned`` are gated against the baseline.  The comparison
with the tuple-at-a-time reference — every match definition, to the
digit — is a tier-1 test (``tests/test_columnar_kernel.py``), as is
ingest parity with a per-edge loop (``tests/test_columnar_ingest.py``).

The ``pipeline_parity`` gate protects the pipelined execution mode: on
an insert+delete stream, ``pipeline="pipelined"`` must produce
bit-identical positive *and* negative result sets to the serial mode,
and every pool-dispatched phase must publish exactly one epoch (the
double-buffered writer never publishes more or fewer).

The ``service_parity`` gate protects the streaming service layer: on a
boundary-invariant insert+delete stream, broker-fed runs (fixed-size
batching through the producer thread) and adaptive runs (virtual-clock
rate-controlled replay with ``max_batch_delay`` flushing) must produce
positive and negative identity sets bit-identical to the fixed-batch
serial engine, in both serial and pipelined modes; broker-fed runs must
additionally leave ``candidates_scanned`` untouched and every run must
report an ingest-to-result latency rollup.

The ``durability_parity`` gate protects the durable-state stack: a
journaled, checkpointed, DEBI-spilling engine killed mid-stream and
recovered with ``MnemonicEngine.open`` must reproduce the uninterrupted
run's positive and negative identity multisets exactly, with real rows
on the cold tier; spill and journal counters ride along in the metrics.

The ``self_healing_parity`` gate protects the supervised execution
layer: runs whose pool workers are deterministically SIGKILLed
mid-stream (1..3 faults, serial and pipelined modes) must complete with
result sets bit-identical to the fault-free run and at least one
recorded respawn; a hung worker must be cut off by the epoch deadline
(no deadlock) and recovered the same way; and exhausting the respawn
budget must degrade to serial enumeration while still matching the
fault-free results.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py                    # gate vs baseline
    PYTHONPATH=src python benchmarks/perf_smoke.py --write-baseline   # refresh baseline
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.harness import (
    run_mnemonic_stream,
    run_multi_query_stream,
    run_service_stream,
    run_sharded_stream,
)
from repro.bench.metrics import traversals_per_update
from repro.core.parallel import ParallelConfig
from repro.datasets import NetFlowConfig, build_query_workload, generate_netflow_stream
from repro.streams.config import StreamType
from repro.streams.events import EventKind, StreamEvent

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(HERE, "perf_baseline.json")
OUTPUT_PATH = os.path.join(HERE, "BENCH_pr.json")

#: fig06 configuration, pinned to the stream=500 row
FIG06_SUFFIX = 500
FIG06_BATCH = 256
#: fig08 batch-size sweep at the same suffix
FIG08_BATCH_SIZES = (1, 16, 512)
#: the 8 standing queries of the multi-query scenario (6 trees + 2 graphs)
MULTI_QUERY_TREE_SIZES = (3, 4, 5, 6, 7, 9)
MULTI_QUERY_GRAPH_SIZES = (5, 6)

#: allowed relative growth of candidates_scanned before the job fails
REGRESSION_TOLERANCE = 0.20

#: figures gated against perf_baseline.json.  service_parity is excluded:
#: its adaptive rows batch by arrival time, so their scan counts shift a
#: little with thread interleaving — the gate instead asserts the strong
#: invariants directly (identity-set equality; broker rows must match the
#: serial scan count *exactly*) every run.
BASELINE_FIGURES = (
    "fig06", "fig08", "multi_query", "pipeline_parity", "kernel_parity"
)


def build_workload():
    """The netflow_workload fixture's exact configuration (see conftest.py)."""
    stream = generate_netflow_stream(
        NetFlowConfig(num_events=3000, num_hosts=450, attachment=0.65,
                      repeat_probability=0.10, seed=101)
    )
    workload = build_query_workload(
        stream, tree_sizes=(3, 6, 9), graph_sizes=(6,),
        queries_per_suite=1, prefix=2000, seed=11,
    )
    return stream, workload


def run_fig06(stream, workload) -> dict:
    prefix = len(stream) - FIG06_SUFFIX
    results = {}
    for suite, query in workload:
        run = run_mnemonic_stream(
            query, stream, initial_prefix=prefix, batch_size=FIG06_BATCH, query_name=suite
        )
        results[suite] = {
            "seconds": run.seconds,
            "candidates_scanned": run.extra["candidates_scanned"],
            "filter_traversals": run.extra["filter_traversals"],
            "embeddings": run.embeddings,
        }
    return results


def run_fig08(stream, workload) -> dict:
    prefix = len(stream) - FIG06_SUFFIX
    results = {}
    for suite, query in workload:
        for batch_size in FIG08_BATCH_SIZES:
            run = run_mnemonic_stream(
                query, stream, initial_prefix=prefix, batch_size=batch_size, query_name=suite
            )
            results[f"{suite}@batch{batch_size}"] = {
                "seconds": run.seconds,
                "candidates_scanned": run.extra["candidates_scanned"],
                "filter_traversals": run.extra["filter_traversals"],
                "traversals_per_update": traversals_per_update(run.run_result),
            }
    return results


def positive_identities(run_result) -> set:
    """Block identities (slot signature + row): no ``Embedding`` is built to compare runs."""
    return set(run_result.all_positive().identities())


def negative_identities(run_result) -> set:
    return set(run_result.all_negative().identities())


def run_kernel_parity(stream) -> tuple[dict, list[str]]:
    """Serial vs process pool on two streams; the rows the baseline calls ``kernel_parity``.

    Two streams (fig06 insert-only; a fig08-style insert+delete mix) per
    suite.  The pool run's positive and negative identity sets must equal
    the serial run's bit-for-bit; ``candidates_scanned`` of both goes to
    the baseline comparison.
    """
    workload = build_query_workload(
        stream, tree_sizes=(3, 6, 9), graph_sizes=(6,),
        queries_per_suite=1, prefix=2000, seed=11,
    )
    prefix = len(stream) - FIG06_SUFFIX
    suffix = stream[prefix:]
    deletes = [
        StreamEvent.delete(e.src, e.dst, e.label, timestamp=e.timestamp)
        for e in suffix[::2]
        if e.kind is EventKind.INSERT
    ]
    mixed = list(stream[:prefix]) + list(suffix) + deletes
    streams = {
        "insert": (list(stream), StreamType.INSERT_ONLY),
        "mixed": (mixed, StreamType.INSERT_DELETE),
    }
    parallel = ParallelConfig(backend="process", num_workers=2)
    failures: list[str] = []
    metrics: dict[str, dict] = {}
    for suite, query in workload:
        for stream_name, (events, stream_type) in streams.items():
            runs = {
                backend_name: run_mnemonic_stream(
                    query, events, initial_prefix=prefix, batch_size=FIG06_BATCH,
                    stream_type=stream_type, collect_embeddings=True,
                    query_name=suite, **kwargs,
                )
                for backend_name, kwargs in (("serial", {}), ("process", {"parallel": parallel}))
            }
            serial = runs["serial"]
            label = f"kernel_parity/{suite}.{stream_name}"
            if not positive_identities(serial.run_result):
                failures.append(f"{label}: vacuous gate (no positive embeddings)")
            if positive_identities(runs["process"].run_result) != positive_identities(
                serial.run_result
            ):
                failures.append(f"{label}.process: positive results differ from serial")
            if negative_identities(runs["process"].run_result) != negative_identities(
                serial.run_result
            ):
                failures.append(f"{label}.process: negative results differ from serial")
            for backend_name, run in runs.items():
                metrics[f"{suite}.{stream_name}.{backend_name}"] = {
                    "seconds": run.seconds,
                    "candidates_scanned": run.extra["candidates_scanned"],
                    "positive": run.embeddings,
                    "negative": run.negative_embeddings,
                }
    return metrics, failures


def run_shard_parity(stream) -> tuple[dict, list[str]]:
    """The partition-parallel gate: ShardedEngine(shards=N) vs the single engine.

    Two streams per suite — the fig06 insert-only suffix and a fig09-style
    insert+delete mix — at shards = 1, 2, 4 (serial backend, so the scan
    counter is deterministic).  Every sharded run's positive and negative
    identity sets must equal the single engine's **bit-for-bit**: the
    global edge-id allocator, the replica-complete adjacency at each
    owner, and the mirrored DEBI bits are exactly the machinery that
    makes a partitioned run indistinguishable from one process, and any
    drift here means an ownership or forwarding rule is wrong.  The
    aggregate ``candidates_scanned`` is bounded, not exact: cross-shard
    frontier re-reads may re-scan a pool another shard already paid for,
    so the sum must stay within [single, N x single].
    """
    workload = build_query_workload(
        stream, tree_sizes=(3, 6), graph_sizes=(6,),
        queries_per_suite=1, prefix=2000, seed=11,
    )
    prefix = len(stream) - FIG06_SUFFIX
    suffix = stream[prefix:]
    deletes = [
        StreamEvent.delete(e.src, e.dst, e.label, timestamp=e.timestamp)
        for e in suffix[::2]
        if e.kind is EventKind.INSERT
    ]
    mixed = list(stream[:prefix]) + list(suffix) + deletes
    streams = {
        "insert": (list(stream), StreamType.INSERT_ONLY),
        "mixed": (mixed, StreamType.INSERT_DELETE),
    }
    failures: list[str] = []
    metrics: dict[str, dict] = {}
    for suite, query in workload:
        for stream_name, (events, stream_type) in streams.items():
            reference = run_mnemonic_stream(
                query, events, initial_prefix=prefix, batch_size=FIG06_BATCH,
                stream_type=stream_type, collect_embeddings=True,
                query_name=suite,
            )
            ref_pos = positive_identities(reference.run_result)
            ref_neg = negative_identities(reference.run_result)
            ref_scanned = reference.extra["candidates_scanned"]
            if not ref_pos:
                failures.append(
                    f"shard_parity/{suite}.{stream_name}: vacuous gate "
                    "(single engine produced no positive embeddings)"
                )
            if stream_name == "mixed" and not ref_neg:
                failures.append(
                    f"shard_parity/{suite}.{stream_name}: vacuous gate "
                    "(single engine produced no negative embeddings)"
                )
            for shards in (1, 2, 4):
                run = run_sharded_stream(
                    query, events, shards=shards, initial_prefix=prefix,
                    batch_size=FIG06_BATCH, stream_type=stream_type,
                    collect_embeddings=True, query_name=suite,
                )
                label = f"shard_parity/{suite}.{stream_name}@{shards}"
                if positive_identities(run.run_result) != ref_pos:
                    failures.append(
                        f"{label}: positive results differ from the single engine"
                    )
                if negative_identities(run.run_result) != ref_neg:
                    failures.append(
                        f"{label}: negative results differ from the single engine"
                    )
                scanned = run.extra["candidates_scanned"]
                if not (ref_scanned <= scanned <= shards * ref_scanned):
                    failures.append(
                        f"{label}: aggregate candidates_scanned {scanned} outside "
                        f"[{ref_scanned}, {shards * ref_scanned}]"
                    )
                metrics[f"{suite}.{stream_name}@{shards}"] = {
                    "seconds": run.seconds,
                    "reference_seconds": reference.seconds,
                    "candidates_scanned": scanned,
                    "positive": run.embeddings,
                    "negative": run.negative_embeddings,
                    "frontier_forwards": run.extra["frontier"]["frontier_forwards"],
                    "frontier_rows": run.extra["frontier"]["frontier_rows"],
                }
    return metrics, failures


def run_pipeline_parity(stream) -> tuple[dict, list[str]]:
    """The pipelined-execution gate: serial vs pipelined on insert+delete.

    Overlapping batch k+1's mutations with batch k's enumeration must not
    change a single embedding — positive or negative — and each
    pool-dispatched phase must publish exactly one epoch.  Returns the
    metrics row for ``BENCH_pr.json`` plus the violated invariants.
    """
    workload = build_query_workload(
        stream, tree_sizes=(3, 6), graph_sizes=(6,),
        queries_per_suite=1, prefix=2000, seed=11,
    )
    prefix = len(stream) - FIG06_SUFFIX
    # Mixed workload: the streamed suffix plus deletions of every second
    # streamed insertion (so delete batches hit live, indexed edges).
    suffix = stream[prefix:]
    deletes = [
        StreamEvent.delete(e.src, e.dst, e.label, timestamp=e.timestamp)
        for e in suffix[::2]
        if e.kind is EventKind.INSERT
    ]
    mixed = list(stream[:prefix]) + list(suffix) + deletes
    parallel = ParallelConfig(backend="process", num_workers=2)
    failures: list[str] = []
    metrics: dict[str, dict] = {}
    for suite, query in workload:
        runs = {}
        for mode in ("serial", "pipelined"):
            runs[mode] = run_mnemonic_stream(
                query, mixed, initial_prefix=prefix, batch_size=FIG06_BATCH,
                stream_type=StreamType.INSERT_DELETE, collect_embeddings=True,
                parallel=parallel, pipeline=mode, query_name=suite,
            )
        serial, pipelined = runs["serial"], runs["pipelined"]
        if positive_identities(pipelined.run_result) != positive_identities(
            serial.run_result
        ):
            failures.append(
                f"pipeline_parity/{suite}: pipelined positive results differ from serial"
            )
        if negative_identities(pipelined.run_result) != negative_identities(
            serial.run_result
        ):
            failures.append(
                f"pipeline_parity/{suite}: pipelined negative results differ from serial"
            )
        exports = pipelined.extra["snapshot_exports"]
        pool_phases = pipelined.extra["pool_phases"]
        if pool_phases == 0:
            failures.append(
                f"pipeline_parity/{suite}: no phase was dispatched to the pool "
                "(pool unavailable?)"
            )
        elif exports != pool_phases:
            failures.append(
                f"pipeline_parity/{suite}: expected exactly one epoch per "
                f"dispatched phase, got {exports} epochs for {pool_phases} phases"
            )
        metrics[suite] = {
            "seconds": pipelined.seconds,
            "serial_seconds": serial.seconds,
            "candidates_scanned": pipelined.extra["candidates_scanned"],
            "snapshot_exports": exports,
            "pool_phases": pool_phases,
            "enumeration_phases": pipelined.extra["enumeration_phases"],
            "positive": pipelined.embeddings,
            "negative": pipelined.negative_embeddings,
        }
    return metrics, failures


def build_parity_mixed_stream(stream, prefix) -> list[StreamEvent]:
    """An insert+delete stream whose result identities are batch-boundary invariant.

    The adaptive (broker-fed) runs batch by *arrival time*, so their
    batch boundaries legitimately differ from the fixed-size serial
    baseline; the gate therefore needs a stream whose aggregate positive
    and negative identity sets cannot depend on where batches split:

    * deletions target only triples that are **unique** in the whole
      stream, so deletion resolution picks the same edge instance no
      matter the graph state it runs against;
    * every deletion is placed (all deletions trail the whole suffix)
      so that **more than one batch cap of events** separates it from
      its insertion — enforced per candidate during construction, not
      assumed — so a deletion can never share a batch with its
      insertion under any boundary alignment: the in-batch cancellation
      elision never fires and edge-id assignment is identical across
      runs.
    """
    from collections import Counter

    suffix = stream[prefix:]
    triple_counts = Counter(e.as_triple() for e in stream)
    candidates = [
        (position, event)
        for position, event in enumerate(suffix[: len(suffix) // 2])
        if event.kind is EventKind.INSERT and triple_counts[event.as_triple()] == 1
    ][::2]
    deletes: list[StreamEvent] = []
    for insert_position, event in candidates:
        delete_position = len(suffix) + len(deletes)
        if delete_position - insert_position > FIG06_BATCH:
            deletes.append(
                StreamEvent.delete(event.src, event.dst, event.label,
                                   timestamp=event.timestamp)
            )
    assert deletes, "parity stream needs unique-triple deletions to be meaningful"
    return list(stream[:prefix]) + list(suffix) + deletes


def run_service_parity(stream) -> tuple[dict, list[str]]:
    """The service-layer gate: broker-fed / adaptive runs vs the fixed serial engine.

    Four configurations are compared against the fixed-batch serial
    baseline on an insert+delete stream:

    * ``broker`` (serial / pipelined): the same fixed-size batching, fed
      through the StreamBroker's producer thread — batch boundaries are
      identical, so positive and negative identity sets must match the
      baseline exactly, and the serial row's ``candidates_scanned`` must
      not move at all;
    * ``adaptive`` (serial / pipelined): rate-controlled virtual-clock
      replay with ``max_batch_delay`` flushing — boundaries differ, but
      on the boundary-invariant mixed stream the identity sets must
      still match bit-for-bit.

    Every broker-fed run must also report an ingest-to-result latency
    rollup (the accounting the fig18 benchmark builds on).
    """
    from repro.streams.clock import VirtualClock

    workload = build_query_workload(
        stream, tree_sizes=(3, 6), graph_sizes=(),
        queries_per_suite=1, prefix=2000, seed=11,
    )
    prefix = len(stream) - FIG06_SUFFIX
    mixed = build_parity_mixed_stream(stream, prefix)
    parallel = ParallelConfig(backend="process", num_workers=2)
    adaptive_rate = 4000.0
    adaptive_delay = 4.5 / adaptive_rate  # ~5-event batches at uniform arrivals
    failures: list[str] = []
    metrics: dict[str, dict] = {}
    for suite, query in workload:
        baseline = run_mnemonic_stream(
            query, mixed, initial_prefix=prefix, batch_size=FIG06_BATCH,
            stream_type=StreamType.INSERT_DELETE, collect_embeddings=True,
            query_name=suite,
        )
        base_pos = positive_identities(baseline.run_result)
        base_neg = negative_identities(baseline.run_result)
        if not base_pos or not base_neg:
            failures.append(
                f"service_parity/{suite}: vacuous gate (positives={len(base_pos)}, "
                f"negatives={len(base_neg)})"
            )
        runs = {
            "broker_serial": dict(pipeline="serial"),
            "broker_pipelined": dict(pipeline="pipelined", parallel=parallel),
            "adaptive_serial": dict(
                pipeline="serial", events_per_second=adaptive_rate,
                max_batch_delay=adaptive_delay, clock=VirtualClock(),
            ),
            "adaptive_pipelined": dict(
                pipeline="pipelined", parallel=parallel,
                events_per_second=adaptive_rate,
                max_batch_delay=adaptive_delay, clock=VirtualClock(),
            ),
        }
        for mode, kwargs in runs.items():
            run = run_service_stream(
                query, mixed, initial_prefix=prefix, batch_size=FIG06_BATCH,
                stream_type=StreamType.INSERT_DELETE, collect_embeddings=True,
                query_name=suite, **kwargs,
            )
            label = f"service_parity/{suite}.{mode}"
            if positive_identities(run.run_result) != base_pos:
                failures.append(f"{label}: positive results differ from fixed serial")
            if negative_identities(run.run_result) != base_neg:
                failures.append(f"{label}: negative results differ from fixed serial")
            if mode == "broker_serial":
                # Identical batching AND identical backend: the scan
                # counter must not move at all.  (The pipelined rows use
                # the worker pool, where each worker pays its own first
                # touch on the shared scan cache, so their counter is
                # only comparable to other pool runs — pipeline_parity
                # covers that comparison.)
                if run.extra["candidates_scanned"] != baseline.extra["candidates_scanned"]:
                    failures.append(
                        f"{label}: candidates_scanned changed "
                        f"({baseline.extra['candidates_scanned']} -> "
                        f"{run.extra['candidates_scanned']})"
                    )
            if not run.latency:
                failures.append(f"{label}: broker-fed run reported no latency rollup")
            metrics[f"{suite}.{mode}"] = {
                "seconds": run.seconds,
                "candidates_scanned": run.extra["candidates_scanned"],
                "snapshots": run.extra["snapshots"],
                "positive": run.embeddings,
                "negative": run.negative_embeddings,
                "latency_p50": run.latency.get("p50"),
                "latency_p99": run.latency.get("p99"),
            }
    return metrics, failures


def run_durability_parity(stream) -> tuple[dict, list[str]]:
    """The durable-state gate: kill-and-recover mid-stream vs straight-through.

    A durable engine (journal + checkpoints + spilled DEBI) processes
    half the mixed insert+delete stream, is abandoned without a clean
    shutdown (``close()`` never seals or checkpoints), recovered with
    ``MnemonicEngine.open`` and fed the rest.  The union of pre-crash and
    post-recovery results must equal the uninterrupted durable run
    bit-for-bit, the hot-row budget must actually force rows onto the
    cold tier, and the journal must scan clean.  Spill/journal counters
    are uploaded with the metrics row.

    Not baseline-gated (like service_parity): the gate asserts the
    invariants directly every run.
    """
    import tempfile
    from collections import Counter

    from repro.core.engine import MnemonicEngine
    from repro.storage.config import StorageConfig
    from repro.streams.config import StreamConfig
    from repro.streams.generator import SnapshotGenerator
    from repro.streams.sources import ListSource

    workload = build_query_workload(
        stream, tree_sizes=(3, 6), graph_sizes=(),
        queries_per_suite=1, prefix=2000, seed=11,
    )
    prefix = len(stream) - FIG06_SUFFIX
    mixed = build_parity_mixed_stream(stream, prefix)
    stream_config = StreamConfig(
        stream_type=StreamType.INSERT_DELETE, batch_size=FIG06_BATCH
    )

    def identities(results):
        counts: Counter = Counter()
        for result in results:
            counts.update(result.positive_embeddings.identities())
            counts.update(result.negative_embeddings.identities())
        return counts

    failures: list[str] = []
    metrics: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="mnemonic-durability-") as tmp:
        for suite, query in workload:
            from repro.core.engine import EngineConfig

            def make_config(directory):
                return EngineConfig(
                    stream=stream_config, collect_embeddings=True,
                    storage=StorageConfig(
                        directory=directory, checkpoint_interval=4,
                        debi_hot_rows=256, debi_segment_rows=512,
                    ),
                )

            initial = [e for e in mixed[:prefix] if e.kind is EventKind.INSERT]
            snapshots = list(
                SnapshotGenerator(ListSource(list(mixed[prefix:])), stream_config)
            )
            crash_at = len(snapshots) // 2
            label = f"durability_parity/{suite}"

            # Uninterrupted durable run.
            import time

            straight_dir = os.path.join(tmp, f"{suite}-straight")
            engine = MnemonicEngine(query, config=make_config(straight_dir))
            engine.load_initial(list(initial))
            start = time.perf_counter()
            straight = [engine.process_snapshot(s) for s in snapshots]
            straight_seconds = time.perf_counter() - start
            straight_counters = engine.storage_counters()
            engine.close()

            # Kill mid-stream, recover, refeed.
            crash_dir = os.path.join(tmp, f"{suite}-crash")
            engine = MnemonicEngine(query, config=make_config(crash_dir))
            engine.load_initial(list(initial))
            pre = [engine.process_snapshot(s) for s in snapshots[:crash_at]]
            engine.close()  # no seal, no checkpoint: a crash, not a shutdown

            recovered = MnemonicEngine.open(crash_dir)
            info = recovered.recovery_info
            if info["corruption"] is not None:
                failures.append(f"{label}: clean journal reported corruption "
                                f"({info['corruption']})")
            last = info["last_sealed_number"]
            resume = 0 if last is None else last + 1
            if resume != crash_at:
                failures.append(
                    f"{label}: recovery points at epoch {resume}, crashed at {crash_at}"
                )
            post = [recovered.process_snapshot(s) for s in snapshots[crash_at:]]
            counters = recovered.storage_counters()
            recovered.close()

            if identities(pre + post) != identities(straight):
                failures.append(
                    f"{label}: recovered results differ from the uninterrupted run"
                )
            if counters.get("spilled_rows", 0) <= 0:
                failures.append(f"{label}: hot-row budget never forced a spill")
            if straight_counters.get("checkpoints_written", 0) < 2:
                failures.append(f"{label}: straight run cut "
                                f"{straight_counters.get('checkpoints_written', 0)} "
                                "checkpoints; the cadence gate needs >= 2")
            metrics[suite] = {
                "seconds": straight_seconds,
                "candidates_scanned": sum(s.candidates_scanned for s in straight),
                "crash_epoch": crash_at,
                "replayed_records": info["replayed_records"],
                "spilled_rows": counters.get("spilled_rows", 0),
                "debi_disk_bytes": counters.get("debi_disk_bytes", 0),
                "journal_bytes": counters.get("journal_bytes", 0),
                "checkpoints_written": counters.get("checkpoints_written", 0),
            }
    return metrics, failures


def run_self_healing_parity(stream) -> tuple[dict, list[str]]:
    """The chaos gate: killed and hung pool workers must not change a result.

    Every chaos run is compared against a fault-free run of the same
    configuration (process backend, both pipeline modes):

    * ``kill{1..3}``: the first 1..3 pool generations SIGKILL their
      workers mid-enumeration; the supervisor must respawn and
      redispatch the in-flight epochs, the result identity sets must be
      bit-identical, and at least one respawn must be recorded;
    * ``hang``: generation 0 wedges at its first work unit; the epoch
      deadline must cut the drain off (no deadlock), counted in
      ``deadline_expiries``, and recovery proceeds as for a kill;
    * ``exhausted``: more kills than the respawn budget; the engine must
      degrade to serial enumeration (recorded in ``degradations``) and
      still match the fault-free results.

    Not baseline-gated (like service_parity): the invariants are
    asserted directly every run.
    """
    import warnings

    from repro.core.supervisor import FaultPolicy
    from repro.utils import faults

    workload = build_query_workload(
        stream, tree_sizes=(6,), graph_sizes=(),
        queries_per_suite=1, prefix=2000, seed=11,
    )
    prefix = len(stream) - FIG06_SUFFIX
    mixed = build_parity_mixed_stream(stream, prefix)
    parallel = ParallelConfig(backend="process", num_workers=2)
    failures: list[str] = []
    metrics: dict[str, dict] = {}

    def chaos_run(suite, query, mode, plan, policy):
        with warnings.catch_warnings():
            # Budget exhaustion legitimately warns about the degradation;
            # the gate checks the counters instead of the warning text.
            warnings.simplefilter("ignore", RuntimeWarning)
            with faults.injected(plan):
                return run_mnemonic_stream(
                    query, mixed, initial_prefix=prefix, batch_size=FIG06_BATCH,
                    stream_type=StreamType.INSERT_DELETE, collect_embeddings=True,
                    parallel=parallel, pipeline=mode, fault=policy,
                    query_name=suite,
                )

    def check_identity(label, run, base_pos, base_neg):
        if positive_identities(run.run_result) != base_pos:
            failures.append(f"{label}: positive results differ from fault-free")
        if negative_identities(run.run_result) != base_neg:
            failures.append(f"{label}: negative results differ from fault-free")

    for suite, query in workload:
        for mode in ("serial", "pipelined"):
            baseline = run_mnemonic_stream(
                query, mixed, initial_prefix=prefix, batch_size=FIG06_BATCH,
                stream_type=StreamType.INSERT_DELETE, collect_embeddings=True,
                parallel=parallel, pipeline=mode, query_name=suite,
            )
            base_pos = positive_identities(baseline.run_result)
            base_neg = negative_identities(baseline.run_result)
            if not base_pos or not base_neg:
                failures.append(
                    f"self_healing_parity/{suite}.{mode}: vacuous gate "
                    f"(positives={len(base_pos)}, negatives={len(base_neg)})"
                )

            for kills in (1, 2, 3):
                label = f"self_healing_parity/{suite}.{mode}.kill{kills}"
                run = chaos_run(
                    suite, query, mode,
                    faults.FaultPlan(kill_at_unit=2, kills=kills),
                    FaultPolicy(max_respawns=kills + 1, backoff_initial_seconds=0.0),
                )
                stats = run.extra["fault_stats"]
                check_identity(label, run, base_pos, base_neg)
                if stats["respawns"] < 1:
                    failures.append(f"{label}: no respawn was recorded ({stats})")
                if stats["level"] != "process":
                    failures.append(
                        f"{label}: degraded to {stats['level']} despite budget"
                    )
                metrics[f"{suite}.{mode}.kill{kills}"] = {
                    "seconds": run.seconds,
                    "candidates_scanned": run.extra["candidates_scanned"],
                    "respawns": stats["respawns"],
                    "redispatched_epochs": stats["redispatched_epochs"],
                }

            label = f"self_healing_parity/{suite}.{mode}.hang"
            run = chaos_run(
                suite, query, mode,
                faults.FaultPlan(hang_at_unit=1, hangs=1, hang_seconds=60.0),
                FaultPolicy(max_respawns=2, backoff_initial_seconds=0.0,
                            epoch_deadline_seconds=1.0),
            )
            stats = run.extra["fault_stats"]
            check_identity(label, run, base_pos, base_neg)
            if stats["deadline_expiries"] < 1:
                failures.append(f"{label}: deadline never expired ({stats})")
            if stats["respawns"] < 1:
                failures.append(f"{label}: hung pool was never respawned ({stats})")
            metrics[f"{suite}.{mode}.hang"] = {
                "seconds": run.seconds,
                "candidates_scanned": run.extra["candidates_scanned"],
                "deadline_expiries": stats["deadline_expiries"],
                "respawns": stats["respawns"],
            }

            label = f"self_healing_parity/{suite}.{mode}.exhausted"
            run = chaos_run(
                suite, query, mode,
                faults.FaultPlan(kill_at_unit=2, kills=3),
                FaultPolicy(max_respawns=1, backoff_initial_seconds=0.0),
            )
            stats = run.extra["fault_stats"]
            check_identity(label, run, base_pos, base_neg)
            if stats["level"] != "serial":
                failures.append(
                    f"{label}: expected degradation to serial enumeration, "
                    f"got level={stats['level']!r} ({stats})"
                )
            if "process->serial" not in stats["degradations"]:
                failures.append(f"{label}: missing process->serial transition ({stats})")
            metrics[f"{suite}.{mode}.exhausted"] = {
                "seconds": run.seconds,
                "candidates_scanned": run.extra["candidates_scanned"],
                "respawns": stats["respawns"],
                "degradations": stats["degradations"],
            }
    return metrics, failures


def run_multi_query(stream) -> tuple[dict, list[str]]:
    """The multi-query sharing gate: 8 standing queries vs 8 engines.

    Returns the metrics row for ``BENCH_pr.json`` plus the list of
    violated sharing invariants (empty when the gate passes).
    """
    workload = build_query_workload(
        stream,
        tree_sizes=MULTI_QUERY_TREE_SIZES,
        graph_sizes=MULTI_QUERY_GRAPH_SIZES,
        queries_per_suite=1,
        prefix=2000,
        seed=11,
    )
    queries = [(suite, query) for suite, query in workload]
    prefix = len(stream) - FIG06_SUFFIX
    failures: list[str] = []

    shared = run_multi_query_stream(
        queries, stream, initial_prefix=prefix, batch_size=FIG06_BATCH,
        collect_embeddings=True,
    )
    independent_scanned = 0
    for suite, query in queries:
        independent = run_mnemonic_stream(
            query, stream, initial_prefix=prefix, batch_size=FIG06_BATCH,
            collect_embeddings=True, query_name=suite,
        )
        independent_scanned += independent.extra["candidates_scanned"]
        if positive_identities(shared.per_query[suite].run_result) != positive_identities(
            independent.run_result
        ):
            failures.append(
                f"multi_query/{suite}: shared-engine results differ from an "
                "independent engine"
            )
    if shared.candidates_scanned >= independent_scanned:
        failures.append(
            "multi_query: shared run must scan strictly fewer candidates than "
            f"independent engines ({shared.candidates_scanned} >= {independent_scanned})"
        )

    # Process backend: the 8 queries must share one snapshot export per
    # enumeration phase, and produce the same embeddings as the serial pass.
    pooled = run_multi_query_stream(
        queries, stream, initial_prefix=prefix, batch_size=FIG06_BATCH,
        parallel=ParallelConfig(backend="process", num_workers=2),
        collect_embeddings=True,
    )
    if pooled.snapshot_exports == 0:
        failures.append(
            "multi_query: process backend never published a shared snapshot "
            "(pool unavailable?)"
        )
    elif pooled.snapshot_exports != pooled.pool_phases:
        failures.append(
            "multi_query: expected exactly one snapshot export per pool-dispatched "
            f"batch, got {pooled.snapshot_exports} exports for {pooled.pool_phases} "
            "pool phases"
        )
    elif pooled.pool_phases != pooled.enumeration_phases:
        # At fig06 scale every batch amortises a publish; a batch silently
        # dropping to the serial path would weaken the sharing claim.
        failures.append(
            "multi_query: only "
            f"{pooled.pool_phases}/{pooled.enumeration_phases} enumeration phases "
            "went through the shared pool"
        )
    for suite, _ in queries:
        if positive_identities(pooled.per_query[suite].run_result) != positive_identities(
            shared.per_query[suite].run_result
        ):
            failures.append(f"multi_query/{suite}: pooled results differ from serial")

    metrics = {
        "shared8": {
            "seconds": shared.seconds,
            "candidates_scanned": shared.candidates_scanned,
            "independent_candidates_scanned": independent_scanned,
            "scan_sharing_ratio": (
                shared.candidates_scanned / independent_scanned
                if independent_scanned
                else 0.0
            ),
            "snapshot_exports_pooled": pooled.snapshot_exports,
            "enumeration_phases": pooled.enumeration_phases,
            "pool_phases": pooled.pool_phases,
            "embeddings": sum(
                run.embeddings for run in shared.per_query.values()
            ),
        }
    }
    return metrics, failures


def compare(current: dict, baseline: dict) -> list[str]:
    """Return the list of regression messages (empty when the gate passes)."""
    failures = []
    for figure, suites in baseline.items():
        for suite, metrics in suites.items():
            base = metrics.get("candidates_scanned")
            now = current.get(figure, {}).get(suite, {}).get("candidates_scanned")
            if base is None or now is None:
                failures.append(f"{figure}/{suite}: missing from current run")
                continue
            if base == 0:
                continue
            growth = (now - base) / base
            if growth > REGRESSION_TOLERANCE:
                failures.append(
                    f"{figure}/{suite}: candidates_scanned {base} -> {now} "
                    f"(+{growth:.0%}, tolerance {REGRESSION_TOLERANCE:.0%})"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="refresh benchmarks/perf_baseline.json instead of gating against it",
    )
    args = parser.parse_args(argv)

    stream, workload = build_workload()
    multi_metrics, sharing_failures = run_multi_query(stream)
    kernel_metrics, kernel_failures = run_kernel_parity(stream)
    shard_metrics, shard_failures = run_shard_parity(stream)
    parity_metrics, parity_failures = run_pipeline_parity(stream)
    service_metrics, service_failures = run_service_parity(stream)
    durability_metrics, durability_failures = run_durability_parity(stream)
    healing_metrics, healing_failures = run_self_healing_parity(stream)
    sharing_failures.extend(kernel_failures)
    sharing_failures.extend(shard_failures)
    sharing_failures.extend(parity_failures)
    sharing_failures.extend(service_failures)
    sharing_failures.extend(durability_failures)
    sharing_failures.extend(healing_failures)
    current = {
        "fig06": run_fig06(stream, workload),
        "fig08": run_fig08(stream, workload),
        "multi_query": multi_metrics,
        "kernel_parity": kernel_metrics,
        "shard_parity": shard_metrics,
        "pipeline_parity": parity_metrics,
        "service_parity": service_metrics,
        "durability_parity": durability_metrics,
        "self_healing_parity": healing_metrics,
    }

    with open(OUTPUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(current, fh, indent=2, sort_keys=True)
    print(f"wrote {OUTPUT_PATH}")
    for figure, suites in current.items():
        for suite, metrics in sorted(suites.items()):
            print(
                f"  {figure}/{suite}: {metrics['seconds']:.3f}s, "
                f"candidates_scanned={metrics['candidates_scanned']}"
            )

    if sharing_failures:
        print("multi-query sharing / backend / shard / pipeline / "
              "service / durability / self-healing parity gate FAILED:",
              file=sys.stderr)
        for line in sharing_failures:
            print(f"  {line}", file=sys.stderr)
        return 1

    if args.write_baseline:
        with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
            json.dump({k: current[k] for k in BASELINE_FIGURES}, fh,
                      indent=2, sort_keys=True)
        print(f"wrote {BASELINE_PATH}")
        return 0

    if not os.path.exists(BASELINE_PATH):
        print(f"no baseline at {BASELINE_PATH}; run with --write-baseline first", file=sys.stderr)
        return 2
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        baseline = json.load(fh)
    failures = compare(current, baseline)
    if failures:
        print("candidates-scanned regression gate FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("candidates-scanned regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
