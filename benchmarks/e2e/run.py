"""The repository's benchmark: one command, six workloads, named metrics.

Two ways to call it (see README.md next to this file):

* ``run.py --workload W --seed N --seconds S --trace 0|1`` measures ONE
  workload and prints one JSON object as the last line — the contract
  ``BENCHMARK.json`` describes.  ``--trace 0`` reports the end-to-end
  metrics, ``--trace 1`` the per-layer metrics of traced passes.  The
  measurement runs in a child of this process (see ``supervise``), which
  does not exit before every process the run started has ended.
* ``run.py [--workload W] [--seed N] [--repeats R] [--trace] [--smoke]
  [--ladder] [--label L]`` (no ``--seconds``) is the suite: every workload
  run in a fresh subprocess of the first form, medians and ranges printed by
  name with units, written to ``results/<label>.json``.

The engine is driven only through its public API; ``--seed`` reaches only
the stream generators.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

if __package__ in (None, ""):  # run as a script: make `repro` and `benchmarks` importable
    _root = Path(__file__).resolve().parents[2]
    sys.path[0:1] = [str(_root / "src"), str(_root)]

import numpy as np  # noqa: E402

from benchmarks.e2e import oracle, trace  # noqa: E402
from benchmarks.e2e.queries import QUERIES, query_graph  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    SERVICE_LATENCY_LIMIT_MS,
    SERVICE_MAX_BATCH_DELAY,
    SERVICE_RATE_EPS,
    STRIDE,
    WINDOW,
    WORKLOADS,
    Inputs,
    Size,
    Workload,
    build_inputs,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: full-scale embedding totals per workload at DEFAULT_SEED (suite --write-golden)
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
#: ``setup_s`` is sampled after the passes, back to back on a collected heap,
#: so that every sample is taken in the same state (a set-up between two
#: passes costs up to twice one that follows another set-up): at least this
#: many samples and this share of ``--seconds`` of them (1 s of 15), a 0.3 ms
#: set-up up to the cap
SETUP_SAMPLES = 12
SETUP_SHARE = 1 / 15
SETUP_SAMPLES_CAP = 400
#: length of one open-loop pass; short, so that a run holds six of them
OPEN_PASS_SECONDS = 2.5
#: length of one rung of the rate ladder (two passes)
LADDER_RUNG_SECONDS = 5.0

END_TO_END = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "result_latency_p50_ms": "ms",
    "result_latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # streams.generator
    "batcher.seal_s": "s", "batcher.batches": "count", "batcher.events_in": "count",
    "batcher.cancelled_pairs": "count",
    # streams.events
    "events.decode_s": "s", "events.decoded": "count",
    # streams.broker
    "broker.put_s": "s", "broker.poll_s": "s", "broker.max_depth": "count",
    "broker.blocked_puts": "count", "broker.shed_events": "count",
    # graph.adjacency
    "graph.insert_s": "s", "graph.delete_s": "s", "graph.resolve_s": "s",
    "graph.edges_inserted": "count", "graph.edges_deleted": "count",
    "graph.live_edges": "count", "graph.placeholders": "count", "graph.recycle_ratio": "ratio",
    # core.filtering + core.debi
    "filtering.insert_s": "s", "filtering.delete_s": "s", "filtering.traversals": "count",
    "debi.popcount_s": "s", "debi.bits_set": "count", "debi.nbytes": "bytes",
    # core.enumeration
    "enum.decompose_s": "s", "enum.kernel_s": "s", "enum.extend_s": "s",
    "enum.extend_calls": "count", "enum.work_units": "count",
    "enum.candidates_scanned": "count", "enum.embeddings": "count",
    "enum.embeddings_per_candidate": "ratio",
    # core.registry
    "registry.context_s": "s", "registry.deliver_s": "s", "registry.queries": "count",
    "registry.candidates_scanned": "count",
    # core.pipeline + core.engine
    "pipeline.batch_self_s": "s", "engine.snapshot_self_s": "s", "engine.untraced_share": "ratio",
    # core.parallel
    "pool.dispatch_s": "s", "pool.drain_wait_s": "s", "pool.phases": "count",
    "pool.worker_busy_share": "ratio", "pool.start_s": "s",
    # core.shared_snapshot
    "snapshot.publish_s": "s", "snapshot.publishes": "count",
    "snapshot.full_publishes": "count", "snapshot.dirty_publishes": "count",
    # core.service
    "service.submit_s": "s", "service.poll_s": "s", "service.busy_share": "ratio",
    "service.backlog_max_events": "count", "service.batches_by_size": "count",
    "service.batches_by_deadline": "count",
    # the benchmark itself
    "bench.wall_s": "s", "bench.generator_lag_p95_ms": "ms",
    "bench.trace_overhead_share": "ratio", "bench.missing_targets": "count",
}


# ====================================================================== the rig
@dataclass
class Rig:
    """One constructed engine plus what the benchmark reaches it through."""

    engine: object
    service: object = None
    sinks: list = field(default_factory=list)

    def close(self) -> None:
        self.engine.close()


class TimedSink:
    """The benchmark's own sink wrapper: times delivery into the real sink."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.seconds = 0.0

    def __call__(self, query_id: int, snapshot_result) -> None:
        start = perf_counter()
        self.inner(query_id, snapshot_result)
        self.seconds += perf_counter() - start


def engine_config(workload: Workload, collect: bool):
    from repro import EngineConfig, ParallelConfig, StreamConfig, StreamType

    stream = {}
    if workload.stream_type == "sliding_window":
        stream = {"window": WINDOW, "stride": STRIDE}
    elif workload.loop == "open":
        stream = {"max_batch_delay": SERVICE_MAX_BATCH_DELAY}
    return EngineConfig(
        stream=StreamConfig(
            stream_type=StreamType(workload.stream_type), batch_size=workload.batch_size, **stream
        ),
        parallel=(
            ParallelConfig(backend="process", num_workers=2) if workload.pool else ParallelConfig()
        ),
        pipeline="pipelined" if workload.pool else "serial",
        collect_embeddings=collect,
    )


def set_up(workload: Workload, prefix: list, collect: bool, time_sinks: bool = False) -> Rig:
    """Everything ``setup_s`` counts: engine, pool, query compile, prefix load."""
    from repro import CollectingSink, MnemonicEngine, MnemonicService, MultiQueryEngine

    config = engine_config(workload, collect)
    if workload.engine == "multi":
        rig = Rig(MultiQueryEngine(config))
        for name in workload.queries:
            sink = TimedSink(CollectingSink()) if time_sinks else CollectingSink()
            rig.sinks.append(sink)
            rig.engine.register(query_graph(name), name=name, sink=sink)
    else:
        rig = Rig(MnemonicEngine(query_graph(workload.queries[0]), config=config))
    try:
        rig.engine.load_initial(prefix)
        if workload.loop == "open":
            rig.service = MnemonicService(rig.engine)
    except BaseException:
        rig.close()
        raise
    return rig


# ====================================================================== driving
class ChunkedSource:
    """Hands the engine the timed events chunk by chunk, stamping each hand-over.

    A chunk is the events of one batch (``batch_size`` events, or one stride
    of a sliding window).  A serial engine pulls a chunk's first event only
    after it has emitted the previous chunk's results, so the gap between two
    stamps is the time from handing a batch over to having its results.
    """

    def __init__(self, events: list, bounds: list[tuple[int, int]]) -> None:
        self.events = events
        self.bounds = bounds
        self.stamps: list[float] = []

    def __iter__(self):
        for low, high in self.bounds:
            self.stamps.append(perf_counter())
            yield from self.events[low:high]


def chunk_bounds(workload: Workload, inputs: Inputs) -> list[tuple[int, int]]:
    n = len(inputs.timed)
    if workload.stream_type == "sliding_window":
        timestamp = inputs.table.timestamp[len(inputs.prefix):]
        stride_index = np.floor((timestamp - timestamp[0]) / STRIDE)
        cuts = [0, *(np.flatnonzero(np.diff(stride_index)) + 1).tolist(), n]
    else:
        cuts = [*range(0, n, workload.batch_size), n]
    return list(zip(cuts[:-1], cuts[1:]))


@dataclass
class Drive:
    """What one drive of the timed stream produced, as seen from outside."""

    events: int
    #: closed loop: seconds inside ``engine.run``; open loop: first due time to last result
    wall_s: float
    #: seconds the engine was busy (== wall_s for a closed loop)
    busy_s: float
    latencies_ms: list[float]
    #: per batch, in order: the SnapshotResult / MultiSnapshotResult objects
    batches: list
    failed_events: int = 0
    lag_ms: list[float] = field(default_factory=list)
    backlog_max: int = 0
    backlog_end: int = 0


def drive_closed(workload: Workload, rig: Rig, inputs: Inputs) -> Drive:
    source = ChunkedSource(inputs.timed, chunk_bounds(workload, inputs))
    start = perf_counter()
    result = rig.engine.run(source)
    end = perf_counter()
    stamps = [*source.stamps, end]
    latencies = [(b - a) * 1e3 for a, b in zip(stamps[:-1], stamps[1:])]
    return Drive(len(inputs.timed), end - start, end - start, latencies, result.snapshots)


def drive_open(rig: Rig, events: list, rate: float) -> Drive:
    """Open loop: event ``i`` is due at ``i / rate`` whatever the service does.

    One thread submits every event whose due time has passed, then polls.
    Latency runs from the due time to the return of the ``poll`` holding the
    event's result, so a stall charges the events queued behind it.
    """
    service = rig.service
    n = len(events)
    #: never hand over more than the broker holds (submit would block with
    #: nobody polling); poll() empties the broker each turn
    capacity = service.broker.capacity
    due_ms = np.arange(n) * (1e3 / rate)
    done_ms = np.full(n, np.inf)
    submitted_ms = np.empty(n)
    batches: list = []
    submitted = resolved = backlog_max = 0
    busy = 0.0

    def collect(results, now_ms: float) -> None:
        nonlocal resolved
        for result in results:
            done_ms[resolved:resolved + result.num_insertions] = now_ms
            resolved += result.num_insertions
            batches.append(result)

    start = perf_counter()
    while submitted < n:
        now = perf_counter()
        due = min(n, int((now - start) * rate) + 1, submitted + capacity)
        if due > submitted:
            service.submit(events[submitted:due])
            submitted_ms[submitted:due] = (now - start) * 1e3
            submitted = due
        results = service.poll()
        after = perf_counter()
        busy += after - now
        collect(results, (after - start) * 1e3)
        backlog_max = max(backlog_max, service.pending)
        if not results:
            time.sleep(0.001)
    backlog_end = service.pending
    now = perf_counter()
    results = service.drain()
    after = perf_counter()
    busy += after - now
    collect(results, (after - start) * 1e3)
    stats = service.broker.stats()
    lost = int(stats["shed_events"] + stats["rejected_puts"]) + (n - resolved)
    latencies = done_ms - due_ms  # an event without a result stays at +inf: over any limit
    return Drive(
        n, after - start, busy, latencies.tolist(), batches, failed_events=lost,
        lag_ms=(submitted_ms - due_ms).tolist(), backlog_max=backlog_max,
        backlog_end=backlog_end,
    )


def per_query(batch) -> dict:
    """``query id -> SnapshotResult`` of a single- or multi-query batch result."""
    return getattr(batch, "per_query", {0: batch})


def totals(batches: list) -> tuple[int, int]:
    """(positive, negative) embedding totals over single- or multi-query batches."""
    positive = negative = 0
    for batch in batches:
        for result in per_query(batch).values():
            positive += result.num_positive
            negative += result.num_negative
    return positive, negative


# ====================================================================== output check
def net_node_maps(batches: list, query_id: int) -> tuple[set, list[str]]:
    """Replay the engine's +/- embeddings in order down to the live node maps."""
    live: Counter = Counter()
    problems: list[str] = []
    for batch in batches:
        result = per_query(batch)[query_id]
        if len(result.positive_embeddings) != result.num_positive or len(
            result.negative_embeddings
        ) != result.num_negative:
            problems.append(f"batch {batch.number}: embedding lists disagree with the counts")
        for embedding in result.positive_embeddings:
            live[(embedding.node_map, embedding.edge_map)] += 1
        for embedding in result.negative_embeddings:
            key = (embedding.node_map, embedding.edge_map)
            if live[key] <= 0:
                problems.append(f"batch {batch.number}: negative embedding was never positive")
            live[key] -= 1
    if any(count > 1 for count in live.values()):
        problems.append("an embedding was reported positive twice without a negative between")
    return {key[0] for key, count in live.items() if count > 0}, problems


def oracle_check(workload: Workload, seed: int, size: Size) -> dict:
    """Reduced-scale pass, embeddings collected, against the brute-force oracle.

    The whole reduced stream goes through the engine's stream path (nothing
    is pre-loaded), so the engine's net result must equal matching from
    scratch on the edges live at the end.
    """
    inputs = build_inputs(workload, seed, Size(0, size.prefix + size.timed, size.vertices))
    rig = set_up(workload, inputs.prefix, collect=True)
    try:
        if workload.loop == "open":
            batches = drive_open(rig, inputs.timed, rate=1e9).batches
        else:
            batches = drive_closed(workload, rig, inputs).batches
        live_edge_count = rig.engine.graph.num_edges
    finally:
        rig.close()
    live, vertex_label = oracle.live_edges(inputs.table, workload.stream_type, WINDOW, STRIDE)
    report = {"events": len(inputs.timed), "live_edges": sum(live.values()), "queries": {}}
    problems: list[str] = []
    if live_edge_count != report["live_edges"]:
        problems.append(f"graph holds {live_edge_count} live edges, oracle {report['live_edges']}")
    for query_id, name in enumerate(workload.queries):
        got, issues = net_node_maps(batches, query_id)
        want = oracle.node_mappings(QUERIES[name], live, vertex_label)
        problems += [f"{name}: {issue}" for issue in issues[:3]]
        if got != want:
            problems.append(
                f"{name}: engine has {len(got)} node maps, oracle {len(want)} "
                f"({len(got - want)} extra, {len(want - got)} missing)"
            )
        report["queries"][name] = len(want)
    report["problems"] = problems
    return report


def golden_check(workload: Workload, seed: int, events: int, positive: int, negative: int) -> str:
    """Compare full-scale totals with the checked-in ones; '' when fine or not applicable.

    The totals were recorded at one seed and one stream length (the open-loop
    stream grows with ``--seconds``); other runs have nothing to compare with.
    """
    entry = json.loads(GOLDEN.read_text()).get(workload.name)
    if not entry or entry["seed"] != seed or entry["timed_events"] != events:
        return ""
    if (entry["positive"], entry["negative"]) != (positive, negative):
        return (
            f"totals +{positive}/-{negative} differ from golden "
            f"+{entry['positive']}/-{entry['negative']}"
        )
    return ""


# ====================================================================== one pass
@dataclass
class Pass:
    setup_s: float
    drive: Drive
    positive: int
    negative: int
    layers: dict | None = None
    spans: dict | None = None


def run_pass(workload: Workload, inputs: Inputs, rate: float, tracer=None) -> Pass:
    """Set up, drive the timed stream once, tear down."""
    gc.collect()
    start = perf_counter()
    rig = set_up(workload, inputs.prefix, workload.collect, time_sinks=tracer is not None)
    setup_s = perf_counter() - start
    try:
        if tracer:
            tracer.begin()
        placeholders_before = rig.engine.graph.num_placeholders
        if workload.loop == "open":
            drive = drive_open(rig, inputs.timed, rate)
        else:
            drive = drive_closed(workload, rig, inputs)
        positive, negative = totals(drive.batches)
        done = Pass(setup_s, drive, positive, negative)
        if tracer:
            done.layers = layer_metrics(workload, rig, drive, tracer, placeholders_before)
            done.spans = tracer.dump()
        drive.batches = []  # the embeddings must not outlive the pass (peak_rss_mb)
        return done
    finally:
        rig.close()


def layer_metrics(workload, rig, drive, tracer, placeholders_before) -> dict:
    """Every per-layer metric of one traced pass, from spans and public fields."""
    self_s, total_s, leaf = tracer.self_seconds, tracer.total_seconds, tracer.leaf
    engine, graph = rig.engine, rig.engine.graph
    results = [result for batch in drive.batches for result in per_query(batch).values()]
    inserted = sum(b.num_insertions for b in drive.batches)
    deleted = sum(b.num_deletions for b in drive.batches)
    scanned = sum(r.candidates_scanned for r in results)
    embeddings = sum(r.num_positive + r.num_negative for r in results)
    last = results[-1] if results else None
    runtimes = (
        [registered.runtime for _, registered in engine.registry.items()]
        if workload.engine == "multi" else [engine.runtime]
    )
    outcomes = [o for r in results for o in r.enumeration_outcomes if len(o.worker_stats) > 1]
    pool_wall = sum(o.wall_seconds * len(o.worker_stats) for o in outcomes)
    pool = tracer.pool
    publish = pool.publish_stats if pool is not None else {}
    broker = rig.service.broker.stats() if rig.service else {}
    by_size = sum(
        1 for b in drive.batches if b.num_insertions + b.num_deletions >= workload.batch_size
    )
    cancelled = 0
    if workload.stream_type == "insert_delete":
        cancelled = (drive.events - inserted - deleted) // 2
    grown = graph.num_placeholders - placeholders_before
    return {
        "batcher.seal_s": self_s("generator.next") + leaf("batcher.offer")[1]
        + leaf("batcher.flush")[1],
        "batcher.batches": len(drive.batches),
        "batcher.events_in": drive.events,
        "batcher.cancelled_pairs": cancelled,
        "events.decode_s": self_s(
            "events.from_events", "events.insert_columns", "events.delete_columns"
        ),
        "events.decoded": inserted + deleted,
        "broker.put_s": leaf("broker.put")[1],
        "broker.poll_s": leaf("broker.poll")[1],
        "broker.max_depth": broker.get("max_depth", 0),
        "broker.blocked_puts": broker.get("blocked_puts", 0),
        "broker.shed_events": broker.get("shed_events", 0),
        "graph.insert_s": self_s("graph.insert"),
        "graph.delete_s": self_s("graph.delete"),
        "graph.resolve_s": self_s("graph.resolve"),
        "graph.edges_inserted": inserted,
        "graph.edges_deleted": deleted,
        "graph.live_edges": graph.num_edges,
        "graph.placeholders": graph.num_placeholders,
        "graph.recycle_ratio": 1.0 - grown / inserted if inserted else 0.0,
        "filtering.insert_s": self_s("filtering.insert"),
        "filtering.delete_s": self_s("filtering.delete"),
        "filtering.traversals": sum(r.filter_traversals for r in results),
        "debi.popcount_s": self_s("debi.popcount"),
        "debi.bits_set": last.debi_bits if last else 0,
        "debi.nbytes": sum(runtime.debi.nbytes() for runtime in runtimes),
        "enum.decompose_s": self_s("enum.decompose"),
        "enum.kernel_s": total_s("enum.kernel", "enum.kernel_packed"),
        "enum.extend_s": leaf("enum.extend")[1],
        "enum.extend_calls": leaf("enum.extend")[0],
        "enum.work_units": sum(r.work_units for r in results),
        "enum.candidates_scanned": scanned,
        "enum.embeddings": embeddings,
        "enum.embeddings_per_candidate": embeddings / scanned if scanned else 0.0,
        "registry.context_s": self_s("registry.context"),
        "registry.deliver_s": sum(sink.seconds for sink in rig.sinks),
        "registry.queries": len(runtimes),
        "registry.candidates_scanned": scanned if workload.engine == "multi" else 0,
        "pipeline.batch_self_s": self_s("pipeline.batch"),
        "engine.snapshot_self_s": self_s(
            "engine.snapshot", "engine.run", "multi.snapshot", "multi.run"
        ),
        "engine.untraced_share": 1.0 - tracer.explained_seconds() / drive.busy_s,
        "pool.dispatch_s": self_s("pool.dispatch"),
        "pool.drain_wait_s": self_s("pool.drain"),
        "pool.phases": getattr(engine, "pool_enumeration_phases", 0) if pool else 0,
        "pool.start_s": total_s("pool.start", setup=True),
        "pool.worker_busy_share": (
            sum(w.busy_seconds for o in outcomes for w in o.worker_stats) / pool_wall
            if pool_wall else 0.0
        ),
        "snapshot.publish_s": self_s("snapshot.publish"),
        "snapshot.publishes": publish.get("publish_count", 0),
        "snapshot.full_publishes": publish.get("full_publishes", 0),
        "snapshot.dirty_publishes": publish.get("dirty_publishes", 0),
        "service.submit_s": self_s("service.submit"),
        "service.poll_s": self_s("service.poll"),
        "service.busy_share": drive.busy_s / drive.wall_s if rig.service else 0.0,
        "service.backlog_max_events": drive.backlog_max,
        "service.batches_by_size": by_size if rig.service else 0,
        "service.batches_by_deadline": len(drive.batches) - by_size if rig.service else 0,
        "bench.wall_s": drive.busy_s,
        "bench.generator_lag_p95_ms": (
            float(np.percentile(drive.lag_ms, 95)) if drive.lag_ms else 0.0
        ),
        "bench.missing_targets": len(tracer.missing),
    }


# ====================================================================== one run
def undisturbed(values: list[float], better: str = "lower") -> float:
    """The quartile of per-pass values on the good side.

    Whatever else the host does (a busy neighbour costs this 2-vCPU guest up
    to 45%, in bursts of milliseconds to minutes) only ever makes a pass
    slower, so the median over passes moves with the host and the good-side
    quartile mostly does not.
    """
    return float(np.percentile(values, 25 if better == "lower" else 75))


def steady_timings(workload: Workload, passes: list[Pass]) -> dict:
    """Throughput and latencies of one run from its passes, the host filtered out.

    Every pass of a serial closed loop does the same work batch by batch on
    the same state, so what a batch costs is the least any pass spent on it,
    and the run's numbers are read off that per-batch profile.  Measured on
    ``lanl-window-slide`` over twelve runs, this brought the spread of p95
    from 27% (quartile over per-pass p95s) to 9% and that of the throughput
    from 13% to 9%.  Where the clock or a pipeline decides when a batch is
    taken (the open loop, the pipelined pool) a batch's time in one pass is
    not comparable with its time in another, so there every number is taken
    per pass and the filter is the good-side quartile over the passes.
    """
    if workload.loop == "closed" and not workload.pool:
        profile = np.min([p.drive.latencies_ms for p in passes], axis=0)
        wall_s = float(profile.sum()) / 1e3
        return {
            "wall_s": wall_s,
            "events_per_s": passes[0].drive.events / wall_s,
            "result_latency_p50_ms": float(np.percentile(profile, 50)),
            "result_latency_p95_ms": float(np.percentile(profile, 95)),
        }
    # an event that never got a result is over any limit, not missing from the sample
    latencies = [
        np.nan_to_num(np.asarray(p.drive.latencies_ms), posinf=SERVICE_LATENCY_LIMIT_MS * 10)
        for p in passes
    ]
    return {
        "wall_s": undisturbed([p.drive.busy_s for p in passes]),
        "events_per_s": undisturbed(
            [p.drive.events / p.drive.wall_s for p in passes], better="higher"
        ),
        "result_latency_p50_ms": undisturbed([np.percentile(v, 50) for v in latencies]),
        "result_latency_p95_ms": undisturbed([np.percentile(v, 95) for v in latencies]),
    }


def measure(workload: Workload, seed: int, seconds: float, traced: bool, smoke: bool,
            rate: float = SERVICE_RATE_EPS) -> dict:
    """One benchmark run of one workload in this process; returns the full detail."""
    scale = "smoke" if smoke else "full"
    size = workload.size(scale)
    if workload.loop == "open":
        # An open-loop pass offers rate x duration events on a fresh service;
        # the stream keeps the nominal events-per-vertex density at any rate.
        duration = OPEN_PASS_SECONDS if seconds >= OPEN_PASS_SECONDS else seconds / 2
        offered = int(rate * duration)
        density = (size.prefix + size.timed) / size.vertices
        size = Size(size.prefix, offered, round((size.prefix + offered) / density))
    check = oracle_check(workload, seed, workload.size("smoke" if smoke else "check"))
    inputs = build_inputs(workload, seed, size)

    # Passes repeat until the measuring time is used up.  In a traced run
    # every second pass is traced, so untraced passes sit beside the traced
    # ones for the overhead; the first pass (cold caches) is never traced.
    passes: list[Pass] = []
    started = perf_counter()
    while True:
        shims = trace.Tracer() if traced and len(passes) % 2 else contextlib.nullcontext()
        with shims as tracer:
            passes.append(run_pass(workload, inputs, rate, tracer))
        if perf_counter() - started >= seconds and len(passes) >= (2 if traced else 1):
            break
    setups: list[float] = []
    started = perf_counter()
    while len(setups) < SETUP_SAMPLES or (
        perf_counter() - started < seconds * SETUP_SHARE and len(setups) < SETUP_SAMPLES_CAP
    ):
        gc.collect()
        begin = perf_counter()
        rig = set_up(workload, inputs.prefix, workload.collect)
        setups.append(perf_counter() - begin)
        rig.close()

    attempted = sum(p.drive.events for p in passes)
    failed = sum(p.drive.failed_events for p in passes)
    problems = list(check["problems"])
    if len({(p.positive, p.negative) for p in passes}) > 1:
        problems.append("passes over the same stream produced different embedding totals")
    if not smoke:
        first = passes[0]
        issue = golden_check(workload, seed, first.drive.events, first.positive, first.negative)
        if issue:
            problems.append(issue)
    if problems:
        failed = attempted  # a run whose output check failed has no good events

    untraced = [p for p in passes if p.layers is None]
    timings = steady_timings(workload, untraced)
    wall_s = timings.pop("wall_s")
    latencies = np.concatenate([p.drive.latencies_ms for p in untraced])
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    end_to_end = {
        "setup_s": undisturbed(setups),
        **timings,
        # this process plus its largest reaped child (a pool worker)
        "peak_rss_mb": (usage + children) / 1024.0,
    }
    detail = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "smoke": smoke,
        "correct": not problems, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted, "problems": problems, "check": check,
        "passes": len(passes), "latency_samples": len(untraced[0].drive.latencies_ms),
        "positive": passes[0].positive, "negative": passes[0].negative,
        "timed_events": passes[0].drive.events,
        "over_limit_share": float(np.mean(latencies > SERVICE_LATENCY_LIMIT_MS)),
        "backlog_end_events": passes[-1].drive.backlog_end,
        "busy_share": statistics.median(p.drive.busy_s / p.drive.wall_s for p in untraced),
        "wall_s": wall_s,
        "pass_wall_s": [p.drive.busy_s for p in passes],
        "pass_setup_s": [p.setup_s for p in passes], "setup_samples_s": setups,
        "end_to_end": end_to_end,
    }
    if traced:
        traced_passes = [p for p in passes if p.layers is not None]
        layers = {
            name: statistics.median(p.layers[name] for p in traced_passes) for name in PER_LAYER
            if name != "bench.trace_overhead_share"
        }
        traced_wall_s = steady_timings(workload, traced_passes)["wall_s"]
        layers["bench.trace_overhead_share"] = (traced_wall_s - wall_s) / wall_s
        detail["per_layer"] = layers
        detail["spans"] = traced_passes[0].spans
    return detail


def result_line(detail: dict, traced: bool) -> str:
    """The contract's last line: correct/attempted/failed/metrics, values unrounded."""
    units = PER_LAYER if traced else END_TO_END
    values = detail["per_layer" if traced else "end_to_end"]
    return json.dumps({
        "correct": detail["correct"], "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    })


# ====================================================================== process hygiene
#: how long the processes a measurement leaves behind get to end by themselves
#: (multiprocessing's resource tracker unlinks leaked shared memory on its way
#: out) before they are killed
ORPHAN_GRACE_SECONDS = 5.0
#: the contract gives a run 180 s; a measurement still going by then is killed
MEASUREMENT_LIMIT_SECONDS = 170.0
PR_SET_CHILD_SUBREAPER = 36


def children_of(pid: int) -> list[int]:
    """Every process whose parent is ``pid``, read from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # ended while we were looking
            if int(stat.rpartition(")")[2].split()[1]) == pid:  # fields after "(comm)"
                found.append(int(entry))
    return found


def reap_descendants(terminate: bool) -> None:
    """Wait until no child is left, killing the ones alive after the grace period.

    This process is a subreaper, so a process whose parent ended becomes a
    child of this one: waiting until there is no child left covers every
    process the measurement started, however deep.  With ``terminate`` the
    children are first asked to end (SIGTERM, which the resource tracker
    ignores: it ends once the others have, after unlinking what they leaked).
    """
    deadline = perf_counter() + ORPHAN_GRACE_SECONDS
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            overdue = perf_counter() >= deadline
            if terminate or overdue:
                for child in children_of(os.getpid()):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(child, signal.SIGKILL if overdue else signal.SIGTERM)
            time.sleep(0.005)


def supervise(argv: list[str]) -> int:
    """Measure in a child process; return only when it and all it started have ended.

    An engine on the process backend starts pool workers, and
    ``multiprocessing.shared_memory`` starts a resource tracker that outlives
    the process it serves.  On every path out of here — a result, a failed
    check, a crash, a hang, SIGTERM — none of them is left running.
    """
    if ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")

    def interrupted(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    ended = False
    try:
        child = subprocess.Popen([sys.executable, str(HERE / "run.py"), "--measure", *argv])
        try:
            code = child.wait(MEASUREMENT_LIMIT_SECONDS)
            ended = True
        except subprocess.TimeoutExpired:
            print(f"measurement not done after {MEASUREMENT_LIMIT_SECONDS:.0f} s: stopped",
                  file=sys.stderr)
            code = 1
        return code
    finally:
        reap_descendants(terminate=not ended)


# ====================================================================== the suite
def fingerprint() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine(), "git_commit": commit,
    }


def run_child(workload: str, seed: int, seconds: float, traced: bool, smoke: bool,
              extra: list[str] | None = None) -> dict:
    """One run in a fresh subprocess; returns its detail."""
    with tempfile.TemporaryDirectory(dir=HERE / "results") as scratch:
        detail_path = Path(scratch) / "detail.json"
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(traced)), "--detail", str(detail_path),
            *(["--smoke"] if smoke else []), *(extra or []),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=600)
        if not detail_path.exists():
            raise RuntimeError(f"{workload}: run failed\n{done.stdout}\n{done.stderr}")
        return json.loads(detail_path.read_text())


def summarize(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "samples": len(values), "values": values}


def suite(args) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = 0.4 if args.smoke else benchmark["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    (HERE / "results").mkdir(exist_ok=True)
    report = {
        "schema": 1, "label": args.label, "claim": None, "seed": args.seed,
        "run_seconds": seconds, "repeats": args.repeats, "smoke": args.smoke,
        "host": fingerprint(),
        #: name, unit, direction and regression bound of each end-to-end metric
        "metrics": benchmark["end_to_end"],
        "workloads": {},
    }
    ok = True
    for name in names:
        runs = [run_child(name, args.seed, seconds, False, args.smoke)
                for _ in range(args.repeats)]
        entry = {
            "why": WORKLOADS[name].why,
            "end_to_end": {
                metric: {"unit": unit, **summarize([r["end_to_end"][metric] for r in runs])}
                for metric, unit in END_TO_END.items()
            },
            "failed_share": {"unit": "ratio", **summarize([r["failed_share"] for r in runs])},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "latency_samples": runs[0]["latency_samples"], "passes": runs[0]["passes"],
            "positive": runs[0]["positive"], "negative": runs[0]["negative"],
            "timed_events": runs[0]["timed_events"], "busy_share": runs[0]["busy_share"],
            "check": runs[0]["check"], "problems": [p for r in runs for p in r["problems"]],
        }
        print(f"\n== {name}  ({entry['passes']} passes/run, "
              f"{entry['latency_samples']} latency samples/run)")
        for metric, unit in END_TO_END.items():
            row = entry["end_to_end"][metric]
            print(f"  {metric:<24}{row['median']:>14.4f} {unit:<9}"
                  f"[{row['min']:.4f} .. {row['max']:.4f}]  n={row['samples']}")
        print(f"  {'failed_share':<24}{entry['failed_share']['median']:>14.4f} {'ratio':<9}"
              f"({entry['failed']} of {entry['attempted']} events)")
        for problem in entry["problems"]:
            print(f"  OUTPUT CHECK FAILED: {problem}")
        if args.trace:
            traced = run_child(name, args.seed, seconds, True, args.smoke)
            entry["per_layer"] = {
                metric: {"unit": unit, "value": traced["per_layer"][metric]}
                for metric, unit in PER_LAYER.items()
            }
            entry["problems"] += traced["problems"]
            spans_path = HERE / "results" / f"{args.label}.trace.{name}.json"
            spans_path.write_text(json.dumps(traced["spans"], separators=(",", ":")) + "\n")
            print("  -- per layer (traced passes, median per pass)")
            for metric, unit in PER_LAYER.items():
                print(f"  {metric:<32}{traced['per_layer'][metric]:>16.6g} {unit}")
        if args.ladder and WORKLOADS[name].loop == "open":
            entry["ladder"] = ladder(name, args.seed, args.smoke)
        ok = ok and not entry["problems"] and entry["failed"] == 0
        report["workloads"][name] = entry
        if args.write_golden:
            golden = json.loads(GOLDEN.read_text())
            golden[name] = {"seed": args.seed, "timed_events": entry["timed_events"],
                            "positive": entry["positive"], "negative": entry["negative"]}
            GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    out = HERE / "results" / f"{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


def ladder(name: str, seed: int, smoke: bool) -> dict:
    """0.25x/0.5x/1x/2x the frozen rate, 5 s each: latency, backlog, sustainable rate."""
    rungs = []
    print("  -- rate ladder")
    for factor in (0.25, 0.5, 1.0, 2.0):
        detail = run_child(name, seed, 1.0 if smoke else LADDER_RUNG_SECONDS, False, smoke,
                           extra=["--rate-factor", str(factor)])
        rung = {
            "rate_eps": SERVICE_RATE_EPS * factor,
            "p50_ms": detail["end_to_end"]["result_latency_p50_ms"],
            "p95_ms": detail["end_to_end"]["result_latency_p95_ms"],
            "backlog_end_events": detail["backlog_end_events"],
        }
        rungs.append(rung)
        print(f"  {rung['rate_eps']:>9.0f} events/s  p50 {rung['p50_ms']:8.2f} ms  "
              f"p95 {rung['p95_ms']:8.2f} ms  end backlog {rung['backlog_end_events']} events")
    batch = WORKLOADS[name].batch_size
    sustained = [r["rate_eps"] for r in rungs
                 if r["p95_ms"] <= SERVICE_LATENCY_LIMIT_MS and r["backlog_end_events"] <= batch]
    rate = max(sustained, default=0.0)
    print(f"  service.sustainable_rate_eps    {rate:.0f} events/s")
    return {"rungs": rungs, "service.sustainable_rate_eps": rate}


# ====================================================================== entry
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measure ONE workload for this long and print the result line")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (tests)")
    parser.add_argument("--detail", type=Path, help="also write the run's full detail here")
    parser.add_argument("--rate-factor", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--ladder", action="store_true")
    parser.add_argument("--label", default="local")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's embedding totals as the golden ones")
    args = parser.parse_args(argv)
    if args.seconds is None:
        return suite(args)
    if not args.workload:
        parser.error("--seconds measures one workload: name it with --workload")
    if not args.measure:
        return supervise(sys.argv[1:] if argv is None else argv)
    detail = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     args.smoke, rate=SERVICE_RATE_EPS * args.rate_factor)
    if args.detail:
        args.detail.write_text(json.dumps(detail) + "\n")
    for problem in detail["problems"]:
        print(f"OUTPUT CHECK FAILED: {problem}", file=sys.stderr)
    print(result_line(detail, bool(args.trace)))
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
