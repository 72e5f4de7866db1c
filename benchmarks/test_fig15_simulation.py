"""Figure 15: dual simulation on the LANL-like stream with a sliding window.

The simulation family produces a binary relation instead of embeddings,
so its per-window cost is far below isomorphism (the paper completes
most queries within 30 minutes vs 2 hours).  The reproduction updates
DEBI incrementally per window and recomputes the relation from the
index (``dual_simulation_from_debi``), reporting runtime per suite and
the relation sizes, plus the isomorphism runtime on the same windows
for the cheap/expensive contrast.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import write_result
from repro.bench.harness import run_mnemonic_stream
from repro.bench.reporting import format_table
from repro.core import native
from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.registry import resolve_deletions
from repro.matchers import HomomorphismMatcher, dual_simulation_from_debi
from repro.streams.config import StreamConfig, StreamType

WINDOW = 24 * 60.0
STRIDE = 6 * 60.0


def _run_simulation(query, stream):
    engine = MnemonicEngine(query, match_def=HomomorphismMatcher(), config=EngineConfig(
        stream=StreamConfig(stream_type=StreamType.SLIDING_WINDOW, window=WINDOW, stride=STRIDE),
        collect_embeddings=False,
    ))
    start = time.perf_counter()
    snapshots = 0
    non_empty_windows = 0
    relation_size = 0
    graph, index = engine.graph, engine.index_manager
    for snapshot in engine.initialize_stream(stream):
        # Index maintenance only (no embedding enumeration), with the batch
        # mutations of the engine's pipeline: insert the batch, expire the
        # instances the window names, then recompute the relation from DEBI.
        inserted = snapshot.insert_columns()
        if inserted is not None:
            ids = np.asarray(graph.apply_insert_columns(
                inserted.src, inserted.dst, inserted.label, inserted.timestamp,
                inserted.src_label, inserted.dst_label,
            ))
            index.handle_insert_columns(ids, inserted.src, inserted.dst, inserted.label)
        if snapshot.deletions:
            doomed = resolve_deletions(graph, snapshot.delete_columns())
            held = index.held_bits(doomed)  # DEBI rows outlive the edges
            deleted = graph.apply_delete_columns(doomed)
            engine.debi.clear_edges(doomed)
            index.handle_deletions(deleted, held)
        relation = dual_simulation_from_debi(engine)
        snapshots += 1
        if relation:
            non_empty_windows += 1
            relation_size = sum(len(v) for v in relation.values())
    elapsed = time.perf_counter() - start
    return elapsed, snapshots, non_empty_windows, relation_size


def _run(stream, workload):
    # Build (or load) the native kernel before any timed region: a cold
    # compile would otherwise be charged to the first suite's simulation.
    native.library()
    rows = []
    for suite, query in workload:
        sim_seconds, snapshots, non_empty, relation_size = _run_simulation(query, stream)
        iso = run_mnemonic_stream(query, stream, initial_prefix=0, batch_size=100_000,
                                  stream_type=StreamType.SLIDING_WINDOW, window=WINDOW,
                                  stride=STRIDE, query_name=suite)
        rows.append([suite, sim_seconds, iso.seconds, snapshots, non_empty, relation_size])
    return rows


@pytest.mark.benchmark(group="fig15")
def test_fig15_simulation(benchmark, lanl_workload):
    stream, workload = lanl_workload
    rows = benchmark.pedantic(_run, args=(stream, workload), rounds=1, iterations=1)
    table = format_table(
        "Figure 15 - dual simulation per sliding window vs isomorphism on the same windows",
        ["suite", "dual_simulation_s", "isomorphism_s", "windows", "non_empty_windows",
         "last_relation_size"],
        rows,
    )
    write_result("fig15_simulation", table)
    # Shape check: every suite completes and the relaxed semantics is never
    # dramatically more expensive than full isomorphism on the same stream.
    for row in rows:
        assert row[1] > 0
        assert row[1] <= row[2] * 5
