"""Crash-recovery tests for the durable engine state (journal + checkpoints).

The harness simulates a crash by abandoning an engine mid-stream:
``engine.close()`` is crash-safe by construction — it flushes in-flight
pipeline phases (their results are simply never delivered) and closes
file descriptors, but never seals an epoch or writes a checkpoint.  A
recovered engine must therefore reconstruct exactly the state as of the
last *delivered* batch, and refeeding the remainder of the stream must
reproduce the uninterrupted run bit-for-bit: the union of pre-crash
delivered results and post-recovery results equals the straight-through
results, as identity multisets over (node_map, edge_map, sign).
"""

from __future__ import annotations

import shutil
from collections import Counter

import pytest

from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.registry import MultiQueryEngine
from repro.core.service import MnemonicService
from repro.query.query_graph import QueryGraph
from repro.storage.config import StorageConfig
from repro.streams.config import StreamConfig, StreamType
from repro.streams.events import EventKind, StreamEvent
from repro.streams.generator import SnapshotGenerator
from repro.streams.sources import ListSource
from repro.utils.rng import make_rng
from repro.utils.validation import ConfigurationError

BATCH = 4
NUM_VERTICES = 24
NUM_LABELS = 3


def vlabel(v: int) -> int:
    return v % NUM_LABELS + 1


def path_query() -> QueryGraph:
    return QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 1, 1: 2, 2: 3})


def edge_query() -> QueryGraph:
    return QueryGraph.from_edges([(0, 1)], node_labels={0: 2, 1: 3})


def make_stream(seed: int, length: int, delete_fraction: float = 0.3) -> list[StreamEvent]:
    """A deterministic insert/delete stream with self-consistent labels."""
    rng = make_rng(seed)
    events: list[StreamEvent] = []
    live: list[StreamEvent] = []
    for _ in range(length):
        if live and rng.random() < delete_fraction:
            victim = live.pop(int(rng.integers(len(live))))
            events.append(StreamEvent.delete(victim.src, victim.dst, victim.label))
        else:
            src = int(rng.integers(NUM_VERTICES))
            dst = int(rng.integers(NUM_VERTICES))
            event = StreamEvent.insert(src, dst, 0, src_label=vlabel(src), dst_label=vlabel(dst))
            events.append(event)
            live.append(event)
    return events


def snapshots_for(events, batch_size: int = BATCH):
    """Pre-batched snapshots, so every run sees identical epoch boundaries."""
    config = StreamConfig(stream_type=StreamType.INSERT_DELETE, batch_size=batch_size)
    return list(SnapshotGenerator(ListSource(list(events)), config))


def make_config(directory=None, pipeline: str = "serial") -> EngineConfig:
    storage = None
    if directory is not None:
        storage = StorageConfig(directory=directory, checkpoint_interval=3)
    return EngineConfig(
        stream=StreamConfig(stream_type=StreamType.INSERT_DELETE, batch_size=BATCH),
        pipeline=pipeline,
        collect_embeddings=True,
        storage=storage,
    )


def identity_counts(results) -> tuple[Counter, Counter]:
    """Positive / negative embedding identity multisets over results."""
    pos: Counter = Counter()
    neg: Counter = Counter()
    for result in results:
        pos.update(e.identity() for e in result.positive_embeddings)
        neg.update(e.identity() for e in result.negative_embeddings)
    return pos, neg


def run_snapshots(engine, snapshots) -> list:
    return [engine.process_snapshot(s) for s in snapshots]


# ---------------------------------------------------------------------- single query, serial
def test_serial_crash_at_every_epoch_boundary(tmp_path):
    """Crash after every k delivered batches; recovery + refeed == straight run."""
    events = make_stream(seed=2201, length=120)
    snapshots = snapshots_for(events)
    with MnemonicEngine(path_query(), config=make_config()) as engine:
        straight = identity_counts(run_snapshots(engine, snapshots))
    assert sum(straight[0].values()) > 0 and sum(straight[1].values()) > 0

    for crash_at in range(len(snapshots) + 1):
        directory = tmp_path / f"crash{crash_at}"
        engine = MnemonicEngine(path_query(), config=make_config(directory))
        pre = run_snapshots(engine, snapshots[:crash_at])
        engine.close()  # crash: nothing sealed beyond the delivered batches

        recovered = MnemonicEngine.open(directory)
        info = recovered.recovery_info
        assert info["corruption"] is None
        last = info["last_sealed_number"]
        resume = 0 if last is None else last + 1
        assert resume == crash_at
        post = run_snapshots(recovered, snapshots[crash_at:])
        recovered.close()
        assert identity_counts(pre + post) == straight, f"crash at {crash_at}"


def test_crash_before_any_batch_with_initial_load(tmp_path):
    """load_initial is journaled: a crash right after it loses nothing."""
    events = make_stream(seed=2202, length=100)
    initial = [e for e in events[:40] if e.kind is EventKind.INSERT]
    snapshots = snapshots_for(events[40:])

    with MnemonicEngine(path_query(), config=make_config()) as engine:
        engine.load_initial(list(initial))
        straight = identity_counts(run_snapshots(engine, snapshots))

    directory = tmp_path / "state"
    engine = MnemonicEngine(path_query(), config=make_config(directory))
    engine.load_initial(list(initial))
    engine.close()

    recovered = MnemonicEngine.open(directory)
    assert recovered.recovery_info["last_sealed_number"] is None
    assert recovered.graph.num_edges == len(initial)
    got = identity_counts(run_snapshots(recovered, snapshots))
    recovered.close()
    assert got == straight


def test_recovered_graph_and_debi_match_survivor(tmp_path):
    """Recovered internal state is bit-identical to an engine that never crashed."""
    import numpy as np

    events = make_stream(seed=2203, length=140)
    snapshots = snapshots_for(events)
    crash_at = len(snapshots) // 2

    survivor_dir = tmp_path / "survivor"
    survivor = MnemonicEngine(path_query(), config=make_config(survivor_dir))
    run_snapshots(survivor, snapshots[:crash_at])

    crash_dir = tmp_path / "crash"
    engine = MnemonicEngine(path_query(), config=make_config(crash_dir))
    run_snapshots(engine, snapshots[:crash_at])
    engine.close()
    recovered = MnemonicEngine.open(crash_dir)

    assert recovered.graph.num_edges == survivor.graph.num_edges
    assert sorted(recovered.graph.vertices()) == sorted(survivor.graph.vertices())
    got = recovered.debi.export_buffers()
    want = survivor.debi.export_buffers()
    assert got["num_rows"] == want["num_rows"]
    np.testing.assert_array_equal(
        np.asarray(got["rows"])[: got["num_rows"]],
        np.asarray(want["rows"])[: want["num_rows"]],
    )
    np.testing.assert_array_equal(np.asarray(got["roots"]), np.asarray(want["roots"]))
    survivor.close()
    recovered.close()


# ---------------------------------------------------------------------- single query, pipelined
@pytest.mark.parametrize("delivered", [1, 3, 7])
def test_pipelined_crash_mid_stream(tmp_path, delivered):
    """Pipelined mode: applied-but-undelivered batches are not sealed.

    The pipeline runs mutations ahead of enumeration deliveries; a crash
    between the two must recover to the last *delivered* epoch, and the
    refeed re-applies the lost batches exactly once.
    """
    events = make_stream(seed=2204, length=120)
    snapshots = snapshots_for(events)
    with MnemonicEngine(path_query(), config=make_config()) as engine:
        straight = identity_counts(run_snapshots(engine, snapshots))

    directory = tmp_path / "state"
    engine = MnemonicEngine(path_query(), config=make_config(directory, pipeline="pipelined"))
    pre = []
    for batch in engine._pipeline.run_stream(iter(list(snapshots))):
        pre.append(engine._result_from_batch(batch).per_query[0])
        if len(pre) == delivered:
            break  # crash with later batches applied but never delivered
    engine.close()

    recovered = MnemonicEngine.open(directory)
    info = recovered.recovery_info
    assert info["corruption"] is None
    assert info["last_sealed_number"] == delivered - 1
    post = run_snapshots(recovered, snapshots[delivered:])
    recovered.close()
    assert identity_counts(pre + post) == straight


# ---------------------------------------------------------------------- mid-append torn journal
def test_crash_mid_journal_append(tmp_path):
    """A torn final record (half-written append) is detected and dropped.

    Every truncation point inside the final record — mid-header and
    mid-payload — must recover to the previous epoch boundary.
    """
    events = make_stream(seed=2205, length=80)
    snapshots = snapshots_for(events)
    with MnemonicEngine(path_query(), config=make_config()) as engine:
        straight = identity_counts(run_snapshots(engine, snapshots))

    crash_at = len(snapshots) - 2
    directory = tmp_path / "state"
    engine = MnemonicEngine(path_query(), config=make_config(directory))
    pre = run_snapshots(engine, snapshots[:crash_at])
    engine.close()

    journal = directory / "journal.log"
    intact = journal.read_bytes()
    from repro.storage.journal import scan_journal

    scan = scan_journal(journal)
    assert scan.corruption is None
    last_offset = scan.records[-1].offset
    # Tear the last record at a few byte positions: inside the header,
    # and inside the payload.  Each cut tears a copy of the crashed
    # directory, so no cut reads the checkpoints an earlier recovery wrote.
    for cut in (last_offset + 3, last_offset + 12, len(intact) - 1):
        torn = tmp_path / f"torn{cut}"
        shutil.copytree(directory, torn)
        (torn / "journal.log").write_bytes(intact[:cut])
        recovered = MnemonicEngine.open(torn)
        info = recovered.recovery_info
        assert info["corruption"] is not None
        assert info["last_sealed_number"] == crash_at - 2
        post = run_snapshots(recovered, snapshots[crash_at - 1:])
        got = identity_counts(pre[: crash_at - 1] + post)
        recovered.close()
        assert got == straight, f"torn at byte {cut}"


# ---------------------------------------------------------------------- multi query
def test_multi_query_crash_with_membership_changes(tmp_path):
    """Recovery replays mid-stream register/unregister from the journal."""
    events = make_stream(seed=2206, length=160)
    snapshots = snapshots_for(events)
    third = len(snapshots) // 3

    def run_schedule(engine, crash_after: int | None):
        """register q1; run; register q2; run; unregister q1; run (maybe crash)."""
        per_query: dict[int, list] = {}

        def feed(chunk):
            for snapshot in chunk:
                result = engine.process_snapshot(snapshot)
                for qid, r in result.per_query.items():
                    per_query.setdefault(qid, []).append(r)

        q1 = engine.register(path_query(), name="path")
        feed(snapshots[:third])
        q2 = engine.register(edge_query(), name="edge")
        feed(snapshots[third: 2 * third])
        engine.unregister(q1)
        if crash_after is None:
            feed(snapshots[2 * third:])
        else:
            feed(snapshots[2 * third: crash_after])
        return per_query, q2

    with MultiQueryEngine(config=make_config()) as engine:
        straight, straight_q2 = run_schedule(engine, crash_after=None)

    crash_after = 2 * third + 2
    directory = tmp_path / "state"
    engine = MultiQueryEngine(config=make_config(directory))
    pre, q2 = run_schedule(engine, crash_after=crash_after)
    engine.close()

    recovered = MultiQueryEngine.open(directory)
    info = recovered.recovery_info
    assert info["corruption"] is None
    assert recovered.registry.ids() == [q2]
    assert recovered.registry.get(q2).name == "edge"
    assert info["last_sealed_number"] == crash_after - 1
    for snapshot in snapshots[crash_after:]:
        result = recovered.process_snapshot(snapshot)
        for qid, r in result.per_query.items():
            pre.setdefault(qid, []).append(r)
    recovered.close()

    assert set(pre) == set(straight)
    for qid in straight:
        assert identity_counts(pre[qid]) == identity_counts(straight[qid]), f"query {qid}"


def test_multi_query_pipelined_crash(tmp_path):
    """Pipelined multi-query crash: only delivered epochs are sealed."""
    events = make_stream(seed=2207, length=120)
    snapshots = snapshots_for(events)
    delivered = 5

    with MultiQueryEngine(config=make_config()) as engine:
        engine.register(path_query(), name="path")
        engine.register(edge_query(), name="edge")
        straight = {}
        for snapshot in snapshots:
            for qid, r in engine.process_snapshot(snapshot).per_query.items():
                straight.setdefault(qid, []).append(r)

    directory = tmp_path / "state"
    engine = MultiQueryEngine(config=make_config(directory, pipeline="pipelined"))
    engine.register(path_query(), name="path")
    engine.register(edge_query(), name="edge")
    pre: dict[int, list] = {}
    count = 0
    for batch in engine._pipeline.run_stream(iter(list(snapshots))):
        for qid, r in engine._result_from_batch(batch).per_query.items():
            pre.setdefault(qid, []).append(r)
        count += 1
        if count == delivered:
            break
    engine.close()

    recovered = MultiQueryEngine.open(directory)
    assert recovered.recovery_info["last_sealed_number"] == delivered - 1
    for snapshot in snapshots[delivered:]:
        for qid, r in recovered.process_snapshot(snapshot).per_query.items():
            pre.setdefault(qid, []).append(r)
    recovered.close()
    for qid in straight:
        assert identity_counts(pre[qid]) == identity_counts(straight[qid])


# ---------------------------------------------------------------------- service facade
def test_service_open_dispatches_on_engine_kind(tmp_path):
    single_dir = tmp_path / "single"
    engine = MnemonicEngine(path_query(), config=make_config(single_dir))
    run_snapshots(engine, snapshots_for(make_stream(seed=2208, length=40)))
    engine.close()
    service = MnemonicService.open(single_dir)
    assert isinstance(service.engine, MnemonicEngine)
    last = service.engine.recovery_info["last_sealed_number"]
    assert service._number == last + 1  # numbering resumes past sealed epochs
    service.engine.close()

    multi_dir = tmp_path / "multi"
    engine = MultiQueryEngine(config=make_config(multi_dir))
    engine.register(path_query(), name="path")
    run_snapshots(engine, snapshots_for(make_stream(seed=2209, length=40)))
    engine.close()
    service = MnemonicService.open(multi_dir)
    assert isinstance(service.engine, MultiQueryEngine)
    assert service.engine.registry.get(0).name == "path"
    service.engine.close()


def test_service_crash_and_resume_via_submit(tmp_path):
    """End-to-end through the service facade: submit, crash, reopen, resubmit."""
    events = [e for e in make_stream(seed=2210, length=60) if e.kind is EventKind.INSERT]
    with MnemonicEngine(path_query(), config=make_config()) as engine:
        with MnemonicService(engine) as service:
            service.submit(list(events))
            straight = identity_counts(service.drain())

    directory = tmp_path / "state"
    cut = len(events) // 2
    engine = MnemonicEngine(path_query(), config=make_config(directory))
    service = MnemonicService(engine)
    service.submit(events[:cut])
    pre = service.drain()
    engine.close()  # crash; the service object is abandoned with its engine

    service = MnemonicService.open(directory)
    service.submit(events[cut:])
    post = service.drain()
    service.engine.close()
    assert identity_counts(pre + post) == straight


def test_reopened_service_counts_only_its_own_batches(tmp_path):
    """Three batches, a reopen, one more: the new service processed one batch,
    and its next snapshot number continues past the four sealed epochs."""
    directory = tmp_path / "state"
    events = [e for e in make_stream(seed=2211, length=40) if e.kind is EventKind.INSERT]
    engine = MnemonicEngine(path_query(), config=make_config(directory))
    service = MnemonicService(engine)
    service.submit(events[: 3 * BATCH])
    assert len(service.poll()) == 3
    assert service.stats()["snapshots_processed"] == 3
    engine.close()

    service = MnemonicService.open(directory)
    service.submit(events[3 * BATCH : 4 * BATCH])
    assert [r.number for r in service.drain()] == [3]
    stats = service.stats()
    service.engine.close()
    assert stats["snapshots_processed"] == 1
    assert stats["next_snapshot_number"] == 4


# ---------------------------------------------------------------------- guard rails
def test_fresh_engine_refuses_existing_state(tmp_path):
    directory = tmp_path / "state"
    engine = MnemonicEngine(path_query(), config=make_config(directory))
    engine.close()
    with pytest.raises(ConfigurationError, match="already contains durable state"):
        MnemonicEngine(path_query(), config=make_config(directory))


@pytest.mark.parametrize("version", [1, 2, 3])
@pytest.mark.parametrize("opener", [MnemonicEngine.open, MultiQueryEngine.open, MnemonicService.open])
def test_previous_format_version_is_rejected(tmp_path, opener, version):
    """A state directory of an older format (1: another checkpoint layout; 2
    and 3: no recorded config, so opening it could only guess the engine's
    settings) must fail loudly instead of being misread."""
    import json

    from repro.storage.runtime import StorageError

    directory = tmp_path / "state"
    engine = MnemonicEngine(path_query(), config=make_config(directory))
    run_snapshots(engine, snapshots_for(make_stream(seed=2212, length=12)))
    engine.close()
    meta_path = directory / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    assert meta["format"] == 4
    meta_path.write_text(json.dumps({**meta, "format": version}), encoding="utf-8")
    with pytest.raises(StorageError, match=f"format version {version}"):
        opener(directory)


def test_open_rebuilds_the_config_the_engine_was_written_with(tmp_path):
    """Every EngineConfig field off its default comes back from meta.json alone."""
    from repro.core.parallel import ParallelConfig

    directory = tmp_path / "state"
    written = EngineConfig(
        stream=StreamConfig(stream_type=StreamType.INSERT_DELETE, batch_size=7,
                            max_batch_delay=0.25),
        parallel=ParallelConfig(backend="process", num_workers=2),
        pipeline="pipelined",
        use_degree_filter=False,
        recycle_edge_ids=False,
        collect_embeddings=False,
        storage=StorageConfig(directory=directory, checkpoint_interval=None, fsync=True),
    )
    MultiQueryEngine(config=written).close()
    with MultiQueryEngine.open(directory) as recovered:
        assert recovered.config == written
        assert recovered.graph.recycle_edge_ids is False

    window_dir = tmp_path / "window"
    window = EngineConfig(
        stream=StreamConfig(stream_type=StreamType.SLIDING_WINDOW, window=10.5, stride=0.5),
        storage=StorageConfig(directory=window_dir, checkpoint_interval=3),
    )
    MnemonicEngine(path_query(), config=window).close()
    with MultiQueryEngine.open(window_dir) as recovered:
        assert recovered.config == window


def test_a_reopened_service_batches_like_the_one_that_wrote_it(tmp_path):
    """An insert/delete service with batch 4, reopened from its directory alone:
    it takes deletions, and 4 inserts seal a batch without ``drain()``."""
    directory = tmp_path / "state"
    events = [e for e in make_stream(seed=2213, length=40) if e.kind is EventKind.INSERT]
    engine = MnemonicEngine(path_query(), config=make_config(directory))
    service = MnemonicService(engine)
    service.submit(events[:BATCH])
    assert len(service.poll()) == 1
    engine.close()

    service = MnemonicService.open(directory)
    assert service.engine.config == make_config(directory)
    victim = events[0]
    service.submit(StreamEvent.delete(victim.src, victim.dst, victim.label))
    service.submit(events[BATCH : 2 * BATCH - 1])
    sealed = service.poll()
    assert [(r.num_insertions, r.num_deletions) for r in sealed] == [(BATCH - 1, 1)]
    service.submit(events[2 * BATCH : 3 * BATCH])
    assert [r.num_insertions for r in service.poll()] == [BATCH]
    service.engine.close()


def test_single_query_state_without_its_query_is_rejected(tmp_path):
    """A "single" directory whose REGISTER record was lost (crash during
    construction) holds no query 0: open must say so, not hand back an
    engine without a query."""
    from repro.storage.runtime import StorageError

    directory = tmp_path / "state"
    MnemonicEngine(path_query(), config=make_config(directory)).close()
    (directory / "journal.log").write_bytes(b"")
    with pytest.raises(StorageError, match="exactly query 0"):
        MnemonicEngine.open(directory)


def test_explicit_checkpoint_requires_quiescence(tmp_path):
    directory = tmp_path / "state"
    engine = MnemonicEngine(path_query(), config=make_config(directory))
    snapshots = snapshots_for(make_stream(seed=2211, length=24))
    run_snapshots(engine, snapshots)
    engine.checkpoint()  # quiescent: every applied batch delivered
    counters = engine.storage_counters()
    assert counters["checkpoints_written"] >= 2
    engine.close()


# ---------------------------------------------------------------------- randomized
@pytest.mark.parametrize("pipeline", ["serial", "pipelined"])
def test_randomized_crash_recovery(tmp_path, rng_seed, pipeline):
    """Property test: random stream, random crash point, recovery parity.

    Prints the seed on failure (see the ``rng_seed`` fixture); replay
    with ``REPRO_TEST_SEED=<seed>``.
    """
    rng = make_rng(rng_seed)
    events = make_stream(seed=int(rng.integers(2**31)), length=int(rng.integers(60, 160)))
    snapshots = snapshots_for(events)
    with MnemonicEngine(path_query(), config=make_config()) as engine:
        straight = identity_counts(run_snapshots(engine, snapshots))

    crash_at = int(rng.integers(len(snapshots)))
    directory = tmp_path / "state"
    engine = MnemonicEngine(path_query(), config=make_config(directory, pipeline=pipeline))
    if pipeline == "serial":
        pre = run_snapshots(engine, snapshots[:crash_at])
    else:
        pre = []
        if crash_at:
            for batch in engine._pipeline.run_stream(iter(list(snapshots))):
                pre.append(engine._result_from_batch(batch).per_query[0])
                if len(pre) == crash_at:
                    break
    engine.close()

    recovered = MnemonicEngine.open(directory)
    info = recovered.recovery_info
    last = info["last_sealed_number"]
    resume = 0 if last is None else last + 1
    assert resume == crash_at
    post = run_snapshots(recovered, snapshots[crash_at:])
    assert recovered.storage_counters()["spilled_rows"] >= 0
    recovered.close()
    assert identity_counts(pre + post) == straight
