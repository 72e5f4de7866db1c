"""Fault-injection tests for the durable-state stack.

Three layers are attacked independently:

* the **journal scanner** — torn headers, clobbered magic, truncated
  payloads, CRC bit flips and unknown record kinds must each stop the
  scan at the last intact record, never crash or mis-decode;
* the **checkpoint loader** — a missing sidecar (crash between payload
  and sidecar write), a corrupted payload, or a short payload must each
  fall back to the previous checkpoint; only a state directory with *no*
  usable checkpoint raises :class:`StorageError`;
* the **tiered DEBI** — the hot/cold split is an implementation detail:
  every operation must agree with the in-memory BitMatrix reference,
  including after segment remaps (flush + drop + reopen of every mmap).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.engine import MnemonicEngine
from repro.storage.checkpoint import CheckpointError, CheckpointManager
from repro.storage.journal import (
    HEADER_BYTES,
    JournalWriter,
    RecordKind,
    encode_record,
    scan_journal,
)
from repro.storage.runtime import EngineStorage, StorageError
from repro.storage.spill import TieredBitMatrix
from repro.utils.bitset import BitMatrix
from repro.utils.rng import make_rng

from tests.test_recovery import (
    identity_counts,
    make_config,
    make_stream,
    path_query,
    run_snapshots,
    snapshots_for,
)


# ---------------------------------------------------------------------- journal scanner
def write_journal(path, n: int = 5) -> list[int]:
    """Append ``n`` EPOCH records; returns each record's start offset."""
    writer = JournalWriter(path)
    offsets = []
    for epoch in range(n):
        offsets.append(writer.offset)
        writer.append(RecordKind.EPOCH, epoch, ([("payload", epoch)], []))
    writer.close()
    return offsets


def test_scan_clean_journal(tmp_path):
    path = tmp_path / "journal.log"
    write_journal(path, n=4)
    scan = scan_journal(path)
    assert scan.corruption is None
    assert [r.epoch for r in scan.records] == [0, 1, 2, 3]
    assert scan.valid_bytes == path.stat().st_size


def test_scan_missing_journal(tmp_path):
    scan = scan_journal(tmp_path / "nope.log")
    assert scan.records == [] and scan.corruption is None


def test_scan_torn_header(tmp_path):
    path = tmp_path / "journal.log"
    offsets = write_journal(path, n=3)
    data = path.read_bytes()
    path.write_bytes(data[: offsets[2] + HEADER_BYTES - 1])
    scan = scan_journal(path)
    assert "torn header" in scan.corruption
    assert [r.epoch for r in scan.records] == [0, 1]
    assert scan.valid_bytes == offsets[2]


def test_scan_torn_payload(tmp_path):
    path = tmp_path / "journal.log"
    offsets = write_journal(path, n=3)
    data = path.read_bytes()
    path.write_bytes(data[: offsets[2] + HEADER_BYTES + 2])
    scan = scan_journal(path)
    assert "torn payload" in scan.corruption
    assert scan.valid_bytes == offsets[2]


def test_scan_crc_mismatch(tmp_path):
    path = tmp_path / "journal.log"
    offsets = write_journal(path, n=3)
    data = bytearray(path.read_bytes())
    data[offsets[1] + HEADER_BYTES + 1] ^= 0xFF  # flip a bit mid-payload
    path.write_bytes(bytes(data))
    scan = scan_journal(path)
    assert "CRC mismatch" in scan.corruption
    assert [r.epoch for r in scan.records] == [0]
    assert scan.valid_bytes == offsets[1]


def test_scan_bad_magic(tmp_path):
    path = tmp_path / "journal.log"
    offsets = write_journal(path, n=2)
    data = bytearray(path.read_bytes())
    data[offsets[1]] = ord("X")
    path.write_bytes(bytes(data))
    scan = scan_journal(path)
    assert "bad magic" in scan.corruption
    assert scan.valid_bytes == offsets[1]


def test_scan_unknown_kind(tmp_path):
    path = tmp_path / "journal.log"
    offsets = write_journal(path, n=1)
    with open(path, "ab") as fh:
        fh.write(encode_record(99, 1, b"data"))  # type: ignore[arg-type]
    scan = scan_journal(path)
    assert "unknown record kind 99" in scan.corruption
    assert len(scan.records) == 1
    assert scan.valid_bytes == path.stat().st_size - (HEADER_BYTES + 4)
    assert offsets  # silence unused warning


def test_truncate_drops_tail_only(tmp_path):
    path = tmp_path / "journal.log"
    offsets = write_journal(path, n=3)
    JournalWriter.truncate(path, offsets[2])
    scan = scan_journal(path)
    assert scan.corruption is None
    assert [r.epoch for r in scan.records] == [0, 1]
    # appending after a truncate extends the clean prefix
    writer = JournalWriter(path)
    assert writer.offset == offsets[2]
    writer.append(RecordKind.EPOCH, 7, ([], []))
    writer.close()
    assert [r.epoch for r in scan_journal(path).records] == [0, 1, 7]


# ---------------------------------------------------------------------- checkpoint fallback
def test_checkpoint_missing_sidecar_falls_back(tmp_path):
    manager = CheckpointManager(tmp_path, keep=3)
    manager.save(1, {"v": 1}, {"journal_offset": 10})
    manager.save(2, {"v": 2}, {"journal_offset": 20})
    (tmp_path / "ck_000000000002.json").unlink()  # crash between payload+sidecar
    state, meta = manager.load_latest()
    assert state == {"v": 1} and meta["seq"] == 1


def test_checkpoint_corrupt_payload_falls_back(tmp_path):
    manager = CheckpointManager(tmp_path, keep=3)
    manager.save(1, {"v": 1}, {"journal_offset": 10})
    manager.save(2, {"v": 2}, {"journal_offset": 20})
    payload = tmp_path / "ck_000000000002.pkl"
    data = bytearray(payload.read_bytes())
    data[len(data) // 2] ^= 0xFF
    payload.write_bytes(bytes(data))
    state, meta = manager.load_latest()
    assert state == {"v": 1} and meta["seq"] == 1


def test_checkpoint_short_payload_falls_back(tmp_path):
    manager = CheckpointManager(tmp_path, keep=3)
    manager.save(1, {"v": 1}, {"journal_offset": 10})
    manager.save(2, {"v": 2}, {"journal_offset": 20})
    payload = tmp_path / "ck_000000000002.pkl"
    payload.write_bytes(payload.read_bytes()[:-4])
    state, meta = manager.load_latest()
    assert meta["seq"] == 1


def test_no_usable_checkpoint_raises(tmp_path):
    manager = CheckpointManager(tmp_path, keep=2)
    with pytest.raises(CheckpointError):
        manager.load_latest()
    manager.save(1, {"v": 1}, {"journal_offset": 0})
    (tmp_path / "ck_000000000001.json").unlink()
    with pytest.raises(CheckpointError, match="sidecar missing"):
        manager.load_latest()


def test_checkpoint_prune_keeps_newest(tmp_path):
    manager = CheckpointManager(tmp_path, keep=2)
    for seq in (1, 2, 3, 4):
        manager.save(seq, {"v": seq}, {"journal_offset": seq})
    assert manager.sequence_numbers() == [3, 4]


# ---------------------------------------------------------------------- engine-level faults
def test_engine_recovers_past_missing_sidecar(tmp_path):
    """Newest checkpoint unusable -> older checkpoint + longer journal replay."""
    events = make_stream(seed=3301, length=120)
    snapshots = snapshots_for(events)
    with MnemonicEngine(path_query(), config=make_config()) as engine:
        straight = identity_counts(run_snapshots(engine, snapshots))

    directory = tmp_path / "state"
    engine = MnemonicEngine(path_query(), config=make_config(directory))
    pre = run_snapshots(engine, snapshots)
    engine.close()

    checkpoints = directory / "checkpoints"
    sidecars = sorted(checkpoints.glob("ck_*.json"))
    assert len(sidecars) >= 2
    newest_meta = json.loads(sidecars[-1].read_text())
    sidecars[-1].unlink()

    recovered = MnemonicEngine.open(directory)
    info = recovered.recovery_info
    assert info["checkpoint_sealed"] < newest_meta["sealed"]
    assert info["replayed_records"] > 0
    # refeeding nothing: the whole stream was sealed, so recovery alone
    # must restore final state; verify by continuing with fresh events
    extra = snapshots_for(make_stream(seed=3302, length=24))
    post = run_snapshots(recovered, extra)
    recovered.close()

    with MnemonicEngine(path_query(), config=make_config()) as engine:
        run_snapshots(engine, snapshots)
        expected_post = identity_counts(run_snapshots(engine, extra))
    assert identity_counts(pre) == straight
    assert identity_counts(post) == expected_post


def test_engine_all_checkpoints_corrupt_raises(tmp_path):
    directory = tmp_path / "state"
    engine = MnemonicEngine(path_query(), config=make_config(directory))
    run_snapshots(engine, snapshots_for(make_stream(seed=3303, length=40)))
    engine.close()
    for sidecar in (directory / "checkpoints").glob("ck_*.json"):
        sidecar.unlink()
    with pytest.raises(StorageError, match="no usable checkpoint"):
        MnemonicEngine.open(directory)


def test_open_without_state_raises(tmp_path):
    with pytest.raises(StorageError, match="no durable state"):
        EngineStorage.peek_kind(tmp_path / "empty")


def test_kind_mismatch_detected(tmp_path):
    """``open`` builds the class ``meta.json`` records; MnemonicEngine refuses multi state."""
    from repro.core.registry import MultiQueryEngine
    from repro.utils.validation import ConfigurationError

    single, multi = tmp_path / "single", tmp_path / "multi"
    MnemonicEngine(path_query(), config=make_config(single)).close()
    with MultiQueryEngine(config=make_config(multi)) as engine:
        engine.register(path_query())
    for directory, kind in ((single, "single"), (multi, "multi")):
        assert json.loads((directory / "meta.json").read_text(encoding="utf-8"))["kind"] == kind
    with MultiQueryEngine.open(single) as engine:
        assert isinstance(engine, MnemonicEngine)
        assert engine.registry.ids() == [0]
        assert engine.query.num_nodes == path_query().num_nodes
    with pytest.raises(ConfigurationError, match="belongs to a 'multi' engine"):
        MnemonicEngine.open(multi)


# ---------------------------------------------------------------------- tiered DEBI parity
def reference_pair(tmp_path, width=8, hot_rows=16, segment_rows=8):
    tiered = TieredBitMatrix(
        width=width, directory=tmp_path / "tier",
        hot_rows=hot_rows, segment_rows=segment_rows,
    )
    reference = BitMatrix(width=width, initial_rows=4)
    return tiered, reference


def assert_matrices_equal(tiered: TieredBitMatrix, reference: BitMatrix) -> None:
    ref_rows, ref_n = reference.export_words()
    got_rows, got_n = tiered.export_words()
    assert got_n == ref_n
    np.testing.assert_array_equal(np.asarray(got_rows)[:got_n], np.asarray(ref_rows)[:ref_n])
    assert tiered.count() == reference.count()
    for col in range(tiered.width):
        assert tiered.column_count(col) == reference.column_count(col)
        np.testing.assert_array_equal(
            tiered.rows_with_column(col), reference.rows_with_column(col)
        )


def test_tiered_matrix_randomized_parity(tmp_path, rng_seed):
    """Property test: a tiered matrix is indistinguishable from BitMatrix.

    Random op soup over rows far beyond the hot budget; replay failures
    with ``REPRO_TEST_SEED=<seed>``.
    """
    rng = make_rng(rng_seed)
    tiered, reference = reference_pair(tmp_path)
    max_row = 200  # hot budget is 16: most rows live in cold segments
    for step in range(800):
        op = rng.integers(7)
        row = int(rng.integers(max_row))
        col = int(rng.integers(tiered.width))
        if op == 0:
            tiered.set(row, col)
            reference.set(row, col)
        elif op == 1:
            tiered.clear(row, col)
            reference.clear(row, col)
        elif op == 2:
            mask = int(rng.integers(1 << tiered.width))
            tiered.set_row(row, mask)
            reference.set_row(row, mask)
        elif op == 3:
            tiered.clear_row(row)
            reference.clear_row(row)
        elif op == 4:
            assert tiered.get(row, col) == reference.get(row, col)
            assert tiered.get_row(row) == reference.get_row(row)
            assert tiered.row_any(row) == reference.row_any(row)
        elif op == 5:
            probe = rng.integers(max_row, size=17).astype(np.int64)
            np.testing.assert_array_equal(
                tiered.column_mask(probe, col), reference.column_mask(probe, col)
            )
        else:
            if rng.random() < 0.2:
                tiered.remap()  # flush + reopen every segment mid-soup
    assert_matrices_equal(tiered, reference)
    assert tiered.spilled_rows > 0 and tiered.disk_bytes > 0


def test_tiered_matrix_remap_parity(tmp_path):
    tiered, reference = reference_pair(tmp_path, hot_rows=4, segment_rows=4)
    for row in range(40):
        tiered.set(row, row % tiered.width)
        reference.set(row, row % tiered.width)
    before = tiered.export_words()
    tiered.remap()
    after = tiered.export_words()
    np.testing.assert_array_equal(np.asarray(before[0]), np.asarray(after[0]))
    assert_matrices_equal(tiered, reference)


def test_tiered_matrix_load_words_round_trip(tmp_path):
    rng = make_rng(4142)
    words = rng.integers(1 << 8, size=50, dtype=np.uint64)
    tiered, _ = reference_pair(tmp_path, hot_rows=8, segment_rows=8)
    tiered.load_words(words, len(words))
    got, n = tiered.export_words()
    assert n == len(words)
    np.testing.assert_array_equal(np.asarray(got), words)
    # shrinking restore: stale cold content must not leak back
    tiered.load_words(words[:10], 10)
    got, n = tiered.export_words()
    assert n == 10
    np.testing.assert_array_equal(np.asarray(got), words[:10])
    assert tiered.count() == int(np.unpackbits(words[:10].view(np.uint8)).sum())


def test_tiered_matrix_discards_stale_segments(tmp_path):
    directory = tmp_path / "tier"
    first = TieredBitMatrix(width=4, directory=directory, hot_rows=2, segment_rows=2)
    first.set(10, 1)
    first.flush()
    assert list(directory.glob("seg_*.bin"))
    second = TieredBitMatrix(width=4, directory=directory, hot_rows=2, segment_rows=2)
    assert not list(directory.glob("seg_*.bin"))
    assert second.get_row(10) == 0


def test_spilled_debi_remap_parity(tmp_path, rng_seed):
    """A spilling engine remapped mid-stream matches an in-memory run.

    The remap (flush + drop + reopen of every cold segment) between
    batches must be invisible to enumeration — same embeddings, same
    DEBI content.
    """
    rng = make_rng(rng_seed)
    events = make_stream(seed=int(rng.integers(2**31)), length=100)
    snapshots = snapshots_for(events)
    with MnemonicEngine(path_query(), config=make_config()) as engine:
        straight = identity_counts(run_snapshots(engine, snapshots))
        straight_buffers = engine.debi.export_buffers()
        straight_rows = np.array(straight_buffers["rows"], copy=True)
        straight_n = straight_buffers["num_rows"]

    engine = MnemonicEngine(
        path_query(), config=make_config(tmp_path / "state", hot_rows=4)
    )
    results = []
    for snapshot in snapshots:
        results.append(engine.process_snapshot(snapshot))
        engine.debi._bits.remap()
    assert identity_counts(results) == straight
    buffers = engine.debi.export_buffers()
    assert buffers["num_rows"] == straight_n
    np.testing.assert_array_equal(
        np.asarray(buffers["rows"])[:straight_n], straight_rows[:straight_n]
    )
    assert engine.debi.spill_stats()["spilled_rows"] > 0
    engine.close()
