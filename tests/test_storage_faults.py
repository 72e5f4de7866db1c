"""Fault-injection tests for the durable-state stack.

Three layers are attacked independently:

* the **journal scanner** — torn headers, clobbered magic, truncated
  payloads, CRC bit flips and unknown record kinds must each stop the
  scan at the last intact record, never crash or mis-decode;
* the **checkpoint loader** — a missing sidecar (crash between payload
  and sidecar write), a corrupted payload, or a short payload must each
  fall back to the previous checkpoint; only a state directory with *no*
  usable checkpoint raises :class:`StorageError`;
* the **file-backed DEBI** — a BitMatrix whose words live in a mmap'd
  file must agree with the heap BitMatrix on every operation, across the
  remaps its growth makes, must never read back a previous file, and
  must never pull the pages out from under a matrix still mapping one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

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
    manager = CheckpointManager(tmp_path)
    manager.save(1, {"v": 1}, {"journal_offset": 10})
    manager.save(2, {"v": 2}, {"journal_offset": 20})
    (tmp_path / "ck_000000000002.json").unlink()  # crash between payload+sidecar
    state, meta = manager.load_latest()
    assert state == {"v": 1} and meta["seq"] == 1


def test_checkpoint_corrupt_payload_falls_back(tmp_path):
    manager = CheckpointManager(tmp_path)
    manager.save(1, {"v": 1}, {"journal_offset": 10})
    manager.save(2, {"v": 2}, {"journal_offset": 20})
    payload = tmp_path / "ck_000000000002.pkl"
    data = bytearray(payload.read_bytes())
    data[len(data) // 2] ^= 0xFF
    payload.write_bytes(bytes(data))
    state, meta = manager.load_latest()
    assert state == {"v": 1} and meta["seq"] == 1


def test_checkpoint_short_payload_falls_back(tmp_path):
    manager = CheckpointManager(tmp_path)
    manager.save(1, {"v": 1}, {"journal_offset": 10})
    manager.save(2, {"v": 2}, {"journal_offset": 20})
    payload = tmp_path / "ck_000000000002.pkl"
    payload.write_bytes(payload.read_bytes()[:-4])
    state, meta = manager.load_latest()
    assert meta["seq"] == 1


def test_no_usable_checkpoint_raises(tmp_path):
    manager = CheckpointManager(tmp_path)
    with pytest.raises(CheckpointError):
        manager.load_latest()
    manager.save(1, {"v": 1}, {"journal_offset": 0})
    (tmp_path / "ck_000000000001.json").unlink()
    with pytest.raises(CheckpointError, match="sidecar missing"):
        manager.load_latest()


def test_checkpoint_prune_keeps_newest(tmp_path):
    manager = CheckpointManager(tmp_path)
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
        EngineStorage.read_meta(tmp_path / "empty")


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


# ---------------------------------------------------------------------- file-backed DEBI parity
def assert_matrices_equal(on_disk: BitMatrix, reference: BitMatrix) -> None:
    ref_rows, ref_n = reference.export_words()
    got_rows, got_n = on_disk.export_words()
    assert got_n == ref_n
    np.testing.assert_array_equal(np.asarray(got_rows), np.asarray(ref_rows))
    assert on_disk.count() == reference.count()
    for col in range(on_disk.width):
        assert on_disk.column_count(col) == reference.column_count(col)
        np.testing.assert_array_equal(
            on_disk.rows_with_column(col), reference.rows_with_column(col)
        )


def assert_file_backed(matrix: BitMatrix) -> None:
    """The words are a map of the matrix's file, as large as the file."""
    assert isinstance(matrix._rows, np.memmap)
    assert matrix.path.stat().st_size == matrix._rows.shape[0] * 8


def test_file_backed_matrix_randomized_parity(tmp_path, rng_seed):
    """Property test: a file-backed matrix is indistinguishable from the heap one.

    A random op soup over a row range that widens from 2 to 268, so the
    file is grown (flushed and mapped again) at least five times on the
    way; replay failures with ``REPRO_TEST_SEED=<seed>``.
    """
    rng = make_rng(rng_seed)
    on_disk = BitMatrix(width=8, initial_rows=2, path=tmp_path / "debi" / "rows.bin")
    reference = BitMatrix(width=8, initial_rows=2)
    growths = 0
    for step in range(800):
        capacity = on_disk._rows.shape[0]
        max_row = 2 + step // 3
        op = rng.integers(8)
        row = int(rng.integers(max_row))
        col = int(rng.integers(on_disk.width))
        probe = rng.integers(max_row, size=17).astype(np.int64)
        if op == 0:
            on_disk.set(row, col)
            reference.set(row, col)
        elif op == 1:
            on_disk.clear(row, col)
            reference.clear(row, col)
        elif op == 2:
            mask = int(rng.integers(1 << on_disk.width))
            on_disk.set_row(row, mask)
            reference.set_row(row, mask)
        elif op == 3:
            on_disk.clear_row(row)
            reference.clear_row(row)
        elif op == 4:
            assert on_disk.get(row, col) == reference.get(row, col)
            assert on_disk.get_row(row) == reference.get_row(row)
            assert on_disk.row_any(row) == reference.row_any(row)
        elif op == 5:
            np.testing.assert_array_equal(
                on_disk.column_mask(probe, col), reference.column_mask(probe, col)
            )
            np.testing.assert_array_equal(on_disk.get_rows(probe), reference.get_rows(probe))
        elif op == 6:
            on_disk.set_rows_col(probe, col)
            reference.set_rows_col(probe, col)
        else:
            on_disk.clear_rows(probe)
            reference.clear_rows(probe)
        growths += on_disk._rows.shape[0] > capacity
    assert growths >= 5
    assert_file_backed(on_disk)
    assert_matrices_equal(on_disk, reference)


def test_file_backed_matrix_load_words_round_trip(tmp_path):
    """A checkpoint restore writes through the file, growing and shrinking alike."""
    rng = make_rng(4142)
    words = rng.integers(1 << 8, size=50, dtype=np.uint64)
    matrix = BitMatrix(width=8, initial_rows=8, path=tmp_path / "rows.bin")
    matrix.load_words(words, len(words))
    assert_file_backed(matrix)
    got, n = matrix.export_words()
    assert n == len(words)
    np.testing.assert_array_equal(np.asarray(got), words)
    # shrinking restore: the rows beyond it must not leak back
    capacity = matrix._rows.shape[0]
    matrix.load_words(words[:10], 10)
    assert_file_backed(matrix)
    assert matrix._rows.shape[0] == capacity
    got, n = matrix.export_words()
    assert n == 10
    np.testing.assert_array_equal(np.asarray(got), words[:10])
    assert matrix.get_row(20) == 0
    assert matrix.count() == int(np.unpackbits(words[:10].view(np.uint8)).sum())


def test_file_backed_matrix_discards_stale_content(tmp_path):
    path = tmp_path / "rows.bin"
    first = BitMatrix(width=4, initial_rows=2, path=path)
    first.set(10, 1)
    first._rows.flush()
    assert path.stat().st_size == first._rows.shape[0] * 8 > 2 * 8
    second = BitMatrix(width=4, initial_rows=2, path=path)
    assert path.stat().st_size == 2 * 8
    assert second.get_row(10) == 0
    second.reserve(11)
    assert second.get_row(10) == 0 and int(np.asarray(second._rows).sum()) == 0


def test_debi_moved_to_disk_mid_stream_parity(tmp_path, rng_seed):
    """An engine whose DEBI moves into its file between batches matches a heap run.

    The move carries the rows over; from then on the same code writes the
    file — same embeddings, same DEBI words.
    """
    rng = make_rng(rng_seed)
    events = make_stream(seed=int(rng.integers(2**31)), length=100)
    snapshots = snapshots_for(events)
    with MnemonicEngine(path_query(), config=make_config()) as engine:
        straight = identity_counts(run_snapshots(engine, snapshots))
        rows, straight_n = engine.debi._bits.export_words()
        straight_rows = np.array(rows, copy=True)

    half = len(snapshots) // 2
    with MnemonicEngine(path_query(), config=make_config()) as engine:
        results = run_snapshots(engine, snapshots[:half])
        engine.debi.move_to_disk(tmp_path / "debi" / "rows.bin")
        results += run_snapshots(engine, snapshots[half:])
        assert identity_counts(results) == straight
        assert_file_backed(engine.debi._bits)
        rows, n = engine.debi._bits.export_words()
        assert n == straight_n
        np.testing.assert_array_equal(np.asarray(rows), straight_rows)
        assert engine.debi.spill_stats() == {
            "spilled_rows": n, "debi_disk_bytes": engine.debi._bits._rows.shape[0] * 8,
        }


def test_a_recovered_engine_keeps_its_debi_in_the_file(tmp_path):
    """A durable engine's DEBI is always in its file: ``open`` needs no setting for it."""
    directory = tmp_path / "state"
    snapshots = snapshots_for(make_stream(seed=2207, length=40))
    engine = MnemonicEngine(path_query(), config=make_config(directory))
    assert_file_backed(engine.debi._bits)
    run_snapshots(engine, snapshots[:3])
    engine.close()
    meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    assert set(meta) == {"kind", "format", "config"}
    with MnemonicEngine.open(directory) as recovered:
        assert recovered.debi._bits.path == directory / "debi" / "q0" / "rows.bin"
        assert_file_backed(recovered.debi._bits)
        run_snapshots(recovered, snapshots[3:])
        assert recovered.storage_counters()["spilled_rows"] == len(recovered.debi._bits) > 0


#: Run in a child process: a matrix whose file is truncated under it reads
#: zeros, and past the new end of the file the process dies of SIGBUS.
_OLD_MAP_SCRIPT = textwrap.dedent("""
    import sys
    from pathlib import Path

    import numpy as np

    from repro.core.engine import MnemonicEngine
    from repro.utils.bitset import BitMatrix
    from tests.test_recovery import make_config, make_stream, path_query, run_snapshots
    from tests.test_recovery import snapshots_for

    tmp = Path(sys.argv[1])
    first = BitMatrix(width=8, initial_rows=4096, path=tmp / "rows.bin")
    first.set_row(5, 0x5A)
    first.set_row(4000, 0xA5)
    second = BitMatrix(width=8, initial_rows=16, path=tmp / "rows.bin")
    second.set_row(5, 0x01)
    assert (first.get_row(5), first.get_row(4000)) == (0x5A, 0xA5)
    assert second.get_row(5) == 0x01

    # An engine abandoned by a crash, then reopened in the same process.
    snapshots = snapshots_for(make_stream(seed=2209, length=120))
    crashed = MnemonicEngine(path_query(), config=make_config(tmp / "state"))
    run_snapshots(crashed, snapshots[:4])
    crashed.close()
    rows, n = crashed.debi._bits.export_words()
    before = np.array(rows, copy=True)
    recovered = MnemonicEngine.open(tmp / "state")
    run_snapshots(recovered, snapshots[4:])
    rows, n = crashed.debi._bits.export_words()
    np.testing.assert_array_equal(np.asarray(rows), before)
    after, _ = recovered.debi._bits.export_words()
    assert not np.array_equal(np.asarray(after)[: len(before)], before)
    recovered.close()
    print("ok")
""")


def test_a_new_matrix_leaves_an_old_map_of_its_path_intact(tmp_path):
    """Building a matrix over a path still mapped by another (a crashed engine
    reopened in the same process) gives the new one a fresh file; the old map
    keeps reading its own words."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    child = subprocess.run(
        [sys.executable, "-c", _OLD_MAP_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0 and child.stdout.strip() == "ok", (
        child.returncode, child.stderr[-2000:]
    )
