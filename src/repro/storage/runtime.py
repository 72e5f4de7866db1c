"""Per-engine durable-state driver: meta file, journal, checkpoint cadence.

One :class:`EngineStorage` owns one directory::

    <directory>/
        meta.json            engine kind ("single" | "multi"), format version and
                             the EngineConfig the engine was built with
        journal.log          CRC-framed epoch journal (append-only)
        checkpoints/         ck_<seq>.pkl + ck_<seq>.json pairs
        debi/q<id>/rows.bin  a query's DEBI words (scratch, rebuilt on recovery)

The engines call four hooks:

* :meth:`note_applied` — a batch's mutations hit the live graph;
* :meth:`seal_epoch` — a batch's results were *delivered* (stream
  order): the epoch's events are appended to the journal, and a
  checkpoint is taken when due **and** the engine is quiescent
  (every applied batch also sealed).  In pipelined mode mutations run
  ahead of deliveries, so a due checkpoint is deferred until the two
  counters meet again — otherwise the checkpoint image would contain
  mutations whose journal records do not exist yet, and recovery would
  double-apply them on refeed;
* :meth:`note_initial` — ``load_initial``'s bulk insert (journaled as
  one ``INITIAL`` record, applied and sealed at once);
* :meth:`checkpoint_now` — an explicit checkpoint of a quiescent engine.

Recovery (:meth:`open_existing`) reads the engine's kind and config
from ``meta.json``, loads the newest usable checkpoint, scans the
journal from the checkpoint's recorded byte offset, and hands all three
to the engine's ``open()``, which rebuilds that engine and replays the
tail records.  The journal is truncated at the last intact record before
appends resume, so a torn tail can never be half-replayed twice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.storage.checkpoint import CheckpointError, CheckpointManager
from repro.storage.config import StorageConfig
from repro.storage.journal import JournalRecord, JournalWriter, RecordKind, scan_journal
from repro.utils.validation import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.streams.events import EventColumns

ENGINE_KINDS = ("single", "multi")
#: version 4: ``meta.json`` records the engine's config and the journal
#: pickles each batch's ``EventColumns``.  Older directories do not say
#: how their engine was configured, so they are refused, not guessed at.
FORMAT_VERSION = 4


class StorageError(Exception):
    """Durable state exists but cannot be recovered (no usable checkpoint)."""


@dataclass
class RecoveredState:
    """Everything ``Engine.open`` needs to rebuild and replay."""

    storage: "EngineStorage"
    #: the engine config ``meta.json`` records, as JSON values
    config: dict
    #: unpickled state of the newest usable checkpoint
    checkpoint_state: Any
    #: decoded journal records from the checkpoint offset to the last intact one
    records: list[JournalRecord]
    #: summary surfaced as ``engine.recovery_info``
    info: dict = field(default_factory=dict)


class EngineStorage:
    def __init__(self, config: StorageConfig, kind: str) -> None:
        if kind not in ENGINE_KINDS:
            raise ValueError(f"engine kind must be one of {ENGINE_KINDS}, got {kind!r}")
        self.config = config
        self.kind = kind
        self.directory = config.path
        self.checkpoints = CheckpointManager(self.directory / "checkpoints", fsync=config.fsync)
        self._journal: JournalWriter | None = None
        #: False while ``open()`` replays the journal: hooks become no-ops
        self.recording = False
        self._applied = 0
        self._sealed = 0
        self._since_checkpoint = 0
        self._checkpoint_due = False
        self._checkpoints_written = 0
        self._last_sealed_number: int | None = None

    # ------------------------------------------------------------------ paths
    @property
    def journal_path(self) -> Path:
        return self.directory / "journal.log"

    @property
    def meta_path(self) -> Path:
        return self.directory / "meta.json"

    def debi_path(self, query_id: int) -> Path:
        return self.directory / "debi" / f"q{query_id}" / "rows.bin"

    # ------------------------------------------------------------------ attach
    @staticmethod
    def read_meta(directory: str | Path) -> dict:
        """An existing state directory's ``meta.json``: kind, format and config."""
        meta_path = Path(directory) / "meta.json"
        if not meta_path.exists():
            raise StorageError(f"no durable state at {directory} (meta.json missing)")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if meta.get("format") != FORMAT_VERSION:
            raise StorageError(
                f"durable state at {directory} has format version "
                f"{meta.get('format')!r}; this build reads version {FORMAT_VERSION}"
            )
        if meta.get("kind") not in ENGINE_KINDS:
            raise StorageError(f"unrecognised engine kind {meta.get('kind')!r} in {meta_path}")
        return meta

    @classmethod
    def create(cls, config: StorageConfig, kind: str, engine_config: dict) -> "EngineStorage":
        """Attach a *fresh* engine to an empty (or new) directory; ``meta.json``
        keeps ``engine_config`` (``EngineConfig.to_json``) for ``open``."""
        directory = config.path
        directory.mkdir(parents=True, exist_ok=True)
        if (directory / "meta.json").exists() or (directory / "journal.log").exists():
            raise ConfigurationError(
                f"storage directory {directory} already contains durable state; "
                "recover it with MnemonicEngine.open / MultiQueryEngine.open / "
                "MnemonicService.open instead of constructing a fresh engine"
            )
        storage = cls(config, kind)
        storage.meta_path.write_text(
            json.dumps({"kind": kind, "format": FORMAT_VERSION, "config": engine_config}),
            encoding="utf-8",
        )
        storage._journal = JournalWriter(storage.journal_path, fsync=config.fsync)
        storage.recording = True
        return storage

    @classmethod
    def open_existing(cls, directory: str | Path) -> RecoveredState:
        """Load the recorded config, the newest usable checkpoint and the intact
        journal tail.

        The returned storage is still in replay mode (``recording`` is
        False); the engine's ``open()`` replays ``records`` and then
        calls :meth:`finish_recovery`.
        """
        meta = cls.read_meta(directory)
        config = StorageConfig(directory=directory, **meta["config"]["storage"])
        storage = cls(config, meta["kind"])
        try:
            state, ck_meta = storage.checkpoints.load_latest()
        except CheckpointError as exc:
            raise StorageError(str(exc)) from exc
        scan = scan_journal(storage.journal_path, start=int(ck_meta["journal_offset"]))
        storage._applied = storage._sealed = int(ck_meta.get("sealed", 0))
        last = ck_meta.get("last_sealed_number")
        storage._last_sealed_number = None if last is None else int(last)
        for record in scan.records:
            if record.kind in (RecordKind.EPOCH, RecordKind.INITIAL):
                storage._applied += 1
                storage._sealed += 1
                storage._since_checkpoint += 1
            if record.kind == RecordKind.EPOCH:
                storage._last_sealed_number = record.epoch
        info = {
            "checkpoint_seq": int(ck_meta.get("seq", 0)),
            "checkpoint_sealed": int(ck_meta.get("sealed", 0)),
            "replayed_records": len(scan.records),
            "last_sealed_number": storage._last_sealed_number,
            "corruption": scan.corruption,
            "journal_valid_bytes": scan.valid_bytes,
        }
        return RecoveredState(
            storage=storage, config=meta["config"], checkpoint_state=state,
            records=scan.records, info=info,
        )

    def finish_recovery(self, valid_bytes: int) -> None:
        """Truncate the corrupt tail (if any) and reopen the journal for appends."""
        JournalWriter.truncate(self.journal_path, valid_bytes)
        self._journal = JournalWriter(self.journal_path, fsync=self.config.fsync)
        self.recording = True

    # ------------------------------------------------------------------ hooks
    def note_applied(self) -> None:
        if self.recording:
            self._applied += 1

    def note_initial(self, columns: "EventColumns | None") -> None:
        """Journal a ``load_initial`` bulk insert (applied + sealed at once)."""
        if not self.recording:
            return
        assert self._journal is not None
        self._journal.append(RecordKind.INITIAL, -1, columns)
        self._applied += 1
        self._sealed += 1
        self._since_checkpoint += 1

    def seal_epoch(
        self,
        number: int,
        insertions: "EventColumns | None",
        deletions: "EventColumns | None",
        state_fn: Callable[[], Any],
    ) -> None:
        """Journal one delivered batch; checkpoint when due and quiescent."""
        if not self.recording:
            return
        assert self._journal is not None
        self._journal.append(RecordKind.EPOCH, number, (insertions, deletions))
        self._sealed += 1
        self._since_checkpoint += 1
        self._last_sealed_number = number
        interval = self.config.checkpoint_interval
        if interval is not None and self._since_checkpoint >= interval:
            self._checkpoint_due = True
        if self._checkpoint_due and self._applied == self._sealed:
            self.checkpoint_now(state_fn)

    def append_register(self, query_id: int, definition: dict) -> None:
        if self.recording:
            assert self._journal is not None
            self._journal.append(RecordKind.REGISTER, query_id, definition)

    def append_unregister(self, query_id: int) -> None:
        if self.recording:
            assert self._journal is not None
            self._journal.append(RecordKind.UNREGISTER, query_id, query_id)

    # ------------------------------------------------------------------ checkpoints
    def quiescent(self) -> bool:
        """Every applied batch also delivered (safe to snapshot)."""
        return self._applied == self._sealed

    def checkpoint_now(self, state_fn: Callable[[], Any]) -> None:
        """Snapshot the engine state; callers must ensure quiescence."""
        if not self.recording:
            return
        assert self._journal is not None
        meta = {
            "sealed": self._sealed,
            "last_sealed_number": self._last_sealed_number,
            "journal_offset": self._journal.offset,
        }
        self.checkpoints.save(self._sealed, state_fn(), meta)
        self._since_checkpoint = 0
        self._checkpoint_due = False
        self._checkpoints_written += 1

    # ------------------------------------------------------------------ accounting
    def counters(self) -> dict:
        journal_bytes = (
            self.journal_path.stat().st_size if self.journal_path.exists() else 0
        )
        return {
            "journal_bytes": journal_bytes,
            "sealed_epochs": self._sealed,
            "applied_batches": self._applied,
            "checkpoints_written": self._checkpoints_written,
        }

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
