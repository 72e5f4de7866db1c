"""Durable state for standing queries: journal, checkpoints, an on-disk DEBI.

The paper's Table III advertises a disk-backed DEBI with a storage/runtime
trade-off; this package supplies the recovery machinery that lets
standing queries survive process restarts.  The disk-backed DEBI itself is
no separate layout and no setting: a durable engine's DEBI is the same
:class:`repro.utils.bitset.BitMatrix`, its words in one memory-mapped
file per query whose residency the page cache manages, so the native
kernel serves it like any other.

* :mod:`repro.storage.config` — :class:`StorageConfig`, the knob bundle
  attached to :class:`repro.core.engine.EngineConfig`;
* :mod:`repro.storage.journal` — the append-only, CRC-framed epoch
  journal sealed once per delivered :class:`~repro.core.pipeline.CompletedBatch`;
* :mod:`repro.storage.checkpoint` — atomic checkpoint files with JSON
  sidecars and corruption fallback;
* :mod:`repro.storage.runtime` — :class:`EngineStorage`, the per-engine
  driver that owns all of the above and the directory's ``meta.json``,
  which records the engine's kind and whole config.

``open`` rebuilds that engine from ``meta.json``, the newest checkpoint
and the journal tail, re-applied by the pipeline's own mutation steps.
"""

from repro.storage.config import StorageConfig
from repro.storage.journal import JournalRecord, RecordKind, scan_journal
from repro.storage.runtime import EngineStorage, StorageError

__all__ = [
    "StorageConfig",
    "EngineStorage",
    "StorageError",
    "JournalRecord",
    "RecordKind",
    "scan_journal",
]
