"""Configuration for the durable-state subsystem."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.utils.validation import ConfigurationError


@dataclass
class StorageConfig:
    """Knobs for durable state, attached via ``EngineConfig.storage``.

    ``meta.json`` records the engine's whole config (``directory`` aside),
    so reopening the directory rebuilds the same engine, durability and all.

    Parameters
    ----------
    directory:
        Root directory for all durable state of one engine: ``meta.json``,
        ``journal.log``, ``checkpoints/`` and one ``debi/q<id>/rows.bin``
        file per query, which holds that query's DEBI words (a
        memory-mapped :class:`~repro.utils.bitset.BitMatrix`; the page
        cache decides which rows stay resident, and the native kernel
        reads and writes the file's pages directly).  The DEBI file is
        scratch space: recovery rebuilds it from the checkpoint and the
        journal, so it is never flushed.  One engine per directory.
    checkpoint_interval:
        Take a checkpoint every this many sealed epochs (``None`` disables
        periodic checkpoints; the initial "checkpoint 0" written when the
        engine attaches is always present so recovery has a base image).
        In pipelined mode a due checkpoint is deferred until the engine is
        quiescent (every applied batch also delivered), so the checkpoint
        never captures mutations whose journal records are not yet sealed.
    fsync:
        When True, fsync the journal after every sealed epoch and each
        checkpoint payload.  Durable against machine crashes, but adds a
        per-epoch latency floor; the default (False) only flushes to the
        OS page cache, which survives process crashes — the failure mode
        the recovery suite simulates.
    """

    directory: str | Path
    checkpoint_interval: int | None = 8
    fsync: bool = False

    def __post_init__(self) -> None:
        if not str(self.directory):
            raise ConfigurationError("storage directory must be a non-empty path")
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ConfigurationError(
                f"checkpoint_interval must be positive or None, got {self.checkpoint_interval}"
            )

    @property
    def path(self) -> Path:
        return Path(self.directory)
