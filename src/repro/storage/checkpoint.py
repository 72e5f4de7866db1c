"""Atomic checkpoints with JSON sidecars and corruption fallback.

A checkpoint ``ck_<seq>.pkl`` is the pickled engine state (graph, query
definitions, DEBI word buffers, counters); its sidecar ``ck_<seq>.json``
records the payload CRC/size plus the journal byte offset the checkpoint
corresponds to.  Both are written to temp files and ``os.replace``d, and
the sidecar is written *after* the payload, so a crash mid-save leaves at
worst a payload without a sidecar — which the loader treats as "no such
checkpoint" and skips.  ``load_latest`` walks checkpoints newest-first
and falls back past any that are missing a sidecar, fail the CRC, or do
not unpickle; only if *no* checkpoint is usable does it raise.  The
:data:`RETAINED` newest checkpoints are kept, so a corrupt newest one
always has a predecessor to fall back to.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import zlib
from pathlib import Path
from typing import Any


class CheckpointError(Exception):
    """No usable checkpoint could be loaded."""


_CK_RE = re.compile(r"^ck_(\d+)\.pkl$")
#: checkpoints kept after a save; older ones are pruned
RETAINED = 2


class CheckpointManager:
    def __init__(self, directory: str | Path, fsync: bool = False) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync

    # -- paths ------------------------------------------------------------
    def _payload_path(self, seq: int) -> Path:
        return self.directory / f"ck_{seq:012d}.pkl"

    def _sidecar_path(self, seq: int) -> Path:
        return self.directory / f"ck_{seq:012d}.json"

    def sequence_numbers(self) -> list[int]:
        """All checkpoint sequence numbers on disk (payload present), ascending."""
        seqs = []
        for entry in self.directory.iterdir():
            match = _CK_RE.match(entry.name)
            if match:
                seqs.append(int(match.group(1)))
        return sorted(seqs)

    # -- save -------------------------------------------------------------
    def save(self, seq: int, state: Any, meta: dict) -> Path:
        """Atomically persist ``state`` as checkpoint ``seq`` and prune old ones."""
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        sidecar = dict(meta)
        sidecar["seq"] = seq
        sidecar["payload_bytes"] = len(payload)
        sidecar["payload_crc"] = zlib.crc32(payload) & 0xFFFFFFFF
        self._write_atomic(self._payload_path(seq), payload)
        self._write_atomic(
            self._sidecar_path(seq), json.dumps(sidecar, sort_keys=True).encode("utf-8")
        )
        self._prune()
        return self._payload_path(seq)

    def _write_atomic(self, path: Path, data: bytes) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _prune(self) -> None:
        for seq in self.sequence_numbers()[:-RETAINED]:
            self._payload_path(seq).unlink(missing_ok=True)
            self._sidecar_path(seq).unlink(missing_ok=True)

    # -- load -------------------------------------------------------------
    def load_latest(self) -> tuple[Any, dict]:
        """Return ``(state, sidecar_meta)`` of the newest *usable* checkpoint.

        Unusable checkpoints (missing sidecar, size/CRC mismatch, unpickle
        failure) are skipped in favour of older ones; raises
        :class:`CheckpointError` when none survive.
        """
        failures: list[str] = []
        for seq in reversed(self.sequence_numbers()):
            try:
                return self._load(seq)
            except (OSError, ValueError, json.JSONDecodeError, pickle.UnpicklingError,
                    EOFError, AttributeError, ImportError) as exc:
                failures.append(f"ck_{seq}: {exc}")
        raise CheckpointError(
            "no usable checkpoint in "
            f"{self.directory}" + (f" ({'; '.join(failures)})" if failures else "")
        )

    def _load(self, seq: int) -> tuple[Any, dict]:
        sidecar_path = self._sidecar_path(seq)
        if not sidecar_path.exists():
            raise ValueError("sidecar missing (checkpoint incomplete)")
        meta = json.loads(sidecar_path.read_text(encoding="utf-8"))
        payload = self._payload_path(seq).read_bytes()
        if len(payload) != meta.get("payload_bytes"):
            raise ValueError(
                f"payload size {len(payload)} != recorded {meta.get('payload_bytes')}"
            )
        if (zlib.crc32(payload) & 0xFFFFFFFF) != meta.get("payload_crc"):
            raise ValueError("payload CRC mismatch")
        return pickle.loads(payload), meta
