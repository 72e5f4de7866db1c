"""Append-only, CRC-framed epoch journal.

One journal file per engine.  Each record is framed as::

    magic(4) | kind(1) | epoch(8, signed LE) | length(4, LE) | crc32(4, LE) | payload

where ``crc32`` covers the payload bytes only.  Payloads are pickled
Python values — a batch's :class:`~repro.streams.events.EventColumns`
(None for an empty half) for ``INITIAL``/``EPOCH`` records and query
definitions for ``REGISTER``.  The framing lets the scanner detect
every corruption mode the fault-injection suite throws at it: a torn
header (fewer than 21 bytes left), a clobbered magic, a truncated payload
(declared length runs past EOF) and bit flips (CRC mismatch).  Scanning
stops at the first bad frame and reports the byte offset of the last good
one, so recovery replays a strict prefix and truncates the tail before
appending again.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Any

MAGIC = b"MNJ1"
_HEADER = struct.Struct("<4sBqII")  # magic, kind, epoch, payload_len, payload_crc
HEADER_BYTES = _HEADER.size


class RecordKind(IntEnum):
    """Journal record types."""

    INITIAL = 1   #: ``load_initial`` bulk load (insert columns, no enumeration)
    EPOCH = 2     #: one sealed batch: (insert columns, delete columns)
    REGISTER = 3  #: multi-query: a query registered (payload: definition dict)
    UNREGISTER = 4  #: multi-query: a query retired (payload: query id)


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal frame."""

    kind: RecordKind
    epoch: int
    payload: bytes
    #: byte offset of the frame start in the journal file
    offset: int

    def data(self) -> Any:
        """Unpickle the payload."""
        return pickle.loads(self.payload)


@dataclass(frozen=True)
class JournalScan:
    """Result of scanning a journal tail."""

    records: list[JournalRecord]
    #: offset one past the last intact record — the truncation point
    valid_bytes: int
    #: human-readable reason scanning stopped early, or None if clean EOF
    corruption: str | None


def encode_record(kind: RecordKind, epoch: int, payload: bytes) -> bytes:
    """Frame ``payload`` as one journal record."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, int(kind), epoch, len(payload), crc) + payload


def scan_journal(path: str | Path, start: int = 0) -> JournalScan:
    """Decode records from byte offset ``start`` to the first corruption/EOF."""
    path = Path(path)
    if not path.exists():
        return JournalScan(records=[], valid_bytes=start, corruption=None)
    data = path.read_bytes()
    if start > len(data):
        return JournalScan(
            records=[], valid_bytes=len(data),
            corruption=f"journal shorter than checkpoint offset {start}",
        )
    records: list[JournalRecord] = []
    pos = start
    corruption: str | None = None
    while pos < len(data):
        remaining = len(data) - pos
        if remaining < HEADER_BYTES:
            corruption = f"torn header at offset {pos} ({remaining} trailing bytes)"
            break
        magic, kind, epoch, length, crc = _HEADER.unpack_from(data, pos)
        if magic != MAGIC:
            corruption = f"bad magic at offset {pos}"
            break
        if remaining - HEADER_BYTES < length:
            corruption = f"torn payload at offset {pos} (declared {length} bytes)"
            break
        payload = data[pos + HEADER_BYTES : pos + HEADER_BYTES + length]
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            corruption = f"CRC mismatch at offset {pos}"
            break
        try:
            record_kind = RecordKind(kind)
        except ValueError:
            corruption = f"unknown record kind {kind} at offset {pos}"
            break
        records.append(JournalRecord(kind=record_kind, epoch=epoch, payload=payload, offset=pos))
        pos += HEADER_BYTES + length
    return JournalScan(records=records, valid_bytes=pos, corruption=corruption)


class JournalWriter:
    """Appends framed records to the journal file.

    Every append flushes to the OS (surviving process death); ``fsync``
    additionally pushes to stable storage per record.
    """

    def __init__(self, path: str | Path, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._file = open(self.path, "ab")
        self.offset = self._file.tell()

    def append(self, kind: RecordKind, epoch: int, value: Any) -> int:
        """Pickle ``value``, frame it and append; returns the new end offset."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        frame = encode_record(kind, epoch, payload)
        self._file.write(frame)
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self.offset += len(frame)
        return self.offset

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    @staticmethod
    def truncate(path: str | Path, valid_bytes: int) -> None:
        """Drop a corrupt tail so future appends extend a clean prefix."""
        path = Path(path)
        if path.exists() and path.stat().st_size > valid_bytes:
            with open(path, "r+b") as fh:
                fh.truncate(valid_bytes)
