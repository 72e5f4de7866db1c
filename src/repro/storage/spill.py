"""A BitMatrix with a RAM-resident hot tier and mmap'd cold segments.

:class:`TieredBitMatrix` mirrors the full interface of
:class:`repro.utils.bitset.BitMatrix` (the paper's DEBI row store) but
keeps only the first ``hot_rows`` rows in a numpy array; rows at or
beyond the budget live in fixed-size ``np.memmap`` segment files under a
per-query directory.  :class:`~repro.core.debi.DEBI` swaps its row matrix
for a tiered one in place (``DEBI.enable_spill``), which keeps every
existing reference — ``IndexManager``, ``EnumerationContext``, the
snapshot writer — working untouched: they only ever call the BitMatrix
interface.

Row layout: row ``r`` is hot iff ``r < hot_rows``; otherwise it lives in
segment ``(r - hot_rows) // segment_rows`` at offset
``(r - hot_rows) % segment_rows``.  Segment files are created on demand
(zero-filled by the OS) and any stale files in the directory are removed
at construction — cold content is always reconstructed from checkpoint +
journal replay, never trusted from a previous process.

Vectorized bulk operations (``column_mask``, ``set_rows_col``, ...)
split their row index arrays into the hot part (one gather) and cold
parts grouped by segment (one gather per touched segment), so streaming
enumeration over a mostly-hot working set stays a handful of numpy calls.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from repro.utils.bitset import popcount
from repro.utils.validation import check_non_negative, check_positive

_WORD_BITS = 64
_SEG_RE = re.compile(r"^seg_(\d+)\.bin$")


class TieredBitMatrix:
    """Drop-in BitMatrix replacement with an mmap'd cold tier."""

    def __init__(
        self,
        width: int,
        directory: str | Path,
        hot_rows: int,
        segment_rows: int = 4096,
    ) -> None:
        check_positive(width, "width")
        if width > _WORD_BITS:
            raise ValueError(
                f"TieredBitMatrix supports at most {_WORD_BITS} columns, got {width}"
            )
        check_positive(hot_rows, "hot_rows")
        check_positive(segment_rows, "segment_rows")
        self.width = width
        self.hot_rows = hot_rows
        self.segment_rows = segment_rows
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        for entry in self.directory.iterdir():
            if _SEG_RE.match(entry.name):
                entry.unlink()
        # the hot budget is allocated eagerly: one word per row keeps every
        # hot access a single array index with no growth bookkeeping
        self._hot = np.zeros(hot_rows, dtype=np.uint64)
        self._segments: dict[int, np.memmap] = {}
        self._nrows = 0
        #: cumulative counters surfaced by benchmarks / memory reports
        self.cold_reads = 0
        self.cold_writes = 0

    # -- tier plumbing -----------------------------------------------------
    def _segment_path(self, seg: int) -> Path:
        return self.directory / f"seg_{seg:08d}.bin"

    def _segment(self, seg: int, create: bool) -> np.memmap | None:
        segment = self._segments.get(seg)
        if segment is None and create:
            segment = np.memmap(
                self._segment_path(seg), dtype=np.uint64, mode="w+",
                shape=(self.segment_rows,),
            )
            self._segments[seg] = segment
        return segment

    def _locate(self, row: int) -> tuple[int, int]:
        cold = row - self.hot_rows
        return cold // self.segment_rows, cold % self.segment_rows

    def _ensure(self, row: int) -> None:
        if row + 1 > self._nrows:
            self._nrows = row + 1

    def _read_word(self, row: int) -> int:
        if row >= self._nrows:
            return 0
        if row < self.hot_rows:
            return int(self._hot[row])
        seg, off = self._locate(row)
        segment = self._segments.get(seg)
        if segment is None:
            return 0
        self.cold_reads += 1
        return int(segment[off])

    def _write_word(self, row: int, word: int) -> None:
        self._ensure(row)
        if row < self.hot_rows:
            self._hot[row] = np.uint64(word)
            return
        seg, off = self._locate(row)
        if word == 0 and seg not in self._segments:
            return  # missing segments read as zero; don't materialize for a clear
        segment = self._segment(seg, create=True)
        assert segment is not None
        segment[off] = np.uint64(word)
        self.cold_writes += 1

    # -- single-bit operations --------------------------------------------
    def set(self, row: int, col: int) -> None:
        self._check_col(col)
        check_non_negative(row, "row")
        self._write_word(row, self._read_word_for_update(row) | (1 << col))

    def clear(self, row: int, col: int) -> None:
        self._check_col(col)
        check_non_negative(row, "row")
        if row >= self._nrows:
            return
        self._write_word(row, self._read_word(row) & ~(1 << col))

    def get(self, row: int, col: int) -> bool:
        self._check_col(col)
        check_non_negative(row, "row")
        return bool((self._read_word(row) >> col) & 1)

    def _read_word_for_update(self, row: int) -> int:
        # like _read_word but without the _nrows guard: a set() on a fresh
        # row reads the current (zero) word before or-ing the new bit in
        if row < self.hot_rows:
            return int(self._hot[row])
        seg, off = self._locate(row)
        segment = self._segments.get(seg)
        return 0 if segment is None else int(segment[off])

    def _check_col(self, col: int) -> None:
        if not 0 <= col < self.width:
            raise IndexError(f"column {col} out of range [0, {self.width})")

    # -- row operations ----------------------------------------------------
    def get_row(self, row: int) -> int:
        check_non_negative(row, "row")
        return self._read_word(row)

    def set_row(self, row: int, mask: int) -> None:
        check_non_negative(row, "row")
        if mask < 0 or mask >= (1 << self.width):
            raise ValueError(f"mask {mask:#x} does not fit in {self.width} bits")
        self._write_word(row, mask)

    def clear_row(self, row: int) -> None:
        if row < self._nrows:
            self._write_word(row, 0)

    def row_any(self, row: int) -> bool:
        return self._read_word(row) != 0

    # -- bulk operations ----------------------------------------------------
    def _gather(self, idx: np.ndarray) -> np.ndarray:
        """Gather the row words for an int64 index array (zeros when unwritten)."""
        gathered = np.zeros(len(idx), dtype=np.uint64)
        valid = idx < self._nrows
        hot = valid & (idx < self.hot_rows)
        gathered[hot] = self._hot[idx[hot]]
        cold = valid & ~hot
        if np.any(cold):
            cold_idx = idx[cold] - self.hot_rows
            segs = cold_idx // self.segment_rows
            offs = cold_idx % self.segment_rows
            vals = np.zeros(len(cold_idx), dtype=np.uint64)
            for seg in np.unique(segs):
                segment = self._segments.get(int(seg))
                if segment is None:
                    continue
                members = segs == seg
                vals[members] = segment[offs[members]]
            gathered[cold] = vals
            self.cold_reads += int(np.count_nonzero(cold))
        return gathered

    def column_mask(self, rows: np.ndarray, col: int) -> np.ndarray:
        self._check_col(col)
        return (self._gather(rows) & np.uint64(1 << col)) != 0

    def set_rows_col(self, rows: np.ndarray, col: int) -> None:
        """Set bit ``col`` on every row in ``rows``, tier-aware.

        The hot part is one fancy-indexed OR; cold parts are grouped by
        segment (one scatter per touched segment).  Segments are only
        materialized when they actually receive a write, matching the
        scalar :meth:`set` path.
        """
        self._check_col(col)
        idx = np.asarray(rows, dtype=np.int64)
        if idx.shape[0] == 0:
            return
        check_non_negative(int(idx.min()), "row")
        self._ensure(int(idx.max()))
        mask = np.uint64(1 << col)
        hot = idx < self.hot_rows
        if np.any(hot):
            self._hot[idx[hot]] |= mask
        cold = ~hot
        if np.any(cold):
            cold_idx = idx[cold] - self.hot_rows
            segs = cold_idx // self.segment_rows
            offs = cold_idx % self.segment_rows
            for seg in np.unique(segs):
                segment = self._segment(int(seg), create=True)
                assert segment is not None
                members = segs == seg
                segment[offs[members]] |= mask
                self.cold_writes += int(np.count_nonzero(members))

    def clear_rows(self, rows: np.ndarray) -> None:
        """Clear every bit of every row in ``rows``, tier-aware.

        Rows beyond the written range are ignored; cold segments that were
        never materialized already read as zero and are left missing.
        """
        idx = np.asarray(rows, dtype=np.int64)
        if idx.shape[0] == 0:
            return
        check_non_negative(int(idx.min()), "row")
        idx = idx[idx < self._nrows]
        if idx.shape[0] == 0:
            return
        hot = idx < self.hot_rows
        if np.any(hot):
            self._hot[idx[hot]] = 0
        cold = ~hot
        if np.any(cold):
            cold_idx = idx[cold] - self.hot_rows
            segs = cold_idx // self.segment_rows
            offs = cold_idx % self.segment_rows
            for seg in np.unique(segs):
                segment = self._segments.get(int(seg))
                if segment is None:
                    continue  # never materialized: already reads as zero
                members = segs == seg
                segment[offs[members]] = 0
                self.cold_writes += int(np.count_nonzero(members))

    def get_rows(self, rows: np.ndarray) -> np.ndarray:
        """Gather the full row words for ``rows`` (uint64 array), tier-aware."""
        return self._gather(np.asarray(rows, dtype=np.int64))

    def _live_chunks(self):
        """Yield ``(base_row, words)`` views covering rows [0, _nrows)."""
        if self._nrows == 0:
            return
        hot_live = min(self._nrows, self.hot_rows)
        if hot_live:
            yield 0, self._hot[:hot_live]
        for seg in sorted(self._segments):
            base = self.hot_rows + seg * self.segment_rows
            if base >= self._nrows:
                continue
            end = min(base + self.segment_rows, self._nrows)
            yield base, self._segments[seg][: end - base]

    def count(self) -> int:
        return sum(popcount(words) for _, words in self._live_chunks())

    def column_count(self, col: int) -> int:
        self._check_col(col)
        mask = np.uint64(1 << col)
        return sum(int(np.count_nonzero(words & mask)) for _, words in self._live_chunks())

    def rows_with_column(self, col: int) -> np.ndarray:
        self._check_col(col)
        mask = np.uint64(1 << col)
        parts = [
            np.nonzero(words & mask)[0] + base for base, words in self._live_chunks()
        ]
        parts = [p for p in parts if len(p)]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts).astype(np.int64, copy=False)

    def clear_all(self) -> None:
        self._hot[:] = 0
        for segment in self._segments.values():
            segment[:] = 0

    # -- buffer export / restore --------------------------------------------
    def export_words(self) -> tuple[np.ndarray, int]:
        """Materialize a contiguous copy of rows [0, _nrows).

        Unlike the in-memory BitMatrix this cannot alias storage (rows are
        scattered across tiers); callers (shared-memory snapshot writer,
        checkpointing) copy the result anyway.
        """
        out = np.zeros(self._nrows, dtype=np.uint64)
        for base, words in self._live_chunks():
            out[base : base + len(words)] = words
        return out, self._nrows

    def load_words(self, rows: np.ndarray, nrows: int) -> None:
        """Overwrite all content with a contiguous word buffer (checkpoint restore)."""
        rows = np.asarray(rows, dtype=np.uint64)
        self.clear_all()
        self._nrows = nrows
        hot_live = min(nrows, self.hot_rows)
        self._hot[:hot_live] = rows[:hot_live]
        pos = self.hot_rows
        seg = 0
        while pos < nrows:
            end = min(pos + self.segment_rows, nrows)
            segment = self._segment(seg, create=True)
            assert segment is not None
            segment[: end - pos] = rows[pos:end]
            self.cold_writes += end - pos
            pos = end
            seg += 1

    # -- durability ----------------------------------------------------------
    def flush(self) -> None:
        """Flush every cold segment to its backing file."""
        for segment in self._segments.values():
            segment.flush()

    def remap(self) -> None:
        """Flush, drop and re-open every segment mapping.

        Exercised by the fault-injection suite: reads after a remap must be
        identical to reads against the original mappings.
        """
        self.flush()
        segs = sorted(self._segments)
        self._segments = {}
        for seg in segs:
            self._segments[seg] = np.memmap(
                self._segment_path(seg), dtype=np.uint64, mode="r+",
                shape=(self.segment_rows,),
            )

    # -- accounting ----------------------------------------------------------
    @property
    def spilled_rows(self) -> int:
        """Live rows resident in the cold tier."""
        return max(0, self._nrows - self.hot_rows)

    @property
    def disk_bytes(self) -> int:
        """Bytes of cold-segment files backing this matrix."""
        return len(self._segments) * self.segment_rows * 8

    def nbytes(self) -> int:
        """RAM footprint of the live rows (hot tier only)."""
        return int(min(self._nrows, self.hot_rows) * self._hot.itemsize)

    def __len__(self) -> int:
        return self._nrows
