"""Growable numpy-backed bitsets.

DEBI stores one small bitmap per data edge (one bit per non-root query
node) and one large bit-vector over data vertices (``roots``).  Both are
implemented here on top of flat ``numpy`` arrays so that bulk operations
(counting, popcount, row clears) are vectorized, while individual
get/set/clear operations stay O(1).

Two classes are provided:

``BitVector``
    A growable vector of bits addressed by a non-negative integer index.

``BitMatrix``
    A growable matrix of rows x ``width`` bits where ``width`` is fixed at
    construction time (the number of non-root query nodes) and rows are
    addressed by edge id.  Because query graphs in this problem domain are
    small (|V_Q| <= 64 in all of the paper's workloads) each row fits in a
    single 64-bit word, which keeps per-edge updates a single array write.
    Given a ``path``, the words live in one memory-mapped file instead of
    the heap (the disk-backed DEBI of the paper's Table III); the page
    cache decides which of them stay resident.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.utils.validation import check_non_negative, check_positive

_WORD_BITS = 64

#: numpy >= 2.0 has a hardware popcount ufunc; older ones get a byte table
_bitwise_count = getattr(np, "bitwise_count", None)
_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def popcount(words: np.ndarray) -> int:
    """Total number of set bits in a uint64 word array."""
    if _bitwise_count is not None:
        return int(_bitwise_count(words).sum(dtype=np.int64))
    octets = np.ascontiguousarray(words).view(np.uint8)
    return int(_BYTE_POPCOUNT[octets].sum(dtype=np.int64))


class BitVector:
    """A growable bit vector with O(1) get/set/clear.

    Parameters
    ----------
    initial_capacity:
        Number of bits to pre-allocate.  The vector grows automatically
        (geometric doubling) whenever a larger index is written.
    """

    __slots__ = ("_words", "_nbits")

    def __init__(self, initial_capacity: int = 1024) -> None:
        check_positive(initial_capacity, "initial_capacity")
        nwords = (initial_capacity + _WORD_BITS - 1) // _WORD_BITS
        self._words = np.zeros(max(nwords, 1), dtype=np.uint64)
        self._nbits = 0

    def _ensure(self, index: int) -> None:
        needed_words = index // _WORD_BITS + 1
        if needed_words > self._words.shape[0]:
            new_size = max(needed_words, self._words.shape[0] * 2)
            grown = np.zeros(new_size, dtype=np.uint64)
            grown[: self._words.shape[0]] = self._words
            self._words = grown
        if index + 1 > self._nbits:
            self._nbits = index + 1

    def set(self, index: int) -> None:
        """Set bit ``index`` to 1."""
        check_non_negative(index, "index")
        self._ensure(index)
        self._words[index // _WORD_BITS] |= np.uint64(1 << (index % _WORD_BITS))

    def clear(self, index: int) -> None:
        """Set bit ``index`` to 0 (no-op for indexes never written)."""
        check_non_negative(index, "index")
        if index >= self._nbits:
            return
        self._words[index // _WORD_BITS] &= np.uint64(
            ~(1 << (index % _WORD_BITS)) & (2**_WORD_BITS - 1)
        )

    def get(self, index: int) -> bool:
        """Return bit ``index`` (False for indexes never written)."""
        check_non_negative(index, "index")
        if index >= self._nbits:
            return False
        word = int(self._words[index // _WORD_BITS])
        return bool((word >> (index % _WORD_BITS)) & 1)

    def assign(self, index: int, value: bool) -> None:
        """Set bit ``index`` to ``value``."""
        if value:
            self.set(index)
        else:
            self.clear(index)

    def count(self) -> int:
        """Return the number of set bits."""
        return popcount(self._words)

    def clear_all(self) -> None:
        """Reset every bit to 0 while keeping the allocated capacity."""
        self._words[:] = 0

    def __len__(self) -> int:
        return self._nbits

    def __contains__(self, index: int) -> bool:
        return self.get(index)

    # -- buffer export / attach ---------------------------------------------
    def export_words(self) -> tuple[np.ndarray, int]:
        """Return ``(words, nbits)`` where ``words`` is a view of the live words.

        ``words`` aliases this vector's storage (no copy); callers copy it
        into a shared-memory segment and re-attach with :meth:`from_words`.
        """
        nwords = (self._nbits + _WORD_BITS - 1) // _WORD_BITS
        return self._words[:nwords], self._nbits

    @classmethod
    def from_words(cls, words: np.ndarray, nbits: int) -> "BitVector":
        """Wrap an existing uint64 word buffer (zero-copy attach).

        The result is a *read-mostly* view: reads are exact, but writing a
        bit beyond the buffer would silently reallocate private storage, so
        attached vectors must be treated as read-only.
        """
        vec = cls.__new__(cls)
        vec._words = np.asarray(words, dtype=np.uint64)
        vec._nbits = nbits
        return vec

    def load_words(self, words: np.ndarray, nbits: int) -> None:
        """Overwrite all content from an exported word buffer (in place).

        The writable inverse of :meth:`from_words`, used by checkpoint
        restore: existing references to this vector stay valid.
        """
        words = np.asarray(words, dtype=np.uint64)
        if words.shape[0] > self._words.shape[0]:
            self._words = np.array(words, dtype=np.uint64, copy=True)
        else:
            self._words[: words.shape[0]] = words
            self._words[words.shape[0] :] = 0
        self._nbits = nbits

    def get_many(self, indices: np.ndarray) -> np.ndarray:
        """Boolean mask over an int64 index array: is each bit set?

        The vectorized counterpart of :meth:`get` — one word gather plus
        one shift/and over the whole array.  Indexes beyond the written
        range read as False, mirroring the scalar semantics.
        """
        idx = np.asarray(indices, dtype=np.int64)
        out = np.zeros(idx.shape[0], dtype=bool)
        valid = (idx >= 0) & (idx < self._nbits)
        vi = idx[valid]
        words = self._words[vi // _WORD_BITS]
        shifts = (vi % _WORD_BITS).astype(np.uint64)
        out[valid] = (words >> shifts) & np.uint64(1) != 0
        return out

    def iter_set(self):
        """Yield the indexes of all set bits in increasing order."""
        nonzero_words = np.nonzero(self._words)[0]
        for w in nonzero_words:
            word = int(self._words[w])
            base = int(w) * _WORD_BITS
            while word:
                low = word & -word
                yield base + low.bit_length() - 1
                word ^= low

    def to_set(self) -> set[int]:
        """Return the set of all set-bit indexes."""
        return set(self.iter_set())


class BitMatrix:
    """A growable matrix of rows of ``width`` bits (width <= 64).

    Rows are addressed by non-negative integer ids (edge ids).  Each row
    is a single 64-bit word, so reading or writing a full row is one array
    access and testing or flipping a single bit is O(1).

    With a ``path`` the word array is an ``np.memmap`` over that file,
    created here and grown by :meth:`reserve`; every other method is the
    same code either way.  The file is scratch space, never read back by a
    later matrix: construction unlinks whatever is at ``path`` and maps a
    new file, so a matrix still mapping the old one keeps its own words.
    The page cache keeps every map of the file coherent, so nothing is
    flushed.
    """

    __slots__ = ("_rows", "_nrows", "width", "path")

    def __init__(
        self, width: int, initial_rows: int = 1024, path: str | Path | None = None
    ) -> None:
        check_positive(width, "width")
        if width > _WORD_BITS:
            raise ValueError(
                f"BitMatrix supports at most {_WORD_BITS} columns, got {width}; "
                "query graphs larger than 64 nodes are out of scope"
            )
        check_positive(initial_rows, "initial_rows")
        self.width = width
        self.path = None if path is None else Path(path)
        if self.path is None:
            self._rows = np.zeros(initial_rows, dtype=np.uint64)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.unlink(missing_ok=True)
            self._rows = np.memmap(self.path, dtype=np.uint64, mode="w+", shape=(initial_rows,))
        self._nrows = 0

    # -- growth -----------------------------------------------------------
    def reserve(self, rows: int) -> None:
        """Make room for ``rows`` rows; the written range stays as it is."""
        if rows > self._rows.shape[0]:
            size = max(rows, self._rows.shape[0] * 2)
            if self.path is None:
                grown = np.zeros(size, dtype=np.uint64)
                grown[: self._rows.shape[0]] = self._rows
                self._rows = grown
            else:  # the file keeps the words; numpy extends it with zeros to ``size``
                self._rows = np.memmap(self.path, dtype=np.uint64, mode="r+", shape=(size,))

    def _ensure(self, row: int) -> None:
        self.reserve(row + 1)
        if row + 1 > self._nrows:
            self._nrows = row + 1

    # -- single-bit operations --------------------------------------------
    def set(self, row: int, col: int) -> None:
        """Set bit (row, col)."""
        self._check_col(col)
        check_non_negative(row, "row")
        self._ensure(row)
        self._rows[row] |= np.uint64(1 << col)

    def clear(self, row: int, col: int) -> None:
        """Clear bit (row, col)."""
        self._check_col(col)
        check_non_negative(row, "row")
        if row >= self._nrows:
            return
        self._rows[row] &= np.uint64(~(1 << col) & (2**_WORD_BITS - 1))

    def get(self, row: int, col: int) -> bool:
        """Return bit (row, col); False for rows never written."""
        self._check_col(col)
        check_non_negative(row, "row")
        if row >= self._nrows:
            return False
        return bool((int(self._rows[row]) >> col) & 1)

    def _check_col(self, col: int) -> None:
        if not 0 <= col < self.width:
            raise IndexError(f"column {col} out of range [0, {self.width})")

    # -- row operations ----------------------------------------------------
    def get_row(self, row: int) -> int:
        """Return the full row as a Python int bitmask."""
        check_non_negative(row, "row")
        if row >= self._nrows:
            return 0
        return int(self._rows[row])

    def set_row(self, row: int, mask: int) -> None:
        """Overwrite the full row with ``mask``."""
        check_non_negative(row, "row")
        if mask < 0 or mask >= (1 << self.width):
            raise ValueError(f"mask {mask:#x} does not fit in {self.width} bits")
        self._ensure(row)
        self._rows[row] = np.uint64(mask)

    def clear_row(self, row: int) -> None:
        """Clear every bit of ``row`` (used when an edge id is recycled)."""
        if row < self._nrows:
            self._rows[row] = 0

    def row_any(self, row: int) -> bool:
        """Return True if any bit of ``row`` is set."""
        return self.get_row(row) != 0

    # -- buffer export / attach ---------------------------------------------
    def export_words(self) -> tuple[np.ndarray, int]:
        """Return ``(rows, nrows)`` where ``rows`` is a view of the live rows.

        ``rows`` aliases this matrix's storage (no copy); callers copy it
        into a shared-memory segment and re-attach with :meth:`from_words`.
        """
        return self._rows[: self._nrows], self._nrows

    @classmethod
    def from_words(cls, rows: np.ndarray, width: int, nrows: int | None = None) -> "BitMatrix":
        """Wrap an existing uint64 row buffer (zero-copy attach).

        Like :meth:`BitVector.from_words`, the attached matrix must be
        treated as read-only: writing a row beyond the buffer reallocates
        private storage and severs the aliasing.
        """
        check_positive(width, "width")
        matrix = cls.__new__(cls)
        matrix.width = width
        matrix.path = None
        matrix._rows = np.asarray(rows, dtype=np.uint64)
        matrix._nrows = len(matrix._rows) if nrows is None else nrows
        return matrix

    def load_words(self, rows: np.ndarray, nrows: int) -> None:
        """Overwrite all content from an exported row buffer (in place).

        The writable inverse of :meth:`from_words`, used by checkpoint
        restore: existing references to this matrix stay valid, and a
        file-backed matrix keeps its file.
        """
        rows = np.asarray(rows, dtype=np.uint64)
        self.reserve(rows.shape[0])
        self._rows[: rows.shape[0]] = rows
        self._rows[rows.shape[0] :] = 0
        self._nrows = nrows

    # -- bulk operations ----------------------------------------------------
    def column_mask(self, rows: np.ndarray, col: int) -> np.ndarray:
        """Boolean mask over ``rows`` (int64 array): is bit ``col`` set per row?

        The vectorized core of the fused candidate pipeline: one gather +
        one bitwise-and over a whole adjacency partition, instead of one
        scalar lookup per edge.  Rows beyond the written range read as 0.
        """
        self._check_col(col)
        valid = rows < self._nrows
        gathered = np.zeros(len(rows), dtype=np.uint64)
        gathered[valid] = self._rows[rows[valid]]
        return (gathered & np.uint64(1 << col)) != 0

    def set_rows_col(self, rows: np.ndarray, col: int) -> None:
        """Set bit ``col`` on every row in ``rows`` (vectorized bulk write).

        The columnar-ingest counterpart of :meth:`set`: one fancy-indexed
        OR over the whole id array.  Duplicate row ids are safe — numpy's
        buffered fancy assignment applies the (idempotent) OR once.
        """
        self._check_col(col)
        idx = np.asarray(rows, dtype=np.int64)
        if idx.shape[0] == 0:
            return
        check_non_negative(int(idx.min()), "row")
        self._ensure(int(idx.max()))
        self._rows[idx] |= np.uint64(1 << col)

    def clear_rows(self, rows: np.ndarray) -> None:
        """Clear every bit of every row in ``rows`` (vectorized bulk clear).

        The bulk counterpart of :meth:`clear_row`; rows beyond the written
        range are ignored, mirroring the scalar semantics.
        """
        idx = np.asarray(rows, dtype=np.int64)
        if idx.shape[0] == 0:
            return
        check_non_negative(int(idx.min()), "row")
        self._rows[idx[idx < self._nrows]] = 0

    def get_rows(self, rows: np.ndarray) -> np.ndarray:
        """Gather the full row words for ``rows`` (uint64 array).

        Rows beyond the written range read as 0, mirroring :meth:`get_row`.
        """
        idx = np.asarray(rows, dtype=np.int64)
        gathered = np.zeros(idx.shape[0], dtype=np.uint64)
        valid = idx < self._nrows
        gathered[valid] = self._rows[idx[valid]]
        return gathered

    def count(self) -> int:
        """Total number of set bits across all rows."""
        return popcount(self._rows[: self._nrows])

    def column_count(self, col: int) -> int:
        """Number of rows with bit ``col`` set."""
        self._check_col(col)
        if self._nrows == 0:
            return 0
        mask = np.uint64(1 << col)
        return int(np.count_nonzero(self._rows[: self._nrows] & mask))

    def rows_with_column(self, col: int) -> np.ndarray:
        """Return the row ids whose bit ``col`` is set."""
        self._check_col(col)
        if self._nrows == 0:
            return np.empty(0, dtype=np.int64)
        mask = np.uint64(1 << col)
        return np.nonzero(self._rows[: self._nrows] & mask)[0]

    def clear_all(self) -> None:
        """Reset the matrix to all zeros while keeping the capacity."""
        self._rows[:] = 0

    def nbytes(self) -> int:
        """Approximate memory footprint of the live rows in bytes."""
        return int(self._nrows * self._rows.itemsize)

    def __len__(self) -> int:
        return self._nrows
