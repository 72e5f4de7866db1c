"""DEBI — the Data-graph Edge-centric Binary Index (Section IV-A).

For a query tree with ``k`` non-root nodes, DEBI keeps a ``k``-bit
bitmap per data edge id: bit ``c`` records whether the data edge is
currently a candidate match for the query-tree edge owned by column
``c`` (i.e. by the non-root query node with that column).  A separate
bit-vector ``roots`` over data vertices records the candidate matches of
the root query node.

All operations on a single (edge, column) pair are O(1); rows are
cleared when an edge id is deleted/recycled, which is what makes the
index size non-monotonic.

The columnar ingest path adds bulk variants (:meth:`set_edges`,
:meth:`clear_edges`, :meth:`rows`) that update whole id arrays with one
vectorized write per call, and the writer-facing dirty ledger
(:meth:`consume_publish_dirty`) that lets the shared-snapshot writer
copy only the row/root words touched since its last publish into a slot.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import coalesce_ranges
from repro.query.query_tree import QueryTree
from repro.utils.bitset import _WORD_BITS, BitMatrix, BitVector

#: once this many distinct rows are dirty the per-row ledger stops paying
#: for itself; fall back to "everything dirty" (one range) instead
_DIRTY_ROW_CAP = 65536


class DEBI:
    """Bitmap candidate index addressed by data edge id and query-tree column."""

    def __init__(self, tree: QueryTree, initial_edges: int = 1024, initial_vertices: int = 1024) -> None:
        self.tree = tree
        # A single-node query has no tree edges; keep a 1-column matrix so the
        # data structure stays well-formed (the column is simply never used).
        self._bits = BitMatrix(width=max(tree.num_columns, 1), initial_rows=initial_edges)
        self._roots = BitVector(initial_capacity=initial_vertices)
        self._init_dirty()

    # ------------------------------------------------------------------ dirty ledger
    def _init_dirty(self) -> None:
        # start all-dirty: the first publish after construction / restore /
        # attach must copy everything regardless of what was touched since
        self._dirty_rows: set[int] = set()
        self._dirty_root_words: set[int] = set()
        self._all_dirty = True

    def _mark_row(self, edge_id: int) -> None:
        if not self._all_dirty:
            self._dirty_rows.add(edge_id)
            if len(self._dirty_rows) > _DIRTY_ROW_CAP:
                self.mark_all_dirty()

    def mark_rows_dirty(self, edge_ids) -> None:
        """Note ``edge_ids``' rows as changed (the native kernel writes rows in place)."""
        if not self._all_dirty:
            self._dirty_rows.update(
                edge_ids.tolist() if isinstance(edge_ids, np.ndarray) else edge_ids
            )
            if len(self._dirty_rows) > _DIRTY_ROW_CAP:
                self.mark_all_dirty()

    def _mark_root(self, vertex: int) -> None:
        if not self._all_dirty:
            self._dirty_root_words.add(vertex // _WORD_BITS)

    def mark_all_dirty(self) -> None:
        """Poison the ledger: the next publish copies every word."""
        self._all_dirty = True
        self._dirty_rows.clear()
        self._dirty_root_words.clear()

    def consume_publish_dirty(self):
        """Return ``(row_ranges, root_word_ranges)`` touched since last call.

        Each element is a list of half-open ``(start, stop)`` runs over the
        exported row words / root words, or ``None`` meaning "treat the
        whole array as dirty".  Calling this resets the ledger, so it must
        be invoked exactly once per publish (the writer owns that cadence).
        The ranges are a superset of actual changes — conservative is
        always safe for the dirty-slice copy.
        """
        if self._all_dirty:
            rows, roots = None, None
        else:
            rows = _coalesce(self._dirty_rows)
            roots = _coalesce(self._dirty_root_words)
        self._dirty_rows = set()
        self._dirty_root_words = set()
        self._all_dirty = False
        return rows, roots

    # ------------------------------------------------------------------ edge bits
    def set(self, edge_id: int, column: int) -> None:
        """Mark the data edge as a candidate for the query-tree edge of ``column``."""
        self._bits.set(edge_id, column)
        self._mark_row(edge_id)

    def clear(self, edge_id: int, column: int) -> None:
        self._bits.clear(edge_id, column)
        self._mark_row(edge_id)

    def get(self, edge_id: int, column: int) -> bool:
        return self._bits.get(edge_id, column)

    def row(self, edge_id: int) -> int:
        """The full bitmap of ``edge_id`` as an integer mask."""
        return self._bits.get_row(edge_id)

    def clear_edge(self, edge_id: int) -> None:
        """Drop every candidate bit of ``edge_id`` (edge deleted / id recycled)."""
        self._bits.clear_row(edge_id)
        self._mark_row(edge_id)

    # ------------------------------------------------------------------ bulk edge bits
    def set_edges(self, edge_ids, column: int) -> None:
        """Set ``column`` for a whole id array — one vectorized write.

        The columnar counterpart of calling :meth:`set` per edge; the
        final bit state is identical (OR is idempotent and duplicate ids
        are allowed).
        """
        ids = np.asarray(edge_ids, dtype=np.int64)
        if ids.shape[0] == 0:
            return
        self._bits.set_rows_col(ids, column)
        self.mark_rows_dirty(ids)

    def clear_edges(self, edge_ids) -> None:
        """Clear the full bitmap of every id in the array (bulk clear_edge)."""
        ids = np.asarray(edge_ids, dtype=np.int64)
        if ids.shape[0] == 0:
            return
        self._bits.clear_rows(ids)
        self.mark_rows_dirty(ids)

    def rows(self, edge_ids) -> list[int]:
        """Gather the full bitmaps for an id array (bulk :meth:`row`)."""
        ids = np.asarray(edge_ids, dtype=np.int64)
        return self._bits.get_rows(ids).tolist()

    def column_mask(self, edge_ids, column: int):
        """Vectorized bit test: bool mask over an int64 array of edge ids.

        The enumeration hot path uses it to filter a whole step's candidate
        pools and gather the surviving endpoints in one fused step.
        """
        return self._bits.column_mask(edge_ids, column)

    def candidates_for_column(self, column: int):
        """All edge ids currently marked for ``column`` (numpy array)."""
        return self._bits.rows_with_column(column)

    def column_cardinality(self, column: int) -> int:
        """Number of candidate edges for ``column``."""
        return self._bits.column_count(column)

    # ------------------------------------------------------------------ roots
    def set_root(self, vertex: int) -> None:
        self._roots.set(vertex)
        self._mark_root(vertex)

    def clear_root(self, vertex: int) -> None:
        self._roots.clear(vertex)
        self._mark_root(vertex)

    def is_root(self, vertex: int) -> bool:
        return self._roots.get(vertex)

    def roots_mask(self, vertices):
        """Vectorized root test: bool mask over an int64 array of vertices.

        The columnar enumeration kernel's counterpart of :meth:`is_root`,
        answering the root-candidacy of a whole candidate column in one
        word gather.
        """
        return self._roots.get_many(vertices)

    def root_count(self) -> int:
        return self._roots.count()

    # ------------------------------------------------------------------ buffer export / attach
    def export_buffers(self) -> dict:
        """Export the index as raw word buffers plus their geometry.

        The returned arrays alias this DEBI's storage (no copy); the
        shared-memory layer copies them into a segment and worker processes
        rebuild a read-only DEBI with :meth:`attach_buffers`.
        """
        rows, num_rows = self._bits.export_words()
        roots, root_bits = self._roots.export_words()
        return {
            "rows": rows,
            "num_rows": num_rows,
            "width": self._bits.width,
            "roots": roots,
            "root_bits": root_bits,
        }

    @classmethod
    def attach_buffers(
        cls,
        tree: QueryTree,
        rows,
        num_rows: int,
        width: int,
        roots,
        root_bits: int,
    ) -> "DEBI":
        """Rebuild a read-only DEBI over exported word buffers (zero-copy)."""
        debi = cls.__new__(cls)
        debi.tree = tree
        debi._bits = BitMatrix.from_words(rows, width=width, nrows=num_rows)
        debi._roots = BitVector.from_words(roots, nbits=root_bits)
        debi._init_dirty()
        return debi

    # ------------------------------------------------------------------ durability
    def enable_spill(self, directory, hot_rows: int, segment_rows: int = 4096):
        """Swap the row matrix for a tiered hot/cold store rooted at ``directory``.

        The replacement happens in place (``self._bits`` is reassigned),
        so every holder of this DEBI — ``IndexManager``, enumeration
        contexts, the snapshot writer — keeps working through the same
        BitMatrix interface.  Existing content is carried over.
        """
        from repro.storage.spill import TieredBitMatrix

        tiered = TieredBitMatrix(
            width=self._bits.width, directory=directory,
            hot_rows=hot_rows, segment_rows=segment_rows,
        )
        rows, num_rows = self._bits.export_words()
        if num_rows:
            tiered.load_words(rows, num_rows)
        self._bits = tiered
        self.mark_all_dirty()
        return tiered

    def restore_buffers(self, rows, num_rows: int, width: int, roots, root_bits: int) -> None:
        """Overwrite the index content from checkpointed word buffers, in place.

        The inverse of :meth:`export_buffers` for recovery: unlike
        :meth:`attach_buffers` this mutates the existing matrix/vector so
        references held by the index manager stay valid and writable.
        """
        if width != self._bits.width:
            raise ValueError(
                f"checkpointed DEBI width {width} != live width {self._bits.width}"
            )
        self._bits.load_words(rows, num_rows)
        self._roots.load_words(roots, root_bits)
        self.mark_all_dirty()

    def spill_stats(self) -> dict | None:
        """Cold-tier counters, or None when the index is fully in memory."""
        from repro.storage.spill import TieredBitMatrix

        if not isinstance(self._bits, TieredBitMatrix):
            return None
        return {
            "spilled_rows": self._bits.spilled_rows,
            "debi_disk_bytes": self._bits.disk_bytes,
            "debi_hot_bytes": self._bits.nbytes(),
            "cold_reads": self._bits.cold_reads,
            "cold_writes": self._bits.cold_writes,
        }

    # ------------------------------------------------------------------ bulk
    def reset(self) -> None:
        """Periodic reset: drop every bit (the paper's index rebuild point)."""
        self._bits.clear_all()
        self._roots.clear_all()
        self.mark_all_dirty()

    def total_bits_set(self) -> int:
        return self._bits.count() + self._roots.count()

    def nbytes(self) -> int:
        """Approximate memory footprint of the index in bytes."""
        return self._bits.nbytes() + (len(self._roots) + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DEBI(columns={self.tree.num_columns}, rows={len(self._bits)})"


def _coalesce(indices: set[int]) -> list[tuple[int, int]]:
    """Turn a set of indexes into sorted half-open ``(start, stop)`` runs."""
    return coalesce_ranges(np.array(sorted(indices), dtype=np.int64))
