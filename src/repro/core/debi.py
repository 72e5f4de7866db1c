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
vectorized write per call.
"""

from __future__ import annotations

import numpy as np

from repro.query.query_tree import QueryTree
from repro.utils.bitset import BitMatrix, BitVector


class DEBI:
    """Bitmap candidate index addressed by data edge id and query-tree column."""

    def __init__(self, tree: QueryTree, initial_edges: int = 1024, initial_vertices: int = 1024) -> None:
        self.tree = tree
        # A single-node query has no tree edges; keep a 1-column matrix so the
        # data structure stays well-formed (the column is simply never used).
        self._bits = BitMatrix(width=max(tree.num_columns, 1), initial_rows=initial_edges)
        self._roots = BitVector(initial_capacity=initial_vertices)

    # ------------------------------------------------------------------ edge bits
    def set(self, edge_id: int, column: int) -> None:
        """Mark the data edge as a candidate for the query-tree edge of ``column``."""
        self._bits.set(edge_id, column)

    def clear(self, edge_id: int, column: int) -> None:
        self._bits.clear(edge_id, column)

    def get(self, edge_id: int, column: int) -> bool:
        return self._bits.get(edge_id, column)

    def row(self, edge_id: int) -> int:
        """The full bitmap of ``edge_id`` as an integer mask."""
        return self._bits.get_row(edge_id)

    def clear_edge(self, edge_id: int) -> None:
        """Drop every candidate bit of ``edge_id`` (edge deleted / id recycled)."""
        self._bits.clear_row(edge_id)

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

    def clear_edges(self, edge_ids) -> None:
        """Clear the full bitmap of every id in the array (bulk clear_edge)."""
        ids = np.asarray(edge_ids, dtype=np.int64)
        if ids.shape[0] == 0:
            return
        self._bits.clear_rows(ids)

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

    def clear_root(self, vertex: int) -> None:
        self._roots.clear(vertex)

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
        return debi

    # ------------------------------------------------------------------ durability
    def move_to_disk(self, path) -> None:
        """Move the rows into a file-backed :class:`BitMatrix` at ``path``.

        The replacement happens in place (``self._bits`` is reassigned),
        so every holder of this DEBI — ``IndexManager``, enumeration
        contexts, the snapshot writer, the native kernel — keeps working
        on the same layout.  Existing content is carried over.
        """
        on_disk = BitMatrix(self._bits.width, path=path)
        on_disk.load_words(*self._bits.export_words())
        self._bits = on_disk

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

    def spill_stats(self) -> dict | None:
        """The rows held in the DEBI file and its size, or None when the rows are on the heap."""
        if self._bits.path is None:
            return None
        return {
            "spilled_rows": len(self._bits),
            "debi_disk_bytes": self._bits.path.stat().st_size,
        }

    # ------------------------------------------------------------------ bulk
    def reset(self) -> None:
        """Periodic reset: drop every bit (the paper's index rebuild point)."""
        self._bits.clear_all()
        self._roots.clear_all()

    def total_bits_set(self) -> int:
        return self._bits.count() + self._roots.count()

    def nbytes(self) -> int:
        """Approximate memory footprint of the index in bytes."""
        return self._bits.nbytes() + (len(self._roots) + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DEBI(columns={self.tree.num_columns}, rows={len(self._bits)})"

