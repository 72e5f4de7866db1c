"""Embedding results.

An *embedding* in Mnemonic maps every query node to a data vertex and —
because the data graph is a multigraph where edge instances carry
context — every query edge that was explicitly bound to a concrete data
edge id.  Deletion batches produce *negative* embeddings: matches that
existed before the batch and are destroyed by it.

The kernel produces embeddings as columns and they stay columns up to
the sink (``docs/architecture.md``, "Result blocks"): an
:class:`EmbeddingBlock` is one start-edge group's matches, and an
:class:`Embedding` record is built only for the caller that asks for one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import chain, groupby
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class Embedding:
    """One match of the query graph in the data graph.

    Attributes
    ----------
    node_map:
        ``query node -> data vertex`` mapping (all query nodes present).
    edge_map:
        ``query edge index -> data edge id`` for every query edge whose
        witness was explicitly bound (always all tree edges and the start
        edge; non-tree witnesses when witness enumeration is enabled).
    start_edge:
        The query edge index whose work unit produced this embedding.
    positive:
        True for embeddings created by insertions, False for embeddings
        destroyed by deletions.
    """

    node_map: tuple[tuple[int, int], ...]
    edge_map: tuple[tuple[int, int], ...]
    start_edge: int
    positive: bool = True

    @staticmethod
    def build(node_map: dict[int, int], edge_map: dict[int, int], start_edge: int,
              positive: bool = True) -> "Embedding":
        """Construct from mutable dicts (sorted for a canonical representation)."""
        return Embedding(
            node_map=tuple(sorted(node_map.items())),
            edge_map=tuple(sorted(edge_map.items())),
            start_edge=start_edge,
            positive=positive,
        )

    def nodes(self) -> dict[int, int]:
        return dict(self.node_map)

    def edges(self) -> dict[int, int]:
        return dict(self.edge_map)

    def vertex_of(self, query_node: int) -> int:
        return dict(self.node_map)[query_node]

    def identity(self) -> tuple:
        """Canonical identity used for duplicate detection (ignores start edge)."""
        return (self.node_map, self.edge_map, self.positive)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sign = "+" if self.positive else "-"
        return f"Embedding({sign}{dict(self.node_map)})"


@dataclass(frozen=True, eq=False)
class EmbeddingBlock:
    """The embeddings of one start-edge group, as columns.

    ``nodes[i, r]`` is the data vertex embedding ``r`` binds to query node
    ``node_slots[i]``, ``edges[j, r]`` the data edge it binds to query edge
    ``edge_slots[j]``; both slot tuples ascend.  The block owns its two
    int64 matrices; results, sinks and the pool's result queue share them.
    :attr:`signature` plus one :meth:`row_keys` entry is
    :meth:`Embedding.identity` (start edge left out) without the record.
    """

    start_edge: int
    positive: bool
    node_slots: tuple[int, ...]
    edge_slots: tuple[int, ...]
    nodes: np.ndarray
    edges: np.ndarray

    @property
    def signature(self) -> tuple:
        """What two blocks must share before their rows can be the same match."""
        return (self.positive, self.node_slots, self.edge_slots)

    def row_keys(self) -> list[bytes]:
        """One hashable key per embedding: its node row then its edge row, as bytes."""
        rows = np.ascontiguousarray(np.concatenate((self.nodes, self.edges)).T)
        return rows.view(f"V{rows.shape[1] * 8}").ravel().tolist() if rows.size else []

    def take(self, rows) -> "EmbeddingBlock":
        """The embeddings at ``rows`` (indices, in that order) as a new block."""
        return replace(self, nodes=self.nodes[:, rows], edges=self.edges[:, rows])

    def __len__(self) -> int:
        return int(self.nodes.shape[1])

    def __iter__(self) -> Iterator[Embedding]:
        for vertices, edge_ids in zip(self.nodes.T.tolist(), self.edges.T.tolist()):
            yield Embedding(
                tuple(zip(self.node_slots, vertices)), tuple(zip(self.edge_slots, edge_ids)),
                self.start_edge, self.positive,
            )


def _slots(embedding: Embedding) -> tuple:
    """``(start edge, sign, node slots, edge slots)``: what one block's records share."""
    return (embedding.start_edge, embedding.positive,
            tuple(q for q, _ in embedding.node_map), tuple(q for q, _ in embedding.edge_map))


class Embeddings(Sequence):
    """A sequence of embeddings held as :class:`EmbeddingBlock` columns.

    Reads like the list of :class:`Embedding` records it replaces — ``len``,
    iteration, indexing, ``+`` and ``==`` against a list — and builds a record
    only when one of those hands it out; ``blocks`` is the columnar view.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[EmbeddingBlock] = ()) -> None:
        self.blocks: list[EmbeddingBlock] = list(blocks)

    @staticmethod
    def of(embeddings: Iterable[Embedding]) -> "Embeddings":
        """Records as blocks: one per run that shares start edge, sign and slots."""
        found = Embeddings()
        for slots, run in groupby(embeddings, key=_slots):
            rows = np.array([[v for _, v in e.node_map + e.edge_map] for e in run], dtype=np.int64)
            columns = rows.reshape(len(rows), len(slots[2]) + len(slots[3])).T
            found.blocks.append(
                EmbeddingBlock(*slots, columns[: len(slots[2])], columns[len(slots[2]):])
            )
        return found

    def extend(self, other: "Embeddings") -> None:
        """Append ``other``'s blocks (the arrays are shared, not copied)."""
        self.blocks.extend(other.blocks)

    def identities(self) -> list[tuple]:
        """Per embedding, in order: ``(signature, row key)``, equal when ``identity()`` is."""
        return [(block.signature, key) for block in self.blocks for key in block.row_keys()]

    def minus(self, destroyed: "Embeddings") -> "Embeddings":
        """The embeddings whose node and edge mapping (sign aside) ``destroyed`` does not hold."""
        gone: dict[tuple, set[bytes]] = {}
        for block in destroyed.blocks:
            gone.setdefault(block.signature[1:], set()).update(block.row_keys())
        kept = Embeddings()
        for block in self.blocks:
            lost = gone.get(block.signature[1:])
            if lost:
                block = block.take([r for r, key in enumerate(block.row_keys()) if key not in lost])
            kept.blocks.append(block)
        return kept

    def __len__(self) -> int:
        return sum(map(len, self.blocks))

    def __iter__(self) -> Iterator[Embedding]:
        return chain.from_iterable(self.blocks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        position = index + len(self) if index < 0 else index
        for block in self.blocks:
            if 0 <= position < len(block):
                return next(iter(block.take([position])))
            position -= len(block)
        raise IndexError(index)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Embeddings, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other):
        if isinstance(other, Embeddings):
            return Embeddings(self.blocks + other.blocks)
        return list(self) + list(other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Embeddings({len(self)} in {len(self.blocks)} blocks)"


class ResultSet:
    """A container of embeddings with duplicate detection and summary stats.

    Deduplication is eager and on rows: one set operation per block, a
    row-by-row walk only for a block that does repeat something.  A block
    without repeats is kept as it came, so sink and run result share arrays.
    """

    def __init__(self) -> None:
        #: the distinct embeddings, in arrival order
        self.embeddings = Embeddings()
        #: block signature -> row keys held under it
        self._identities: dict[tuple, set[bytes]] = {}
        self.duplicates_rejected = 0

    def add(self, embedding: Embedding) -> bool:
        """Add ``embedding``; return False (and count it) if it is a duplicate."""
        return self.extend((embedding,)) == 1

    def extend(self, embeddings: Iterable[Embedding]) -> int:
        """Add many embeddings; return how many were new."""
        if not isinstance(embeddings, Embeddings):
            embeddings = Embeddings.of(embeddings)
        return sum(self._add_block(block) for block in embeddings.blocks)

    def _add_block(self, block: EmbeddingBlock) -> int:
        keys = block.row_keys()
        held = self._identities.setdefault(block.signature, set())
        fresh = set(keys)
        if len(fresh) == len(keys) and held.isdisjoint(fresh):
            held |= fresh
        else:
            rows = []
            for row, key in enumerate(keys):
                if key not in held:
                    held.add(key)
                    rows.append(row)
            self.duplicates_rejected += len(keys) - len(rows)
            block = block.take(rows)
        if len(block):
            self.embeddings.blocks.append(block)
        return len(block)

    def positives(self) -> Embeddings:
        return Embeddings(b for b in self.embeddings.blocks if b.positive)

    def negatives(self) -> Embeddings:
        return Embeddings(b for b in self.embeddings.blocks if not b.positive)

    def node_mappings(self) -> set[tuple[tuple[int, int], ...]]:
        """Distinct node mappings (useful when comparing against baselines)."""
        return {e.node_map for e in self.embeddings}

    def __iter__(self) -> Iterator[Embedding]:
        return iter(self.embeddings)

    def __len__(self) -> int:
        return len(self.embeddings)

    def __contains__(self, embedding: Embedding) -> bool:
        [block] = Embeddings.of((embedding,)).blocks
        return block.row_keys()[0] in self._identities.get(block.signature, ())


class CollectingSink:
    """A result sink for standing queries: per-query :class:`ResultSet` routing.

    The multi-query engine calls registered sinks with
    ``(query_id, SnapshotResult)`` after every snapshot; this default
    implementation files the positive and negative embeddings of each
    query into its own deduplicating :class:`ResultSet`.  Use it when a
    service wants the matches, not the per-snapshot timing breakdown::

        sink = CollectingSink()
        engine.register(query_a, sink=sink)
        engine.register(query_b, sink=sink)
        engine.run(stream)
        matches = sink.results  # query_id -> ResultSet
    """

    def __init__(self) -> None:
        self.results: dict[int, ResultSet] = {}
        #: snapshots seen per query (sinks fire even on empty snapshots)
        self.snapshots_seen: dict[int, int] = {}

    def __call__(self, query_id: int, snapshot_result) -> None:
        result_set = self.results.setdefault(query_id, ResultSet())
        self.snapshots_seen[query_id] = self.snapshots_seen.get(query_id, 0) + 1
        result_set.extend(snapshot_result.positive_embeddings)
        result_set.extend(snapshot_result.negative_embeddings)
