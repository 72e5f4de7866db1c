"""Result handling one ``Embedding`` at a time — what the block forms are held to.

``ReferenceResultSet`` is the result set as it stood while results were
lists of records: one ``identity()`` tuple and one set probe per
embedding.  The three ``RunResult`` reductions are kept the same way.
The product does all of it on rows of :class:`EmbeddingBlock` columns;
the tests require the same members, in the same order, with the same
``duplicates_rejected``.
"""

from __future__ import annotations

from repro.core.results import Embedding


class ReferenceResultSet:
    def __init__(self) -> None:
        self.embeddings: list[Embedding] = []
        self._identities: set[tuple] = set()
        self.duplicates_rejected = 0

    def add(self, embedding: Embedding) -> bool:
        key = embedding.identity()
        if key in self._identities:
            self.duplicates_rejected += 1
            return False
        self._identities.add(key)
        self.embeddings.append(embedding)
        return True

    def extend(self, embeddings) -> int:
        return sum(1 for e in embeddings if self.add(e))

    def __contains__(self, embedding: Embedding) -> bool:
        return embedding.identity() in self._identities


def all_positive(run_result) -> list[Embedding]:
    return [e for s in run_result.snapshots for e in s.positive_embeddings]


def all_negative(run_result) -> list[Embedding]:
    return [e for s in run_result.snapshots for e in s.negative_embeddings]


def net_result_set(run_result) -> ReferenceResultSet:
    """Positive embeddings minus the ones later destroyed (by node/edge identity)."""
    destroyed = {(e.node_map, e.edge_map) for e in all_negative(run_result)}
    net = ReferenceResultSet()
    for e in all_positive(run_result):
        if (e.node_map, e.edge_map) not in destroyed:
            net.add(e)
    return net
