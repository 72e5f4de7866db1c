"""The Mnemonic engine: Algorithm 1 of the paper.

:class:`MnemonicEngine` answers one continuous query over an edge stream:
snapshots from a :class:`~repro.streams.SnapshotGenerator` are applied as
batched insertions and deletions, DEBI is kept consistent through the
:class:`~repro.core.filtering.IndexManager`, and the newly formed /
destroyed embeddings are enumerated through the user's
:class:`~repro.core.api.MatchDefinition` in parallel.

It is a :class:`~repro.core.registry.MultiQueryEngine` — batch loop,
worker pool, journal and checkpoints — that registers
its query as id 0 when it is built.  The configuration and result shapes
both engines share are defined in :mod:`repro.core.registry` and
importable from here.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.api import MatchDefinition
from repro.core.registry import (
    EngineConfig,
    MultiQueryEngine,
    MultiSnapshotResult,
    RunResult,
    SnapshotResult,
)
from repro.core.results import Embeddings
from repro.graph.adjacency import DynamicGraph
from repro.query.query_graph import QueryGraph
from repro.streams.events import StreamEvent
from repro.streams.generator import Snapshot
from repro.streams.sources import StreamSource


def _query_zero(name: str) -> Any:
    return property(lambda self: getattr(self.runtime, name), doc=f"Query 0's ``{name}``.")


class MnemonicEngine(MultiQueryEngine):
    """A programmable, incremental subgraph matching engine for streaming graphs.

    A :class:`~repro.core.registry.MultiQueryEngine` with one standing
    query, registered as id 0 at construction.  :meth:`run` and
    :meth:`process_snapshot` (and so :meth:`batch_inserts` /
    :meth:`batch_deletes`) return that query's :class:`SnapshotResult`
    rows; its precomputation (tree, matching orders, masks, DEBI, index
    manager) is readable on the engine.
    """

    _kind = "single"

    def __init__(
        self,
        query: QueryGraph,
        match_def: MatchDefinition | None = None,
        config: EngineConfig | None = None,
        graph: DynamicGraph | None = None,
        root: int | None = None,
    ) -> None:
        # Reject a malformed query before the engine creates durable state.
        query.validate()
        super().__init__(config, graph=graph)
        try:
            # InitializeIndex: a pre-populated graph is indexed right here.
            self.register(query, match_def=match_def, root=root)
            # The persistent pool (process backend) is spawned now, once per
            # engine lifetime, so worker start-up is set-up cost and not part
            # of the first batch.
            self._ensure_pool()
        except BaseException:
            self.close()
            raise

    runtime = property(lambda self: self.registry.get(0).runtime, doc="Query 0's QueryRuntime.")
    query = _query_zero("query")
    match_def = _query_zero("match_def")
    tree = _query_zero("tree")
    orders = _query_zero("orders")
    masks = _query_zero("masks")
    debi = _query_zero("debi")
    index_manager = _query_zero("index_manager")
    query_state = _query_zero("query_state")

    # ------------------------------------------------------------------ main loop
    def run(  # type: ignore[override]  # query 0's rows, not the per-query map
        self, source: StreamSource | Sequence[StreamEvent]
    ) -> RunResult:
        """Process the whole stream and return per-snapshot results (Algorithm 1).

        See :meth:`~repro.core.registry.MultiQueryEngine.run` for the
        pipelined mode.
        """
        return RunResult([self._view(multi) for multi in super().run(source).snapshots])

    def process_snapshot(self, snapshot: Snapshot) -> SnapshotResult:  # type: ignore[override]
        """Apply one snapshot: insert batch first, then delete batch (serially)."""
        return self._view(super().process_snapshot(snapshot))

    def _view(self, multi: MultiSnapshotResult) -> SnapshotResult:
        """Query 0's row of a batch result, carrying the batch-level wall clocks.

        The registry's per-query rows report attributable busy time; a
        single-query engine's ``enumerate_seconds`` has always been the
        phase wall, and its ``graph_update_seconds`` the shared mutation
        time, so the figures built on them keep their meaning.
        """
        result = multi.per_query[0]
        result.graph_update_seconds = multi.graph_update_seconds
        result.enumerate_seconds = multi.enumerate_wall_seconds
        # The registry keeps each standing query's history for unregister()
        # to return; this engine never unregisters, so it must not let that
        # history grow with the stream.
        self.registry.get(0).run_result.snapshots.clear()
        return result

    # ------------------------------------------------------------------ maintenance / metrics
    def reset_index(self) -> None:
        """Periodic reset: rebuild DEBI from the current live graph."""
        self.index_manager.rebuild()

    def index_size_bits(self) -> int:
        """Size of DEBI in bits: |E| x (|V_Q| - 1) + |V| (the paper's formula)."""
        return self.graph.num_placeholders * max(self.tree.num_columns, 1) + self.graph.num_vertices

    def memory_report(self) -> dict[str, int]:
        """Footprint summary used by the memory experiments."""
        return {
            "live_edges": self.graph.num_edges,
            "edge_placeholders": self.graph.num_placeholders,
            "debi_bits_set": self.debi.total_bits_set(),
            "debi_bytes": self.debi.nbytes(),
            "recycled_inserts": self.graph.stats.recycled,
            **self.storage_counters(),
        }


# ---------------------------------------------------------------------- convenience
def enumerate_static(
    query: QueryGraph,
    edges: Iterable[StreamEvent | tuple],
    match_def: MatchDefinition | None = None,
    config: EngineConfig | None = None,
) -> Embeddings:
    """From-scratch enumeration of a static edge set (reference implementation).

    Inserting every edge as a single batch into a fresh engine enumerates
    every embedding exactly once; tests use this as the ground truth that
    incremental runs are compared against.
    """
    with MnemonicEngine(query, match_def=match_def, config=config) as engine:
        result = engine.batch_inserts(list(edges))
    return result.positive_embeddings
