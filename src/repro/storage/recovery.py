"""Journal replay: re-apply sealed epochs in pipeline mutation order.

Replay is mutation-only — no enumeration runs, no results are produced.
It re-executes exactly the graph/DEBI updates that
:class:`repro.core.pipeline.BatchPipeline` performed for each sealed
epoch, in the same order:

1. insert phase: one ``graph.apply_insert_columns`` for the batch, then
   one ``index_manager.handle_insert_columns`` per registered query;
2. delete phase: ``resolve_deletions`` picks the doomed edge ids, every
   query notes which of them hold which DEBI bit *before* the graph
   delete, then the graph delete, DEBI row clears, and finally one
   ``index_manager.handle_deletions`` per query.

Determinism hinges on two properties proven by the recovery suite: edge
ids are allocated from the pickled free-id stacks (checkpointed with the
graph), so replayed inserts receive the ids the original run used; and
``resolve_deletions`` breaks ties deterministically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.registry import QueryRuntime
    from repro.graph.adjacency import DynamicGraph
    from repro.streams.events import EventColumns


def replay_insertions(
    graph: "DynamicGraph", slots: dict[int, "QueryRuntime"], insertions: "EventColumns | None"
) -> None:
    """Insert phase of one epoch (also ``load_initial`` and its INITIAL record)."""
    if not insertions:
        return
    new_ids = graph.apply_insert_columns(
        insertions.src, insertions.dst, insertions.label, insertions.timestamp,
        insertions.src_label, insertions.dst_label,
    )
    for runtime in slots.values():
        runtime.index_manager.handle_insert_columns(
            new_ids, insertions.src, insertions.dst, insertions.label
        )


def replay_epoch(
    graph: "DynamicGraph",
    slots: dict[int, "QueryRuntime"],
    insertions: "EventColumns | None",
    deletions: "EventColumns | None",
) -> None:
    """Re-apply one sealed epoch's mutations to graph + every query's DEBI."""
    from repro.core.registry import resolve_deletions

    replay_insertions(graph, slots, insertions)
    if deletions:
        doomed = resolve_deletions(graph, deletions)
        held = {qid: runtime.index_manager.held_bits(doomed) for qid, runtime in slots.items()}
        deleted = graph.apply_delete_columns(doomed)
        for qid, runtime in slots.items():
            runtime.debi.clear_edges(doomed)
            runtime.index_manager.handle_deletions(deleted, held[qid])
