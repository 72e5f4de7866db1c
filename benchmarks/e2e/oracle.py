"""Brute-force reference matcher that trusts nothing under ``src/``.

Imports no ``repro`` module.  Given a stream as plain columns and a query
literal it (1) replays the stream semantics — insert, explicit delete of
one instance, or sliding-window expiry — down to the multiset of edges
live at the end, and (2) enumerates, from scratch by backtracking, every
injective label-preserving node mapping of the query into those edges.
The benchmark compares that set with the engine's *net* result: positive
embeddings not destroyed by a later negative one.
"""

from __future__ import annotations

from collections import Counter

NodeMap = tuple[tuple[int, int], ...]


def live_edges(
    table, stream_type: str, window: float | None = None, stride: float | None = None
) -> tuple[Counter, dict[int, int]]:
    """Edges live after the whole stream, as ``Counter[(src, dst, label)]``.

    Also returns each vertex's label as the inserting events stated it.
    ``table`` needs the columns kind/src/dst/label/timestamp/src_label/
    dst_label (kind 0 inserts, 1 deletes).
    """
    kind, src, dst, label, timestamp, src_label, dst_label = (
        column.tolist() if hasattr(column, "tolist") else list(column)
        for column in (
            table.kind, table.src, table.dst, table.label, table.timestamp,
            table.src_label, table.dst_label,
        )
    )
    vertex_label: dict[int, int] = {}
    live: Counter = Counter()
    if stream_type == "sliding_window":
        if not timestamp:
            return live, vertex_label
        # The window's upper edge after the last snapshot: boundaries advance
        # by `stride` from the first event, and the last event's stride closes.
        upper = timestamp[0] + stride
        while timestamp[-1] >= upper:
            upper += stride
        low = upper - window
        rows = [row for row in range(len(kind)) if timestamp[row] > low]
    else:
        rows = range(len(kind))
    for row in rows:
        triple = (src[row], dst[row], label[row])
        if kind[row] == 0:
            live[triple] += 1
            vertex_label[src[row]] = src_label[row]
            vertex_label[dst[row]] = dst_label[row]
        else:
            if stream_type != "insert_delete":
                raise ValueError(f"delete event in a {stream_type} stream")
            if live[triple] <= 0:
                raise ValueError(f"delete of an edge that is not live: {triple}")
            live[triple] -= 1
    return +live, vertex_label


def node_mappings(
    query: tuple[dict[int, int], list[tuple[int, int, int]]],
    live: Counter,
    vertex_label: dict[int, int],
) -> set[NodeMap]:
    """Every injective, label-preserving node mapping of ``query`` into ``live``."""
    node_labels, edges = query
    if len(set(edges)) != len(edges) or any(lb < 0 for _, _, lb in edges):
        raise ValueError("the oracle handles distinct, fully labelled query edges only")
    out: dict[tuple[int, int], set[int]] = {}
    inn: dict[tuple[int, int], set[int]] = {}
    for s, d, lb in live:
        out.setdefault((s, lb), set()).add(d)
        inn.setdefault((d, lb), set()).add(s)

    # Visit query nodes so that each after the first touches an earlier one.
    order = [max(node_labels, key=lambda n: sum(n in e[:2] for e in edges))]
    while len(order) < len(node_labels):
        order.append(next(
            n for n in node_labels
            if n not in order and any(
                (s == n and d in order) or (d == n and s in order) for s, d, _ in edges
            )
        ))
    # Per node: the query edges joining it to nodes placed before it.
    position = {node: i for i, node in enumerate(order)}
    back_edges = [
        [e for e in edges if node in e[:2] and position[e[0]] <= i and position[e[1]] <= i]
        for i, node in enumerate(order)
    ]

    found: set[NodeMap] = set()
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def place(i: int) -> None:
        if i == len(order):
            found.add(tuple(sorted(mapping.items())))
            return
        node = order[i]
        if i == 0:
            candidates = [v for v, lb in vertex_label.items() if lb == node_labels[node]]
        else:
            s, d, lb = back_edges[i][0]
            candidates = (
                out.get((mapping[s], lb), ()) if d == node else inn.get((mapping[d], lb), ())
            )
        for vertex in candidates:
            if vertex in used or vertex_label[vertex] != node_labels[node]:
                continue
            mapping[node] = vertex
            if all((mapping[s], mapping[d], lb) in live for s, d, lb in back_edges[i]):
                used.add(vertex)
                place(i + 1)
                used.discard(vertex)
            del mapping[node]

    place(0)
    return found
