"""The benchmark's standing queries, frozen as literals.

Each was extracted once with ``repro.datasets.build_query_workload`` from
the default-seed stream of its dataset (or, for the sparse T_9, written by
hand over the rare protocol labels) and then checked in, so a change to
``repro/query/generator.py`` cannot silently change a workload.  The
streams keep their label profile under every seed (see
``workloads.SHAPE_SEED``), so every query has matches at every seed.

A query is ``(node_labels, edges)`` with edges as ``(src, dst, label)``.
No two edges of one query are identical, which the oracle relies on.
"""

from __future__ import annotations

_ONE_TYPE_3 = {n: 0 for n in range(3)}
_ONE_TYPE_6 = {n: 0 for n in range(6)}
_ONE_TYPE_9 = {n: 0 for n in range(9)}

QUERIES: dict[str, tuple[dict[int, int], list[tuple[int, int, int]]]] = {
    # netflow: one node type, protocol labels 0 (most common) .. 7 (rarest)
    "netflow_t6_dense": (
        _ONE_TYPE_6, [(0, 1, 5), (0, 2, 1), (3, 1, 0), (4, 3, 1), (1, 5, 1)],
    ),
    "netflow_t3": (_ONE_TYPE_3, [(0, 1, 1), (1, 2, 1)]),
    "netflow_t6_sparse": (
        _ONE_TYPE_6, [(0, 1, 2), (1, 2, 3), (3, 1, 4), (2, 4, 7), (4, 5, 5)],
    ),
    "netflow_t9": (
        _ONE_TYPE_9,
        [(0, 1, 4), (1, 2, 5), (2, 3, 6), (3, 4, 7), (4, 5, 4), (5, 6, 5), (6, 7, 6), (7, 8, 7)],
    ),
    "netflow_g6": (
        _ONE_TYPE_6, [(0, 1, 3), (2, 1, 3), (3, 0, 2), (1, 4, 6), (0, 5, 6), (1, 4, 1)],
    ),
    # lanl: six node types, three edge labels
    "lanl_t6_selective": (
        {0: 5, 1: 1, 2: 3, 3: 4, 4: 2, 5: 0},
        [(0, 1, 0), (0, 2, 2), (3, 1, 1), (4, 3, 1), (1, 5, 2)],
    ),
    # lsbench: one node type, 45 uniform edge labels
    "lsbench_t6": (
        _ONE_TYPE_6, [(0, 1, 7), (0, 2, 44), (2, 3, 22), (4, 3, 15), (4, 5, 32)],
    ),
}


def query_graph(name: str):
    """Build the named query as a ``repro.QueryGraph``."""
    from repro import QueryGraph

    node_labels, edges = QUERIES[name]
    return QueryGraph.from_edges(edges, node_labels=node_labels)
