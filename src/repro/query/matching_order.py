"""Per-start-edge matching orders.

Because an update batch can touch any query edge, enumeration may start
from *any* query edge (Section VI, "Matching order computation").  For a
start edge pinning query nodes ``{a, b}``, the order binds the remaining
query nodes so that every newly bound node is adjacent — in the query
tree — to an already-bound node:

1. the nodes on the path from the deeper pinned endpoint up to the root
   (this is the paper's "path from u to the root query node is placed
   first");
2. the rest of the query tree in BFS order.

Each :class:`ExtensionStep` also lists the *verification edges*: every
query edge (tree or non-tree) between the newly bound node and nodes
bound earlier, other than the tree edge used for the extension.  Those
are the constraints the kernel checks (or binds) with one witness lookup each.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.query_graph import WILDCARD_LABEL, QueryEdge, QueryGraph
from repro.query.query_tree import QueryTree
from repro.utils.validation import QueryError


@dataclass(frozen=True)
class ExtensionStep:
    """Bind one new query node from an already-bound anchor node."""

    #: query node being bound by this step
    node: int
    #: already-bound query node used to extend (tree parent or child of ``node``)
    anchor: int
    #: the query edge (always a tree edge) connecting anchor and node
    tree_edge_index: int
    #: True when ``anchor`` is the source of that query edge
    anchor_is_src: bool
    #: DEBI column to consult for candidate data edges
    debi_column: int | None
    #: other query edges between ``node`` and already-bound nodes to verify
    verify_edges: tuple[int, ...] = ()
    #: label of the tree edge (WILDCARD_LABEL when unconstrained); selects
    #: the adjacency partition the candidate pool is fetched from
    edge_label: int = WILDCARD_LABEL


@dataclass(frozen=True)
class MatchingOrder:
    """The full enumeration recipe for one starting query edge."""

    #: index of the query edge the work unit pins
    start_edge: int
    #: endpoints of the start edge (src, dst) in query-graph direction
    start_src: int
    start_dst: int
    #: query edges between the two start endpoints other than the start edge
    start_verify_edges: tuple[int, ...]
    #: node-binding steps for the remaining query nodes
    steps: tuple[ExtensionStep, ...]


def _order_remaining_nodes(tree: QueryTree, bound: set[int]) -> list[int]:
    """Order unbound query nodes: path-to-root first, then BFS order."""
    ordered: list[int] = []
    seen = set(bound)
    # Path from the deeper bound endpoint towards the root.
    deepest = max(bound, key=lambda u: tree.depth[u])
    for node in tree.path_to_root(deepest):
        if node not in seen:
            ordered.append(node)
            seen.add(node)
    # Remaining nodes in BFS order from the root.
    for node in tree.bfs_order:
        if node not in seen:
            ordered.append(node)
            seen.add(node)
    return ordered


def _step_for(tree: QueryTree, query: QueryGraph, node: int, bound: set[int]) -> ExtensionStep:
    """Build the extension step binding ``node`` from the bound set."""
    # The anchor is the tree neighbour (parent or one child) already bound.
    anchor: int | None = None
    tree_edge = None
    parent = tree.parent.get(node)
    if parent is not None and parent in bound:
        anchor = parent
        tree_edge = tree.tree_edge_by_child[node]
    else:
        for child in tree.children[node]:
            if child in bound:
                anchor = child
                tree_edge = tree.tree_edge_by_child[child]
                break
    if anchor is None or tree_edge is None:
        raise QueryError(
            f"matching order construction failed: node {node} has no bound tree neighbour"
        )
    qedge = tree_edge.query_edge
    anchor_is_src = qedge.src == anchor
    # The DEBI column consulted is the one owned by the tree edge itself
    # (i.e. by its child node), regardless of which endpoint is the anchor.
    debi_column = tree_edge.column
    verify = tuple(
        e.index
        for e in query.incident_edges(node)
        if e.index != qedge.index and (e.other(node) in bound or e.other(node) == node)
    )
    return ExtensionStep(
        node=node,
        anchor=anchor,
        tree_edge_index=qedge.index,
        anchor_is_src=anchor_is_src,
        debi_column=debi_column,
        verify_edges=verify,
        edge_label=qedge.label,
    )


def build_matching_order(query: QueryGraph, tree: QueryTree, start_edge: QueryEdge) -> MatchingOrder:
    """Compute the matching order for enumeration starting at ``start_edge``."""
    bound = {start_edge.src, start_edge.dst}
    # Every other query edge whose endpoints are both pinned by the start edge
    # (parallel edges, the reverse edge, and self-loops at either endpoint)
    # must be verified before any extension happens.
    start_verify_set = {
        e.index
        for node in bound
        for e in query.incident_edges(node)
        if e.index != start_edge.index and e.src in bound and e.dst in bound
    }
    start_verify = tuple(sorted(start_verify_set))
    steps: list[ExtensionStep] = []
    for node in _order_remaining_nodes(tree, bound):
        step = _step_for(tree, query, node, bound)
        steps.append(step)
        bound.add(node)
    return MatchingOrder(
        start_edge=start_edge.index,
        start_src=start_edge.src,
        start_dst=start_edge.dst,
        start_verify_edges=start_verify,
        steps=tuple(steps),
    )


def build_matching_orders(query: QueryGraph, tree: QueryTree) -> dict[int, MatchingOrder]:
    """Compute and cache one matching order per query edge (tree and non-tree)."""
    return {edge.index: build_matching_order(query, tree, edge) for edge in query.edges()}
