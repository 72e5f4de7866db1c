"""TurboFlux-style incremental matcher (data-centric, edge-at-a-time).

TurboFlux (Kim et al., SIGMOD'18) pioneered data-graph-centric
incremental subgraph matching.  The reproduction models the three
properties the paper contrasts Mnemonic against (Section I and IV):

1. **Collapsed multi-edges** — all edge instances between the same
   endpoints with the same label are one entry (a count) in its graph
   view, so repeated events do not trigger re-enumeration and the
   temporal context of individual instances is lost.
2. **Strictly per-edge processing** — every inserted/deleted edge is
   processed on its own: the affected region of the vertex-state index
   is re-traversed for each edge, with no sharing across a batch.
3. **Sequential pipeline** — updates and enumeration are interleaved
   per edge; there is no batch-level work decomposition to parallelise.

The vertex-state index mirrors the DCG idea: for every data vertex and
every non-root query node we keep a boolean *candidate state* meaning
"the subtree of the query rooted at this node can be matched starting at
this vertex"; the root has its own state.  States are recomputed locally
(bottom-up from the touched vertices) on every single edge update, and
new embeddings containing the updated edge are enumerated immediately.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.core.api import DefaultMatchDefinition, MatchDefinition
from repro.core.results import Embedding
from repro.query.query_graph import WILDCARD_LABEL, QueryEdge, QueryGraph
from repro.query.query_tree import QueryTree
from repro.utils.validation import GraphError


@dataclass
class TurboFluxStats:
    """Work counters used by the Figure 6/8/9 comparisons."""

    edges_processed: int = 0
    state_recomputations: int = 0
    traversed_edges: int = 0
    embeddings: int = 0
    suppressed_duplicates: int = 0


@dataclass
class _CollapsedEdge:
    """One (src, dst, label) entry of the collapsed simple-graph view."""

    src: int
    dst: int
    label: int
    count: int = 1


class TurboFluxMatcher:
    """Incremental isomorphism/homomorphism matching, one edge at a time."""

    def __init__(self, query: QueryGraph, match_def: MatchDefinition | None = None,
                 root: int | None = None) -> None:
        query.validate()
        self.query = query
        self.match_def = match_def or DefaultMatchDefinition()
        self.tree = QueryTree(query, root=root)
        self.stats = TurboFluxStats()

        # Collapsed graph view: (src, dst, label) -> _CollapsedEdge
        self._edges: dict[tuple[int, int, int], _CollapsedEdge] = {}
        self._out: dict[int, set[tuple[int, int, int]]] = defaultdict(set)
        self._in: dict[int, set[tuple[int, int, int]]] = defaultdict(set)
        self._vertex_labels: dict[int, int] = {}

        # Candidate states: query node -> set of data vertices whose
        # downward subtree requirement is satisfied.
        self._state: dict[int, set[int]] = {u: set() for u in query.nodes()}

    # ------------------------------------------------------------------ collapsed graph
    def _add_vertex(self, vertex: int, label: int) -> None:
        if vertex not in self._vertex_labels:
            self._vertex_labels[vertex] = label

    def vertex_label(self, vertex: int) -> int:
        return self._vertex_labels.get(vertex, 0)

    def _out_keys(self, vertex: int) -> set[tuple[int, int, int]]:
        return self._out.get(vertex, set())

    def _in_keys(self, vertex: int) -> set[tuple[int, int, int]]:
        return self._in.get(vertex, set())

    # ------------------------------------------------------------------ label matching on the collapsed view
    def _node_label_ok(self, query_node: int, vertex: int) -> bool:
        label = self.query.node_label(query_node)
        return label == WILDCARD_LABEL or label == self.vertex_label(vertex)

    def _edge_label_ok(self, q_edge: QueryEdge, key: tuple[int, int, int]) -> bool:
        return q_edge.label == WILDCARD_LABEL or q_edge.label == key[2]

    def _collapsed_edge_matches(self, q_edge: QueryEdge, key: tuple[int, int, int]) -> bool:
        src, dst, _ = key
        return (
            self._edge_label_ok(q_edge, key)
            and self._node_label_ok(q_edge.src, src)
            and self._node_label_ok(q_edge.dst, dst)
        )

    # ------------------------------------------------------------------ candidate states
    def _down_ok(self, vertex: int, query_node: int) -> bool:
        for child in self.tree.children[query_node]:
            tree_edge = self.tree.tree_edge_by_child[child]
            q_edge = tree_edge.query_edge
            pool = self._out_keys(vertex) if q_edge.src == query_node else self._in_keys(vertex)
            ok = False
            for key in pool:
                self.stats.traversed_edges += 1
                other = key[1] if q_edge.src == query_node else key[0]
                if self._collapsed_edge_matches(q_edge, key) and other in self._state[child]:
                    ok = True
                    break
            if not ok:
                return False
        return True

    def _recompute_state(self, vertex: int, query_node: int) -> bool:
        """Recompute one (vertex, query node) state; return True when it changed."""
        self.stats.state_recomputations += 1
        should = self._node_label_ok(query_node, vertex) and self._down_ok(vertex, query_node)
        present = vertex in self._state[query_node]
        if should and not present:
            self._state[query_node].add(vertex)
            return True
        if not should and present:
            self._state[query_node].remove(vertex)
            return True
        return False

    def _propagate_from(self, src: int, dst: int) -> None:
        """Per-edge upward propagation of candidate states (no batch sharing)."""
        # Start from the deepest query nodes and walk to the root, rechecking
        # both endpoints of the updated edge and any vertex whose state change
        # may cascade to its in/out neighbours along the query tree.
        dirty: set[tuple[int, int]] = set()
        for query_node in sorted(self.query.nodes(), key=lambda u: -self.tree.depth[u]):
            for vertex in (src, dst):
                dirty.add((vertex, query_node))
        # Fixed-point per edge (the region is small but re-walked per edge).
        pending = sorted(dirty, key=lambda item: -self.tree.depth[item[1]])
        while pending:
            vertex, query_node = pending.pop(0)
            changed = self._recompute_state(vertex, query_node)
            if not changed:
                continue
            parent = self.tree.parent.get(query_node)
            if parent is None:
                continue
            tree_edge = self.tree.tree_edge_by_child[query_node]
            q_edge = tree_edge.query_edge
            # Vertices that could match the parent node through this child.
            pool = self._in_keys(vertex) if q_edge.src == parent else self._out_keys(vertex)
            for key in pool:
                self.stats.traversed_edges += 1
                neighbour = key[0] if q_edge.src == parent else key[1]
                pending.append((neighbour, parent))

    # ------------------------------------------------------------------ public streaming API
    def insert_edge(self, src: int, dst: int, label: int = 0,
                    src_label: int = 0, dst_label: int = 0) -> list[Embedding]:
        """Insert one edge and return the embeddings it creates.

        Repeated insertions of an existing (src, dst, label) triple only
        bump the multiplicity counter: TurboFlux's collapsed view cannot
        distinguish the new instance, so no new embeddings are reported
        (``stats.suppressed_duplicates`` counts these events).
        """
        self.stats.edges_processed += 1
        self._add_vertex(src, src_label)
        self._add_vertex(dst, dst_label)
        key = (src, dst, label)
        existing = self._edges.get(key)
        if existing is not None:
            existing.count += 1
            self.stats.suppressed_duplicates += 1
            return []
        self._edges[key] = _CollapsedEdge(src, dst, label)
        self._out[src].add(key)
        self._in[dst].add(key)
        self._propagate_from(src, dst)
        embeddings = self._enumerate_containing(key, positive=True)
        self.stats.embeddings += len(embeddings)
        return embeddings

    def delete_edge(self, src: int, dst: int, label: int = 0) -> list[Embedding]:
        """Delete one edge instance and return the embeddings it destroys."""
        self.stats.edges_processed += 1
        key = (src, dst, label)
        existing = self._edges.get(key)
        if existing is None:
            raise GraphError(f"TurboFlux: no edge {key} to delete")
        if existing.count > 1:
            existing.count -= 1
            self.stats.suppressed_duplicates += 1
            return []
        # Enumerate the embeddings that are about to disappear, then remove.
        embeddings = self._enumerate_containing(key, positive=False)
        del self._edges[key]
        self._out[src].discard(key)
        self._in[dst].discard(key)
        self._propagate_from(src, dst)
        self.stats.embeddings += len(embeddings)
        return embeddings

    def load_edge(self, src: int, dst: int, label: int = 0,
                  src_label: int = 0, dst_label: int = 0) -> None:
        """Insert one edge *without* enumerating (initial-graph loading).

        Mirrors the Mnemonic engine's ``load_initial``: the collapsed graph
        and the candidate states are updated, but pre-existing matches are
        not reported.
        """
        self._add_vertex(src, src_label)
        self._add_vertex(dst, dst_label)
        key = (src, dst, label)
        existing = self._edges.get(key)
        if existing is not None:
            existing.count += 1
            return
        self._edges[key] = _CollapsedEdge(src, dst, label)
        self._out[src].add(key)
        self._in[dst].add(key)
        self._propagate_from(src, dst)

    def insert_batch(self, triples) -> list[Embedding]:
        """Convenience: process many (src, dst, label[, src_label, dst_label]) sequentially."""
        out: list[Embedding] = []
        for item in triples:
            out.extend(self.insert_edge(*item))
        return out

    # ------------------------------------------------------------------ enumeration
    def _enumerate_containing(self, key: tuple[int, int, int], positive: bool) -> list[Embedding]:
        """Backtracking enumeration of embeddings that use the collapsed edge ``key``."""
        results: list[Embedding] = []
        src, dst, _ = key
        for q_edge in self.query.edges():
            if not self._collapsed_edge_matches(q_edge, key):
                continue
            node_map = {q_edge.src: src}
            if q_edge.dst in node_map and node_map[q_edge.dst] != dst:
                continue
            node_map[q_edge.dst] = dst
            if self.match_def.injective and q_edge.src != q_edge.dst and src == dst:
                continue
            remaining = [u for u in self.query.nodes() if u not in node_map]
            self._extend(q_edge.index, key, remaining, node_map, {q_edge.index: key}, results, positive)
        # The same node mapping can be rediscovered when the updated edge
        # matches several query edges.  The collapsed view carries no edge
        # identity, so embeddings are node-level and deduplicated as such.
        unique: dict[tuple, Embedding] = {}
        for embedding in results:
            unique.setdefault(embedding.node_map, embedding)
        return list(unique.values())

    def _extend(self, start_edge: int, start_key, remaining: list[int], node_map: dict[int, int],
                edge_map: dict[int, tuple[int, int, int]], results: list[Embedding],
                positive: bool) -> None:
        if not remaining:
            if self._verify_all_edges(node_map, edge_map, start_edge, start_key):
                # Collapsed keys have no stable integer id; hash them for the record.
                encoded = {qi: hash(k) & 0x7FFFFFFF for qi, k in edge_map.items()}
                results.append(Embedding.build(node_map, encoded, start_edge, positive=positive))
            return
        # Pick the next query node adjacent (in the query) to a bound node.
        next_node = None
        for u in remaining:
            if any(e.other(u) in node_map for e in self.query.incident_edges(u)):
                next_node = u
                break
        if next_node is None:
            return
        anchor_edge = next(
            e for e in self.query.incident_edges(next_node) if e.other(next_node) in node_map
        )
        anchor_vertex = node_map[anchor_edge.other(next_node)]
        anchor_is_src = anchor_edge.src != next_node
        pool = self._out_keys(anchor_vertex) if anchor_is_src else self._in_keys(anchor_vertex)
        for cand_key in pool:
            self.stats.traversed_edges += 1
            if not self._collapsed_edge_matches(anchor_edge, cand_key):
                continue
            vertex = cand_key[1] if anchor_is_src else cand_key[0]
            if self.match_def.injective and vertex in node_map.values():
                continue
            # Candidate-state pruning (the data-centric index).
            if next_node != self.tree.root and vertex not in self._state[next_node]:
                continue
            if next_node == self.tree.root and not (
                self._node_label_ok(next_node, vertex) and self._down_ok(vertex, next_node)
            ):
                continue
            node_map[next_node] = vertex
            edge_map[anchor_edge.index] = cand_key
            self._extend(start_edge, start_key, [u for u in remaining if u != next_node],
                         node_map, edge_map, results, positive)
            del node_map[next_node]
            del edge_map[anchor_edge.index]

    def _verify_all_edges(self, node_map: dict[int, int], edge_map: dict, start_edge: int,
                          start_key) -> bool:
        """Every query edge must have a matching collapsed edge between its images.

        Embeddings must contain the updated edge (``start_key``) so that an
        embedding is reported exactly once over an insert-only stream (only
        when its last edge arrives).
        """
        uses_new = False
        for q_edge in self.query.edges():
            vs, vd = node_map[q_edge.src], node_map[q_edge.dst]
            found = None
            for key in self._out_keys(vs):
                if key[1] == vd and self._collapsed_edge_matches(q_edge, key):
                    found = key
                    break
            if found is None:
                return False
            if found == start_key:
                uses_new = True
        return uses_new

    # ------------------------------------------------------------------ introspection
    def state_size(self) -> int:
        """Total number of (vertex, query node) candidate states currently set."""
        return sum(len(vertices) for vertices in self._state.values())
