"""Random query workload generation.

The paper follows TurboFlux's methodology: queries are extracted from
the data graph itself (so every query has at least one embedding), in
two families —

* **tree queries** ``T_k``: acyclic patterns with ``k`` nodes;
* **graph queries** ``G_k``: cyclic patterns with ``k`` nodes obtained by
  adding one or more existing data edges between already-selected nodes.

For the LANL temporal experiments, query edges additionally carry a
``time_rank`` derived from the timestamps of the underlying data edges,
so that time-constrained isomorphism has a meaningful ordering to
enforce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.adjacency import DynamicGraph
from repro.query.query_graph import QueryGraph
from repro.utils.rng import make_rng
from repro.utils.validation import QueryError, check_positive


@dataclass
class QueryWorkload:
    """A named collection of query suites, e.g. ``{"T_3": [...], "G_6": [...]}``."""

    suites: dict[str, list[QueryGraph]] = field(default_factory=dict)

    def add(self, suite: str, query: QueryGraph) -> None:
        self.suites.setdefault(suite, []).append(query)

    def queries(self, suite: str) -> list[QueryGraph]:
        return self.suites.get(suite, [])

    def suite_names(self) -> list[str]:
        return list(self.suites)

    def __iter__(self):
        for suite, queries in self.suites.items():
            for query in queries:
                yield suite, query

    def total(self) -> int:
        return sum(len(qs) for qs in self.suites.values())


class QueryGenerator:
    """Extract random tree / cyclic queries from a data graph."""

    def __init__(self, graph: DynamicGraph, seed: int | np.random.Generator = 0) -> None:
        if graph.num_edges == 0:
            raise QueryError("cannot extract queries from an empty data graph")
        self.graph = graph
        self.rng = make_rng(seed)
        self._live_edge_ids = [e.edge_id for e in graph.edges()]

    # ------------------------------------------------------------------ single queries
    def tree_query(
        self,
        num_nodes: int,
        with_timestamps: bool = False,
        max_attempts: int = 200,
    ) -> QueryGraph:
        """Extract an acyclic query with ``num_nodes`` nodes."""
        check_positive(num_nodes, "num_nodes")
        if num_nodes < 2:
            raise QueryError("queries need at least 2 nodes")
        for _ in range(max_attempts):
            sample = self._grow_tree(num_nodes)
            if sample is not None:
                return self._to_query_graph(sample, extra_edges=0,
                                            with_timestamps=with_timestamps)
        raise QueryError(
            f"failed to extract a tree query of size {num_nodes} after {max_attempts} attempts; "
            "the data graph may be too small or too disconnected"
        )

    def graph_query(
        self,
        num_nodes: int,
        extra_edges: int = 1,
        with_timestamps: bool = False,
        max_attempts: int = 200,
    ) -> QueryGraph:
        """Extract a cyclic query: a tree core plus ``extra_edges`` closing edges."""
        check_positive(num_nodes, "num_nodes")
        check_positive(extra_edges, "extra_edges")
        for _ in range(max_attempts):
            sample = self._grow_tree(num_nodes)
            if sample is None:
                continue
            query = self._to_query_graph(sample, extra_edges=extra_edges,
                                         with_timestamps=with_timestamps)
            if query.num_edges > query.num_nodes - 1:
                return query
        raise QueryError(
            f"failed to extract a cyclic query of size {num_nodes} after {max_attempts} attempts; "
            "no closing edges found among the sampled vertices"
        )

    # ------------------------------------------------------------------ workloads
    def workload(
        self,
        tree_sizes: tuple[int, ...] = (3, 6, 9, 12),
        graph_sizes: tuple[int, ...] = (6, 9, 12),
        queries_per_suite: int = 5,
        with_timestamps: bool = False,
    ) -> QueryWorkload:
        """Build the paper's T_k / G_k workload (sizes and counts configurable)."""
        check_positive(queries_per_suite, "queries_per_suite")
        workload = QueryWorkload()
        for size in tree_sizes:
            for _ in range(queries_per_suite):
                workload.add(f"T_{size}", self.tree_query(size, with_timestamps))
        for size in graph_sizes:
            for _ in range(queries_per_suite):
                workload.add(f"G_{size}", self.graph_query(size, with_timestamps=with_timestamps))
        return workload

    # ------------------------------------------------------------------ internals
    def _grow_tree(self, num_nodes: int) -> dict | None:
        """Grow a random connected acyclic vertex sample; return its edges."""
        graph = self.graph
        start_eid = int(self._live_edge_ids[self.rng.integers(len(self._live_edge_ids))])
        start = graph.edge(start_eid)
        vertices = [start.src, start.dst]
        vertex_set = {start.src, start.dst}
        if start.src == start.dst:
            return None  # self-loop seeds do not grow trees
        tree_edges = [start]
        frontier = [start.src, start.dst]
        while len(vertex_set) < num_nodes and frontier:
            pivot = frontier[int(self.rng.integers(len(frontier)))]
            # Sorted: the sample must not depend on pool-internal order,
            # which the graph store is free to choose.
            candidates = [
                eid for eid in sorted(graph.out_edges(pivot)) + sorted(graph.in_edges(pivot))
                if (graph.edge(eid).src not in vertex_set) != (graph.edge(eid).dst not in vertex_set)
            ]
            if not candidates:
                frontier.remove(pivot)
                continue
            eid = int(candidates[int(self.rng.integers(len(candidates)))])
            record = graph.edge(eid)
            new_vertex = record.dst if record.src in vertex_set else record.src
            vertex_set.add(new_vertex)
            vertices.append(new_vertex)
            frontier.append(new_vertex)
            tree_edges.append(record)
        if len(vertex_set) < num_nodes:
            return None
        return {"vertices": vertices, "tree_edges": tree_edges}

    def _to_query_graph(self, sample: dict, extra_edges: int, with_timestamps: bool) -> QueryGraph:
        graph = self.graph
        vertices: list[int] = sample["vertices"]
        mapping = {v: i for i, v in enumerate(vertices)}
        vertex_set = set(vertices)

        chosen: list = list(sample["tree_edges"])
        if extra_edges > 0:
            used_ids = {e.edge_id for e in chosen}
            closing: list = []
            for v in vertices:
                for eid in sorted(graph.out_edges(v)):
                    record = graph.edge(eid)
                    if record.dst in vertex_set and record.edge_id not in used_ids:
                        closing.append(record)
            self.rng.shuffle(closing)
            chosen.extend(closing[:extra_edges])

        if with_timestamps:
            ranked = sorted(chosen, key=lambda r: (r.timestamp, r.edge_id))
            ranks = {r.edge_id: rank for rank, r in enumerate(ranked)}
        else:
            ranks = {}

        query = QueryGraph()
        for v in vertices:
            query.add_node(mapping[v], graph.vertex_label(v))
        for record in chosen:
            query.add_edge(
                mapping[record.src],
                mapping[record.dst],
                record.label,
                time_rank=ranks.get(record.edge_id),
            )
        query.validate()
        return query
