#!/usr/bin/env python
"""Monitoring a social-activity stream with a custom match definition.

This example shows the programmability story of the paper (Section III):
a user only writes a small ``MatchDefinition`` to get a new matching
semantics, while snapshotting, DEBI maintenance, masking and parallel
enumeration stay in the engine.

Scenario: an LSBench-like activity stream (insertions plus explicit
deletions).  We look for "engagement triangles" — user A interacts with
B, B with C, and C back with A — but we only care about *recent, heavy*
interactions, so the custom matcher restricts candidate edges to a set
of "engagement" activity types and the enumerator definition stays the
standard homomorphism.  Positive and negative (retracted) matches are
reported per batch.

Run with::

    python examples/social_network_monitoring.py
"""

from repro import EngineConfig, MnemonicEngine, QueryGraph, StreamConfig
from repro.core.api import MatchDefinition, default_edge_matcher
from repro.datasets import LSBenchConfig, generate_lsbench_stream
from repro.streams.config import StreamType

#: activity labels (out of the 45 LSBench-style labels) that count as engagement
ENGAGEMENT_LABELS = frozenset({0, 1, 2, 3, 4, 5, 6, 7})


class EngagementMatcher(MatchDefinition):
    """Homomorphic matching restricted to engagement-type activities."""

    name = "engagement-homomorphism"
    injective = False

    def edge_matcher(self, query, graph, q_edge, d_edge):
        if d_edge.label not in ENGAGEMENT_LABELS:
            return False
        return default_edge_matcher(query, graph, q_edge, d_edge)


def engagement_triangle() -> QueryGraph:
    query = QueryGraph()
    query.add_edge(0, 1)
    query.add_edge(1, 2)
    query.add_edge(2, 0)
    query.validate()
    return query


def main() -> None:
    stream = generate_lsbench_stream(
        LSBenchConfig(num_events=12_000, num_users=900, seed=123,
                      prefix_fraction=0.8, delete_fraction=0.2)
    )
    engine = MnemonicEngine(
        engagement_triangle(),
        match_def=EngagementMatcher(),
        config=EngineConfig(
            stream=StreamConfig(stream_type=StreamType.INSERT_DELETE, batch_size=1024),
        ),
    )

    print(f"streaming {len(stream)} activity events in batches of 1024\n")
    print(f"{'batch':>5}  {'ins':>5}  {'del':>5}  {'new triangles':>14}  {'retracted':>10}  "
          f"{'filter ms':>9}  {'enum ms':>8}")

    totals = {"positive": 0, "negative": 0}
    for snapshot in engine.initialize_stream(stream):
        result = engine.process_snapshot(snapshot)
        totals["positive"] += result.num_positive
        totals["negative"] += result.num_negative
        print(f"{snapshot.number:>5}  {result.num_insertions:>5}  {result.num_deletions:>5}  "
              f"{result.num_positive:>14}  {result.num_negative:>10}  "
              f"{result.filter_seconds * 1e3:>9.1f}  {result.enumerate_seconds * 1e3:>8.1f}")

    print(f"\ntotal new engagement triangles : {totals['positive']}")
    print(f"total retracted triangles      : {totals['negative']}")
    print(f"DEBI bits currently set        : {engine.debi.total_bits_set()}")
    print(f"index size (paper formula)     : {engine.index_size_bits() / 8 / 1024:.1f} KiB")


if __name__ == "__main__":
    main()
