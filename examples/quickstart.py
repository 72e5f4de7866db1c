#!/usr/bin/env python
"""Quickstart: incremental subgraph isomorphism on a streaming graph.

This example walks through the whole Mnemonic workflow on a tiny
hand-built stream:

1. define a query graph (a labelled path A -> B -> C);
2. create an engine with a stream configuration (batch size 4);
3. push insertion and deletion batches;
4. inspect the embeddings that each batch creates or destroys.

Run with::

    python examples/quickstart.py
"""

from repro import EngineConfig, MnemonicEngine, QueryGraph, StreamConfig, StreamEvent
from repro.matchers import IsomorphismMatcher

# Node labels used by this example's schema.
USER, HOST, SERVICE = 0, 1, 2


def build_query() -> QueryGraph:
    """The pattern: a USER logs into a HOST that then talks to a SERVICE."""
    query = QueryGraph()
    query.add_node(0, USER)
    query.add_node(1, HOST)
    query.add_node(2, SERVICE)
    query.add_edge(0, 1)   # user -> host   (any edge label)
    query.add_edge(1, 2)   # host -> service
    query.validate()
    return query


def main() -> None:
    query = build_query()
    engine = MnemonicEngine(
        query,
        match_def=IsomorphismMatcher(),
        config=EngineConfig(stream=StreamConfig(batch_size=4)),
    )

    print("Query tree root:", engine.tree.root)
    print("DEBI columns   :", engine.tree.num_columns)

    # --- batch 1: two user->host logins and one host->service flow ---------
    batch1 = [
        StreamEvent.insert(100, 200, src_label=USER, dst_label=HOST),
        StreamEvent.insert(101, 200, src_label=USER, dst_label=HOST),
        StreamEvent.insert(200, 300, src_label=HOST, dst_label=SERVICE),
    ]
    result1 = engine.batch_inserts(batch1)
    print(f"\nbatch 1: +{result1.num_positive} embeddings "
          f"({result1.work_units} work units, "
          f"{result1.filter_traversals} filtering traversals)")
    for embedding in result1.positive_embeddings:
        print("   new match:", embedding.nodes())

    # --- batch 2: a second service connection creates two more matches -----
    result2 = engine.batch_inserts([
        StreamEvent.insert(200, 301, src_label=HOST, dst_label=SERVICE),
    ])
    print(f"\nbatch 2: +{result2.num_positive} embeddings")
    for embedding in result2.positive_embeddings:
        print("   new match:", embedding.nodes())
    # Results are held as column blocks; the loop above built Embedding
    # records on demand.  Reading a column needs none: block.nodes[i] is the
    # data vertex every match of the block binds to query node node_slots[i].
    for block in result2.positive_embeddings.blocks:
        users = block.nodes[block.node_slots.index(0)]
        print(f"   users behind the {len(block)} new matches: {users.tolist()}")

    # --- batch 3: the first login is retracted ------------------------------
    result3 = engine.batch_deletes([StreamEvent.delete(100, 200)])
    print(f"\nbatch 3: -{result3.num_negative} embeddings")
    for embedding in result3.negative_embeddings:
        print("   destroyed :", embedding.nodes())

    print("\nFinal footprint:", engine.memory_report())


if __name__ == "__main__":
    main()
