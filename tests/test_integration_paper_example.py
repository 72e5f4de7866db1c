"""Integration test: the worked example of the paper's Figure 1.

The fixture in ``conftest.py`` reconstructs the query (7 nodes, 7 edges,
one non-tree edge) and the three data-graph snapshots G, G1 and G2.  The
narrative in Sections II, V and VI implies concrete embedding counts at
each snapshot; this test drives the full engine through the same
sequence of batches and checks every one of them, plus the structural
invariants (DEBI definition, duplicate-freedom, consistency with a
from-scratch run on the final graph).
"""


from repro.baselines import CECIMatcher
from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.parallel import ParallelConfig
from repro.matchers import IsomorphismMatcher
from repro.streams.config import StreamConfig, StreamType
from tests.conftest import brute_force_node_maps


class TestPaperExample:
    def test_query_tree_shape(self, paper_example):
        engine = MnemonicEngine(paper_example.query, root=0)
        # Root u0 with 6 tree edges and one non-tree edge (u2, u5).
        assert engine.tree.root == 0
        assert engine.tree.num_columns == 6
        assert len(engine.tree.non_tree_edges) == 1
        non_tree = engine.tree.non_tree_edges[0]
        assert {non_tree.src, non_tree.dst} == {2, 5}

    def test_initial_snapshot_has_two_embeddings(self, paper_example):
        engine = MnemonicEngine(paper_example.query, root=0)
        result = engine.batch_inserts(paper_example.initial_events())
        assert result.num_positive == paper_example.expected_initial
        # Both embeddings root at v1 (vertex 11) and differ in the image of u6.
        u6_images = {dict(e.node_map)[6] for e in result.positive_embeddings}
        assert u6_images == {10, 18}
        assert all(dict(e.node_map)[0] == 11 for e in result.positive_embeddings)

    def test_delta1_creates_two_new_embeddings(self, paper_example):
        engine = MnemonicEngine(paper_example.query, root=0)
        engine.batch_inserts(paper_example.initial_events())
        result = engine.batch_inserts(paper_example.delta1_events())
        assert result.num_positive == paper_example.expected_after_delta1_new
        assert all(dict(e.node_map)[0] == 10 for e in result.positive_embeddings)

    def test_delta2_inserts_then_deletes(self, paper_example):
        engine = MnemonicEngine(paper_example.query, root=0)
        engine.batch_inserts(paper_example.initial_events())
        engine.batch_inserts(paper_example.delta1_events())
        insert_result = engine.batch_inserts(paper_example.delta2_insert_events())
        assert insert_result.num_positive == paper_example.expected_after_delta2_new
        delete_result = engine.batch_deletes(paper_example.delta2_delete_events())
        assert delete_result.num_negative == paper_example.expected_after_delta2_removed

    def test_net_result_matches_from_scratch(self, paper_example):
        engine = MnemonicEngine(paper_example.query, root=0)
        positives = []
        negatives = []
        positives += engine.batch_inserts(paper_example.initial_events()).positive_embeddings
        positives += engine.batch_inserts(paper_example.delta1_events()).positive_embeddings
        positives += engine.batch_inserts(paper_example.delta2_insert_events()).positive_embeddings
        negatives += engine.batch_deletes(paper_example.delta2_delete_events()).negative_embeddings

        final_node_maps = brute_force_node_maps(paper_example.query, paper_example.final_graph())
        assert len(final_node_maps) == paper_example.expected_final_total

        alive = {e.node_map for e in positives} - {e.node_map for e in negatives}
        assert alive == final_node_maps
        # Exactly-once emission at the edge level.
        identities = [(e.node_map, e.edge_map) for e in positives]
        assert len(identities) == len(set(identities))

    def test_whole_stream_through_snapshot_generator(self, paper_example):
        config = EngineConfig(
            stream=StreamConfig(stream_type=StreamType.INSERT_DELETE, batch_size=3),
            parallel=ParallelConfig(backend="process", num_workers=2),
        )
        engine = MnemonicEngine(paper_example.query, match_def=IsomorphismMatcher(),
                                config=config, root=0)
        events = (
            paper_example.initial_events()
            + paper_example.delta1_events()
            + paper_example.delta2_insert_events()
            + paper_example.delta2_delete_events()
        )
        result = engine.run(events)
        # Net embeddings must match the from-scratch answer regardless of batching.
        final_node_maps = brute_force_node_maps(paper_example.query, paper_example.final_graph())
        alive = {e.node_map for e in result.all_positive()} - {
            e.node_map for e in result.all_negative()
        }
        assert alive == final_node_maps

    def test_agrees_with_ceci_on_every_snapshot(self, paper_example):
        stages = [
            paper_example.initial_events(),
            paper_example.delta1_events(),
            paper_example.delta2_insert_events(),
        ]
        engine = MnemonicEngine(paper_example.query, root=0)
        accumulated = set()
        import repro.datasets as ds

        applied = []
        for stage in stages:
            result = engine.batch_inserts(stage)
            accumulated |= {e.node_map for e in result.positive_embeddings}
            applied += stage
            ceci = CECIMatcher(paper_example.query).match_node_maps(ds.graph_from_events(applied))
            assert accumulated == ceci

    def test_masking_table_shape(self, paper_example):
        engine = MnemonicEngine(paper_example.query, root=0)
        table = engine.masks.as_table()
        assert len(table) == 7
        # Row i has exactly i masked positions plus the start marker.
        for i, row in enumerate(table):
            assert row[i] == "*"
            assert row.count("1") == i
