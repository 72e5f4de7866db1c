"""The public surface, frozen.

Growth of the top-level exports or of the configuration objects is a
design decision, not a side effect: a change that adds a name or a knob
has to edit the lists below, which makes it a visible line in the diff.
"""

import ast
import dataclasses
from pathlib import Path

import repro
import repro.graph
from repro import EngineConfig, ParallelConfig, StreamConfig

REPRO_ALL = {
    "MnemonicEngine", "MnemonicService", "ShardedEngine", "PartitionStrategy",
    "HashPartitionStrategy", "LabelRangePartitionStrategy", "MultiQueryEngine",
    "QueryRegistry", "CollectingSink", "EngineConfig", "FaultPolicy", "ParallelConfig",
    "RunResult", "SnapshotResult", "enumerate_static", "MatchDefinition",
    "DefaultMatchDefinition", "Embedding", "ResultSet", "DynamicGraph", "QueryGraph",
    "WILDCARD_LABEL", "StreamBroker", "StreamConfig", "StreamType", "StreamEvent",
    "StorageConfig", "StorageError", "ReplaySource", "VirtualClock", "WallClock",
    "__version__",
}
GRAPH_ALL = {"DynamicGraph", "AttributeStore", "EdgeRecord", "Endpoint", "PlaceholderStats"}
ENGINE_CONFIG_FIELDS = {
    "stream", "parallel", "pipeline", "use_degree_filter", "recycle_edge_ids",
    "collect_embeddings", "storage", "fault", "shards",
}
STREAM_CONFIG_FIELDS = {"stream_type", "batch_size", "max_batch_delay", "window", "stride"}
PARALLEL_CONFIG_FIELDS = {"backend", "num_workers"}


def field_names(config_class) -> set[str]:
    return {f.name for f in dataclasses.fields(config_class)}


def test_top_level_exports():
    assert set(repro.__all__) == REPRO_ALL
    assert all(hasattr(repro, name) for name in REPRO_ALL)


def test_graph_exports():
    assert set(repro.graph.__all__) == GRAPH_ALL
    assert all(hasattr(repro.graph, name) for name in GRAPH_ALL)


def test_config_fields():
    assert field_names(EngineConfig) == ENGINE_CONFIG_FIELDS
    assert field_names(StreamConfig) == STREAM_CONFIG_FIELDS
    assert field_names(ParallelConfig) == PARALLEL_CONFIG_FIELDS


def test_product_does_not_import_test_code():
    """References live under ``tests/``; the product is checked against them, never built on them."""
    offenders = []
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path}: {module}" for module in modules
                if module.split(".")[0] in ("tests", "benchmarks")
            ]
    assert offenders == []
