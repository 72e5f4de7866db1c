"""repro — a reproduction of *Mnemonic: A Parallel Subgraph Matching System
for Streaming Graphs* (Bhattarai & Huang, IPDPS 2022).

The package is organised as the paper's system diagram (Figure 2):

* :mod:`repro.streams` — snapshot generation from edge streams;
* :mod:`repro.graph` — dynamic multigraph storage with edge-id recycling;
* :mod:`repro.query` — query graphs, query trees, matching orders, masks;
* :mod:`repro.core` — DEBI, incremental filtering, parallel enumeration
  and the :class:`~repro.core.engine.MnemonicEngine`;
* :mod:`repro.matchers` — matching variants (isomorphism, homomorphism,
  simulation, time-constrained isomorphism) programmed on the API;
* :mod:`repro.baselines` — the comparison systems of the evaluation
  (CECI, TurboFlux-style, BigJoin-style, Li et al.-style);
* :mod:`repro.datasets` — synthetic NetFlow / LSBench / LANL workloads;
* :mod:`repro.bench` — the measurement harness behind ``benchmarks/``.

Quickstart::

    from repro import MnemonicEngine, QueryGraph, StreamEvent

    query = QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 1, 1: 2, 2: 3})
    engine = MnemonicEngine(query)
    result = engine.batch_inserts([
        StreamEvent.insert(10, 11, src_label=1, dst_label=2),
        StreamEvent.insert(11, 12, src_label=2, dst_label=3),
    ])
    print(list(result.positive_embeddings))        # Embedding records, built on demand
    for block in result.positive_embeddings.blocks:   # ... or the columns they come from
        print(block.node_slots, block.nodes)          # (0, 1, 2) [[10] [11] [12]]
"""

from repro.core.api import DefaultMatchDefinition, MatchDefinition
from repro.core.engine import (
    EngineConfig,
    MnemonicEngine,
    RunResult,
    SnapshotResult,
    enumerate_static,
)
from repro.core.parallel import ParallelConfig
from repro.core.registry import MultiQueryEngine, QueryRegistry
from repro.core.results import CollectingSink, Embedding, ResultSet
from repro.core.service import MnemonicService
from repro.core.shard_router import ShardedEngine
from repro.core.sharding import (
    HashPartitionStrategy,
    LabelRangePartitionStrategy,
    PartitionStrategy,
)
from repro.core.supervisor import FaultPolicy
from repro.graph.adjacency import DynamicGraph
from repro.query.query_graph import WILDCARD_LABEL, QueryGraph
from repro.storage.config import StorageConfig
from repro.storage.runtime import StorageError
from repro.streams.broker import StreamBroker
from repro.streams.clock import VirtualClock, WallClock
from repro.streams.config import StreamConfig, StreamType
from repro.streams.events import StreamEvent
from repro.streams.sources import ReplaySource

__version__ = "1.0.0"

__all__ = [
    "MnemonicEngine",
    "MnemonicService",
    "ShardedEngine",
    "PartitionStrategy",
    "HashPartitionStrategy",
    "LabelRangePartitionStrategy",
    "MultiQueryEngine",
    "QueryRegistry",
    "CollectingSink",
    "EngineConfig",
    "FaultPolicy",
    "ParallelConfig",
    "RunResult",
    "SnapshotResult",
    "enumerate_static",
    "MatchDefinition",
    "DefaultMatchDefinition",
    "Embedding",
    "ResultSet",
    "DynamicGraph",
    "QueryGraph",
    "WILDCARD_LABEL",
    "StreamBroker",
    "StreamConfig",
    "StreamType",
    "StreamEvent",
    "StorageConfig",
    "StorageError",
    "ReplaySource",
    "VirtualClock",
    "WallClock",
    "__version__",
]
