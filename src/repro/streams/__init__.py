"""Stream ingestion and snapshot generation.

Mnemonic consumes an edge *stream* and turns it into a sequence of
*snapshots*: each snapshot is the last stable state of the data graph
plus the batch of insertions and deletions made since then
(Algorithm 1, the ``getSnapshot`` loop).  The user controls the
snapshotting behaviour through a :class:`repro.streams.StreamConfig`
(stream type, batch size, adaptive batch delay, window size, stride).

Three stream types are supported, matching the paper's evaluation:

* ``insert_only`` — e.g. the NetFlow backbone trace (Figure 6);
* ``insert_delete`` — e.g. LSBench with explicit deletions encoded by
  negating endpoints (Figure 9);
* ``sliding_window`` — e.g. LANL with a 24-hour window and a fixed
  stride; edges are dropped from the tail of the window automatically
  (Figures 10, 15, 17 and Table III).

For live-service scenarios the module additionally provides the
ingestion layer that decouples event arrival from processing: a bounded
:class:`~repro.streams.broker.StreamBroker` with backpressure and
arrival stamping, :class:`~repro.streams.clock.Clock` implementations
(wall and deterministic virtual time), and rate-controlled / file /
push sources in :mod:`repro.streams.sources`.
"""

from repro.streams.broker import POLL_TIMEOUT, BrokerClosedError, StreamBroker
from repro.streams.clock import Clock, VirtualClock, WallClock
from repro.streams.config import StreamConfig, StreamType
from repro.streams.events import (
    EventKind,
    StreamEvent,
    coerce_insert,
    decode_lsbench_triple,
    encode_lsbench_triple,
)
from repro.streams.fanout import FanoutStats, ShardFanout
from repro.streams.generator import (
    Snapshot,
    SnapshotBatcher,
    SnapshotGenerator,
    initialize_stream,
)
from repro.streams.sources import (
    CSVTraceSource,
    IterableSource,
    ListSource,
    PushSource,
    ReplaySource,
    StreamSource,
)

__all__ = [
    "StreamConfig",
    "StreamType",
    "StreamEvent",
    "EventKind",
    "Snapshot",
    "SnapshotBatcher",
    "SnapshotGenerator",
    "initialize_stream",
    "coerce_insert",
    "StreamSource",
    "ListSource",
    "IterableSource",
    "CSVTraceSource",
    "PushSource",
    "ReplaySource",
    "StreamBroker",
    "BrokerClosedError",
    "POLL_TIMEOUT",
    "ShardFanout",
    "FanoutStats",
    "Clock",
    "WallClock",
    "VirtualClock",
    "decode_lsbench_triple",
    "encode_lsbench_triple",
]
