"""Shard fan-out: split one edge stream into per-shard sub-streams.

The sharded engine routes mutations internally, but an ingest tier that
already knows the partition layout can split the stream *before* it
reaches the engines — one broker (or socket, or queue partition) per
shard, each carrying only the events its shard stores.  That is the
deployment shape the scatter-gather design assumes, and this module is
its in-process model: :class:`ShardFanout` applies the same
:class:`~repro.core.sharding.PartitionStrategy` the engine uses and
delivers every event to the shard(s) owning its endpoints — both
shards when the edge crosses the partition boundary, mirroring the
router's replication rule, so each sub-stream is self-contained for its
shard's adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.sharding import PartitionStrategy
from repro.streams.broker import StreamBroker
from repro.streams.events import StreamEvent
from repro.utils.validation import ConfigurationError


@dataclass
class FanoutStats:
    """Delivery ledger for one fan-out instance."""

    #: events consumed from the input stream
    events: int = 0
    #: per-shard deliveries (an event landing on two shards counts twice)
    deliveries: list[int] = field(default_factory=list)
    #: events whose endpoints are owned by different shards
    boundary_events: int = 0

    def replication_factor(self) -> float:
        """Mean deliveries per event (1.0 = perfectly shard-local stream)."""
        if not self.events:
            return 0.0
        return sum(self.deliveries) / self.events


class ShardFanout:
    """Route stream events to the shard(s) owning their endpoints.

    Stateless with respect to the stream (ownership is re-derived from
    the pure strategy, exactly as the engine's partition map does at
    first sight), so a fan-out can sit in a different process from the
    engines without coordination.
    """

    def __init__(
        self,
        strategy: PartitionStrategy,
        num_shards: int,
        brokers: Sequence[StreamBroker] | None = None,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        if brokers is not None and len(brokers) != num_shards:
            raise ConfigurationError(
                f"expected {num_shards} brokers, got {len(brokers)}"
            )
        self.strategy = strategy
        self.num_shards = num_shards
        self.brokers = list(brokers) if brokers is not None else None
        self.stats = FanoutStats(deliveries=[0] * num_shards)

    def route(self, event: StreamEvent) -> tuple[int, ...]:
        """The shard indices that must see ``event`` (1 or 2 of them)."""
        src_owner = self.strategy.shard_of(event.src, event.src_label, self.num_shards)
        dst_owner = self.strategy.shard_of(event.dst, event.dst_label, self.num_shards)
        if src_owner == dst_owner:
            return (src_owner,)
        return (src_owner, dst_owner)

    def deliver(self, event: StreamEvent) -> tuple[int, ...]:
        """Route one event, updating stats and feeding attached brokers."""
        targets = self.route(event)
        self.stats.events += 1
        if len(targets) > 1:
            self.stats.boundary_events += 1
        for shard in targets:
            self.stats.deliveries[shard] += 1
            if self.brokers is not None:
                self.brokers[shard].put(event)
        return targets

    def fan_out(self, events: Iterable[StreamEvent]) -> list[list[StreamEvent]]:
        """Split ``events`` into per-shard sub-streams (order-preserving)."""
        streams: list[list[StreamEvent]] = [[] for _ in range(self.num_shards)]
        for event in events:
            for shard in self.deliver(event):
                streams[shard].append(event)
        return streams
