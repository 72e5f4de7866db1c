#!/usr/bin/env python
"""Self-healing under fire: worker kills, load shedding, fault counters.

The other service examples assume a well-behaved world.  This one breaks
things on purpose, using the same deterministic chaos harness the test
suite (``tests/test_chaos.py``) and the ``self_healing_parity`` perf
gate are built on, and shows the two knobs a deployment tunes:

1. :class:`~repro.core.supervisor.FaultPolicy` — the engine's respawn
   budget.  A :class:`~repro.utils.faults.FaultPlan` SIGKILLs a pool
   worker mid-enumeration; the supervisor respawns the pool, redispatches
   the interrupted epoch from the frozen shared-memory snapshot, and the
   results come out bit-identical to a fault-free run.  The
   ``fault_*`` counters in ``service.stats()`` tell the story.
2. ``overload="shed-oldest"`` — the broker's full-buffer policy.  When
   producers outrun the engine, the oldest queued events are dropped
   instead of blocking the producer; ``shed_events`` counts the loss so
   dashboards can see it.

Run with::

    python examples/chaos_service.py
"""

from repro import (
    EngineConfig,
    MnemonicEngine,
    MnemonicService,
    ParallelConfig,
    StreamConfig,
    VirtualClock,
)
from repro.core.supervisor import FaultPolicy
from repro.datasets import NetFlowConfig, generate_netflow_stream, graph_from_events
from repro.query.generator import QueryGenerator
from repro.utils import faults


def build_workload():
    """A NetFlow stream, its warm-up prefix, and a 3-edge tree query."""
    stream = generate_netflow_stream(
        NetFlowConfig(num_events=600, num_hosts=60, seed=13)
    )
    initial, live = stream[:300], stream[300:]
    query = QueryGenerator(graph_from_events(initial), seed=2).tree_query(3)
    return query, initial, live


def matches_of(results) -> set:
    return {
        embedding.identity()
        for result in results
        for embedding in result.positive_embeddings
    }


def run_stream(query, initial, live, parallel=None, fault=None) -> tuple[set, dict]:
    """Feed ``live`` through a service; return match identities and stats."""
    config = EngineConfig(
        stream=StreamConfig(batch_size=64),
        parallel=parallel or ParallelConfig(),
        pipeline="pipelined" if parallel else "serial",
        fault=fault or FaultPolicy(),
    )
    with MnemonicEngine(query, config=config) as engine:
        engine.load_initial(initial)
        service = MnemonicService(engine, capacity=1024, clock=VirtualClock())
        service.submit(live)
        results = service.drain()
        stats = service.stats()
        service.close()
    return matches_of(results), stats


def main() -> None:
    query, initial, live = build_workload()

    # --- baseline: a fault-free serial run is the ground truth ----------
    baseline, _ = run_stream(query, initial, live)
    print(f"baseline (serial, fault-free): {len(baseline)} matches")

    # --- chaos: SIGKILL a pool worker mid-enumeration -------------------
    # The plan is armed before the engine spawns its pool, so the forked
    # workers inherit it; the second enumeration unit in the doomed
    # worker pulls the trigger.  The FaultPolicy budget lets the
    # supervisor respawn twice with no backoff sleeps.
    plan = faults.FaultPlan(kill_at_unit=2, kills=1)
    policy = FaultPolicy(max_respawns=2, backoff_initial_seconds=0.0)
    pool = ParallelConfig(backend="process", num_workers=2)
    with faults.injected(plan):
        healed, stats = run_stream(query, initial, live, parallel=pool, fault=policy)

    print(f"chaos run (1 worker killed):   {len(healed)} matches, "
          f"bit-identical={healed == baseline}")
    print("  fault counters:",
          {k: v for k, v in stats.items() if k.startswith("fault_")})
    if stats["fault_respawns"] == 0:
        print("  (no pool in this environment: the run fell back to a "
              "serial path and the kill never fired)")

    # --- overload: shed-oldest instead of blocking the producer ---------
    clock = VirtualClock()
    config = EngineConfig(stream=StreamConfig(batch_size=64))
    with MnemonicEngine(query, config=config) as engine:
        engine.load_initial(initial)
        service = MnemonicService(
            engine, capacity=8, clock=clock, overload="shed-oldest"
        )
        for event in live:  # burst: far more events than the buffer holds
            service.submit(event)
        service.drain()
        stats = service.stats()
        service.close()
    print(f"shed-oldest burst: capacity 8, {len(live)} events submitted, "
          f"shed_events={stats['shed_events']}, "
          f"enqueued={stats['enqueued']}")


if __name__ == "__main__":
    main()
