#!/usr/bin/env python
"""Durable state: survive a crash and pick up exactly where you left off.

A plain engine keeps everything — graph, DEBI candidate index, standing
queries — in process memory; a crash loses it all and the only remedy is
replaying the whole stream.  This example runs the same deployment
twice:

1. a **first process** attaches a ``StorageConfig`` to the engine, so
   every delivered batch is sealed into an append-only CRC-framed
   journal, checkpoints are cut periodically, and the DEBI's words
   live in a mmap'd file.
   It then "crashes" mid-stream: the engine is abandoned without a
   clean shutdown — nothing is flushed, sealed or checkpointed on the
   way out;
2. a **second process** recovers with ``MnemonicService.open`` (which
   dispatches on the engine kind stored in the state directory),
   inspects ``recovery_info`` to find the last *sealed* epoch, and
   refeeds only the events the first process never delivered results
   for.

The union of results delivered before the crash and after recovery is
bit-identical to a run that never crashed — the same contract the
crash-recovery test suite (``tests/test_recovery.py``) proves at every
possible crash point.

Run with::

    python examples/restart_service.py
"""

import shutil
import tempfile
from pathlib import Path

from repro import (
    EngineConfig,
    MnemonicEngine,
    MnemonicService,
    QueryGraph,
    StorageConfig,
    StreamConfig,
    StreamEvent,
)

#: node labels of this example's schema
USER, HOST, SERVICE = 0, 1, 2
BATCH = 8


def build_query() -> QueryGraph:
    """The pattern: a USER logs into a HOST that then talks to a SERVICE."""
    return QueryGraph.from_edges(
        [(0, 1), (1, 2)], node_labels={0: USER, 1: HOST, 2: SERVICE}
    )


def build_traffic() -> list[StreamEvent]:
    """A morning of logins and flows; every 5th user completes the pattern."""
    events: list[StreamEvent] = []
    for user in range(40):
        host = 200 + user % 7
        events.append(StreamEvent.insert(user, host, timestamp=float(user),
                                         src_label=USER, dst_label=HOST))
        if user % 5 == 0:
            events.append(StreamEvent.insert(host, 300, timestamp=user + 0.5,
                                             src_label=HOST, dst_label=SERVICE))
    return events


def durable_config(directory: Path) -> EngineConfig:
    return EngineConfig(
        stream=StreamConfig(batch_size=BATCH),
        collect_embeddings=True,
        # journal, checkpoints and the DEBI's words (debi/q0/rows.bin)
        storage=StorageConfig(
            directory=directory,
            checkpoint_interval=2,  # checkpoint every 2 sealed epochs
        ),
    )


def main() -> None:
    state_dir = Path(tempfile.mkdtemp(prefix="mnemonic-restart-")) / "q0"
    traffic = build_traffic()
    crash_after = len(traffic) // 2
    try:
        # ----- process #1: durable service, crashes mid-stream -------------
        print(f"process #1: journaling to {state_dir}")
        engine = MnemonicEngine(build_query(), config=durable_config(state_dir))
        service = MnemonicService(engine)
        service.submit(traffic[:crash_after])
        delivered = service.drain()
        matches_before = sum(r.num_positive for r in delivered)
        counters = engine.storage_counters()
        print(f"  delivered {len(delivered)} batches, {matches_before} matches")
        print(f"  sealed {counters['sealed_epochs']} epochs, "
              f"{counters['checkpoints_written']} checkpoints, "
              f"{counters['spilled_rows']} DEBI rows in its file")
        print("  ...crash! (no clean shutdown)")
        engine.close()  # releases file handles only; seals nothing

        # ----- process #2: recover and resume -------------------------------
        print("process #2: recovering")
        service = MnemonicService.open(state_dir)
        info = service.engine.recovery_info
        print(f"  recovered from checkpoint seq {info['checkpoint_seq']}, "
              f"replayed {info['replayed_records']} journal records"
              + (f", corruption: {info['corruption']}" if info["corruption"]
                 else ", journal clean"))
        # The refeed contract: everything after the last sealed epoch was
        # never delivered — submit exactly those events again.
        resume_event = (info["last_sealed_number"] + 1) * BATCH
        print(f"  last sealed epoch {info['last_sealed_number']} -> "
              f"refeeding from event {resume_event}")
        service.submit(traffic[resume_event:])
        recovered = service.drain()
        matches_after = sum(r.num_positive for r in recovered)
        service.engine.close()

        # ----- parity: the crash was invisible ------------------------------
        with MnemonicEngine(build_query(),
                            config=EngineConfig(
                                stream=StreamConfig(batch_size=BATCH),
                                collect_embeddings=True)) as reference:
            uninterrupted = reference.run(list(traffic))
        total = matches_before + matches_after
        print(f"  crash+recover found {matches_before} + {matches_after} = "
              f"{total} matches; uninterrupted run: "
              f"{uninterrupted.total_positive}")
        assert total == uninterrupted.total_positive, "recovery parity violated!"
        print("recovery parity holds: the crash cost nothing but a restart")
    finally:
        shutil.rmtree(state_dir.parent, ignore_errors=True)


if __name__ == "__main__":
    main()
