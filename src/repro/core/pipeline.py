"""The batch-execution pipeline: the one per-batch loop body.

Apply insertions → update DEBI → enumerate; resolve deletions →
enumerate the doomed embeddings → apply deletions → update DEBI.  The
host (:class:`~repro.core.registry.MultiQueryEngine`, which
:class:`~repro.core.engine.MnemonicEngine` wraps as a one-query view)
supplies the primitives — query runtimes, context construction, pool
lifecycle — through the :class:`PipelineHost` protocol and consumes
:class:`CompletedBatch` records.

Two execution modes
-------------------
``serial`` (default)
    Today's behaviour: every phase runs to completion before the next
    graph mutation.  Bit-identical to the historical engines.

``pipelined``
    The overlap mode motivating the refactor.  Pool workers only ever
    read the *published* shared-memory epoch, never the live graph, so
    once a phase's snapshot is published and its work units dispatched
    (:meth:`~repro.core.parallel.SharedMemoryPool.dispatch`), the
    coordinator is free to apply batch ``k + 1``'s mutations, update
    DEBI and stage the next snapshot while the workers are still
    enumerating batch ``k``.  Results are joined lazily
    (:meth:`~repro.core.parallel.SharedMemoryPool.drain`), oldest epoch
    first; the double-buffered snapshot writer bounds the look-ahead to
    two epochs in flight.

    Deletion semantics are preserved exactly: a delete phase publishes
    its snapshot *before* the edges are removed and DEBI rows cleared,
    so the workers enumerate the doomed embeddings against the
    pre-delete epoch — the same state the serial mode sees — and the
    result sets stay bit-identical.

    Phases that cannot go through the pool (no pool, too small to
    amortise a publication) run inline at their stream position, which
    trivially preserves ordering.

If the pool breaks mid-pipeline the already-dispatched epochs are
recovered from their *frozen* published segments, which outlive the
broken pool (the supervisor terminates it without unlinking them).
Preferably the host's supervisor provides a replacement pool and the
epochs are **redispatched**: the new workers attach to the frozen
segments by name and re-run exactly the same units.  When no
replacement is available (retry budget exhausted, or supervision is
off) the coordinator attaches to the segments itself and re-enumerates
the dispatched units serially.  Either way the live graph — which may
already carry later batches' mutations — is never touched, so the
results stay bit-identical to a fault-free run.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Protocol

import numpy as np

from repro.core.parallel import (
    DispatchedEpoch,
    EnumerationOutcome,
    PoolBrokenError,
    SharedMemoryPool,
    run_serial,
)
from repro.core.results import Embeddings
from repro.core.shared_snapshot import SnapshotAttachment
from repro.streams.events import EventColumns
from repro.utils.validation import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import EngineConfig
    from repro.core.enumeration import EnumerationContext, WorkUnits
    from repro.core.registry import QueryRuntime
    from repro.graph.adjacency import DynamicGraph
    from repro.streams.generator import Snapshot

#: the supported execution modes of :class:`BatchPipeline`
PIPELINE_MODES = ("serial", "pipelined")


class PipelineHost(Protocol):
    """What an engine must provide for :class:`BatchPipeline` to drive it.

    The pipeline owns the batch-loop *sequencing*; the host supplies the
    engine-specific primitives (which never contain loop logic of their
    own).
    """

    graph: "DynamicGraph"
    config: "EngineConfig"

    def pipeline_slots(self) -> "dict[int, QueryRuntime]":
        """The per-query runtimes to evaluate this batch (id -> runtime)."""
        ...

    def pipeline_acquire_pool(self, pipeline: "BatchPipeline") -> "SharedMemoryPool | None":
        """The shared-memory pool to enumerate on, or None to run in-process.

        A host that may *replace* its pool (multi-query registry churn)
        must call ``pipeline.flush()`` before closing the old pool, so
        no in-flight epoch is orphaned.
        """
        ...

    def pipeline_pool_broken(self) -> "SharedMemoryPool | None":
        """The pool failed: retire it and return a replacement, or None.

        Hosts with a :class:`~repro.core.supervisor.PoolSupervisor` route
        this to :meth:`~repro.core.supervisor.PoolSupervisor.replace`,
        which terminates the broken pool (keeping its frozen segments
        alive for redispatch) and respawns under the retry budget.
        Returning None means no replacement: the pipeline recovers the
        in-flight epochs parent-side and stops using the pool.
        """
        ...

    def pipeline_recovery_finished(self, redispatched: int, recovered: int) -> None:
        """Recovery accounting: epochs redispatched to a replacement pool
        vs recovered parent-side."""
        ...

    def pipeline_batch_applied(self, batch: "CompletedBatch") -> None:
        """A batch's mutations are fully applied (enumeration may still be in flight).

        Called by :meth:`BatchPipeline.run_stream` in stream order, at
        mutation time — the hook where end-of-batch footprints must be
        captured, because in pipelined mode the batch *completes* only
        after later batches have already mutated the graph.
        """
        ...


# ---------------------------------------------------------------------- results
@dataclass
class QueryPhaseOutcome:
    """One query's share of one enumeration phase."""

    filter_seconds: float = 0.0
    filter_traversals: int = 0
    work_units: int = 0
    candidates_scanned: int = 0
    outcome: EnumerationOutcome | None = None


@dataclass
class PhaseOutcome:
    """One phase (the insert or delete half) of one batch, across queries."""

    positive: bool
    num_events: int
    #: shared mutation time: applying inserts, or resolving + applying deletes
    graph_update_seconds: float = 0.0
    #: wall clock from enumeration start (or dispatch) to completion (or drain)
    enumerate_wall_seconds: float = 0.0
    per_query: dict[int, QueryPhaseOutcome] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return all(q.outcome is not None for q in self.per_query.values())


@dataclass
class CompletedBatch:
    """Everything the pipeline produced for one snapshot, once fully drained."""

    number: int
    num_insertions: int
    num_deletions: int
    insert_phase: PhaseOutcome | None = None
    delete_phase: PhaseOutcome | None = None
    #: ingest stamp copied from the snapshot (broker-fed streams only)
    first_arrival: float | None = None
    #: stream-clock time at which the batch's results became available
    completed_at: float | None = None
    #: the batch's events as columns (None for an empty half), kept so durable
    #: engines can journal the epoch at delivery time (sealing happens in
    #: stream order)
    insert_columns: "EventColumns | None" = None
    delete_columns: "EventColumns | None" = None

    def phases(self) -> Iterator[PhaseOutcome]:
        if self.insert_phase is not None:
            yield self.insert_phase
        if self.delete_phase is not None:
            yield self.delete_phase

    @property
    def complete(self) -> bool:
        return all(p.complete for p in self.phases())


def ingest_latency(batch: CompletedBatch) -> float | None:
    """End-to-end latency of one batch: first event arrival -> results available.

    None unless the stream carried arrival stamps *and* the run had a
    stream clock to stamp completion with (i.e. broker-fed runs).
    """
    if batch.completed_at is None or batch.first_arrival is None:
        return None
    return max(batch.completed_at - batch.first_arrival, 0.0)


@dataclass
class _PendingPhase:
    """A dispatched-but-undrained phase: everything needed to drain or recover."""

    phase: PhaseOutcome
    contexts: "dict[int, EnumerationContext]"
    pool: SharedMemoryPool
    handle: DispatchedEpoch
    slots: "dict[int, QueryRuntime]"
    dispatched_at: float


# ---------------------------------------------------------------------- the pipeline
class BatchPipeline:
    """The single implementation of the per-batch execution loop.

    ``mode`` picks serial (default) or pipelined execution for streamed
    runs; one-shot entry points (:meth:`process_batch`) always run
    serially — there is no next batch to overlap with.
    """

    def __init__(self, host: PipelineHost, mode: str = "serial") -> None:
        if mode not in PIPELINE_MODES:
            raise ConfigurationError(
                f"pipeline mode must be one of {PIPELINE_MODES}, got {mode!r}"
            )
        self.host = host
        self.mode = mode
        #: enumeration phases (insert or delete half of a batch) with >= 1 unit
        self.enumeration_phases_with_units = 0
        #: phases that went through the shared pool (inline or dispatched) —
        #: each publishes exactly one epoch, which the parity gates check
        self.pool_enumeration_phases = 0
        self._pending: deque[_PendingPhase] = deque()

    # ------------------------------------------------------------------ entry points
    def process_batch(
        self, number: int, insertions: "EventColumns | None", deletions: "EventColumns | None"
    ) -> CompletedBatch:
        """Run one batch serially (the one-shot / serial-mode entry point).

        Either half is the :class:`EventColumns` decode a sealed snapshot
        caches: the graph apply, the index update and the journal seal all
        reuse the same arrays.
        """
        batch = self._new_batch(number, insertions, deletions)
        self._run_phases(batch, overlap=False)
        return batch

    @staticmethod
    def _new_batch(number: int, insertions, deletions) -> CompletedBatch:
        return CompletedBatch(
            number=number,
            num_insertions=len(insertions) if insertions else 0,
            num_deletions=len(deletions) if deletions else 0,
            insert_columns=insertions,
            delete_columns=deletions,
        )

    def _run_phases(self, batch: CompletedBatch, overlap: bool) -> None:
        if batch.insert_columns:
            batch.insert_phase = self._run_insert_phase(batch.insert_columns, overlap)
        if batch.delete_columns:
            batch.delete_phase = self._run_delete_phase(batch.delete_columns, overlap)

    def run_stream(self, snapshots: Iterable["Snapshot"]) -> Iterator[CompletedBatch]:
        """Process a stream of snapshots, yielding completed batches in order.

        Sealed snapshots cache their own columnar decode; it is reused, so
        an ingest tier that already decoded (fan-out, journal, the sliding
        window) shares the arrays with the engine.  When the snapshot
        iterator exposes a ``clock`` (broker-fed generators do), every
        yielded batch is stamped with the stream-clock time its results
        became available, closing the ingest-to-result latency loop opened
        by the snapshots' arrival stamps.
        """
        clock = getattr(snapshots, "clock", None)
        if self.mode != "pipelined":
            for snapshot in snapshots:
                batch = self.process_batch(
                    snapshot.number, snapshot.insert_columns(), snapshot.delete_columns()
                )
                batch.first_arrival = snapshot.first_arrival
                self.host.pipeline_batch_applied(batch)
                yield self._stamp_completed(batch, clock)
            return
        inflight: deque[CompletedBatch] = deque()
        for snapshot in snapshots:
            batch = self._new_batch(
                snapshot.number, snapshot.insert_columns(), snapshot.delete_columns()
            )
            batch.first_arrival = snapshot.first_arrival
            self._run_phases(batch, overlap=True)
            self.host.pipeline_batch_applied(batch)
            inflight.append(batch)
            while inflight and inflight[0].complete:
                yield self._stamp_completed(inflight.popleft(), clock)
        self.flush()
        while inflight:
            yield self._stamp_completed(inflight.popleft(), clock)

    @staticmethod
    def _stamp_completed(batch: CompletedBatch, clock) -> CompletedBatch:
        """Record the completion time of a batch that carries an ingest stamp."""
        if clock is not None and batch.first_arrival is not None:
            batch.completed_at = clock.now()
        return batch

    def flush(self) -> None:
        """Drain every dispatched epoch (oldest first); phases become complete."""
        while self._pending:
            self._drain_oldest()

    # ------------------------------------------------------------------ insert phase
    def _run_insert_phase(self, columns, overlap: bool) -> PhaseOutcome:
        host = self.host
        slots = host.pipeline_slots()
        phase = PhaseOutcome(positive=True, num_events=len(columns))

        update_start = time.perf_counter()
        new_ids = host.graph.apply_insert_columns(
            columns.src, columns.dst, columns.label, columns.timestamp,
            columns.src_label, columns.dst_label,
        )
        phase.graph_update_seconds += time.perf_counter() - update_start

        ids_arr = np.asarray(new_ids, dtype=np.int64)

        def index(runtime):
            return runtime.index_manager.handle_insert_columns(
                ids_arr, columns.src, columns.dst, columns.label
            )

        contexts, units = self._index_and_decompose(slots, phase, new_ids, True, index)
        self._enumerate_phase(phase, slots, contexts, units, overlap=overlap)
        return phase

    # ------------------------------------------------------------------ delete phase
    def _run_delete_phase(self, columns: "EventColumns", overlap: bool) -> PhaseOutcome:
        from repro.core.registry import resolve_deletions

        host = self.host
        graph = host.graph
        slots = host.pipeline_slots()
        phase = PhaseOutcome(positive=False, num_events=len(columns))

        resolve_start = time.perf_counter()
        doomed = resolve_deletions(graph, columns)
        phase.graph_update_seconds += time.perf_counter() - resolve_start

        # Enumerate (or dispatch) the embeddings about to be destroyed
        # before mutating anything: an inline run finishes right here; a
        # dispatched run reads the snapshot published by the dispatch,
        # which freezes the pre-delete graph and DEBI.  No index callback:
        # DEBI is refreshed *after* the deletions are applied below.
        contexts, units = self._index_and_decompose(slots, phase, doomed.tolist(), False)
        self._enumerate_phase(phase, slots, contexts, units, overlap=overlap)

        # One mutation pass, columns throughout: note per query which doomed
        # edges hold which DEBI bit (reads are unaffected by the graph
        # deletes), apply the deletes in event order (free-id parity), then
        # clear all DEBI rows with one bulk write per query.  In pipelined
        # mode this runs while the workers are still enumerating the epoch
        # published above — they read the frozen pre-delete snapshot.
        apply_start = time.perf_counter()
        held = {qid: runtime.index_manager.held_bits(doomed) for qid, runtime in slots.items()}
        deleted = graph.apply_delete_columns(doomed)
        for runtime in slots.values():
            runtime.debi.clear_edges(doomed)
        phase.graph_update_seconds += time.perf_counter() - apply_start

        for qid, runtime in slots.items():
            query_phase = phase.per_query[qid]
            filter_start = time.perf_counter()
            frontier = runtime.index_manager.handle_deletions(deleted, held[qid])
            query_phase.filter_seconds += time.perf_counter() - filter_start
            query_phase.filter_traversals += frontier.traversed_edges
        return phase

    # ------------------------------------------------------------------ shared plumbing
    def _index_and_decompose(
        self, slots, phase: PhaseOutcome, edge_ids: list[int], positive: bool, index=None
    ):
        """Per query: refresh the index (optional), build a context, decompose units.

        ``index`` is the per-runtime DEBI refresh for insert phases;
        delete phases pass None because their index update happens only
        after the doomed embeddings are enumerated.
        """
        from repro.core.enumeration import decompose_batch

        graph = self.host.graph
        batch_ids = set(edge_ids)
        contexts: dict[int, "EnumerationContext"] = {}
        units: dict[int, "WorkUnits"] = {}
        shared_cache: dict | None = {} if len(slots) > 1 else None
        for qid, runtime in slots.items():
            query_phase = phase.per_query.setdefault(qid, QueryPhaseOutcome())
            if index is not None:
                filter_start = time.perf_counter()
                frontier = index(runtime)
                query_phase.filter_seconds += time.perf_counter() - filter_start
                query_phase.filter_traversals += frontier.traversed_edges
            context = runtime.make_context(
                graph, batch_ids, positive, shared_pool_cache=shared_cache
            )
            contexts[qid] = context
            units[qid] = decompose_batch(context, edge_ids)
            query_phase.work_units += len(units[qid])
        return contexts, units

    def _amortized(self, total_units: int) -> bool:
        """Is the phase big enough to amortise one O(V + E) snapshot export?

        Publication is O(V + E) (parent export + per-worker view build);
        one unit enumerates in roughly the time ~1000 placeholders take
        to export, so a phase must carry enough units per worker AND
        enough units relative to the graph size, or the serial path wins.
        """
        placeholders = getattr(self.host.graph, "num_placeholders", 0)
        workers = self.host.config.parallel.num_workers
        return total_units >= 2 * workers and total_units * 1000 >= placeholders

    def _enumerate_phase(
        self,
        phase: PhaseOutcome,
        slots,
        contexts: "dict[int, EnumerationContext]",
        units: "dict[int, WorkUnits]",
        overlap: bool,
    ) -> None:
        """Run or dispatch one phase's enumeration; fill outcomes when inline."""
        total_units = sum(len(u) for u in units.values())
        if total_units == 0:
            self._complete_phase(phase, contexts, {
                qid: EnumerationOutcome(Embeddings(), [], 0.0) for qid in contexts
            }, wall=0.0)
            return
        self.enumeration_phases_with_units += 1

        collect = self.host.config.collect_embeddings
        pool = self.host.pipeline_acquire_pool(self)
        if pool is not None and pool.usable and self._amortized(total_units):
            if self._pending and self._pending[0].pool is not pool:
                # The host swapped pools under us (registry churn):
                # epochs of the old pool must finish before it goes away.
                self.flush()
            while (
                self._pending
                and pool.usable
                and pool.epochs_in_flight >= pool.max_epochs_in_flight
            ):
                self._drain_oldest()
            # _drain_oldest (or the flush above) may have hit a broken pool
            # and already recovered + warned; don't dispatch on the corpse
            # and report the same failure a second time.
            if pool.usable:
                try:
                    dispatched_at = time.perf_counter()
                    handle = pool.dispatch(contexts, units, collect=collect)
                    self.pool_enumeration_phases += 1
                    self._pending.append(
                        _PendingPhase(
                            phase=phase,
                            contexts=contexts,
                            pool=pool,
                            handle=handle,
                            slots=dict(slots),
                            dispatched_at=dispatched_at,
                        )
                    )
                    if overlap:
                        return
                    # Inline (serial-mode) execution goes through the same
                    # dispatch/drain pair as the overlap path so a pool
                    # fault here benefits from the identical
                    # redispatch-from-frozen-segments recovery.
                    while not phase.complete and self._pending:
                        self._drain_oldest()
                    return
                except PoolBrokenError as exc:
                    self._handle_pool_broken(exc)
                    if phase.complete:
                        return
        # No usable pool, or a phase too small to amortise a snapshot
        # publication: one serial kernel call per query.
        start = time.perf_counter()
        outcomes = {
            qid: run_serial(context, units[qid], collect=collect)
            for qid, context in contexts.items()
        }
        self._complete_phase(phase, contexts, outcomes, wall=time.perf_counter() - start)

    def _complete_phase(
        self,
        phase: PhaseOutcome,
        contexts: "dict[int, EnumerationContext]",
        outcomes: dict[int, EnumerationOutcome],
        wall: float,
    ) -> None:
        phase.enumerate_wall_seconds += wall
        for qid, outcome in outcomes.items():
            query_phase = phase.per_query.setdefault(qid, QueryPhaseOutcome())
            query_phase.outcome = outcome
            query_phase.candidates_scanned = contexts[qid].candidates_scanned

    # ------------------------------------------------------------------ draining & recovery
    def _epoch_deadline(self) -> float | None:
        """Per-epoch drain deadline from the host's fault policy, if any."""
        policy = getattr(self.host.config, "fault", None)
        return None if policy is None else policy.epoch_deadline_seconds

    def _drain_oldest(self) -> None:
        pending = self._pending.popleft()
        try:
            drained = pending.pool.drain(
                pending.handle, deadline_seconds=self._epoch_deadline()
            )
            outcomes = drained.outcomes
        except PoolBrokenError as exc:
            self._pending.appendleft(pending)
            self._handle_pool_broken(exc)
            return
        self._complete_phase(
            pending.phase,
            pending.contexts,
            outcomes,
            wall=time.perf_counter() - pending.dispatched_at,
        )

    def _handle_pool_broken(self, exc: PoolBrokenError) -> None:
        """Recover every dispatched epoch, preferring redispatch over serial.

        The live graph may already carry later batches' mutations, so
        the in-flight phases are re-enumerated against their *published*
        epochs, whose frozen segments outlive the broken pool.  The host
        is asked for a replacement pool (supervised hosts respawn under
        their retry budget); epochs are redispatched onto it by adopting
        their frozen descriptors.  Phases left without a replacement are
        recovered parent-side: the coordinator attaches to the segments
        itself and runs the dispatched units serially.  Both paths are
        bit-identical to what the dead workers would have produced.
        """
        collect = self.host.config.collect_embeddings
        pending, self._pending = list(self._pending), deque()
        redispatched = 0
        recovered = 0
        replacement = self.host.pipeline_pool_broken()
        while pending and replacement is not None:
            item = pending[0]
            try:
                epoch_id = replacement.adopt(item.handle, item.contexts, collect=collect)
                drained = replacement.drain(
                    epoch_id, deadline_seconds=self._epoch_deadline()
                )
            except PoolBrokenError as follow_up:
                # The replacement broke too (crash loop): retire it and
                # ask for another; the budget bounds how long this lasts.
                exc = follow_up
                replacement = self.host.pipeline_pool_broken()
                continue
            pending.pop(0)
            redispatched += 1
            self._complete_phase(
                item.phase,
                item.contexts,
                drained.outcomes,
                wall=time.perf_counter() - item.dispatched_at,
            )
        for item in pending:
            outcomes = self._recover_phase(item)
            recovered += 1
            self._complete_phase(
                item.phase,
                item.contexts,
                outcomes,
                wall=time.perf_counter() - item.dispatched_at,
            )
        self.host.pipeline_recovery_finished(redispatched, recovered)
        if replacement is None:
            warnings.warn(
                f"shared-memory pool failed mid-run ({exc}); in-flight epochs "
                "were recovered from their published snapshots and enumeration "
                "continues serially",
                RuntimeWarning,
                stacklevel=3,
            )

    def _recover_phase(self, pending: _PendingPhase) -> dict[int, EnumerationOutcome]:
        """Serially re-enumerate one dispatched epoch from its frozen snapshot."""
        # This runs in the pool's parent, which owns the segment it is
        # about to attach to.  No tracker suppression is needed (or safe)
        # here: the attach-time re-register is an idempotent set-add in
        # the resource tracker's cache, balanced by the writer's real
        # unlink when the pool closes.
        attachment = SnapshotAttachment()
        descriptor = pending.handle.descriptor
        try:
            trees = {qid: rt.query_state.tree for qid, rt in pending.slots.items()}
            graph_view, debis, batch_ids = attachment.views(descriptor, trees)
            shared_cache: dict | None = {} if len(pending.slots) > 1 else None
            outcomes: dict[int, EnumerationOutcome] = {}
            for qid, unit_list in pending.handle.units.items():
                context = pending.slots[qid].query_state.make_context(
                    graph_view,
                    debis[qid],
                    batch_ids,
                    descriptor["positive"],
                    shared_pool_cache=shared_cache,
                )
                outcome = run_serial(
                    context, unit_list, collect=self.host.config.collect_embeddings
                )
                original = pending.contexts[qid]
                original.candidates_scanned += context.candidates_scanned
                original.embeddings_found += outcome.num_embeddings
                outcomes[qid] = outcome
            return outcomes
        finally:
            attachment.detach()
