"""The batch-execution pipeline: the one per-batch loop body.

Apply insertions → update DEBI → enumerate; resolve deletions →
enumerate the doomed embeddings → apply deletions → update DEBI.  The
host — a :class:`~repro.core.registry.MultiQueryEngine`, of which
:class:`~repro.core.engine.MnemonicEngine` is the one-query subclass —
supplies the primitives (query runtimes, pool lifecycle) through its
``pipeline_*`` hook methods and consumes :class:`CompletedBatch` records.

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

If the pool breaks mid-pipeline (a worker death caught by the liveness
poll, a torn result message, a failed publish) the pool's workers are
terminated and the already-dispatched epochs are re-enumerated by the
coordinator from their *frozen* published segments, which outlive the
workers.  The live graph — which may already carry later batches'
mutations — is never touched, so the results stay bit-identical to a
fault-free run.  The pool is then closed and the engine enumerates
serially for the rest of its life.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

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
    from repro.core.enumeration import EnumerationContext, WorkUnits
    from repro.core.registry import MultiQueryEngine, QueryRuntime
    from repro.streams.generator import Snapshot

#: the supported execution modes of :class:`BatchPipeline`
PIPELINE_MODES = ("serial", "pipelined")


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


@dataclass
class _PendingPhase:
    """A dispatched-but-undrained phase: everything needed to drain or recover."""

    phase: PhaseOutcome
    contexts: "dict[int, EnumerationContext]"
    pool: SharedMemoryPool
    handle: DispatchedEpoch
    slots: "dict[int, QueryRuntime]"
    dispatched_at: float


# ---------------------------------------------------------------------- mutation steps
# The one order in which a batch mutates the graph and every query's DEBI:
# the pipeline, ``load_initial`` and journal replay all call these two.
def apply_insertions(
    graph, slots: "dict[int, QueryRuntime]", columns: EventColumns, phase: PhaseOutcome
) -> list[int]:
    """Insert ``columns`` into the graph, then into every query's index.

    Records the graph and per-query filter time (and traversals) in
    ``phase``; returns the new edge ids.
    """
    start = time.perf_counter()
    new_ids = graph.apply_insert_columns(
        columns.src, columns.dst, columns.label, columns.timestamp,
        columns.src_label, columns.dst_label,
    )
    phase.graph_update_seconds += time.perf_counter() - start
    ids = np.asarray(new_ids, dtype=np.int64)
    for qid, runtime in slots.items():
        _filtered(phase, qid, runtime.index_manager.handle_insert_columns,
                  ids, columns.src, columns.dst, columns.label)
    return new_ids


def apply_deletions(
    graph, slots: "dict[int, QueryRuntime]", doomed: np.ndarray, phase: PhaseOutcome
) -> None:
    """Delete the resolved edge ids ``doomed`` from the graph and every index.

    Each query first notes which doomed edges hold which DEBI bit (reads
    the graph deletes do not affect); then the deletes apply in event
    order (free-id parity), each DEBI clears the rows in one bulk write,
    and each index repairs itself from the deleted edges.
    """
    start = time.perf_counter()
    held = {qid: runtime.index_manager.held_bits(doomed) for qid, runtime in slots.items()}
    deleted = graph.apply_delete_columns(doomed)
    for runtime in slots.values():
        runtime.debi.clear_edges(doomed)
    phase.graph_update_seconds += time.perf_counter() - start
    for qid, runtime in slots.items():
        _filtered(phase, qid, runtime.index_manager.handle_deletions, deleted, held[qid])


def _filtered(phase: PhaseOutcome, qid: int, update, *args) -> None:
    """Run one query's index update, charging its time and traversals to ``phase``."""
    query_phase = phase.per_query.setdefault(qid, QueryPhaseOutcome())
    start = time.perf_counter()
    frontier = update(*args)
    query_phase.filter_seconds += time.perf_counter() - start
    query_phase.filter_traversals += frontier.traversed_edges


# ---------------------------------------------------------------------- the pipeline
class BatchPipeline:
    """The single implementation of the per-batch execution loop.

    ``mode`` picks serial (default) or pipelined execution for streamed
    runs; one-shot entry points (:meth:`process_batch`) always run
    serially — there is no next batch to overlap with.
    """

    def __init__(self, host: "MultiQueryEngine", mode: str = "serial") -> None:
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
        an ingest tier that already decoded (the journal, the sliding
        window) shares the arrays with the engine.
        """
        if self.mode != "pipelined":
            for snapshot in snapshots:
                batch = self.process_batch(
                    snapshot.number, snapshot.insert_columns(), snapshot.delete_columns()
                )
                self.host.pipeline_batch_applied(batch)
                yield batch
            return
        inflight: deque[CompletedBatch] = deque()
        for snapshot in snapshots:
            batch = self._new_batch(
                snapshot.number, snapshot.insert_columns(), snapshot.delete_columns()
            )
            self._run_phases(batch, overlap=True)
            self.host.pipeline_batch_applied(batch)
            inflight.append(batch)
            while inflight and inflight[0].complete:
                yield inflight.popleft()
        self.flush()
        yield from inflight

    def flush(self) -> None:
        """Drain every dispatched epoch (oldest first); phases become complete."""
        while self._pending:
            self._drain_oldest()

    # ------------------------------------------------------------------ insert phase
    def _run_insert_phase(self, columns, overlap: bool) -> PhaseOutcome:
        slots = self.host.pipeline_slots()
        phase = PhaseOutcome(positive=True, num_events=len(columns))
        new_ids = apply_insertions(self.host.graph, slots, columns, phase)
        contexts, units = self._decompose(slots, phase, new_ids, True)
        self._enumerate_phase(phase, slots, contexts, units, overlap=overlap)
        return phase

    # ------------------------------------------------------------------ delete phase
    def _run_delete_phase(self, columns: "EventColumns", overlap: bool) -> PhaseOutcome:
        from repro.core.registry import resolve_deletions

        graph = self.host.graph
        slots = self.host.pipeline_slots()
        phase = PhaseOutcome(positive=False, num_events=len(columns))

        resolve_start = time.perf_counter()
        doomed = resolve_deletions(graph, columns)
        phase.graph_update_seconds += time.perf_counter() - resolve_start

        # Enumerate (or dispatch) the embeddings about to be destroyed
        # before mutating anything: an inline run finishes right here; a
        # dispatched run reads the snapshot published by the dispatch,
        # which freezes the pre-delete graph and DEBI.  In pipelined mode
        # the mutations below run while the workers are still enumerating
        # that frozen epoch.
        contexts, units = self._decompose(slots, phase, doomed.tolist(), False)
        self._enumerate_phase(phase, slots, contexts, units, overlap=overlap)
        apply_deletions(graph, slots, doomed, phase)
        return phase

    # ------------------------------------------------------------------ shared plumbing
    def _decompose(self, slots, phase: PhaseOutcome, edge_ids: list[int], positive: bool):
        """Per query: build an enumeration context and decompose the batch into units."""
        from repro.core.enumeration import decompose_batch

        graph = self.host.graph
        batch_ids = set(edge_ids)
        contexts: dict[int, "EnumerationContext"] = {}
        units: dict[int, "WorkUnits"] = {}
        shared_cache: dict | None = {} if len(slots) > 1 else None
        for qid, runtime in slots.items():
            context = runtime.make_context(
                graph, batch_ids, positive, shared_pool_cache=shared_cache
            )
            contexts[qid] = context
            units[qid] = decompose_batch(context, edge_ids)
            phase.per_query.setdefault(qid, QueryPhaseOutcome()).work_units += len(units[qid])
        return contexts, units

    def _amortized(self, total_units: int) -> bool:
        """Is the phase big enough to amortise one O(V + E) snapshot export?

        Publication is O(V + E) (parent export + per-worker view build);
        one unit enumerates in roughly the time ~1000 placeholders take
        to export, so a phase must carry enough units per worker AND
        enough units relative to the graph size, or the serial path wins.
        """
        workers = self.host.config.parallel.num_workers
        return total_units >= 2 * workers and total_units * 1000 >= self.host.graph.num_placeholders

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
                    # fault here gets the identical recovery from the
                    # frozen segments.
                    while not phase.complete and self._pending:
                        self._drain_oldest()
                    return
                except PoolBrokenError as exc:
                    self._handle_pool_broken(pool, exc)
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
    def _drain_oldest(self) -> None:
        pending = self._pending.popleft()
        try:
            drained = pending.pool.drain(pending.handle)
        except PoolBrokenError as exc:
            self._pending.appendleft(pending)
            self._handle_pool_broken(pending.pool, exc)
            return
        self._complete_phase(
            pending.phase,
            pending.contexts,
            drained.outcomes,
            wall=time.perf_counter() - pending.dispatched_at,
        )

    def _handle_pool_broken(self, pool: SharedMemoryPool, exc: PoolBrokenError) -> None:
        """Recover every dispatched epoch parent-side, then go serial for good.

        The live graph may already carry later batches' mutations, so the
        in-flight phases are re-enumerated against their *published*
        epochs: the pool's workers are terminated but its frozen segments
        stay alive until the host closes the pool, after recovery.
        """
        pool.terminate()
        pending, self._pending = list(self._pending), deque()
        for item in pending:
            outcomes = self._recover_phase(item)
            self._complete_phase(
                item.phase,
                item.contexts,
                outcomes,
                wall=time.perf_counter() - item.dispatched_at,
            )
        self.host.pipeline_pool_broken(recovered=len(pending))
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
