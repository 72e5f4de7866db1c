"""Parallel enumeration backends.

Embedding enumeration is embarrassingly parallel across work units
(Section VI), so Mnemonic distributes units to workers with a pull-based
scheme: fine-grained units + dynamic pulling give good load balance on
power-law graphs where a few units dominate.

Two backends are provided:

``serial``
    Run the batch's units as one kernel call on the calling thread
    (baseline, deterministic).

``process``
    A *persistent* pool of worker processes over a shared-memory
    snapshot.  The pool is spawned once per engine lifetime; before each
    batch the engine publishes the graph (its own columns) and DEBI
    (as raw bit buffers) into a ``multiprocessing.shared_memory``
    segment, and only work-unit columns and embedding blocks (two int64
    arrays each) cross the pipes, a few slices per worker and epoch
    (:func:`slice_units`), one kernel call each.  When the pool cannot be
    spawned the engine enumerates serially; a pool that breaks mid-run is
    closed and the engine enumerates serially from then on (see
    ``docs/parallelism.md``).

There is no thread backend: the kernel is a sequence of short numpy
calls, so Python threads convoy on the GIL and every measured thread
count ran at 0.90-0.96x of ``serial``.  One returns only with a
GIL-releasing kernel step and a measured win.
"""

from __future__ import annotations

import queue
import signal as signal_module
import time
import traceback
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.results import Embeddings
from repro.core.shared_snapshot import (
    SharedSnapshotWriter,
    SnapshotAttachment,
    disable_shm_resource_tracking,
    shared_memory_available,
)
from repro.utils import faults as fault_injection
from repro.utils.validation import ConfigurationError, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.enumeration import EnumerationContext, QueryState, WorkUnits

#: Fewest units worth a kernel call of their own.  A call's fixed cost is
#: ~7 ms of numpy dispatch and the marginal unit ~26 us (dense T_6 on the
#: e2e netflow stream), so a smaller slice is mostly overhead.
MIN_SLICE_UNITS = 256


def slice_units(units: "WorkUnits", num_workers: int) -> "list[WorkUnits]":
    """Cut one (epoch, query)'s units into the slices the workers pull.

    ``clamp(len(units) // MIN_SLICE_UNITS, 1, 2 * num_workers)`` strided
    slices: hub edges arrive clustered in batch order and a stride
    spreads them, two slices per worker leave the dynamic pull something
    to balance with, and the cap bounds the arenas and result blocks
    alive at once (the table in ``docs/parallelism.md``).
    """
    k = max(1, min(len(units) // MIN_SLICE_UNITS, 2 * num_workers))
    return [units[i::k] for i in range(k)]


@dataclass
class ParallelConfig:
    """How enumeration work units are executed.

    Attributes
    ----------
    backend:
        ``"serial"`` or ``"process"``.

        * ``"serial"`` (default) runs each batch's units as one kernel
          call on the calling thread — deterministic, zero overhead.
        * ``"process"`` uses the persistent shared-memory worker pool.
          It pays one snapshot publication per batch, so it can only win
          once per-batch enumeration time dominates that cost (roughly:
          thousands of work units or embeddings per batch).
    num_workers:
        Number of pool workers for the process backend.  ``1`` always
        degenerates to the serial path.  More workers than physical
        cores does not help.
    """

    backend: str = "serial"
    num_workers: int = 1

    def __post_init__(self) -> None:
        if self.backend not in ("serial", "process"):
            raise ConfigurationError(
                f"backend must be 'serial' or 'process', got {self.backend!r} "
                "(the thread backend ran the same single kernel call as 'serial'; use that)"
            )
        check_positive(self.num_workers, "num_workers")


@dataclass
class WorkerStats:
    """Per-worker accounting used for Figures 7 and 13."""

    worker_id: int
    units_processed: int = 0
    embeddings_found: int = 0
    #: attach + kernel: everything between pulling a task and answering it
    busy_seconds: float = 0.0
    #: (start, end) wall-clock intervals during which the worker was busy
    busy_intervals: list[tuple[float, float]] = field(default_factory=list)
    #: between pulling a task and entering the kernel: an epoch's first task
    #: pays ``SnapshotAttachment.views`` + ``make_context``, later ones find both
    attach_seconds: float = 0.0
    #: inside ``columnar_enumerate(_packed)``, over ``kernel_calls`` calls
    kernel_seconds: float = 0.0
    kernel_calls: int = 0
    #: embedding-block bytes put on the result queue (0 when only counting)
    result_bytes: int = 0

    def utilisation(self, wall_seconds: float) -> float:
        """Fraction of ``wall_seconds`` this worker spent processing units.

        A non-positive wall clock (clock resolution on a tiny batch)
        cannot show idle time: a worker that did any work counts as
        fully utilised, one that did nothing as idle, so the mean stays
        in [0, 1] instead of collapsing to 0 or dividing by zero.
        """
        if wall_seconds <= 0:
            return 1.0 if self.busy_seconds > 0 else 0.0
        return min(1.0, self.busy_seconds / wall_seconds)


@dataclass
class EnumerationOutcome:
    """Embeddings plus scheduling statistics for one parallel enumeration call.

    ``num_embeddings`` is authoritative: when the caller asked not to
    collect embeddings (count-only mode) the shared-memory pool ships
    bare counts back and ``embeddings`` stays empty.
    """

    embeddings: Embeddings
    worker_stats: list[WorkerStats]
    wall_seconds: float
    num_embeddings: int = -1

    def __post_init__(self) -> None:
        if self.num_embeddings < 0:
            self.num_embeddings = len(self.embeddings)

    def mean_utilisation(self) -> float:
        if not self.worker_stats:
            return 0.0
        return sum(w.utilisation(self.wall_seconds) for w in self.worker_stats) / len(
            self.worker_stats
        )


# ---------------------------------------------------------------------- serial backend
def run_serial(
    context: "EnumerationContext", units: "WorkUnits", collect: bool = True
) -> EnumerationOutcome:
    """Enumerate ``units`` with one kernel call in the calling process.

    The whole unit list runs through one batched kernel invocation;
    per-unit busy intervals would be fiction, so the batch is one
    interval and every unit counts as processed.
    """
    from repro.core.enumeration import columnar_enumerate

    stats = WorkerStats(worker_id=0)
    start = time.perf_counter()
    embeddings, found = columnar_enumerate(context, units, collect=collect)
    wall = time.perf_counter() - start
    stats.units_processed = len(units)
    stats.embeddings_found = found
    stats.busy_seconds = stats.kernel_seconds = wall
    stats.kernel_calls = 1
    if len(units):
        stats.busy_intervals.append((0.0, wall))
    return EnumerationOutcome(embeddings, [stats], wall, num_embeddings=found)


# ---------------------------------------------------------------------- shared-memory pool
class PoolBrokenError(RuntimeError):
    """A pool worker died or misbehaved; the pool cannot be trusted further."""


@dataclass
class _InflightEpoch:
    """Parent-side accounting for one dispatched-but-undrained epoch."""

    epoch: int
    contexts: "dict[int, EnumerationContext]"
    pending: int
    start: float
    stats: dict[tuple[int, int], WorkerStats] = field(default_factory=dict)
    embeddings: dict[int, Embeddings] = field(default_factory=dict)
    totals: dict[int, int] = field(default_factory=dict)
    scanned: dict[int, int] = field(default_factory=dict)
    failure: str | None = None


@dataclass(frozen=True)
class DispatchedEpoch:
    """Handle for a non-blocking :meth:`SharedMemoryPool.dispatch` call.

    Carries the published descriptor and the dispatched units so a
    caller can recover the exact frozen epoch (parent-side attach +
    serial re-enumeration) should the pool break before the drain — the
    live graph may have moved on by then.
    """

    epoch: int
    descriptor: dict
    units: "dict[int, WorkUnits]"


@dataclass(frozen=True)
class DrainedEpoch:
    """Per-query outcomes of one fully drained epoch."""

    epoch: int
    outcomes: dict[int, EnumerationOutcome]


def _pool_worker_main(
    worker_id: int, query_states: "dict[int, QueryState]", task_queue, result_queue
):
    """Entry point of one persistent pool worker.

    Loops pulling ``(epoch, descriptor, query_id, unit_slice, collect)``
    tasks from the shared queue (dynamic load balancing), attaching to
    the published snapshot once per epoch, and answering each slice —
    one kernel call — with its count and its embedding blocks (none when
    only counting), tagged with the query id for parent-side routing.
    Contexts are built lazily per (epoch, query) but charge
    ``candidates_scanned`` per task, so a slice costs the same whichever
    worker pulls it; all queries of an epoch share one candidate-pool
    cache, so a pool scanned for one query is reused by the others.
    ``None`` is the shutdown sentinel.
    """
    disable_shm_resource_tracking()
    from repro.core.enumeration import EmbeddingArena, columnar_enumerate_packed

    attachment = SnapshotAttachment()
    trees = {qid: qs.tree for qid, qs in query_states.items()}
    contexts: dict[int, "EnumerationContext"] = {}
    # Arenas persist across epochs (contexts do not): steady-state
    # streaming reuses the same preallocated blocks batch after batch.
    arenas: defaultdict[int, "EmbeddingArena"] = defaultdict(EmbeddingArena)
    # Cross-query sharing only: a single-query pool keeps the per-column
    # memo alone, so its candidates_scanned matches the serial backend
    # exactly (the shared cache is keyed without the DEBI column and
    # would under-count steps that share an anchor pool across columns).
    multi_query = len(query_states) > 1
    shared_cache: dict | None = {} if multi_query else None
    current_epoch: int | None = None
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            epoch, descriptor, query_id, units, collect = task
            try:
                task_start = time.perf_counter()
                if epoch != current_epoch:
                    contexts = {}
                    shared_cache = {} if multi_query else None
                    current_epoch = epoch
                context = contexts.get(query_id)
                if context is None:
                    graph_view, debis, batch_edge_ids = attachment.views(descriptor, trees)
                    context = query_states[query_id].make_context(
                        graph_view,
                        debis[query_id],
                        batch_edge_ids,
                        descriptor["positive"],
                        shared_pool_cache=shared_cache,
                    )
                    contexts[query_id] = context
                context.forget_charges()
                scanned_before = context.candidates_scanned
                fault_injection.worker_units(worker_id, len(units))
                kernel_start = time.perf_counter()
                payload, n_found = columnar_enumerate_packed(
                    context, units, collect, arenas[query_id]
                )
                task_end = time.perf_counter()
                result_queue.put(fault_injection.worker_message((
                    "ok", epoch, worker_id, query_id, len(units), n_found, payload,
                    task_start, kernel_start, task_end,
                    context.candidates_scanned - scanned_before,
                )))
            except Exception:  # pragma: no cover - surfaced parent-side as PoolBrokenError
                result_queue.put(
                    ("err", epoch, worker_id, query_id, len(units), traceback.format_exc())
                )
    finally:
        attachment.detach()


class SharedMemoryPool:
    """A persistent worker pool enumerating over a shared-memory snapshot.

    One instance lives per engine with the ``process`` backend: workers
    are spawned once, the engine publishes a fresh snapshot before each
    batch, and slices of work units are pulled dynamically from a shared
    queue — no repeated worker start-up, no pickling of the graph or of
    per-embedding object graphs.
    """

    #: seconds between liveness checks while waiting for results
    _POLL_SECONDS = 1.0

    def __init__(self, query_states: "dict[int, QueryState]", num_workers: int) -> None:
        import multiprocessing as mp

        self.num_workers = num_workers
        self._writer = SharedSnapshotWriter()
        self._inflight: dict[int, _InflightEpoch] = {}
        self._broken = False
        self._closed = False
        self._terminated = False
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = mp.get_context("spawn")
        # Freeze any armed fault-injection state *before* forking so the
        # children inherit this pool's faults (no-op in production).
        fault_injection.pool_spawning()
        self._task_queue = ctx.Queue()
        self._result_queue = ctx.Queue()
        self._workers = [
            ctx.Process(
                target=_pool_worker_main,
                args=(i, query_states, self._task_queue, self._result_queue),
                daemon=True,
                name=f"mnemonic-pool-{i}",
            )
            for i in range(num_workers)
        ]
        started: list = []
        try:
            for proc in self._workers:
                proc.start()
                started.append(proc)
        except Exception:
            # Partial spawn (e.g. EAGAIN near the process limit): reap the
            # workers that did start before the caller falls back, or they
            # would block on the task queue forever.
            for proc in started:
                proc.terminate()
            for proc in started:
                proc.join(timeout=1.0)
            self._close_queues()
            raise

    @classmethod
    def create_multi(
        cls, query_states: "dict[int, QueryState]", config: ParallelConfig
    ) -> "SharedMemoryPool | None":
        """Spawn a pool serving every query in ``query_states``, or None.

        Returns None (the caller enumerates serially) when shared memory
        is missing or the workers cannot be spawned — e.g. an unpicklable
        match definition under the spawn start method.
        """
        if config.backend != "process" or config.num_workers <= 1:
            return None
        if not query_states or not shared_memory_available():
            return None
        try:
            return cls(query_states, config.num_workers)
        except Exception:
            warnings.warn(
                "shared-memory pool spawn failed; the process backend will "
                f"enumerate serially instead:\n{traceback.format_exc()}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    @property
    def usable(self) -> bool:
        return not self._broken and not self._closed

    @property
    def publish_count(self) -> int:
        """How many snapshot exports this pool has performed (one per publish)."""
        return self._writer.epoch

    @property
    def publish_stats(self) -> dict:
        """How many snapshots this pool published, and their wall time."""
        return {
            "publish_count": self._writer.epoch,
            "publish_seconds": self._writer.publish_seconds,
        }

    # ------------------------------------------------------------------ epoch pipeline
    @property
    def epochs_in_flight(self) -> int:
        return len(self._inflight)

    @property
    def max_epochs_in_flight(self) -> int:
        """How many epochs may be dispatched before one must be drained.

        Bounded by the writer's slot count: publishing epoch ``e``
        overwrites the segment of epoch ``e - num_slots``, so that epoch
        must be fully drained first.
        """
        return self._writer.num_slots

    def dispatch(
        self,
        contexts: "dict[int, EnumerationContext]",
        units: "dict[int, WorkUnits]",
        collect: bool = True,
    ) -> "DispatchedEpoch":
        """Publish a snapshot and enqueue every query's units — without waiting.

        The returned handle identifies the new epoch; pass it to
        :meth:`drain` to join on the results.  Non-blocking by design:
        the coordinator of the pipelined batch loop dispatches batch
        ``k``'s enumeration, then mutates the live graph for batch
        ``k + 1`` while the workers chew — the workers only ever read the
        published (frozen) shared-memory epoch, never the live graph.
        At most :attr:`max_epochs_in_flight` epochs may be outstanding
        (the writer's double buffer bounds it); dispatching beyond that
        raises :class:`PoolBrokenError` rather than corrupting a slot a
        worker may still be reading.
        """
        if not self.usable:
            raise PoolBrokenError("pool is closed or broken")
        if len(self._inflight) >= self.max_epochs_in_flight:
            raise PoolBrokenError(
                f"{len(self._inflight)} epochs already in flight; drain one "
                f"before dispatching (writer has {self._writer.num_slots} slots)"
            )
        reference = next(iter(contexts.values()))
        try:
            descriptor = self._writer.publish(
                reference.graph,
                {qid: ctx.debi for qid, ctx in contexts.items()},
                reference.batch_edge_ids,
                reference.positive,
            )
        except Exception as exc:
            self._broken = True
            raise PoolBrokenError(f"snapshot publication failed: {exc}") from exc
        epoch = descriptor["epoch"]
        tasks = [
            (qid, piece)
            for qid, query_units in units.items()
            if len(query_units)
            for piece in slice_units(query_units, self.num_workers)
        ]
        self._inflight[epoch] = _InflightEpoch(
            epoch=epoch,
            contexts=contexts,
            pending=len(tasks),
            start=time.perf_counter(),
            embeddings={qid: Embeddings() for qid in contexts},
            totals={qid: 0 for qid in contexts},
            scanned={qid: 0 for qid in contexts},
        )
        for qid, piece in tasks:
            self._task_queue.put((epoch, descriptor, qid, piece, collect))
        return DispatchedEpoch(epoch=epoch, descriptor=descriptor, units=units)

    def drain(self, handle: "DispatchedEpoch") -> "DrainedEpoch":
        """Join on one dispatched epoch and return its per-query outcomes.

        Results of *other* in-flight epochs arriving meanwhile are
        buffered into their own epoch state, so epochs may be drained in
        any order (the pipeline drains them oldest-first).  There is no
        deadline: a worker that dies is caught by the liveness poll, but
        one that hangs without dying is waited on.
        """
        epoch = handle.epoch
        state = self._inflight.get(epoch)
        if state is None:
            raise PoolBrokenError(f"epoch {epoch} is not in flight")
        while state.pending:
            self._route_result(self._next_result())
        del self._inflight[epoch]
        wall = time.perf_counter() - state.start
        if state.failure is not None:
            self._broken = True
            raise PoolBrokenError(f"pool worker failed:\n{state.failure}")
        outcomes: dict[int, EnumerationOutcome] = {}
        for qid, context in state.contexts.items():
            # Mirror the serial path's context-side counters so traversal
            # metrics stay comparable across backends.
            context.candidates_scanned += state.scanned[qid]
            context.embeddings_found += state.totals[qid]
            outcomes[qid] = EnumerationOutcome(
                state.embeddings[qid],
                [st for (owner, _), st in state.stats.items() if owner == qid],
                wall,
                num_embeddings=state.totals[qid],
            )
        return DrainedEpoch(epoch=epoch, outcomes=outcomes)

    def _route_result(self, message) -> None:
        """Book one worker message into its epoch's in-flight state.

        A malformed (torn) message — a worker died mid-``put`` or the
        pipe delivered garbage — must break the pool like a crash does,
        not raise an arbitrary unpack error into the drain loop.
        """
        try:
            kind, epoch = message[0], message[1]
            state = self._inflight.get(epoch)
            if state is None:  # pragma: no cover - defensive: unknown epoch
                return
            if kind == "err":
                state.pending -= 1
                state.failure = message[5]
                return
            (_, _, worker_id, qid, n_units, n_found, payload, task_start,
             kernel_start, task_end, scanned) = message
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            self._broken = True
            raise PoolBrokenError(
                f"malformed result message from a pool worker (torn write?): "
                f"{message!r}"
            ) from exc
        state.pending -= 1
        state.totals[qid] += n_found
        state.scanned[qid] += scanned
        state.embeddings[qid].blocks.extend(payload)  # no block when only counting
        st = state.stats.setdefault((qid, worker_id), WorkerStats(worker_id=worker_id))
        st.units_processed += n_units
        st.embeddings_found += n_found
        st.busy_seconds += task_end - task_start
        st.busy_intervals.append((task_start - state.start, task_end - state.start))
        st.attach_seconds += kernel_start - task_start
        st.kernel_seconds += task_end - kernel_start
        st.kernel_calls += 1
        st.result_bytes += sum(b.nodes.nbytes + b.edges.nbytes for b in payload)

    @staticmethod
    def _describe_death(proc) -> str:
        """One dead worker's obituary: name, pid, signal name or exit code."""
        code = proc.exitcode
        if code is not None and code < 0:
            try:
                cause = f"killed by {signal_module.Signals(-code).name}"
            except ValueError:  # pragma: no cover - unknown signal number
                cause = f"killed by signal {-code}"
        else:
            cause = f"exited with code {code}"
        return f"{proc.name} (pid {proc.pid}) {cause}"

    def _dead_workers_detail(self) -> str:
        """Describe every dead worker, for the PoolBrokenError message."""
        return "; ".join(
            self._describe_death(proc)
            for proc in self._workers
            if not proc.is_alive()
        )

    def _next_result(self):
        """Fetch one result, polling worker liveness so a crash cannot deadlock."""
        while True:
            try:
                return self._result_queue.get(timeout=self._POLL_SECONDS)
            except queue.Empty:
                dead = self._dead_workers_detail()
                if dead:
                    self._broken = True
                    raise PoolBrokenError(
                        f"pool worker died while processing a batch: {dead}"
                    )

    # ------------------------------------------------------------------ lifecycle
    def terminate(self, join_timeout: float = 2.0) -> None:
        """Kill the workers but keep the shared-memory segments alive.

        This is the broken-pool path: the frozen epochs this pool published
        must stay attachable for parent-side recovery, so only the
        processes and queues are torn down here.  :meth:`close` later
        unlinks the segments.  Idempotent.
        """
        if self._terminated or self._closed:
            return
        self._terminated = True
        self._broken = True
        for proc in self._workers:
            if proc.is_alive():
                proc.terminate()
        for proc in self._workers:
            proc.join(timeout=join_timeout)
        self._close_queues()

    def _close_queues(self) -> None:
        for q in (self._task_queue, self._result_queue):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:  # pragma: no cover - queue already torn down
                pass

    def close(self, join_timeout: float = 2.0) -> None:
        """Shut the workers down and unlink the shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        if not self._terminated:
            for _ in self._workers:
                try:
                    self._task_queue.put(None)
                except Exception:  # pragma: no cover - queue already torn down
                    break
            for proc in self._workers:
                proc.join(timeout=join_timeout)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=join_timeout)
            self._close_queues()
        self._writer.close()
