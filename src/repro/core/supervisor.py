"""Supervised pool lifecycle: respawn, redispatch, deadlines, degradation.

``SharedMemoryPool`` (:mod:`repro.core.parallel`) is fast but mortal: a
worker can be OOM-killed, wedge on a bad allocation, or corrupt a result
message.  Before this module, any of those surfaced as
:class:`~repro.core.parallel.PoolBrokenError` and the engines fell back
to slow parent-side recovery for the rest of the run.  The
:class:`PoolSupervisor` turns those one-way failures into a supervised
lifecycle:

* **Respawn** — when a pool breaks, spawn a replacement under a bounded
  exponential-backoff retry budget (:class:`FaultPolicy.max_respawns`).
* **Redispatch** — in-flight epochs live in *frozen* double-buffered
  shared-memory segments whose names are globally unique, so a
  replacement pool's workers can attach to the retired pool's segments
  and re-run exactly the same work units.  Recovery is therefore
  bit-identical to a fault-free run.
* **Deadlines** — ``FaultPolicy.epoch_deadline_seconds`` bounds how long
  a drain may wait on a wedged worker before the pool is declared broken
  (and the normal respawn path takes over).
* **Degradation ladder** — when the retry budget is exhausted the
  supervisor steps down ``process -> serial`` instead of failing, and
  the transition is counted and surfaced through ``fault_stats()`` on
  the engines and the service.

Retired pools are kept (terminated, but with their shared-memory writer
alive) until their frozen epochs are no longer needed, then released;
their snapshot-export counts remain visible so accounting survives
respawn.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.utils.validation import ConfigurationError, check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.core.parallel import EnumerationOutcome, SharedMemoryPool

#: The backends the supervisor steps through when a crash loop exhausts
#: the respawn budget.  Transitions are one-way within a supervisor.
DEGRADATION_LADDER = ("process", "serial")


@dataclass(frozen=True)
class FaultPolicy:
    """How the execution layer reacts to worker faults.

    The default policy is conservative: no respawns (``max_respawns=0``),
    no deadline.  A broken pool then degrades immediately to serial
    enumeration: recover the in-flight epochs parent-side and stop using
    the pool.  Opting into self-healing is one knob:
    ``FaultPolicy(max_respawns=3)``.
    """

    #: replacement pools to attempt per engine before degrading
    max_respawns: int = 0
    #: backoff before respawn attempt #1 (doubles per attempt by default)
    backoff_initial_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 2.0
    #: wall-clock budget for draining one epoch; ``None`` waits forever
    epoch_deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_respawns < 0:
            raise ConfigurationError(
                f"max_respawns must be >= 0, got {self.max_respawns!r}"
            )
        if self.backoff_initial_seconds < 0:
            raise ConfigurationError(
                f"backoff_initial_seconds must be >= 0, got {self.backoff_initial_seconds!r}"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier!r}"
            )
        if self.backoff_max_seconds < self.backoff_initial_seconds:
            raise ConfigurationError(
                "backoff_max_seconds must be >= backoff_initial_seconds, got "
                f"{self.backoff_max_seconds!r} < {self.backoff_initial_seconds!r}"
            )
        if self.epoch_deadline_seconds is not None:
            check_positive(self.epoch_deadline_seconds, "epoch_deadline_seconds")

    def backoff_seconds(self, attempt: int) -> float:
        """Delay before respawn ``attempt`` (1-based), capped exponential."""
        delay = self.backoff_initial_seconds * self.backoff_multiplier ** (attempt - 1)
        return min(delay, self.backoff_max_seconds)


@dataclass
class SupervisorStats:
    """Counters surfaced through ``fault_stats()`` on engines/service."""

    #: pool breakages observed (crash, deadline, torn message, ...)
    faults: int = 0
    #: replacement pools successfully spawned
    respawns: int = 0
    #: in-flight epochs re-run on a replacement pool from frozen segments
    redispatched_epochs: int = 0
    #: in-flight epochs recovered parent-side (no replacement available)
    recovered_epochs: int = 0
    #: epoch drains aborted by ``epoch_deadline_seconds``
    deadline_expiries: int = 0
    #: one entry per ladder step, e.g. ``"process->serial"``
    degradations: list[str] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {
            "faults": self.faults,
            "respawns": self.respawns,
            "redispatched_epochs": self.redispatched_epochs,
            "recovered_epochs": self.recovered_epochs,
            "deadline_expiries": self.deadline_expiries,
            "degradations": list(self.degradations),
        }


class PoolSupervisor:
    """Owns a :class:`SharedMemoryPool`'s lifecycle for one engine.

    The supervisor does not talk to the pool's queues itself; the
    :class:`~repro.core.pipeline.BatchPipeline` drives dispatch/drain and
    reports breakage through the host hooks, which the engines route
    here.  The supervisor's job is policy: whether to respawn, how long
    to back off, when to give up and step down the degradation ladder,
    and keeping fault/worker accounting coherent across generations.
    """

    def __init__(
        self,
        policy: FaultPolicy,
        factory: Callable[[], "SharedMemoryPool | None"] | None,
    ) -> None:
        self.policy = policy
        self._factory = factory
        self.stats = SupervisorStats()
        #: current rung of :data:`DEGRADATION_LADDER`.  Starts at
        #: "process" even for hosts that never spawn a pool (no factory):
        #: the level tracks *fault-driven* degradation only.
        self.level = "process"
        self._respawns_used = 0
        self._generation = 0
        #: terminated pools whose frozen segments / export counts we still hold
        self._retired: list[SharedMemoryPool] = []
        #: per-(generation, worker) unit/embedding totals, for accounting
        #: that survives respawn (see ``worker_totals``)
        self._worker_totals: dict[tuple[int, int], dict[str, float]] = {}

    # ------------------------------------------------------------- lifecycle
    def spawn(self) -> "SharedMemoryPool | None":
        """Create the initial pool (or ``None`` when no factory applies)."""
        if self._factory is None:
            return None
        return self.note_spawn(self._factory())

    def replace(self, broken: "SharedMemoryPool | None") -> "SharedMemoryPool | None":
        """Retire ``broken`` and try to spawn a replacement under the budget.

        Returns the replacement pool, or ``None`` when the budget is
        exhausted (the supervisor then degrades to serial enumeration).
        The broken pool is terminated but *kept* — its shared-memory
        segments stay alive so in-flight epochs can be redispatched, and
        its ``publish_count`` stays visible until :meth:`release_retired`.
        """
        if broken is not None:
            self.stats.faults += 1
            self.stats.deadline_expiries += getattr(broken, "deadline_expiries", 0)
            broken.terminate()
            self._retired.append(broken)
        while self.level == "process" and self._respawns_used < self.policy.max_respawns:
            self._respawns_used += 1
            delay = self.policy.backoff_seconds(self._respawns_used)
            if delay > 0:
                time.sleep(delay)
            replacement = self._factory() if self._factory is not None else None
            if replacement is not None:
                self.stats.respawns += 1
                return self.note_spawn(replacement)
        if self.level == "process":
            self.stats.degradations.append("process->serial")
            self.level = "serial"
        return None

    def note_spawn(self, pool: "SharedMemoryPool | None") -> "SharedMemoryPool | None":
        if pool is not None:
            pool.generation = self._generation
            self._generation += 1
        return pool

    # ------------------------------------------------------------ accounting
    def note_recovery(self, redispatched: int, recovered: int) -> None:
        self.stats.redispatched_epochs += redispatched
        self.stats.recovered_epochs += recovered

    def record_outcome(self, outcome: "EnumerationOutcome") -> None:
        """Fold an outcome's worker stats into cross-generation totals."""
        for stats in outcome.worker_stats:
            key = (stats.generation, stats.worker_id)
            entry = self._worker_totals.setdefault(
                key, {"units": 0, "embeddings": 0, "busy_seconds": 0.0}
            )
            entry["units"] += stats.units_processed
            entry["embeddings"] += stats.embeddings_found
            entry["busy_seconds"] += stats.busy_seconds

    @property
    def worker_totals(self) -> dict[tuple[int, int], dict[str, float]]:
        """Per-(generation, worker) totals, accumulated across respawns."""
        return dict(self._worker_totals)

    @property
    def retired_publish_count(self) -> int:
        """Snapshot exports owned by retired (not yet released) pools."""
        return sum(pool.publish_count for pool in self._retired)

    def release_retired(self) -> int:
        """Close retired pools (unlinking their segments); return their exports."""
        harvested = 0
        for pool in self._retired:
            harvested += pool.publish_count
            pool.close()
        self._retired.clear()
        return harvested

    def close(self) -> int:
        """Release everything the supervisor still holds."""
        return self.release_retired()
