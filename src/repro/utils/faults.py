"""Deterministic fault injection for the self-healing execution layer.

The supervisor (:mod:`repro.core.supervisor`) promises that worker
crashes, hangs and corrupt IPC messages are survived without changing
results.  Proving that needs *reproducible* faults: this module lets a
test (or :mod:`benchmarks.perf_smoke`'s ``self_healing_parity`` gate)
arm a :class:`FaultPlan` in the parent process, and the pool's forked
workers inherit the armed state and misbehave on cue.

Three fault kinds are supported, mirroring the failure modes the
recovery path must handle:

``kill``
    The worker SIGKILLs itself when its per-process unit counter reaches
    ``kill_at_unit`` — a hard crash mid-epoch, detected parent-side by
    the liveness poll.

``hang``
    The worker sleeps for ``hang_seconds`` instead of enumerating — a
    wedged worker, detected only by the per-epoch deadline.

``torn message``
    The worker replaces one result tuple with a truncated one — a
    corrupt IPC payload the parent must reject without crashing.

Each kind carries a *budget* counting how many pool **generations** are
armed: :func:`pool_spawning` (called by the pool constructor, in the
parent, before the workers fork) consumes one budget unit and freezes
the armed state the children inherit, so "kill one worker in each of the
first k generations" is expressed as ``FaultPlan(kill_at_unit=1,
kills=k)``.

Every hook is a no-op (one module-attribute check) when no plan is
installed, so production runs pay nothing.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class FaultPlan:
    """What to break, when, and for how many pool generations.

    ``*_at_unit`` counters are 1-based and per worker *process*: a
    worker triggers its armed fault before the kernel call of the slice
    holding its Nth work unit.  Arming applies to every worker of a
    generation — whichever worker reaches the threshold first fires
    (others may too), which keeps the trigger deterministic under dynamic
    slice scheduling: some worker always processes a unit, so an armed
    generation always faults.
    """

    #: SIGKILL a worker at its Nth unit, for the next ``kills`` generations
    kill_at_unit: int | None = None
    kills: int = 0
    #: sleep ``hang_seconds`` at the Nth unit, for ``hangs`` generations
    hang_at_unit: int | None = None
    hangs: int = 0
    hang_seconds: float = 3600.0
    #: replace one result tuple with a torn one, for ``torn_messages`` generations
    torn_at_unit: int | None = None
    torn_messages: int = 0


@dataclass
class _ArmedFaults:
    """The per-generation fault state frozen at fork time."""

    generation: int
    kill_at_unit: int | None = None
    hang_at_unit: int | None = None
    hang_seconds: float = 0.0
    torn_at_unit: int | None = None
    #: per-process consumption flag (each forked worker owns its copy)
    torn_sent: bool = False


_PLAN: FaultPlan | None = None
_ARMED: _ArmedFaults | None = None
_GENERATION = 0
#: per-process work-unit counter (only ever advanced inside pool workers)
_UNITS = 0


def install(plan: FaultPlan) -> None:
    """Arm ``plan`` for pools spawned from this process on."""
    global _PLAN, _ARMED, _GENERATION
    _PLAN = plan
    _ARMED = None
    _GENERATION = 0


def clear() -> None:
    """Disarm fault injection (safe to call when nothing is installed)."""
    global _PLAN, _ARMED
    _PLAN = None
    _ARMED = None


def active() -> FaultPlan | None:
    return _PLAN


@contextmanager
def injected(plan: FaultPlan):
    """``with injected(FaultPlan(...)):`` — install for the block, then clear."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


# ---------------------------------------------------------------------- parent-side hooks
def pool_spawning() -> None:
    """Freeze the next pool generation's faults (call before forking workers).

    Consumes one unit of each non-empty budget; the resulting armed
    state is inherited by the children the caller is about to fork.
    Parent-side mutations after the fork never reach them.
    """
    global _ARMED, _GENERATION
    if _PLAN is None:
        _ARMED = None
        return
    plan = _PLAN
    armed = _ArmedFaults(generation=_GENERATION)
    _GENERATION += 1
    if plan.kills > 0 and plan.kill_at_unit is not None:
        plan.kills -= 1
        armed.kill_at_unit = plan.kill_at_unit
    if plan.hangs > 0 and plan.hang_at_unit is not None:
        plan.hangs -= 1
        armed.hang_at_unit = plan.hang_at_unit
        armed.hang_seconds = plan.hang_seconds
    if plan.torn_messages > 0 and plan.torn_at_unit is not None:
        plan.torn_messages -= 1
        armed.torn_at_unit = plan.torn_at_unit
    _ARMED = armed


# ---------------------------------------------------------------------- worker-side hooks
def worker_units(worker_id: int, n: int) -> None:
    """Hook inside a pool worker, before the kernel runs a slice of ``n``
    units: trigger an armed kill or hang whose threshold the slice reaches."""
    global _UNITS
    if _ARMED is None:
        return
    _UNITS += n
    if _ARMED.kill_at_unit is not None and _UNITS >= _ARMED.kill_at_unit:
        os.kill(os.getpid(), signal.SIGKILL)
    if _ARMED.hang_at_unit is not None and _UNITS >= _ARMED.hang_at_unit:
        _ARMED.hang_at_unit = None  # hang once, not on every later unit
        time.sleep(_ARMED.hang_seconds)


def worker_message(message: tuple) -> tuple:
    """Result-queue hook inside a pool worker: tear one armed message."""
    if _ARMED is None or _ARMED.torn_at_unit is None or _ARMED.torn_sent:
        return message
    if _UNITS >= _ARMED.torn_at_unit:
        _ARMED.torn_sent = True
        # Keep the (kind, epoch) prefix so the parent routes it to the
        # right in-flight state before choking on the missing payload.
        return message[:3]
    return message
