"""Shared-memory snapshot publication for the persistent worker pool.

The shared-memory ``process`` backend (see :mod:`repro.core.parallel`)
keeps one pool of worker processes alive for the whole engine lifetime.
Instead of re-forking per batch and pickling the engine state, the
parent *publishes* the current snapshot before each enumeration call:

* the :class:`~repro.graph.adjacency.DynamicGraph`'s own columns, each
  cut to what is in use (:meth:`DynamicGraph.export_arrays`): workers
  rebuild a read-only ``DynamicGraph`` over them
  (:meth:`DynamicGraph.attach_arrays`), so they read the one layout the
  parent maintains, through the same code and the same native kernel,
* DEBI's :class:`~repro.utils.bitset.BitMatrix` / ``BitVector`` word
  buffers are exported raw (:meth:`DEBI.export_buffers`),
* the batch edge-id set joins them as one more int64 array,

and all of them are memcpy'd, whole, into a ``multiprocessing.shared_memory``
segment.  Workers receive only a small *descriptor* (segment name +
per-array dtype/shape/offset + epoch) and attach zero-copy numpy views
over the segment — no object deserialisation on the hot path.

Epochs and double buffering
---------------------------
Every publication opens a new *epoch* (a monotonically increasing
counter).  :class:`SharedSnapshotWriter` keeps **two** segment slots and
alternates between them: epoch ``e`` lives in slot ``e % 2``, so the
writer always memcpy's into the slot the *previous* epoch is not using.
This is what makes pipelined execution safe: the engine can stage and
publish batch ``k+1``'s snapshot while pool workers are still
enumerating batch ``k`` over the other slot — an in-place overwrite of a
single segment would corrupt their in-flight reads.  At most two epochs
may therefore be in flight at once; the pool drains epoch ``e`` before
the writer reuses its slot for epoch ``e + 2``.

A worker's :class:`SnapshotAttachment` keeps one mapping per segment
*name* and re-maps only when a slot's segment was replaced (capacity
growth); flipping between the two slots costs no re-attachment.  On
POSIX an unlinked segment stays mapped until the last attachment closes,
so the parent can safely replace a segment while workers still hold the
old one.
"""

from __future__ import annotations

import secrets
import time
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.shared_memory import SharedMemory

    from repro.core.debi import DEBI
    from repro.graph.adjacency import DynamicGraph


def shared_memory_available() -> bool:
    """Can ``multiprocessing.shared_memory`` be used on this platform?"""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:
        return False
    return True


#: guards against re-wrapping the tracker functions on repeated calls
_WORKER_TRACKING_DISABLED = False


def disable_shm_resource_tracking() -> None:
    """Make this process fully passive towards shared-memory segments.

    Must be called once at *worker* start-up, and only in processes that
    never own a segment.  On Python < 3.13 every ``SharedMemory`` attach
    registers the segment with the process's resource tracker, which
    then "cleans it up" (unlinks it and warns) when the worker exits —
    even though the parent still owns it; so worker-side ``register``
    and ``unregister`` are made shared-memory no-ops.

    Worker-side ``unlink`` is also made a no-op: on Python < 3.12 a
    failed ``mmap`` during *attach* unlinks the segment as "cleanup"
    (the create-path error handling does not special-case attach),
    which would destroy a live parent-owned segment and send the shared
    resource tracker an unregister it never saw a register for.  A
    worker that cannot attach reports the error through its result
    queue; it must never take the segment down with it.

    Never call this in the pool's parent: the parent owns the segments,
    and a no-op ``unlink`` there would leak every ``/dev/shm`` file the
    writers create.  The parent needs no tracker suppression at all —
    re-registering its own segment on attach is an idempotent set-add
    in the tracker's cache, balanced by the real ``unlink`` later.
    """
    global _WORKER_TRACKING_DISABLED
    if _WORKER_TRACKING_DISABLED:
        return
    try:
        from multiprocessing import resource_tracker, shared_memory

        def shm_transparent(original):
            def wrapped(name, rtype):  # pragma: no cover - runs in worker processes
                if rtype == "shared_memory":
                    return
                original(name, rtype)

            return wrapped

        resource_tracker.register = shm_transparent(resource_tracker.register)
        resource_tracker.unregister = shm_transparent(resource_tracker.unregister)
        shared_memory.SharedMemory.unlink = lambda self: None  # type: ignore[method-assign]
        _WORKER_TRACKING_DISABLED = True
    except Exception:  # pragma: no cover - tracker layout changed
        pass


def _align(offset: int, alignment: int = 8) -> int:
    return (offset + alignment - 1) // alignment * alignment


class _SegmentSlot:
    """One shared-memory segment of the double-buffered writer and the reserved
    layout of its arrays: per array its dtype, byte offset and reserved bytes."""

    __slots__ = ("shm", "layout")

    def __init__(self) -> None:
        self.shm: "SharedMemory | None" = None
        self.layout: dict[str, tuple[str, int, int]] | None = None

    def ensure_capacity(self, needed: int) -> None:
        """(Re)allocate the segment so it holds ``needed`` bytes."""
        if self.shm is not None and self.shm.size >= needed:
            return
        from multiprocessing import shared_memory

        self.close()
        # 1.5x slack so steadily growing graphs do not reallocate every batch.
        capacity = max(needed + needed // 2, 4096)
        name = f"mnemonic_{secrets.token_hex(6)}"
        self.shm = shared_memory.SharedMemory(name=name, create=True, size=capacity)

    def fits(self, arrays: dict[str, np.ndarray]) -> bool:
        """Do ``arrays`` fit the reserved layout: the same names and dtypes, none larger?"""
        layout = self.layout
        return layout is not None and list(layout) == list(arrays) and all(
            array.dtype.str == layout[key][0] and array.nbytes <= layout[key][2]
            for key, array in arrays.items()
        )

    def close(self) -> None:
        if self.shm is not None:
            try:
                self.shm.close()
                self.shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover - already gone
                pass
            self.shm = None
        self.layout = None


class SharedSnapshotWriter:
    """Parent-side publisher: copies snapshot arrays into two alternating slots.

    Consecutive epochs land in different segments, so a publication never
    overwrites the epoch workers may still be enumerating — the double
    buffering the pipelined mode relies on.
    """

    #: segments the writer alternates between
    num_slots = 2

    def __init__(self) -> None:
        self._slots = [_SegmentSlot() for _ in range(self.num_slots)]
        self._epoch = 0
        self.publish_seconds = 0.0

    # ------------------------------------------------------------------ publication
    def publish(
        self,
        graph: "DynamicGraph",
        debis: "DEBI | dict[int, DEBI]",
        batch_edge_ids,
        positive: bool,
    ) -> dict:
        """Copy the current snapshot into the inactive slot; return its descriptor.

        ``debis`` is either one index (single-query engine) or a
        ``query_id -> DEBI`` mapping (multi-query engine); either way the
        graph is exported **once** and every index rides in the same
        segment.  The descriptor is a small picklable dict: segment name,
        epoch, the layout of every array (dtype / shape / byte offset)
        and the scalar metadata workers need to rebuild graph + DEBI
        views.
        """
        start = time.perf_counter()
        if not isinstance(debis, dict):
            debis = {0: debis}
        arrays: dict[str, np.ndarray] = {}
        counters: dict[str, int] = {}
        for key, value in graph.export_arrays().items():
            if isinstance(value, np.ndarray):
                arrays[key] = value
            else:
                counters[key] = value
        debi_meta: dict[int, dict] = {}
        for qid, debi in debis.items():
            buffers = debi.export_buffers()
            arrays[f"debi_rows_{qid}"] = buffers["rows"]
            arrays[f"debi_roots_{qid}"] = buffers["roots"]
            debi_meta[qid] = {
                "num_rows": buffers["num_rows"],
                "width": buffers["width"],
                "root_bits": buffers["root_bits"],
            }
        arrays["batch_edges"] = np.fromiter(
            batch_edge_ids, dtype=np.int64, count=len(batch_edge_ids)
        )

        # The *next* epoch decides the slot, so consecutive epochs always
        # land in different segments (double-buffer invariant).
        slot = self._slots[(self._epoch + 1) % self.num_slots]
        layout = self._write_slot(slot, arrays)

        self._epoch += 1
        self.publish_seconds += time.perf_counter() - start
        return {
            "name": slot.shm.name,
            "epoch": self._epoch,
            "layout": layout,
            "graph": counters,
            "debi_meta": debi_meta,
            "positive": positive,
        }

    @staticmethod
    def _write_slot(
        slot: _SegmentSlot, arrays: dict[str, np.ndarray]
    ) -> dict[str, tuple[str, tuple[int, ...], int]]:
        """Copy every array into ``slot``; return the descriptor layout (dtype / shape /
        byte offset per array).

        The slot keeps its reserved layout — each array at a fixed offset with
        half its size again as slack — while every array fits it, so steady growth
        keeps the offsets across many publications; otherwise the arrays are laid
        out afresh.
        """
        if not slot.fits(arrays):
            layout: dict[str, tuple[str, int, int]] = {}
            offset = 0
            for key, array in arrays.items():
                reserved = _align(max(array.nbytes + array.nbytes // 2, 64))
                layout[key] = (array.dtype.str, offset, reserved)
                offset += reserved
            slot.ensure_capacity(offset)
            slot.layout = layout
        buf = slot.shm.buf
        descriptor: dict[str, tuple[str, tuple[int, ...], int]] = {}
        for key, array in arrays.items():
            dtype, offset, _ = slot.layout[key]
            np.ndarray(array.shape, dtype=array.dtype, buffer=buf, offset=offset)[...] = array
            descriptor[key] = (dtype, array.shape, offset)
        return descriptor

    @property
    def epoch(self) -> int:
        return self._epoch

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Unlink every segment (workers keep their mappings until they detach)."""
        for slot in self._slots:
            slot.close()


class SnapshotAttachment:
    """Worker-side attachment: rebuild graph / DEBI views from a descriptor.

    Caches the derived views per epoch (many work-unit chunks of the
    same batch pay the view construction once) and one segment mapping
    per name, so flipping between the writer's two slots never re-maps —
    only a slot whose segment was replaced (capacity growth) triggers a
    fresh attach.  Stale mappings are dropped lazily: the writer runs at
    most ``num_slots`` live segments, so the attachment keeps at most
    that many once it has seen each slot.
    """

    #: mappings kept per worker; matches the writer's two slots plus slack
    #: for segments replaced by growth (they are unlinked parent-side and
    #: reclaimed once dropped here)
    _MAX_MAPPINGS = 4

    def __init__(self) -> None:
        self._segments: dict[str, "SharedMemory"] = {}
        #: epoch of the cached views (one writer per attachment)
        self._cached_epoch: int | None = None
        self._views: tuple | None = None

    def _segment(self, name: str) -> "SharedMemory":
        shm = self._segments.get(name)
        if shm is None:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(name=name)
            self._segments[name] = shm
            while len(self._segments) > self._MAX_MAPPINGS:
                # Oldest mapping first (dict preserves insertion order).
                stale_name = next(iter(self._segments))
                stale = self._segments.pop(stale_name)
                try:
                    stale.close()
                except OSError:  # pragma: no cover - mapping already gone
                    pass
        return shm

    def views(self, descriptor: dict, trees) -> tuple:
        """Return ``(graph, debis, batch_edge_ids)`` for ``descriptor``: a read-only
        :class:`~repro.graph.adjacency.DynamicGraph` and DEBIs over the segment.

        ``trees`` mirrors what was published: pass one
        :class:`~repro.query.query_tree.QueryTree` to get a single DEBI
        back (single-query engines), or a ``query_id -> tree`` mapping to
        get a ``query_id -> DEBI`` mapping (multi-query pool workers).
        """
        if descriptor["epoch"] == self._cached_epoch and self._views is not None:
            return self._views
        from repro.core.debi import DEBI
        from repro.graph.adjacency import DynamicGraph

        buf = self._segment(descriptor["name"]).buf
        arrays: dict[str, np.ndarray] = {}
        for key, (dtype, shape, offset) in descriptor["layout"].items():
            view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
            view.flags.writeable = False
            arrays[key] = view

        single = not isinstance(trees, dict)
        debis: dict[int, DEBI] = {}
        for qid, meta in descriptor["debi_meta"].items():
            debis[qid] = DEBI.attach_buffers(
                trees if single else trees[qid],
                rows=arrays.pop(f"debi_rows_{qid}"),
                num_rows=meta["num_rows"],
                width=meta["width"],
                roots=arrays.pop(f"debi_roots_{qid}"),
                root_bits=meta["root_bits"],
            )
        batch_edge_ids = set(arrays.pop("batch_edges").tolist())
        graph = DynamicGraph.attach_arrays({**descriptor["graph"], **arrays})
        self._cached_epoch = descriptor["epoch"]
        self._views = (
            graph,
            next(iter(debis.values())) if single and debis else debis,
            batch_edge_ids,
        )
        return self._views

    def detach(self) -> None:
        """Drop the cached views and close every segment mapping."""
        self._views = None
        self._cached_epoch = None
        segments, self._segments = self._segments, {}
        for shm in segments.values():
            try:
                shm.close()
            except OSError:  # pragma: no cover - mapping already gone
                pass
