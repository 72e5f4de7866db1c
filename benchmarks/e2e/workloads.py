"""Seeded, vectorized stream generators and the six workload definitions.

Every generator draws whole columns at once (one ``rng.choice(..., size=n,
p=w)`` per column), so a 60k-event stream takes tens of milliseconds and
stream generation never competes with the measured section.  ``--seed``
reaches only this module: the engine receives the generated events and
nothing else.

A generator returns an :class:`EventTable` (plain numpy columns, which the
oracle reads without importing ``repro``); :func:`to_events` turns it into
the ``StreamEvent`` list the engine's public API takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INSERT, DELETE = 0, 1

#: seconds per synthetic day of the LANL-like stream
DAY = 24.0 * 60.0

#: Each dataset's *shape* — its edges up to vertex naming, in their coarse
#: arrival order — is drawn once from this constant.  ``--seed`` then renames
#: the vertices, reorders the arrivals inside blocks of ``SHUFFLE_BLOCK``
#: events and redraws the delete victims.  Measured on this repository before
#: freezing: matching work on a skewed multigraph is a high power of a few hub
#: degrees, so two independent draws of one distribution differed by 10-40% in
#: embeddings, and a free reordering of one edge set still moved the heaviest
#: batch enough to shift p95 by 20% and peak RSS (the embedding arena grows
#: geometrically) by 22% between seeds.  With the shape frozen a seed changes
#: the ids, the edge-id assignment and the order inside every batch, but not
#: how much work a batch holds, so the benchmark measures the code.
SHAPE_SEED = 20220530
#: divides every batch size in use, so a batch holds the same events at every seed
SHUFFLE_BLOCK = 256


@dataclass(frozen=True)
class EventTable:
    """One stream as columns; row order is stream order."""

    kind: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    label: np.ndarray
    timestamp: np.ndarray
    src_label: np.ndarray
    dst_label: np.ndarray

    def __len__(self) -> int:
        return int(self.kind.shape[0])


def to_events(table: EventTable) -> list:
    """The ``StreamEvent`` list the engine consumes (native ints and floats)."""
    from repro import StreamEvent
    from repro.streams.events import EventKind

    kinds = (EventKind.INSERT, EventKind.DELETE)
    return [
        StreamEvent(kinds[k], s, d, lb, ts, sl, dl)
        for k, s, d, lb, ts, sl, dl in zip(
            table.kind.tolist(), table.src.tolist(), table.dst.tolist(),
            table.label.tolist(), table.timestamp.tolist(),
            table.src_label.tolist(), table.dst_label.tolist(),
        )
    ]


def _zipf(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def _distinct_endpoints(rng, src: np.ndarray, dst: np.ndarray, vertices: int) -> np.ndarray:
    """Replace self-loops by a uniformly chosen other vertex."""
    loops = src == dst
    shift = rng.integers(1, vertices, size=int(loops.sum()))
    dst = dst.copy()
    dst[loops] = (src[loops] + shift) % vertices
    return dst


def _table(kind, src, dst, label, timestamp, src_label, dst_label) -> EventTable:
    as_int = lambda column: np.ascontiguousarray(column, dtype=np.int64)  # noqa: E731
    return EventTable(
        as_int(kind), as_int(src), as_int(dst), as_int(label),
        np.ascontiguousarray(timestamp, dtype=np.float64),
        as_int(src_label), as_int(dst_label),
    )


def _reseed(rng, vertices: int, src: np.ndarray, dst: np.ndarray, label: np.ndarray):
    """Rename the vertices of a shape and reorder its edges inside blocks.

    Returns the renaming too.  Sorting by (block, random key) shuffles every
    block of ``SHUFFLE_BLOCK`` consecutive rows independently.
    """
    rename = rng.permutation(vertices)
    rows = src.shape[0]
    order = np.lexsort((rng.random(rows), np.arange(rows) // SHUFFLE_BLOCK))
    return rename, rename[src][order], rename[dst][order], label[order]


# ---------------------------------------------------------------------- netflow
def generate_netflow(seed: int, events: int, vertices: int) -> EventTable:
    """Insert-only power-law multigraph: 1 node label, 8 Zipf edge labels.

    Shape: endpoints drawn independently from one Zipf host-popularity
    profile, a tenth of the flows repeating an earlier host pair (parallel
    edges — the multigraph property DEBI is built around), protocols from a
    Zipf profile over 8 labels.
    """
    shape = np.random.default_rng([SHAPE_SEED, 1, events, vertices])
    popularity = _zipf(vertices, 0.5)
    src = shape.choice(vertices, size=events, p=popularity)
    dst = shape.choice(vertices, size=events, p=popularity)
    dst = _distinct_endpoints(shape, src, dst, vertices)
    repeats = np.flatnonzero(shape.random(events) < 0.10)
    earlier = (shape.random(repeats.shape[0]) * repeats).astype(np.int64)
    src[repeats], dst[repeats] = src[earlier], dst[earlier]
    label = shape.choice(8, size=events, p=_zipf(8, 1.0))

    rng = np.random.default_rng([seed, 1])
    _, src, dst, label = _reseed(rng, vertices, src, dst, label)
    zeros = np.zeros(events, dtype=np.int64)
    return _table(zeros, src, dst, label, np.arange(events, dtype=np.float64), zeros, zeros)


# ---------------------------------------------------------------------- lanl
def generate_lanl(seed: int, events: int, vertices: int, days: float = 3.0) -> EventTable:
    """Timestamped stream: 6 node types, 3 edge labels, recurring pairs.

    Timestamps are non-decreasing over ``days`` synthetic days, so a
    sliding window of one day turns every event into an insertion and,
    one day later, a deletion.
    """
    shape = np.random.default_rng([SHAPE_SEED, 2, events, vertices])
    node_type = shape.integers(6, size=vertices)
    src = shape.integers(vertices, size=events)
    dst = shape.integers(vertices, size=events)
    pairs = max(8, vertices // 20)
    pair_src = shape.integers(vertices, size=pairs)
    pair_dst = shape.integers(vertices, size=pairs)
    recurring = np.flatnonzero(shape.random(events) < 0.3)
    which = shape.integers(pairs, size=recurring.shape[0])
    src[recurring], dst[recurring] = pair_src[which], pair_dst[which]
    dst = _distinct_endpoints(shape, src, dst, vertices)
    label = shape.integers(3, size=events)
    timestamp = np.sort(shape.uniform(0.0, days * DAY, size=events))

    rng = np.random.default_rng([seed, 2])
    rename, src, dst, label = _reseed(rng, vertices, src, dst, label)
    renamed_type = np.empty_like(node_type)
    renamed_type[rename] = node_type
    zeros = np.zeros(events, dtype=np.int64)
    return _table(zeros, src, dst, label, timestamp, renamed_type[src], renamed_type[dst])


# ---------------------------------------------------------------------- lsbench
def generate_lsbench(seed: int, events: int, vertices: int, prefix: int) -> EventTable:
    """Uniform-random topology, 45 edge labels, explicit deletes after ``prefix``.

    Each event after the insert-only prefix deletes, with probability 0.3,
    a uniformly chosen edge that is still live at that point.
    """
    shape = np.random.default_rng([SHAPE_SEED, 3, events, vertices])
    src = shape.integers(vertices, size=events)
    dst = _distinct_endpoints(shape, src, shape.integers(vertices, size=events), vertices)
    label = shape.integers(45, size=events)

    rng = np.random.default_rng([seed, 3])
    _, src, dst, label = _reseed(rng, vertices, src, dst, label)
    kind = np.zeros(events, dtype=np.int64)
    kind[prefix:] = rng.random(events - prefix) < 0.3
    draws = rng.random(events)
    # Victim choice needs the live set at each delete, so this one column is
    # a loop over the tail: O(1) per event with a swap-remove live list.
    live = list(range(prefix))
    for row in range(prefix, events):
        if kind[row] == DELETE and live:
            slot = int(draws[row] * len(live))
            victim = live[slot]
            live[slot] = live[-1]
            live.pop()
            src[row], dst[row], label[row] = src[victim], dst[victim], label[victim]
        else:
            kind[row] = INSERT
            live.append(row)
    zeros = np.zeros(events, dtype=np.int64)
    return _table(kind, src, dst, label, np.arange(events, dtype=np.float64), zeros, zeros)


# ---------------------------------------------------------------------- workloads
@dataclass(frozen=True)
class Size:
    """Stream shape at one scale: pre-loaded prefix, timed events, vertices."""

    prefix: int
    timed: int
    vertices: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    queries: tuple[str, ...]
    full: Size
    #: reduced scale for the brute-force oracle pass (collect_embeddings=True)
    check: Size
    smoke: Size
    #: "closed", or "open": paced by the clock through ``MnemonicService``
    loop: str = "closed"
    #: "single" (``MnemonicEngine``) or "multi" (``MultiQueryEngine``)
    engine: str = "single"
    stream_type: str = "insert_only"
    batch_size: int = 1024
    collect: bool = False
    pool: bool = False

    def size(self, scale: str) -> Size:
        return getattr(self, scale)


#: Open-loop offered rate.  Calibrated once on the 2-core reference host
#: (8000/s kept the service 30% busy, 12000/s 40%, 16000/s 50%) and frozen:
#: it is never derived from a measurement at run time.
SERVICE_RATE_EPS = 10000
SERVICE_MAX_BATCH_DELAY = 0.05
SERVICE_LATENCY_LIMIT_MS = 250.0
WINDOW = DAY
STRIDE = DAY / 48.0

#: Reduced scales keep the full scale's density (events per vertex) high
#: enough that every query has matches for the oracle to compare.
_DENSE_CHECK = Size(prefix=1500, timed=1500, vertices=600)
_DENSE_SMOKE = Size(prefix=600, timed=900, vertices=300)
_SPARSE_CHECK = Size(prefix=1500, timed=1500, vertices=200)
_SPARSE_SMOKE = Size(prefix=600, timed=900, vertices=100)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "netflow-dense-enum",
            "insert-only power-law multigraph, one dense T_6, count-only: "
            "core.enumeration is most of the wall and mutation under a tenth",
            dataset="netflow", queries=("netflow_t6_dense",),
            full=Size(prefix=20000, timed=20000, vertices=5000),
            check=_DENSE_CHECK, smoke=_DENSE_SMOKE,
        ),
        Workload(
            "lanl-window-slide",
            "sliding window: every event is an insert and later a delete with "
            "edge-id recycling, so graph.adjacency and core.filtering/debi work "
            "and enumeration almost does not",
            dataset="lanl", queries=("lanl_t6_selective",),
            full=Size(prefix=0, timed=60000, vertices=3000),
            check=Size(prefix=0, timed=4500, vertices=40),
            smoke=Size(prefix=0, timed=1500, vertices=25),
            stream_type="sliding_window",
        ),
        Workload(
            "lsbench-churn",
            "uniform topology, 45 labels, explicit deletes in the timed tail: "
            "batcher cancellation, resolve_deletions, delete columns and "
            "negative-embedding enumeration are on the path",
            dataset="lsbench", queries=("lsbench_t6",),
            full=Size(prefix=30000, timed=60000, vertices=4500),
            check=Size(prefix=1500, timed=1500, vertices=20),
            smoke=Size(prefix=600, timed=900, vertices=12),
            stream_type="insert_delete",
        ),
        Workload(
            "netflow-multi-query",
            "four standing queries on one MultiQueryEngine with collecting "
            "sinks: core.registry's shared mutation pass, per-query index and "
            "enumeration, and real result delivery",
            dataset="netflow",
            queries=("netflow_t3", "netflow_t6_sparse", "netflow_t9", "netflow_g6"),
            full=Size(prefix=20000, timed=20000, vertices=5000),
            check=_SPARSE_CHECK, smoke=_SPARSE_SMOKE,
            engine="multi", collect=True,
        ),
        Workload(
            "netflow-pool-pipelined",
            "netflow-dense-enum's inputs on the 2-worker process pool, "
            "pipelined, batch 4096: the only workload with core.parallel, "
            "core.shared_snapshot and the supervisor on the path",
            dataset="netflow", queries=("netflow_t6_dense",),
            full=Size(prefix=20000, timed=20000, vertices=5000),
            check=_DENSE_CHECK, smoke=_DENSE_SMOKE,
            batch_size=4096, pool=True,
        ),
        Workload(
            "netflow-service-open",
            "open loop at a fixed 10000 events/s through MnemonicService "
            "submit/poll with small time-sealed batches: per-batch fixed "
            "costs dominate, per-event kernels do not",
            dataset="netflow", queries=("netflow_t9",),
            # `timed` is nominal (one 2.5 s pass at the frozen rate): a pass offers
            # rate x duration events and scales the vertices to keep this density
            full=Size(prefix=20000, timed=25000, vertices=5625),
            check=_SPARSE_CHECK, smoke=_SPARSE_SMOKE,
            loop="open", collect=True,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """What one run feeds the engine, plus the columns the oracle reads."""

    table: EventTable
    prefix: list
    timed: list


def build_inputs(workload: Workload, seed: int, size: Size) -> Inputs:
    """Generate ``workload``'s stream at ``size`` from ``seed``."""
    total = size.prefix + size.timed
    if workload.dataset == "netflow":
        table = generate_netflow(seed, total, size.vertices)
    elif workload.dataset == "lanl":
        table = generate_lanl(seed, total, size.vertices)
    elif workload.dataset == "lsbench":
        table = generate_lsbench(seed, total, size.vertices, prefix=size.prefix)
    else:
        raise ValueError(f"unknown dataset {workload.dataset!r}")
    events = to_events(table)
    return Inputs(table, events[: size.prefix], events[size.prefix:])
