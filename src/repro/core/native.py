"""The native kernel (``kernel.c``): build, load, encode, call.

It serves stock match definitions on the live graph: enumeration
(:func:`run`), DEBI maintenance (:func:`filter_insert`,
:func:`filter_delete`) and work decomposition (:func:`decompose`); and it
mutates the graph (:func:`insert_columns`, :func:`resolve_deletes`,
:func:`delete_columns`).

:func:`library` compiles ``kernel.c`` with ``$CC`` (default ``cc``) once per
source hash into ``$XDG_CACHE_HOME/repro-mnemonic`` (or ``~/.cache/...``),
a directory only the user can write, and loads that build with
:mod:`ctypes`.  It never raises: where that fails the numpy kernel serves
every call and :func:`status` says why.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import stat
import subprocess
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.query.query_graph import WILDCARD_LABEL

_SOURCE = Path(__file__).with_name("kernel.c")
_FLAGS = ("-O2", "-shared", "-fPIC")
#: the kernel's label for "every partition" (pools) and "any label" (degrees)
_ANY = -1

_library: ctypes.CDLL | None = None
#: empty until the first load attempt, then what it found
_status = ""


class _Buf(ctypes.Structure):  # kernel.c's Buf: an int64 array the kernel allocates
    _fields_ = [("data", ctypes.POINTER(ctypes.c_int64)), ("len", ctypes.c_int64),
                ("cap", ctypes.c_int64)]


def library() -> ctypes.CDLL | None:
    """The loaded kernel, or None when it cannot be built or loaded here."""
    global _library, _status
    if not _status:
        _library, _status = _load()
    return _library


def status() -> str:
    """Where the kernel was loaded from, or why it was not."""
    library()
    return _status


def _load() -> tuple[ctypes.CDLL | None, str]:
    """Build (once per source hash and compiler) and load the kernel."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    directory = Path(cache) / "repro-mnemonic"
    try:
        source = _SOURCE.read_bytes()
        compiler = shlex.split(os.environ.get("CC", "")) or ["cc"]
        digest = hashlib.sha256(repr((compiler, _FLAGS)).encode() + source).hexdigest()
        target = directory / f"kernel-{digest[:16]}.so"
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = directory.lstat()  # refused: a link, another user's, group- or world-writable
        if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid() or info.st_mode & 0o022:
            return None, f"refused {directory}: not a directory only this user can write"
        problem = None if target.exists() else _build(compiler, source, directory, target)
        if problem:
            return None, problem
        lib = ctypes.CDLL(str(target))
        buf = ctypes.POINTER(_Buf)
        lib.mn_enumerate.argtypes = [ctypes.c_void_p] * 4 + [
            ctypes.c_int64, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p, buf, buf
        ]
        lib.mn_enumerate.restype = ctypes.c_int
        lib.mn_filter_insert.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64, ctypes.c_void_p,
                                                                 buf]
        lib.mn_filter_delete.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_int64, ctypes.c_void_p,
                                                                 buf]
        lib.mn_filter_insert.restype = lib.mn_filter_delete.restype = ctypes.c_int
        lib.mn_decompose.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] + [ctypes.c_void_p] * 2
        lib.mn_decompose.restype = ctypes.c_int64
        lib.mn_free.argtypes, lib.mn_free.restype = [buf], None
        lib.mn_insert_columns.argtypes = [ctypes.c_void_p] * 7 + [ctypes.c_int64, ctypes.c_void_p]
        lib.mn_resolve_deletes.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_int64, ctypes.c_void_p]
        lib.mn_delete_columns.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64]
        for entry in (lib.mn_insert_columns, lib.mn_resolve_deletes, lib.mn_delete_columns):
            entry.restype = ctypes.c_int
    except (OSError, ValueError, AttributeError) as exc:
        return None, f"native kernel unavailable: {exc}"
    return lib, f"loaded {target}"


def _build(compiler: list[str], source: bytes, directory: Path, target: Path) -> str | None:
    """Compile ``source`` to ``target`` through a temporary file; the problem, or None."""
    fd, temp = tempfile.mkstemp(dir=directory, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        done = subprocess.run([*compiler, *_FLAGS, "-x", "c", "-o", temp, "-"],
                              input=source, capture_output=True, timeout=300)
        if done.returncode:
            return f"{compiler[0]} failed: {done.stderr.decode(errors='replace').strip()[-300:]}"
        os.replace(temp, target)
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        return f"compiler {compiler[0]!r} did not run: {exc}"
    finally:
        if os.path.exists(temp):
            os.unlink(temp)


@dataclass(frozen=True)
class Plan:
    """One query encoded for the kernel (layout: ``kernel.c``)."""

    program: np.ndarray
    #: charge key -> the numpy kernel's pool key (anchor is source, DEBI column, label)
    charge_keys: list
    #: start edge -> a row's edge columns: the query edges it binds, ascending
    edge_slots: dict
    #: the query's :func:`index_plan`, for :func:`decompose`
    index: np.ndarray


def index_plan(query, tree, label_partitioned: bool) -> np.ndarray:
    """Encode a query tree for DEBI maintenance and work decomposition (layout: ``kernel.c``)."""
    nodes = sorted(query.nodes())
    dense = {node: i for i, node in enumerate(nodes)}
    program = [len(nodes), query.num_edges, dense[tree.root], len(tree.tree_edges),
               *(query.node_label(node) for node in nodes)]
    for edge in query.edges():
        tree_edge = tree.tree_edge_by_query_edge.get(edge.index)
        program += [dense[edge.src], dense[edge.dst], edge.label,
                    -1 if tree_edge is None else tree_edge.column]
    for tree_edge in sorted(tree.tree_edges, key=lambda te: -tree.depth[te.child]):
        edge = tree_edge.query_edge
        label = edge.label if label_partitioned and edge.label != WILDCARD_LABEL else _ANY
        program += [edge.index, dense[tree_edge.child], dense[tree_edge.parent],
                    int(edge.src == tree_edge.child), tree_edge.column, label]
    return np.array(program, dtype=np.int64)


def plan(state) -> Plan:
    """Encode a :class:`~repro.core.enumeration.QueryState`'s query for the kernel."""
    query, match_def, orders = state.query, state.match_def, state.orders
    nodes = sorted(query.nodes())
    dense = {node: i for i, node in enumerate(nodes)}
    rules = state.degree_requirements()
    program = [len(nodes), len(orders), dense[state.tree.root], int(match_def.injective),
               int(rules is not None), *(query.node_label(node) for node in nodes)]
    for edge in query.edges():
        program += [dense[edge.src], dense[edge.dst], edge.label]
    at = len(program)
    program += [0] * (len(nodes) + len(orders))  # where each node's rules, each order begin
    for i, node in enumerate(nodes):
        program[at + i] = len(program)
        program += [len(rules[node]) if rules else 0]
        for out, label, needed in rules[node] if rules else ():
            program += [int(out), _ANY if label is None else label, needed]
    keys: dict[tuple, int] = {}
    edge_slots = {}
    for start, order in orders.items():
        mask = state.masks.mask_for(start)
        slots = tuple(sorted({start, *(step.tree_edge_index for step in order.steps)}))
        edge_slots[start] = slots
        program[at + len(nodes) + start] = len(program)
        program += [dense[order.start_src], dense[order.start_dst],
                    int(mask.require_no_old_witness), len(slots), *slots]
        program += _checks(order.start_verify_edges, mask) + [len(order.steps)]
        for step in order.steps:
            label = step.edge_label
            if not match_def.label_partitioned or label == WILDCARD_LABEL:
                label = None
            key = keys.setdefault((step.anchor_is_src, step.debi_column, label), len(keys))
            program += [dense[step.node], dense[step.anchor], step.tree_edge_index,
                        int(step.anchor_is_src), step.debi_column, _ANY if label is None else label,
                        int(mask.is_masked(step.tree_edge_index)), key,
                        *_checks(step.verify_edges, mask)]
    index = index_plan(query, state.tree, match_def.label_partitioned)
    return Plan(np.array(program, dtype=np.int64), list(keys), edge_slots, index)


def _checks(q_edges, mask) -> list[int]:  # a count, then (query edge, masked) pairs
    return [len(q_edges), *(v for q in q_edges for v in (q, int(mask.is_masked(q))))]


def _address(array: np.ndarray) -> int:
    """Where the data of a contiguous array of 8-byte items (or bools) starts."""
    flags = array.flags
    if not (array.dtype.itemsize == 8 or array.dtype == np.bool_) or not flags.c_contiguous:
        raise TypeError("the native kernel reads contiguous 64-bit or bool arrays only")
    if flags.writeable and array.size:  # a quarter of the cost of ``array.ctypes``
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    return array.ctypes.data


def _addresses(key: str, arrays: list) -> list[int]:
    """The data addresses of ``arrays``, remembered (under ``key``) while the same
    arrays come back: an array is replaced, never moved, when it grows."""
    known, addresses = _known.get(key, ((), ()))
    if len(known) != len(arrays) or any(ref() is not array for ref, array in zip(known, arrays)):
        addresses = [_address(array) for array in arrays]
        _known[key] = [weakref.ref(array) for array in arrays], addresses
    return list(addresses)


#: per :func:`_addresses` key, the arrays seen last, weakly (a closed engine's
#: graph is freed), and their addresses
_known: dict[str, tuple[list, list[int]]] = {}


def _env(graph, debi, readable: int, *batch) -> np.ndarray:
    """The kernel's view of ``graph`` and ``debi`` (layout: ``kernel.c``): both adjacency
    sides, the edge and vertex columns, the DEBI rows of which ``readable`` may be
    read, the root words and, for :func:`run`, the batch ids and their count."""
    arrays = []
    for side, part_of in ((graph._out, graph._out_part), (graph._in, graph._in_part)):
        directory = side.directory
        arrays += [directory.keys, directory.values, side.start, side.size, side.arena,
                   side.vertex_pos, part_of]
    arrays += [graph._label, graph._vertex_label, graph._vertex_ids]
    entries = _addresses("env", arrays)
    entries.insert(2, graph._out.directory.count + 1)  # a side's keys, the sentinel included
    entries.insert(10, graph._in.directory.count + 1)
    roots = debi._roots
    return np.array([*entries, _address(debi._bits._rows), readable, _address(roots._words),
                     roots._nbits, *(_address(v) if isinstance(v, np.ndarray) else v for v in batch)],
                    np.int64)


def _take(lib: ctypes.CDLL, buf: _Buf) -> np.ndarray:
    """A copy of what a call left in ``buf``, which is freed."""
    out = np.ctypeslib.as_array(buf.data, (buf.len,)).copy() if buf.len else np.zeros(0, np.int64)
    lib.mn_free(ctypes.byref(buf))
    return out


def filter_insert(lib: ctypes.CDLL, graph, debi, program: np.ndarray, ids: np.ndarray):
    """One ``mn_filter_insert`` call over the inserted edges ``ids``:
    ``(traversals, raw ids whose root bit must be set)``."""
    return _filter(lib, lib.mn_filter_insert, graph, debi, program, ids)


def filter_delete(lib: ctypes.CDLL, graph, debi, program: np.ndarray, ids: np.ndarray, held):
    """One ``mn_filter_delete`` call over the deleted edges ``ids``, ``held`` the uint64
    DEBI row each held: ``(traversals, raw ids whose root bit must clear)``."""
    return _filter(lib, lib.mn_filter_delete, graph, debi, program, ids, held)


def _filter(lib, entry, graph, debi, program, ids, *held):
    bits = debi._bits
    bits.reserve(graph._rows)  # every edge's row is writable in place
    env = _env(graph, debi, bits._rows.shape[0])
    totals, roots = np.zeros(2, np.int64), _Buf()
    failed = entry(_address(env), _address(program), _address(ids), *map(_address, held),
                   ids.shape[0], _address(totals), ctypes.byref(roots))
    roots_out = _take(lib, roots)
    if failed:
        raise MemoryError("the native kernel ran out of memory")
    traversals, written = totals.tolist()
    bits._nrows = max(bits._nrows, written)  # the bits just set lie in the written range
    return traversals, roots_out


def decompose(lib: ctypes.CDLL, graph, debi, program: np.ndarray, ids: np.ndarray):
    """One ``mn_decompose`` call: the units of batch edges ``ids`` as ``(edge ids, start edges)``."""
    out = np.empty((2, ids.shape[0] * int(program[1])), np.int64)
    n = lib.mn_decompose(_address(_env(graph, debi, debi._bits._nrows)), _address(program),
                         _address(ids), ids.shape[0], _address(out[0]), _address(out[1]))
    return out[0, :n], out[1, :n]


def run(lib: ctypes.CDLL, graph, debi, batch: set, program: np.ndarray, units, collect: bool):
    """One ``mn_enumerate`` call: ``(count, witness reads, groups, rows, charges)``
    with a ``(start edge, rows, offset)`` row per group, the emitted rows back to
    back and a ``(charge key, anchor vertex, raw size)`` row per pool fetched."""
    batch_ids = np.fromiter(batch, np.int64, len(batch))  # alive until the call ends
    env = _env(graph, debi, debi._bits._nrows, batch_ids, len(batch))
    edge_ids, starts = map(np.ascontiguousarray, (units.edge_ids, units.start_edges))
    out = np.zeros(3 + 3 * int(program[1]), dtype=np.int64)  # totals, then groups
    rows, charges = _Buf(), _Buf()
    failed = lib.mn_enumerate(_address(env), _address(program), _address(edge_ids),
                              _address(starts), edge_ids.shape[0], int(collect), _address(out[3:]),
                              _address(out), ctypes.byref(rows), ctypes.byref(charges))
    rows_out, charges_out = _take(lib, rows), _take(lib, charges)
    if failed:
        raise (OverflowError("a match count overflows int64") if failed == -2
               else MemoryError("the native kernel ran out of memory"))
    count, scanned, n_groups = out[:3].tolist()
    return count, scanned, out[3:].reshape(-1, 3)[:n_groups], rows_out, charges_out.reshape(-1, 3)


def _mutate(entry, graph, *args) -> tuple[int, np.ndarray]:
    """Call a graph mutation ``entry`` on a graph block (layout: ``kernel.c``'s
    ``graph_at``), growing every column and repacking every arena it finds short of
    room and calling again: the status (0, or 2 for a refused insert) and the block
    of the call that finished.  An attached graph is refused before anything is written."""
    graph.check_writable()
    out, into, free = arenas = (graph._out, graph._in, graph.free_ids)
    counters = ((graph, "_rows"), (graph._vertices, "count"), (out.directory, "count"),
                (out, "rows"), (out, "tail"), (into.directory, "count"), (into, "rows"),
                (into, "tail"), (free, "rows"), (free, "tail"), (free, "count"))
    while True:
        arrays = [graph._src, graph._dst, graph._label, graph._timestamp, graph._alive,
                  graph._vertices.keys, graph._vertices.values, graph._vertex_label,
                  graph._vertex_ids]
        for side, part_of in ((out, graph._out_part), (into, graph._in_part)):
            arrays += [side.directory.keys, side.directory.values, side.arena, side.start,
                       side.size, side.capacity, side.vertex_pos, side.label, part_of]
        arrays += [free.arena, free.start, free.size, free.capacity]
        block = np.array([*_addresses("graph", arrays),
                          *(getattr(owner, name) for owner, name in counters),
                          *(arena.arena.shape[0] for arena in arenas),
                          int(graph.recycle_edge_ids), 0, 0, 0, 0,
                          min(graph._vertex_label.shape[0] - 1, free.start.shape[0],
                              graph._vertices.keys.shape[0] - 1),
                          *(min(side.start.shape[0], side.directory.keys.shape[0] - 1)
                            for side in (out, into)), graph._src.shape[0]], np.int64)
        status = entry(_address(block), *args)
        for (owner, name), value in zip(counters, block[31:42].tolist()):
            setattr(owner, name, value)
        if status < 0:
            raise MemoryError("the native kernel ran out of memory")
        if status != 1:
            return status, block
        for arena, room in zip(arenas, block[47:50].tolist()):
            if room:
                arena._repack(room)
        vertices, *parts, rows = block[50:54].tolist()  # what the columns must hold
        graph._grow_vertex_columns(vertices)
        for side, count in zip((out, into), parts):
            side.reserve(count)
            side.directory.reserve(count - side.directory.count)
        graph._grow_rows(rows)


def insert_columns(lib: ctypes.CDLL, graph, src, dst, label, timestamp, src_label, dst_label):
    """One ``mn_insert_columns`` call over a checked batch of contiguous columns:
    ``(edge ids, how many were recycled, None)``, or ``(None, 0, (mention, label
    its vertex holds))`` when a vertex label conflicts (mentions: src, dst per event)."""
    n = src.shape[0]
    ids = np.empty(n, np.int64)
    columns = (src, dst, label, timestamp, src_label, dst_label)
    status, block = _mutate(lib.mn_insert_columns, graph, *map(_address, columns), n,
                            _address(ids))
    if status:
        return None, 0, (int(block[47]), int(block[48]))
    return ids, int(block[46]), None


def resolve_deletes(lib: ctypes.CDLL, graph, src, dst, label, stamp) -> np.ndarray:
    """One ``mn_resolve_deletes`` call: the edge id each deletion event takes, -1 for none."""
    columns = [*(np.ascontiguousarray(column, np.int64) for column in (src, dst, label)),
               np.ascontiguousarray(stamp, np.float64)]  # alive until the call ends
    doomed = np.empty(src.shape[0], np.int64)
    _mutate(lib.mn_resolve_deletes, graph, *map(_address, columns), src.shape[0],
            _address(doomed))
    return doomed


def delete_columns(lib: ctypes.CDLL, graph, ids: np.ndarray) -> None:
    """One ``mn_delete_columns`` call over checked live, contiguous edge ids."""
    graph.free_ids.reserve(graph._vertices.count)
    _mutate(lib.mn_delete_columns, graph, _address(ids), ids.shape[0])
