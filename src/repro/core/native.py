"""The native kernel (``kernel.c``): build, load, encode, call.

It serves stock match definitions on the live graph: enumeration
(:func:`run`), DEBI maintenance (:func:`filter_insert`,
:func:`filter_delete`) and work decomposition (:func:`decompose`).

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
                                                                 buf, buf]
        lib.mn_filter_delete.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_int64, ctypes.c_void_p,
                                                                 buf, buf]
        lib.mn_filter_insert.restype = lib.mn_filter_delete.restype = ctypes.c_int
        lib.mn_decompose.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] + [ctypes.c_void_p] * 2
        lib.mn_decompose.restype = ctypes.c_int64
        lib.mn_free.argtypes, lib.mn_free.restype = [buf], None
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
    """Where the data of a contiguous array of 8-byte items starts."""
    flags = array.flags
    if array.dtype.itemsize != 8 or not flags.c_contiguous:
        raise TypeError("the native kernel reads contiguous 64-bit arrays only")
    if flags.writeable and array.size:  # a quarter of the cost of ``array.ctypes``
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    return array.ctypes.data


def _env(graph, debi, readable: int, *batch) -> np.ndarray:
    """The kernel's view of ``graph`` and ``debi`` (layout: ``kernel.c``): both adjacency
    sides, the edge and vertex columns, the DEBI rows of which ``readable`` may be
    read, the root words and, for :func:`run`, the batch ids and their count."""
    global _graph_env
    arrays = []
    for side, part_of in ((graph._out, graph._out_part), (graph._in, graph._in_part)):
        keys, parts = side._directory()  # files recently created partitions
        arrays += [keys, parts, side.start, side.size, side.arena, side.vertex_pos, part_of]
    arrays += [graph._label, graph._vertex_label, graph._vertex_ids]
    known, entries = _graph_env
    if len(known) != len(arrays) or any(ref() is not array for ref, array in zip(known, arrays)):
        entries = [_address(array) for array in arrays]
        for at, keys in ((2, arrays[0]), (10, arrays[7])):  # a side's directory length
            entries.insert(at, keys.shape[0])
        _graph_env = [weakref.ref(array) for array in arrays], entries
    roots = debi._roots
    return np.array([*entries, _address(debi._bits._rows), readable, _address(roots._words),
                     roots._nbits, *(_address(v) if isinstance(v, np.ndarray) else v for v in batch)],
                    np.int64)


#: the graph arrays :func:`_env` saw last, weakly (a closed engine's graph is
#: freed), and their env entries: an array is replaced, never moved, when it
#: grows, so the same arrays have the same addresses
_graph_env: tuple[list, list[int]] = ([], [])


def _take(lib: ctypes.CDLL, buf: _Buf) -> np.ndarray:
    """A copy of what a call left in ``buf``, which is freed."""
    out = np.ctypeslib.as_array(buf.data, (buf.len,)).copy() if buf.len else np.zeros(0, np.int64)
    lib.mn_free(ctypes.byref(buf))
    return out


def filter_insert(lib: ctypes.CDLL, graph, debi, program: np.ndarray, ids: np.ndarray):
    """One ``mn_filter_insert`` call over the inserted edges ``ids``:
    ``(traversals, rows written, raw ids whose root bit must be set)``."""
    return _filter(lib, lib.mn_filter_insert, graph, debi, program, ids)


def filter_delete(lib: ctypes.CDLL, graph, debi, program: np.ndarray, ids: np.ndarray, held):
    """One ``mn_filter_delete`` call over the deleted edges ``ids``, ``held`` the uint64
    DEBI row each held: ``(traversals, rows written, raw ids whose root bit must clear)``."""
    return _filter(lib, lib.mn_filter_delete, graph, debi, program, ids, held)


def _filter(lib, entry, graph, debi, program, ids, *held):
    bits = debi._bits
    bits.reserve(graph._rows)  # every edge's row is writable in place
    env = _env(graph, debi, bits._rows.shape[0])
    totals, rows, roots = np.zeros(1, np.int64), _Buf(), _Buf()
    failed = entry(_address(env), _address(program), _address(ids), *map(_address, held),
                   ids.shape[0], _address(totals), ctypes.byref(rows), ctypes.byref(roots))
    rows_out, roots_out = _take(lib, rows), _take(lib, roots)
    if failed:
        raise MemoryError("the native kernel ran out of memory")
    if rows_out.shape[0]:  # the bits just set lie in the written range
        bits._nrows = max(bits._nrows, int(rows_out.max()) + 1)
    return int(totals[0]), rows_out, roots_out


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
        raise MemoryError("the native kernel ran out of memory")
    count, scanned, n_groups = out[:3].tolist()
    groups = out[3 : 3 + 3 * n_groups].reshape(-1, 3)
    return count, scanned, groups, rows_out, charges_out.reshape(-1, 3)
