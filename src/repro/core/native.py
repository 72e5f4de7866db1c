"""The native enumeration kernel (``kernel.c``): build, load, encode, call.

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
    return Plan(np.array(program, dtype=np.int64), list(keys), edge_slots)


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


def run(lib: ctypes.CDLL, graph, debi, batch: set, program: np.ndarray, units, collect: bool):
    """One ``mn_enumerate`` call: ``(count, witness reads, groups, rows, charges)``
    with a ``(start edge, rows, offset)`` row per group, the emitted rows back to
    back and a ``(charge key, anchor vertex, raw size)`` row per pool fetched."""
    env, batch_ids = [], np.fromiter(batch, np.int64, len(batch))  # alive until the call ends
    for side, part_of in ((graph._out, graph._out_part), (graph._in, graph._in_part)):
        keys, parts = side._directory()  # files recently created partitions
        env += [keys, parts, keys.shape[0], side.start, side.size, side.arena, side.vertex_pos,
                part_of]
    bits, roots = debi._bits, debi._roots
    env += [graph._label, graph._vertex_label, graph._vertex_ids, bits._rows, bits._nrows,
            roots._words, roots._nbits, batch_ids, len(batch)]
    env = np.array([_address(v) if isinstance(v, np.ndarray) else v for v in env], np.int64)
    edge_ids, starts = map(np.ascontiguousarray, (units.edge_ids, units.start_edges))
    out = np.zeros(3 + 3 * int(program[1]), dtype=np.int64)  # totals, then groups
    rows, charges = _Buf(), _Buf()
    try:
        if lib.mn_enumerate(_address(env), _address(program), _address(edge_ids),
                            _address(starts), edge_ids.shape[0], int(collect), _address(out[3:]),
                            _address(out), ctypes.byref(rows), ctypes.byref(charges)):
            raise MemoryError("the native kernel ran out of memory")
        rows_out, charges_out = (
            np.ctypeslib.as_array(buf.data, (buf.len,)).copy() if buf.len else np.zeros(0, np.int64)
            for buf in (rows, charges)
        )
    finally:
        lib.mn_free(ctypes.byref(rows))
        lib.mn_free(ctypes.byref(charges))
    count, scanned, n_groups = out[:3].tolist()
    groups = out[3 : 3 + 3 * n_groups].reshape(-1, 3)
    return count, scanned, groups, rows_out, charges_out.reshape(-1, 3)
