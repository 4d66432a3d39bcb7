"""The package's compiled library, ``_kernel.c``, and the memory of the grids it fills.

The library holds the DTW kernel (``dtw.dtw_batch``) and the grid routines
behind ``metrics.distance_matrix``, ``bounds.min_pool``, the coarse
bound's span minima and the lower bound's window sums. It is compiled
with ``cc`` on first use, not at import, and cached in this package's
``__pycache__`` under a hash of its source and flags; a missing or
failing compiler raises ``KernelCompileError``. Where that directory
cannot be written (a read-only install), it is cached in
``$XDG_CACHE_HOME/dtwsearch`` (else ``~/.cache/dtwsearch``), and failing
that built into a private temporary directory.

``grid`` hands out the memory of every grid-sized float64 array: the
distance matrix and its minima of 8 columns, the min-pool, the coarse
grids, the lower-bound grids (one per row block, whether the search
refines it or ``--dump-bounds`` refines them all), the upper-bound grid
and the brute-force table. A search that follows another reuses its
blocks instead of faulting in and zeroing fresh pages, as the UCR suite
allocates its buffers once for a whole scan (Rakthanmanon et al., KDD
2012). A block is handed out again only after every array on it has been
collected. The pool is one free list, emptied whenever no free block
fits a grid, so it keeps the blocks that were out at once since the last
such miss.

``split`` runs one compiled call over contiguous parts of its rows or
placements, one part per CPU the process may use (its affinity, so
``taskset`` limits it). The calling thread runs the first part and a
small pool of threads, started on first use, runs the others; ctypes
lets go of the GIL for every foreign call, so the parts run at the same
time. Each caller aligns the part boundaries so that every value is
computed as in one whole call. A call too small to pay for the hand-off,
or a process on one CPU, runs inline. The pool is dropped in a child
after ``os.fork()``, which inherits no threads, and started anew there.
"""
from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shlex
import subprocess
import tempfile
import threading
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import KernelCompileError

# The library's whole build command, less its output and input files.
# -ffast-math would change how infinities and minima behave, and
# -march=native would tie the cached library to one CPU. -ffp-contract=off
# keeps a target with fused multiply-add from rounding d * d + acc once,
# where numpy, and the tests' references, round twice. -fno-math-errno lets
# the distance matrix's square roots vectorize: it only drops errno for a
# negative argument, and a sum of squares is never negative.
_COMPILE = ("cc", "-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
# Where built libraries are kept, one file per hash of source and command
# (_build falls back to other directories when this one cannot be written).
_CACHE_DIR = Path(__file__).with_name("__pycache__")
_SOURCE = Path(__file__).with_name("_kernel.c")

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
# Each routine's argument types, in the order _kernel.c declares them.
_SIGNATURES = {
    "dtw_lockstep": (
        _I64,
        [_PTR, _I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _PTR, _I64, ctypes.c_double, _PTR, _PTR],
    ),
    "distance_rows": (None, [_PTR, _I64, _PTR, _I64, _I64, _PTR, _PTR]),
    "span_minima": (None, [_PTR, _PTR, _I64, _I64, _I64, _I64, _PTR]),
    "min_pool_rows": (None, [_PTR, _I64, _I64, _I64, _PTR, _PTR]),
    "window_sums": (None, [_PTR, _I64, _I64, _I64, _PTR, _I64, _I64, _I64, _PTR, _PTR]),
}


def _library_path(source: bytes) -> Path:
    """The cached library built from these source bytes with _COMPILE."""
    key = hashlib.sha256(source + b"\0" + "\0".join(_COMPILE).encode()).hexdigest()[:16]
    return _CACHE_DIR / f"_kernel-{key}.so"


def _build(path: Path) -> Path:
    """Compile _SOURCE to path, through a temporary file in the same directory; returns where it went.

    Where path's directory cannot be written, the library goes under the
    same name to the per-user cache, where it may be found built before;
    failing that, to a private temporary directory. The finished library
    is moved into place by one rename, so a process that builds it at the
    same time never loads a half-written file.
    """
    user = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "dtwsearch", path.name)
    failed = []
    for place in (path, user, None):
        try:
            if place is None:
                place = Path(tempfile.mkdtemp(prefix="dtwsearch-"), path.name)
            if place.exists():  # built before, or just now by another process
                return place
            place.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=path.stem + "-", suffix=".tmp", dir=place.parent)
            break
        except OSError as exc:
            failed.append(f"{'a temporary directory' if place is None else place.parent}: {exc}")
    else:
        raise KernelCompileError("cannot write the compiled library to " + "; ".join(failed))
    os.close(fd)
    command = [*_COMPILE, "-o", tmp, str(_SOURCE)]
    try:
        try:
            done = subprocess.run(command, capture_output=True, text=True, check=False)
        except OSError as exc:
            raise KernelCompileError(f"building the library with `{shlex.join(command)}` failed: {exc}") from exc
        if done.returncode != 0:
            raise KernelCompileError(
                f"building the library with `{shlex.join(command)}` exited with {done.returncode}:\n{done.stderr}"
            )
        os.chmod(tmp, 0o755)
        os.replace(tmp, place)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return place


@lru_cache(maxsize=None)
def _kernel():
    """The compiled library, every routine's signature declared, and the DTW kernel's lane count."""
    path = _library_path(_SOURCE.read_bytes())
    lib = ctypes.CDLL(str(path if path.exists() else _build(path)))
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib, ctypes.c_int.in_dll(lib, "dtw_lanes").value


# A free block serves a grid of at least 1/_FIT of its size, so a small grid never pins a large block.
_FIT = 2
# Blocks whose arrays are all collected, to hand out again. Only grid()
# takes from it, under _LOCK; an owner's finalizer appends without the
# lock, since a collection can run it inside grid(). _LOCK also guards
# the start of split()'s pool.
_FREE: list = []
_LOCK = threading.Lock()


class _Owner:
    """The base of every array on one handed-out block; the block goes back when it is collected.

    Each grid gets a fresh owner, so the block is free once nothing refers
    to the owner, that is once the grid and all its views are gone. numpy
    reads ``__array_interface__`` once, when the grid is made. The owner
    holds the free list itself, so its finalizer looks nothing up, even at
    interpreter exit.
    """

    __slots__ = ("__array_interface__", "readonly", "_block", "_free")

    def __init__(self, block: np.ndarray, shape: tuple, readonly: bool):
        self.__array_interface__ = {"shape": shape, "typestr": "<f8", "data": (block.ctypes.data, readonly), "version": 3}
        self.readonly = readonly
        self._block, self._free = block, _FREE

    def __del__(self):
        self._free.append(self._block)


def grid(shape, *, writeable: bool = True) -> np.ndarray:
    """An uninitialized C-ordered float64 array on recycled memory; the caller writes every entry.

    It takes the smallest free block of 1 to _FIT times its size. When no
    free block fits, every free block is let go before a new one is made,
    so old pages are unmapped before new ones fault in. The pool therefore
    never holds more blocks than were out at the last miss, plus the new
    one: for searches whose grids fit what is kept, one search's blocks.

    With ``writeable=False`` the array is read-only from the start, and no
    array can ever be made to write it: only the compiled library fills it,
    through its address.
    """
    shape = tuple(int(s) for s in shape)
    size = max(math.prod(shape), 1)  # float64 entries of the block
    with _LOCK:
        # Finalizers only append, so the indices stay valid while the lock is held.
        fits = [i for i, b in enumerate(_FREE) if size <= b.size <= _FIT * size]
        if fits:
            block = _FREE.pop(min(fits, key=lambda i: _FREE[i].size))
        else:
            _FREE.clear()
            block = np.empty(size)
    return np.asarray(_Owner(block, shape, not writeable))


def sealed(arr: np.ndarray) -> bool:
    """Whether ``arr`` lies on a grid made with ``writeable=False``, which no array can write."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return isinstance(arr, _Owner) and arr.readonly


# Work (grid entries, or DP cells) below which a part does not pay for its
# hand-off to a thread. On a shared 2-core VM a hand-off took 15-30 us, and
# a part of 2^15 entries or cells about as long.
_MIN_PART = 1 << 15
# The parts' queue and the threads serving it, made under _LOCK on first
# use, and dropped in a child after fork.
_POOL = None


def _serve(tasks) -> None:
    """A pool thread: run parts from tasks for good, reporting each result or exception to its caller."""
    while True:
        call, start, stop, i, done = tasks.get()
        try:
            result, exc = call(start, stop), None
        except BaseException as caught:  # the caller raises it
            result, exc = None, caught
        # The caller may drop the grids a part wrote as soon as it hears
        # back, so the part goes first, and the rest right after.
        del call
        done.put((i, result, exc))
        del result, exc, done


def _tasks(threads: int):
    """The pool's queue, with at least ``threads`` threads serving it."""
    global _POOL
    with _LOCK:
        if _POOL is None:
            import queue

            _POOL = (queue.SimpleQueue(), [])
        tasks, serving = _POOL
        while len(serving) < threads:
            # Daemon threads: an idle pool never holds up interpreter exit.
            serving.append(threading.Thread(target=_serve, args=(tasks,), name="dtwsearch-split", daemon=True))
            serving[-1].start()
    return tasks


def _forget_pool() -> None:
    # A forked child has only the forking thread: the pool's threads are
    # gone, and a lock another thread held stays held. Start both anew.
    global _POOL, _LOCK
    _POOL, _LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def split(call, total: int, *, unit: int = 1, cost: int = 1) -> list:
    """[call(start, stop), ...] over [0, total) in contiguous parts, one per CPU, in order.

    Every boundary but ``total`` is a multiple of ``unit``. ``cost`` is the
    work of one index; a part gets at least _MIN_PART of work, so a small
    call runs whole in this thread. The calling thread runs the first part
    while pool threads run the others. ``call`` must be safe to run on
    disjoint parts at once: each part writes only its own rows, and holds
    its own scratch memory. Every part has finished when this returns or
    raises.
    """
    units = -(-total // unit)
    parts = max(1, min(_cpus(), units, total * cost // _MIN_PART))
    if parts == 1:
        return [call(0, total)]
    bounds = [units * i // parts * unit for i in range(parts)] + [total]
    tasks = _tasks(parts - 1)
    done = type(tasks)()  # this call's results, on a queue of the same kind
    for i in range(1, parts):
        tasks.put((call, bounds[i], bounds[i + 1], i, done))
    results, errors = [None] * parts, []
    try:
        results[0] = call(0, bounds[1])
    except BaseException as exc:
        errors.append(exc)
    for _ in range(1, parts):  # every part must finish before its buffers may go
        i, results[i], exc = done.get()
        if exc is not None:
            errors.append(exc)
    if errors:
        raise errors[0]
    return results
