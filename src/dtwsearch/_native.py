"""The package's compiled library, ``_kernel.c``: built on first use, loaded through ctypes.

It holds the DTW kernel (``dtw.dtw_batch``) and the grid routines behind
``metrics.distance_matrix``, ``bounds.min_pool`` and the bound grids'
window sums. The library is compiled with ``cc`` on first use, not at
import, and cached in this package's ``__pycache__`` under a hash of its
source and flags; a missing or failing compiler raises
``KernelCompileError``.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import tempfile
from functools import lru_cache
from pathlib import Path

from .core import KernelCompileError

# The library's whole build command, less its output and input files.
# -ffast-math would change how infinities and minima behave, and
# -march=native would tie the cached library to one CPU. -ffp-contract=off
# keeps a target with fused multiply-add from rounding d * d + acc once,
# where numpy, and the tests' references, round twice. -fno-math-errno lets
# the distance matrix's square roots vectorize: it only drops errno for a
# negative argument, and a sum of squares is never negative.
_COMPILE = ("cc", "-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
# Where built libraries are kept, one file per hash of source and command.
_CACHE_DIR = Path(__file__).with_name("__pycache__")
_SOURCE = Path(__file__).with_name("_kernel.c")

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
# Each routine's argument types, in the order _kernel.c declares them.
_SIGNATURES = {
    "dtw_lockstep": (
        _I64,
        [_PTR, _I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _PTR, _I64, ctypes.c_double, _PTR, _PTR],
    ),
    "distance_rows": (None, [_PTR, _I64, _PTR, _I64, _I64, _PTR]),
    "min_pool_rows": (None, [_PTR, _I64, _I64, _I64, _PTR, _PTR]),
    "window_sums": (None, [_PTR, _I64, _I64, _PTR, _I64, _I64, _I64, _I64, _I64, _PTR]),
}


def _library_path(source: bytes) -> Path:
    """The cached library built from these source bytes with _COMPILE."""
    key = hashlib.sha256(source + b"\0" + "\0".join(_COMPILE).encode()).hexdigest()[:16]
    return _CACHE_DIR / f"_kernel-{key}.so"


def _build(path: Path) -> None:
    """Compile _SOURCE to path, through a temporary file in the same directory.

    The finished library is moved into place by one rename, so a process
    that builds it at the same time never loads a half-written file.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.stem + "-", suffix=".tmp", dir=path.parent)
    except OSError as exc:
        raise KernelCompileError(f"cannot write the compiled library to {path.parent}: {exc}") from exc
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
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@lru_cache(maxsize=None)
def _kernel():
    """The compiled library, every routine's signature declared, and the DTW kernel's lane count."""
    path = _library_path(_SOURCE.read_bytes())
    if not path.exists():
        _build(path)
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib, ctypes.c_int.in_dll(lib, "dtw_lanes").value
