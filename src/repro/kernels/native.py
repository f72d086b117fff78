"""The compiled kernels: ``level_sweep.c``, built once and loaded with ctypes.

The library exports three functions.  :func:`compiled_sweep` returns the
one behind :func:`repro.kernels.trisolve._level_sweep`,
:func:`compiled_factor` the one behind :func:`repro.core.iluk.ilu_factor`
and :func:`compiled_nd` the one behind
:func:`repro.ordering.nd.nested_dissection_order`.  All three are None
when there is no C compiler or the library cannot be built or loaded.
The sweep then runs its per-level ``csr_matvec(s)`` loop, the factor its
row-by-row reference and the dissection the same explicit-stack loop in
Python, which give the same bits.

The first call in a process loads the library, building it if needed:

* the source is read through :mod:`importlib.resources`, so an installed
  package works;
* ``cc`` (else ``gcc``) from ``PATH`` compiles it with :data:`FLAGS` —
  ``-ffp-contract=off`` keeps every ``s + v * x`` a rounded multiply
  then a rounded add, and no fast-math flag may ever join it;
* the library is ``level_sweep-<key>.so``, where the key hashes the
  source, the flags, the compiler binary and the machine, so a library
  from another source or compiler is never picked up;
* it is compiled to a temporary name in the cache directory and
  published with ``os.replace``, next to a ``.sha256`` of its bytes.  A
  library that does not match its digest (truncated, or published
  without one) is rebuilt, never loaded.  Processes that build at once
  each publish a whole file, so every one of them loads a whole library.

The cache directories are tried in turn: the package's ``__pycache__``
(next to the source, like bytecode), then a per-user directory under the
system temporary directory.  A directory that cannot be written, or that
someone else could have written to, is skipped.

The one-off compile is a ``kernels.compile_sweep`` span and a fallback
is a ``kernels.sweep_fallback`` instant carrying the reason; both are
recorded only if tracing is on at that moment.  :func:`sweep_status`
tells which kernels run at any time: the three functions come from one
library, so they are compiled or fall back together.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from importlib import resources
from pathlib import Path

from ..obs import spans as _spans

__all__ = ["FLAGS", "SOURCE", "PACKAGE_CACHE", "cache_dirs", "load_sweep", "compiled_sweep",
           "compiled_factor", "compiled_nd", "sweep_status"]

#: compiler flags of the library; never ``-ffast-math``, ``-Ofast``
#: or ``-ffp-contract=fast``, which would change the bits
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
SOURCE = "level_sweep.c"
#: the first cache directory: next to the source, like bytecode
PACKAGE_CACHE = Path(__file__).resolve().parent / "__pycache__"

_UNSET = object()
_LIB = _UNSET  # the loaded library, None for the numpy fallbacks
_STATUS = "not loaded"


def cache_dirs():
    """The directories a library is looked up in and built into, in order."""
    return [PACKAGE_CACHE, Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"]


def _key(src, cc):
    st = os.stat(cc)
    ident = (FLAGS, os.path.realpath(cc), st.st_size, st.st_mtime_ns, platform.machine())
    return hashlib.sha256(src + repr(ident).encode()).hexdigest()[:20]


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _intact(lib, sig):
    try:
        return sig.read_text() == _digest(lib)
    except FileNotFoundError:
        return False


def _publish(tmp, dest):
    """Move the finished ``tmp`` onto ``dest`` in one step."""
    os.chmod(tmp, 0o644)
    os.replace(tmp, dest)


def _library(d, key, src, cc):
    """The intact library for ``key`` in ``d``, compiled and published first if needed."""
    d.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = d.stat()
    if st.st_uid not in (0, os.getuid()) or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise PermissionError(f"{d} is writable by others")
    lib, sig = d / f"level_sweep-{key}.so", d / f"level_sweep-{key}.sha256"
    if _intact(lib, sig):
        return lib
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".level_sweep-", suffix=".so")
    os.close(fd)
    try:
        with _spans.span("kernels.compile_sweep", cat="kernels", compiler=cc, dir=str(d)):
            # from stdin, so the object names no temporary file: builds are byte-identical
            subprocess.run([cc, *FLAGS, "-x", "c", "-", "-o", tmp], input=src,
                           capture_output=True, check=True, timeout=120)
        digest = _digest(Path(tmp))
        _publish(tmp, lib)
        with tempfile.NamedTemporaryFile("w", dir=d, prefix=".level_sweep-", suffix=".sha256",
                                         delete=False) as fh:
            fh.write(digest)
        _publish(fh.name, sig)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def load_sweep(dirs=None):
    """``(library, status)``: the compiled kernels from the first usable cache directory.

    ``dirs`` defaults to :func:`cache_dirs`.  The library's
    ``level_sweep``, ``ilu_factor`` and ``nd_order`` have their argument
    types set.
    It is None when there is no compiler, the compile fails or no
    directory yields a library that loads; ``status`` then gives the
    reason.
    """
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return None, "numpy: no C compiler (cc or gcc) on PATH"
    try:
        src = resources.files(__package__).joinpath(SOURCE).read_bytes()
        key = _key(src, cc)
    except OSError as e:
        return None, f"numpy: cannot read {SOURCE} or stat {cc}: {e}"
    reason = "numpy: no cache directory"
    for d in cache_dirs() if dirs is None else dirs:
        try:
            path = _library(Path(d), key, src, cc)
            lib = ctypes.CDLL(str(path))
        except subprocess.CalledProcessError as e:
            err = e.stderr.decode(errors="replace").strip().splitlines()
            return None, f"numpy: {cc} failed: {err[-1] if err else e}"
        except (OSError, subprocess.SubprocessError) as e:
            reason = f"numpy: {d}: {e}"
            continue
        lib.level_sweep.argtypes = (ctypes.c_int64,) * 2 + (ctypes.c_void_p,) * 6
        lib.level_sweep.restype = None
        lib.ilu_factor.argtypes = ((ctypes.c_int64,) + (ctypes.c_void_p,) * 4
                                   + (ctypes.c_double, ctypes.c_void_p, ctypes.c_int64,
                                      ctypes.c_void_p))
        lib.ilu_factor.restype = ctypes.c_int64
        lib.nd_order.argtypes = (ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                                 ctypes.c_int64, ctypes.c_void_p)
        lib.nd_order.restype = ctypes.c_int64
        return lib, f"compiled: {path}"
    return None, reason


def _library_once():
    """The process's library, loaded on first call; None means the numpy fallbacks."""
    global _LIB, _STATUS
    if _LIB is _UNSET:
        _LIB, _STATUS = load_sweep()
        if _LIB is None:
            _spans.instant("kernels.sweep_fallback", cat="kernels", reason=_STATUS)
    return _LIB


def compiled_sweep():
    """The compiled sweep, or None for the numpy loop.

    ``fn(n, k, ent_ptr, ent_col, vals, diag, b, x)`` takes addresses of
    contiguous arrays (``diag`` may be None).  ctypes releases the GIL
    for the call.
    """
    lib = _library_once()
    return None if lib is None else lib.level_sweep


def compiled_factor():
    """The compiled ILU row loop, or None for the row-by-row reference.

    ``fn(n, indptr, indices, diag, data, tol, thresh, modified, mark)``
    takes addresses of contiguous int64 and float64 arrays (``thresh``
    may be None) and returns -1 or the slot whose pivot failed.  ctypes
    releases the GIL for the call.
    """
    lib = _library_once()
    return None if lib is None else lib.ilu_factor


def compiled_nd():
    """The compiled nested dissection, or None for its Python loop.

    ``fn(n, xadj, adjncy, leaf_size, perm)`` takes addresses of
    contiguous int64 arrays, writes the permutation to ``perm`` and
    returns 0, -1 when it ran out of memory, or -2 when a set it took
    for connected was not.  ctypes releases the GIL for the call.
    """
    lib = _library_once()
    return None if lib is None else lib.nd_order


def sweep_status():
    """``"compiled: <library>"`` or ``"numpy: <reason>"`` for this process's kernels."""
    _library_once()
    return _STATUS
