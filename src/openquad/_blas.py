"""Thread counts of the two OpenBLAS copies that numpy and scipy load.

The numpy and scipy wheels each bundle their own OpenBLAS, each with a
thread pool as large as the machine.  After a call the idle workers of a
pool keep spinning for a while, so a scipy LAPACK call made right after
numpy BLAS work (or the other way round) runs its threads against the
other pool's spinning ones: on 2 cores the Schur form of a 106 x 106
matrix after a numpy product took 10 ms threaded and 5.6 ms on one
thread, and a 25-point sweep at n = 53 took 1.14 s with scipy's pool
threaded and 0.38 s with it on one thread.

``serial_lapack`` therefore runs scipy's pool on one thread around the
scipy LAPACK calls of the solvers, for matrices of order up to
``SERIAL_LAPACK_ORDER``; above it the threaded LAPACK wins and nothing
is changed.  numpy's pool keeps its threads.  A forked sweep worker,
which runs next to other workers, sets both pools to one thread
(``single_threaded``).

The thread controls are looked up by name in the libraries the two
extension modules link (``scipy_openblas_*``, else the plain
``openblas_*`` names, with or without the ``64_`` suffix of the ILP64
build).  Where neither exists (MKL, Accelerate, a system BLAS without
them) every function here does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
from contextlib import contextmanager

__all__ = ["SERIAL_LAPACK_ORDER", "thread_controls", "serial_lapack", "single_threaded"]

# largest matrix order whose scipy LAPACK call runs on one thread.  On 2
# cores a Redfield steady_state was 1.15-1.4x faster with one thread at
# 2n = 600-800 and as fast at 2n = 1000, and at 2n = 2000 the Schur form
# alone took 9.8 s on one thread against 6.9 s threaded (h = 1.2; 5.6 s
# against 4.7 s at h = 0.7); every shipped config has 2n <= 506
SERIAL_LAPACK_ORDER = 800

# extension module whose linked OpenBLAS each library's calls run in
# (numpy before 2.0 keeps it under numpy.core)
_EXTENSIONS = {
    "numpy": ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"),
    "scipy": ("scipy.linalg._flapack",),
}


@functools.cache
def thread_controls(library: str):
    """(get, set) thread-count functions of the OpenBLAS that ``library``
    ("numpy" or "scipy") calls, or None when it has none."""
    for name in _EXTENSIONS[library]:
        try:
            lib = ctypes.CDLL(importlib.import_module(name).__file__)
            break
        except (ImportError, OSError):
            continue
    else:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("", "64_"):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


@contextmanager
def serial_lapack(order: int):
    """Run scipy's OpenBLAS on one thread inside the block when ``order``
    is at most ``SERIAL_LAPACK_ORDER``; the previous count is restored on
    exit, also when the block raises.  The count is process-wide, so
    blocks that overlap in several Python threads can leave it at one."""
    controls = thread_controls("scipy") if order <= SERIAL_LAPACK_ORDER else None
    if controls is None:
        yield
        return
    get, set_ = controls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def single_threaded() -> None:
    """Set numpy's and scipy's OpenBLAS to one thread for good: the
    initializer of a forked sweep worker."""
    for library in _EXTENSIONS:
        controls = thread_controls(library)
        if controls is not None:
            controls[1](1)
