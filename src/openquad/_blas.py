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
is changed.  numpy's pool keeps its threads, but for the real
eigensolve of ``spectra.normal_modes``, which runs in a
``serial_lapack(order, "numpy")`` block.  A forked sweep worker,
which runs next to other workers, sets both pools to one thread
(``single_threaded``).

The thread controls are looked up by name in the libraries the two
extension modules link (``scipy_openblas_*``, else the plain
``openblas_*`` names, with or without the ``64_`` suffix of the ILP64
build).  Where neither exists (MKL, Accelerate, a system BLAS without
them) every function here does nothing.

``gram_eigenvalues`` and ``real_eig`` call the LAPACK of numpy's
OpenBLAS the same way, to make the eigensolves of ``numpy.linalg.eigvalsh``
and ``numpy.linalg.eig`` on a caller's buffer instead of on numpy's copy
of it (and, for eig, without its complex eigenvectors).  scipy's routines
are no substitute.  On scipy's threads, right after numpy's product,
dsyevd doubled the time of a 25-point sweep at n = 53 (0.27-0.31 s ->
0.56-0.67 s on 2 cores), and on one thread its bits differ from numpy's
threaded solve at order 252 and above (they agree up to 200).  scipy's
dgeev on one thread was as fast as numpy's, but its first call sets up
scipy's pool in a process that used only numpy's: 0.9 MB more peak RSS
on the benchmark's dynamics workload.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
from contextlib import contextmanager

import numpy as np

__all__ = [
    "SERIAL_LAPACK_ORDER",
    "thread_controls",
    "serial_lapack",
    "single_threaded",
    "gram_eigenvalues",
    "real_eig",
]

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
def serial_lapack(order: int, library: str = "scipy"):
    """Run the OpenBLAS of ``library`` ("scipy" or "numpy") on one thread
    inside the block when ``order`` is at most ``SERIAL_LAPACK_ORDER``;
    the previous count is restored on exit, also when the block raises.
    The count is process-wide, so blocks that overlap in several Python
    threads can leave it at one."""
    controls = thread_controls(library) if order <= SERIAL_LAPACK_ORDER else None
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


# names of a LAPACK routine in the OpenBLAS of numpy.linalg, each with the
# integer width it implies: the ILP64 OpenBLAS of numpy's wheels (with and
# without the scipy_ prefix), then the LP64 one.  A plain name such as
# ``dsyevd_`` is not taken: its integers may be either width
_LAPACK_NAMES = (
    ("scipy_{}_64_", ctypes.c_int64),
    ("{}_64_", ctypes.c_int64),
    ("scipy_{}_", ctypes.c_int32),
)


def _numpy_lapack(routine: str):
    """(function, its integer type) of LAPACK's ``routine`` in the library
    that numpy.linalg calls, with its return type set, or None when none
    of ``_LAPACK_NAMES`` is found."""
    try:
        lib = ctypes.CDLL(importlib.import_module("numpy.linalg._umath_linalg").__file__)
    except (ImportError, OSError):
        return None
    for name, integer in _LAPACK_NAMES:
        try:
            function = getattr(lib, name.format(routine))
        except AttributeError:
            continue
        function.restype = None
        return function, integer
    return None


@functools.cache
def _numpy_dsyevd():
    """(dsyevd, its integer type) of the LAPACK that numpy.linalg calls,
    or None when it is not found (``_numpy_lapack``)."""
    found = _numpy_lapack("dsyevd")
    if found is not None:
        dsyevd, integer = found
        flag, ptr, number = ctypes.c_char_p, ctypes.c_void_p, ctypes.POINTER(integer)
        # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info and the
        # lengths of the two strings that gfortran passes last
        dsyevd.argtypes = [flag, flag, number, ptr, number, ptr, ptr, number, ptr,
                           number, number, ctypes.c_size_t, ctypes.c_size_t]
    return found


@functools.cache
def _numpy_dgeev():
    """(dgeev, its integer type) of the LAPACK that numpy.linalg calls,
    or None when it is not found (``_numpy_lapack``)."""
    found = _numpy_lapack("dgeev")
    if found is not None:
        dgeev, integer = found
        flag, ptr, number = ctypes.c_char_p, ctypes.c_void_p, ctypes.POINTER(integer)
        # jobvl, jobvr, n, a, lda, wr, wi, vl, ldvl, vr, ldvr, work, lwork,
        # info and the lengths of the two strings
        dgeev.argtypes = [flag, flag, number, ptr, number, ptr, ptr, ptr, number, ptr,
                          number, ptr, number, number, ctypes.c_size_t, ctypes.c_size_t]
    return found


def gram_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of A^T A for a real A: bit for bit
    ``np.linalg.eigvalsh(A.T @ A)``, without eigvalsh's copy of A^T A.

    numpy computes A^T A by syrk and mirrors the triangle, so the product
    is exactly symmetric and its C-ordered buffer is itself in Fortran
    order.  eigvalsh's call (dsyevd without vectors, on the lower
    triangle, with the workspace a query asks for) is made on that
    buffer, in numpy's OpenBLAS and on its threads.  Where that dsyevd
    is not found, or A^T A is not a contiguous float64 array, this is
    eigvalsh.
    """
    G = A.T @ A
    found = _numpy_dsyevd()
    if found is None or G.dtype != np.float64 or not G.flags.c_contiguous:
        return np.linalg.eigvalsh(G)
    dsyevd, integer = found
    order = len(G)
    w = np.empty(order)
    info = integer(0)

    def call(lwork: int, liwork: int):
        work, iwork = np.empty(max(lwork, 1)), np.empty(max(liwork, 1), dtype=integer)
        dsyevd(b"N", b"L", integer(order), G.ctypes.data, integer(max(order, 1)),
               w.ctypes.data, work.ctypes.data, integer(lwork),
               iwork.ctypes.data, integer(liwork), info, 1, 1)
        return work, iwork

    work, iwork = call(-1, -1)  # the workspace query
    if info.value == 0:
        call(int(work[0]), int(iwork[0]))
    if info.value:
        raise np.linalg.LinAlgError(f"dsyevd failed: info {info.value}")
    return w


def real_eig(X: np.ndarray):
    """Eigenvalues lam and the real eigenvector basis R of a real square X,
    as numpy's eig computes them but without its complex copy.

    LAPACK's dgeev (right vectors only) returns R real: the eigenvector of
    a real eigenvalue in its column, and for a conjugate pair the columns
    (Re r, Im r) of the eigenvector r of the +Im member, which comes
    first; numpy's eig builds its complex vectors from exactly these
    columns.  The call is numpy's, with the workspace a query asks for,
    in numpy's OpenBLAS, on X's own buffer when X is a writeable
    Fortran-ordered float64 array (X is then overwritten), else on a copy.
    Where that dgeev is not found, this is numpy's eig with its pairs
    split.  Raises LinAlgError, as eig does, for a non-square or
    non-finite X or when the QR iteration fails.
    """
    found = _numpy_dgeev()
    if found is None:
        lam, v = np.linalg.eig(X)
        if np.isrealobj(v):
            return lam.astype(complex), v
        R = v.real.copy()
        firsts = np.flatnonzero(lam.imag > 0)
        R[:, firsts + 1] = v.imag[:, firsts]
        return lam, R
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise np.linalg.LinAlgError("Last 2 dimensions of the array must be square")
    if not np.isfinite(X).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    dgeev, integer = found
    A = np.asfortranarray(X, dtype=np.float64)
    if not A.flags.writeable:
        A = A.copy(order="F")
    order = len(A)
    wr, wi, R, vl = np.empty(order), np.empty(order), np.empty((order, order), order="F"), np.empty(1)
    info = integer(0)

    def call(lwork: int):
        work = np.empty(max(lwork, 1))
        dgeev(b"N", b"V", integer(order), A.ctypes.data, integer(max(order, 1)), wr.ctypes.data,
              wi.ctypes.data, vl.ctypes.data, integer(1), R.ctypes.data, integer(max(order, 1)),
              work.ctypes.data, integer(lwork), info, 1, 1)
        return work

    work = call(-1)  # the workspace query
    if info.value == 0:
        call(int(work[0]))
    if info.value:
        raise np.linalg.LinAlgError(f"dgeev failed: info {info.value}")
    return wr + 1j * wi, R
