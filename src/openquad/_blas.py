"""numpy's OpenBLAS: its thread count, and the LAPACK routines of the
solvers, called in it.

Every LAPACK call of the solvers runs in the OpenBLAS that numpy's wheel
bundles: numpy.linalg's own routines, and the four below, which call
that library's LAPACK through ctypes.  scipy's wheel bundles a second
OpenBLAS with a second thread pool as large as the machine.  After a
call the idle workers of a pool keep spinning for a while, so two pools
in one process fought: on 2 cores a 25-point sweep at n = 53 took 1.14 s
with scipy's pool threaded next to numpy's and 0.38 s with it on one
thread.  With one pool there is nothing to fight, and a run never
imports scipy.linalg (0.29 s of a 0.46 s ``import openquad.cli`` on 2
cores) or sets up scipy's pool (the peak RSS of a Redfield n = 1000
``openquad run`` fell from 234 to 203 MB).

``serial_lapack`` runs numpy's pool on one thread around the Schur form
of the steady state and the real eigensolve of ``spectra.normal_modes``,
for matrices of order up to ``SERIAL_LAPACK_ORDER``; above it the
threaded LAPACK wins and nothing is changed.  Every other call keeps
the pool's threads.  A forked sweep worker, which runs next to other
workers, sets the pool to one thread for good (``single_threaded``).
The thread controls are looked up by name in the library numpy's
extension module links (``scipy_openblas_*``, else the plain
``openblas_*`` names, with or without the ``64_`` suffix of the ILP64
build).  Where neither exists (MKL, Accelerate, a system BLAS without
them) the thread functions do nothing.

``gram_eigenvalues`` and ``real_eig`` make the eigensolves of
``numpy.linalg.eigvalsh`` and ``numpy.linalg.eig`` (dsyevd, dgeev) on a
caller's buffer instead of on numpy's copy of it (and, for eig, without
its complex eigenvectors); ``real_schur`` (dgees) and
``triangular_sylvester`` (dtrsyl) are the Schur form and the Sylvester
leaves that numpy.linalg lacks.  Where numpy's LAPACK lacks a routine
(MKL or Accelerate builds), each falls back to numpy.linalg's or
scipy's.  scipy's are no substitute where numpy's are found: on scipy's
threads, right after numpy's product, dsyevd doubled the time of a
25-point sweep at n = 53 (0.27-0.31 s -> 0.56-0.67 s on 2 cores), on one
thread its bits differ from numpy's threaded solve at order 252 and
above, and the first scipy LAPACK call of a process that used only
numpy's sets up scipy's pool (0.9 MB more peak RSS on the benchmark's
dynamics workload).
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
    "real_schur",
    "triangular_sylvester",
]

# largest matrix order whose Schur form (and real eigensolve) runs on one
# thread.  numpy's dgees on the Redfield X, on 2 cores in fresh processes
# right after building X, one thread against two (medians of 3; h = 1.2,
# then h = 0.7): 0.29 / 0.29 s and 0.24 / 0.17 s at 2n = 506, 0.64 / 0.64 s
# and 0.50 / 0.55 s at 800, 0.98 / 0.84 s and 0.75 / 0.90 s at 1000, and
# 5.7 / 4.2 s and 5.2 / 3.9 s at 2000.  Between 506 and 1000 the two are
# within the spread of the runs, and threads win from 2000; one thread
# wins at the orders of the sweeps: 4.8-8.3 ms against 7.6-8.3 ms at
# 2n = 106 (medians of 20 right after a product, 3 processes each).
# Every shipped config has 2n <= 506
SERIAL_LAPACK_ORDER = 800

# extension module whose linked OpenBLAS numpy's calls run in (numpy
# before 2.0 keeps it under numpy.core)
_EXTENSIONS = ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath")


@functools.cache
def thread_controls():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None
    when it has none."""
    for name in _EXTENSIONS:
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
    """Run numpy's OpenBLAS on one thread inside the block when ``order``
    is at most ``SERIAL_LAPACK_ORDER``; the previous count is restored on
    exit, also when the block raises.  The count is process-wide, so
    blocks that overlap in several Python threads can leave it at one."""
    controls = thread_controls() if order <= SERIAL_LAPACK_ORDER else None
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
    """Set numpy's OpenBLAS to one thread for good: the initializer of a
    forked sweep worker."""
    controls = thread_controls()
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


def _workspace(X: np.ndarray) -> np.ndarray:
    """The square, finite X as the Fortran-ordered float64 array that
    LAPACK overwrites: X itself when it is one and writeable, else a
    copy.  Raises LinAlgError, as numpy.linalg does, for a non-square or
    non-finite X."""
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise np.linalg.LinAlgError("Last 2 dimensions of the array must be square")
    if not np.isfinite(X).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    A = np.asfortranarray(X, dtype=np.float64)
    return A if A.flags.writeable else A.copy(order="F")


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
    dgeev, integer = found
    A = _workspace(X)
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


@functools.cache
def _numpy_dgees():
    """(dgees, its integer type) of the LAPACK that numpy.linalg calls,
    or None when it is not found (``_numpy_lapack``)."""
    found = _numpy_lapack("dgees")
    if found is not None:
        dgees, integer = found
        flag, ptr, number = ctypes.c_char_p, ctypes.c_void_p, ctypes.POINTER(integer)
        # jobvs, sort, select, n, a, lda, sdim, wr, wi, vs, ldvs, work,
        # lwork, bwork, info and the lengths of the two strings
        dgees.argtypes = [flag, flag, ptr, number, ptr, number, number, ptr, ptr, ptr,
                          number, ptr, number, ptr, number, ctypes.c_size_t, ctypes.c_size_t]
    return found


@functools.cache
def _numpy_dtrsyl():
    """(dtrsyl, its integer type) of the LAPACK that numpy.linalg calls,
    or None when it is not found (``_numpy_lapack``)."""
    found = _numpy_lapack("dtrsyl")
    if found is not None:
        dtrsyl, integer = found
        flag, ptr, number = ctypes.c_char_p, ctypes.c_void_p, ctypes.POINTER(integer)
        # trana, tranb, isgn, m, n, a, lda, b, ldb, c, ldc, scale, info and
        # the lengths of the two strings
        dtrsyl.argtypes = [flag, flag, number, number, number, ptr, number, ptr, number,
                           ptr, number, ctypes.POINTER(ctypes.c_double), number,
                           ctypes.c_size_t, ctypes.c_size_t]
    return found


def real_schur(X: np.ndarray):
    """R and U of the real Schur form X = U R U^T of a real square X, as
    ``scipy.linalg.schur(X, output="real")`` computes them.

    The call is LAPACK's dgees with Schur vectors and no sorting, with the
    workspace a query asks for, in numpy's OpenBLAS.  R is written over
    X's buffer when X is a writeable Fortran-ordered float64 array, else
    over a copy.  Where numpy's dgees is not found, this is scipy's schur,
    with the same overwrite rule.  Raises LinAlgError for a non-square or
    non-finite X or when the QR iteration fails.
    """
    A = _workspace(X)
    found = _numpy_dgees()
    if found is None:
        import scipy.linalg

        return scipy.linalg.schur(A, output="real", overwrite_a=True, check_finite=False)
    dgees, integer = found
    order = len(A)
    wr, wi, U = np.empty(order), np.empty(order), np.empty((order, order), order="F")
    sdim, info = integer(0), integer(0)

    def call(lwork: int):
        work = np.empty(max(lwork, 1))
        dgees(b"V", b"N", None, integer(order), A.ctypes.data, integer(max(order, 1)), sdim,
              wr.ctypes.data, wi.ctypes.data, U.ctypes.data, integer(max(order, 1)),
              work.ctypes.data, integer(lwork), None, info, 1, 1)
        return work

    work = call(-1)  # the workspace query
    if info.value == 0:
        call(int(work[0]))
    if info.value:
        raise np.linalg.LinAlgError(f"dgees failed: info {info.value}")
    return A, U


def triangular_sylvester(A: np.ndarray, B: np.ndarray, C: np.ndarray):
    """Z and scale with A Z + Z B^T = scale C, for real quasi-upper-
    triangular A and B in LAPACK's Schur canonical form: LAPACK's unblocked
    dtrsyl with tranb = 'T', as ``scipy.linalg.lapack.dtrsyl(A, B, C,
    tranb="T")`` calls it, in numpy's OpenBLAS.

    Z is a new Fortran-ordered array; A, B and C are not written.  The
    scale (at most 1) is dtrsyl's guard against overflow.  Close
    eigenvalues of A and -B are perturbed, as dtrsyl does, and are no
    error.  Where numpy's dtrsyl is not found, this is scipy's.  Raises
    ValueError unless A, B and C have the shapes (m, m), (n, n), (m, n),
    and LinAlgError when dtrsyl reports an illegal argument.
    """
    m, n = C.shape
    if A.shape != (m, m) or B.shape != (n, n):
        raise ValueError(f"shapes {A.shape}, {B.shape}, {C.shape} are not (m, m), (n, n), (m, n)")
    found = _numpy_dtrsyl()
    if found is None:
        from scipy.linalg import lapack

        Z, scale, info = lapack.dtrsyl(A, B, C, tranb="T")
    else:
        dtrsyl, integer = found
        A, B = np.asfortranarray(A, dtype=np.float64), np.asfortranarray(B, dtype=np.float64)
        Z = np.array(C, dtype=np.float64, order="F")
        scale, info = ctypes.c_double(1.0), integer(0)
        dtrsyl(b"N", b"T", integer(1), integer(m), integer(n), A.ctypes.data,
               integer(max(m, 1)), B.ctypes.data, integer(max(n, 1)), Z.ctypes.data,
               integer(max(m, 1)), scale, info, 1, 1)
        scale, info = scale.value, info.value
    if info < 0:
        raise np.linalg.LinAlgError(f"dtrsyl: illegal argument {-info}")
    return Z, scale
