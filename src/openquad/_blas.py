"""numpy's OpenBLAS: its thread count, and the LAPACK routines of the
solvers, called in it.

Every LAPACK call of the solvers runs in the OpenBLAS that numpy's wheel
bundles: numpy.linalg's own routines, and three more, which call that
library's LAPACK through ctypes.  ``_lapack`` finds each of those
routines once and types its arguments from one table, ``_SIGNATURES``,
so a wrong type raises at the first call.  scipy's wheel bundles a second
OpenBLAS with a second thread pool as large as the machine.  After a
call the idle workers of a pool keep spinning for a while, so two pools
in one process fought: on 2 cores a 25-point sweep at n = 53 took 1.14 s
with scipy's pool threaded next to numpy's and 0.38 s with it on one
thread.  With one pool there is nothing to fight, and a run never
imports scipy.linalg (0.29 s of a 0.46 s ``import openquad.cli`` on 2
cores) or sets up scipy's pool (the peak RSS of a Redfield n = 1000
``openquad run`` fell from 234 to 203 MB).

Every eigensolve below runs numpy's pool on one thread for matrices of
order up to ``SERIAL_LAPACK_ORDER``, and each routine applies that rule
itself (``serial_lapack``): the Schur form of the steady state (dgees),
the real eigensolves of ``spectra.normal_modes`` and of
``spectra.rapidities`` (dgeev with and without vectors), and the
eigensolves of A^T A of the bath (eigh, with its product A^T A) and of
the entropies (eigvalsh).  At these orders the pool's threads cost more
than they save, and a threaded eigensolve right after a product
sometimes stalls behind the product's spinning workers.  Above the
cutoff the threaded LAPACK wins and nothing is changed.  The other BLAS
products and the dtrsyl leaves of the Lyapunov solve keep the pool's
threads.  A forked sweep worker, which runs next to other workers, sets
the pool to one thread for good (``single_threaded``).  A gap scan,
whose eigensolves are independent, runs them side by side on helper
threads, each on one thread, under one scope that the calling thread
holds over the whole section (``_real_eigenvalues_side_by_side``): the
count is never set while a helper is inside BLAS.
The thread controls are looked up by name in the library numpy's
extension module links (``scipy_openblas_*``, else the plain
``openblas_*`` names, with or without the ``64_`` suffix of the ILP64
build).  Where neither exists (MKL, Accelerate, a system BLAS without
them) the thread functions do nothing.

A routine is called through ctypes only where numpy.linalg's own call
will not do:

- ``real_schur`` (dgees) and ``triangular_sylvester`` (dtrsyl): the
  Schur form and the Sylvester leaves, which numpy.linalg lacks.
- ``real_eig`` (dgeev with vectors): numpy's eig would build the 2n x 2n
  complex eigenvectors, 64 MB at n = 1000 next to a 266 MB budget for
  that run; dgeev's real vectors are returned as they are.
- ``real_eigenvalues`` (dgeev without vectors): numpy's eigvals holds
  the GIL through its LAPACK call, which the side-by-side gap scan needs
  released.  On 2 cores a spinning Python thread ran about 16 M
  iterations/s idle, 16 M during this dgeev and 2.6 M during eigvals at
  order 400.

``gram_eigenvalues`` and ``gram_eigh`` are numpy.linalg's eigvalsh and
eigh themselves, under the thread rule.  Where numpy's LAPACK lacks a
routine (MKL or Accelerate builds), each ctypes routine falls back to
numpy.linalg's or scipy's, under the same thread rule.  scipy's are no
substitute where numpy's are found: on scipy's threads, right after
numpy's product, scipy's eigh doubled the time of a 25-point sweep at
n = 53 (0.27-0.31 s -> 0.56-0.67 s on 2 cores), on one thread its bits
differ from numpy's threaded solve at order 252 and above, and the first
scipy LAPACK call of a process that used only numpy's sets up scipy's
pool (0.9 MB more peak RSS on the benchmark's dynamics workload).
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "SERIAL_LAPACK_ORDER",
    "thread_controls",
    "serial_lapack",
    "single_threaded",
    "gram_eigenvalues",
    "gram_eigh",
    "real_eigenvalues",
    "real_eig",
    "real_schur",
    "triangular_sylvester",
]

# largest matrix order whose eigensolves run on one thread.  Timed on 2
# cores in fresh processes right after a numpy product, one thread against
# two:
# - dgees, the Schur form of the Redfield X (medians of 3; h = 1.2, then
#   h = 0.7): 0.29 / 0.29 s and 0.24 / 0.17 s at 2n = 506, 0.64 / 0.64 s
#   and 0.50 / 0.55 s at 800, 0.98 / 0.84 s and 0.75 / 0.90 s at 1000, and
#   5.7 / 4.2 s and 5.2 / 3.9 s at 2000; 4.8-8.3 ms against 7.6-8.3 ms at
#   2n = 106 (medians of 20, 3 processes each).
# - The next three as medians of 7 calls in each of 3 processes, ranges
#   over the processes.  dgeev without vectors (the gap scan): 5.3-7.9 /
#   6.3-6.9 ms at 128, 25-39 / 30-37 ms at 256, 141-237 / 150-239 ms at
#   506, 380-462 / 356-363 ms at 800.
# - eigh (dsyevd), with its product (the bath): 1.3-2.1 / 1.2-1.4 ms
#   at 128, where one first call on two threads took 236 ms, 5.5-5.7 /
#   5.4-5.9 ms at 256, 26-38 / 20-21 ms at 506, 91-102 / 61-76 ms at 800.
# - eigvalsh (dsyevd, no vectors; the entropies): 0.7-1.0 / 0.9-1.1 ms at 128,
#   3.8-4.4 / 3.3-4.0 ms at 256, 14-18 / 14-16 ms at 506, 47-65 / 35-40 ms
#   at 800.
# Up to 256 one thread and two are even or one thread wins, and it avoids
# the stalls; above, threads win for dsyevd.  The bath takes its eigh only
# below about n = 110-130 on the chain (``spectra._ohmic_bath_vectors``),
# and every shipped config has 2n <= 506, so one cutoff is kept
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


# the scopes open in this process, and the count the first one saved
_SCOPE_LOCK = threading.Lock()
_scope_depth = 0
_scope_saved = 0


@contextmanager
def serial_lapack(order: int):
    """Run numpy's OpenBLAS on one thread inside the block when ``order``
    is at most ``SERIAL_LAPACK_ORDER``.

    Scopes nest, also across Python threads: the first one to open saves
    the count and sets one thread, the last one to close restores the
    saved count, also when its block raises.  The count is process-wide,
    so a scope that opens while another thread's is open runs its block
    on one thread too.
    """
    global _scope_depth, _scope_saved
    controls = thread_controls() if order <= SERIAL_LAPACK_ORDER else None
    if controls is None:
        yield
        return
    get, set_ = controls
    with _SCOPE_LOCK:
        if not _scope_depth:
            _scope_saved = get()
            set_(1)
        _scope_depth += 1
    try:
        yield
    finally:
        with _SCOPE_LOCK:
            _scope_depth -= 1
            if not _scope_depth:
                set_(_scope_saved)


def single_threaded() -> None:
    """Set numpy's OpenBLAS to one thread for good: the initializer of a
    forked sweep worker."""
    controls = thread_controls()
    if controls is not None:
        controls[1](1)


# names of a LAPACK routine in the OpenBLAS of numpy.linalg, each with the
# integer width it implies: the ILP64 OpenBLAS of numpy's wheels (with and
# without the scipy_ prefix), then the LP64 one.  A plain name such as
# ``dgees_`` is not taken: its integers may be either width
_LAPACK_NAMES = (
    ("scipy_{}_64_", ctypes.c_int64),
    ("{}_64_", ctypes.c_int64),
    ("scipy_{}_", ctypes.c_int32),
)


# the arguments of each routine, one letter each: f a flag (char *), i a
# pointer to an integer, p an array, d a pointer to a double.  gfortran
# passes the lengths of the two flags after them
_SIGNATURES = {
    "dgeev": "ffipipppipipii",  # jobvl jobvr n a lda wr wi vl ldvl vr ldvr work lwork info
    "dgees": "ffpipiipppipipi",  # jobvs sort select n a lda sdim wr wi vs ldvs work
                                 # lwork bwork info
    "dtrsyl": "ffiiipipipidi",  # trana tranb isgn m n a lda b ldb c ldc scale info
}


@functools.cache
def _lapack(routine: str):
    """(function, its integer type) of LAPACK's ``routine`` in the library
    that numpy.linalg calls, typed by ``_SIGNATURES``, or None when none
    of ``_LAPACK_NAMES`` is found."""
    try:
        lib = ctypes.CDLL(importlib.import_module("numpy.linalg._umath_linalg").__file__)
    except (ImportError, OSError):
        return None
    for name, integer in _LAPACK_NAMES:
        function = getattr(lib, name.format(routine), None)
        if function is None:
            continue
        types = {"f": ctypes.c_char_p, "i": ctypes.POINTER(integer), "p": ctypes.c_void_p,
                 "d": ctypes.POINTER(ctypes.c_double)}
        function.restype = None
        function.argtypes = [types[kind] for kind in _SIGNATURES[routine]] + [ctypes.c_size_t] * 2
        return function, integer
    return None


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
    """Ascending eigenvalues of A^T A for a real A:
    ``np.linalg.eigvalsh(A.T @ A)`` with the eigensolve under
    ``serial_lapack``.  The product keeps the pool's threads."""
    G = A.T @ A
    with serial_lapack(len(G)):
        return np.linalg.eigvalsh(G)


def gram_eigh(A: np.ndarray):
    """Ascending eigenvalues s and orthonormal eigenvectors Q (columns) of
    A^T A for a real A: ``np.linalg.eigh(A.T @ A)``, product and
    eigensolve under ``serial_lapack``."""
    with serial_lapack(A.shape[1]):
        return np.linalg.eigh(A.T @ A)


def _dgeev(X: np.ndarray, jobvr: bytes):
    """wr, wi and (``jobvr`` b"V") the right vectors R of numpy.linalg's
    dgeev on X's buffer or a copy (``_workspace``), after a workspace
    query; None for R with ``jobvr`` b"N".  dgeev must be found."""
    dgeev, integer = _lapack("dgeev")
    A = _workspace(X)
    order = len(A)
    vectors = jobvr == b"V"
    wr, wi, vl = np.empty(order), np.empty(order), np.empty(1)
    R = np.empty((order, order), order="F") if vectors else np.empty(1)
    ldvr = max(order, 1) if vectors else 1
    info = integer(0)

    def call(lwork: int):
        work = np.empty(max(lwork, 1))
        dgeev(b"N", jobvr, integer(order), A.ctypes.data, integer(max(order, 1)), wr.ctypes.data,
              wi.ctypes.data, vl.ctypes.data, integer(1), R.ctypes.data, integer(ldvr),
              work.ctypes.data, integer(lwork), info, 1, 1)
        return work

    work = call(-1)  # the workspace query
    if info.value == 0:
        call(int(work[0]))
    if info.value:
        raise np.linalg.LinAlgError(f"dgeev failed: info {info.value}")
    return wr, wi, R if vectors else None


def real_eigenvalues(X: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real square X: bit for bit ``np.linalg.eigvals(X)``
    under ``serial_lapack``, real when all of them are, as eigvals returns
    them.

    The call is eigvals' (dgeev without vectors, with the workspace a
    query asks for), on one thread up to order ``SERIAL_LAPACK_ORDER``,
    on X's own buffer when X is a writeable Fortran-ordered float64 array
    (X is then overwritten), else on a copy.  Where that dgeev is not
    found, this is eigvals.  Raises LinAlgError, as eigvals does, for a
    non-square or non-finite X or when the QR iteration fails.
    """
    with serial_lapack(len(X)):
        if _lapack("dgeev") is None:
            return np.linalg.eigvals(X)
        wr, wi, _ = _dgeev(X, b"N")
    if not wi.any():
        return wr
    lam = np.empty(len(wr), dtype=complex)
    lam.real, lam.imag = wr, wi
    return lam


def _eigenvalues_or_error(X: np.ndarray):
    """``real_eigenvalues(X)``, or the exception it raised."""
    try:
        return real_eigenvalues(X)
    except Exception as exc:  # handed to the caller, which decides what is raised
        return exc


def _real_eigenvalues_side_by_side(matrices, order: int, threads: int) -> list:
    """``real_eigenvalues`` of each matrix that the iterable ``matrices``
    yields, in input order, with up to ``threads`` eigensolves in flight.

    Each entry is the eigenvalues, or the exception the eigensolve raised;
    an exception that ``matrices`` yields in place of a matrix is its own
    entry, so the caller decides which failure it reports.  ``order``
    bounds the order of every matrix.

    The eigensolves run on helper threads, as many as the least of
    ``threads`` and numpy's pool count at entry: the LAPACK call releases
    the GIL, so each helper keeps one core busy while the calling thread
    draws the next matrix.  That matrix waits for a free helper, so at
    most one matrix more than there are helpers is alive.  The calling
    thread holds one ``serial_lapack`` scope over the whole section: the
    pool count is set to one before the first helper starts and restored
    after the last has returned, so it never changes while a helper is
    inside BLAS.  With one helper, no thread controls (where the scope
    could not hold the pool to one thread) or ``order`` above
    ``SERIAL_LAPACK_ORDER`` (where the pool's threads win), the
    eigensolves run one after another on the calling thread.
    """
    controls = thread_controls()
    if controls is not None:
        threads = min(threads, controls[0]())
    if controls is None or threads <= 1 or order > SERIAL_LAPACK_ORDER:
        return [item if isinstance(item, Exception) else _eigenvalues_or_error(item)
                for item in matrices]
    _lapack("dgeev")  # the lookup, once, before any helper calls it
    results, helpers = [], []
    free = threading.Semaphore(threads)

    def solve(index: int, box: list):
        # the matrix is taken out of its box, so it is freed when its
        # eigensolve returns, before the slot is, not when the thread ends
        try:
            results[index] = _eigenvalues_or_error(box.pop())
        finally:
            free.release()

    with serial_lapack(order):
        try:
            for item in matrices:
                if isinstance(item, Exception):
                    results.append(item)
                    continue
                results.append(None)
                free.acquire()
                helper = threading.Thread(target=solve, args=(len(results) - 1, [item]))
                helper.start()
                helpers.append(helper)
        finally:
            for helper in helpers:
                helper.join()
    return results


def real_eig(X: np.ndarray):
    """Eigenvalues lam and the real eigenvector basis R of a real square X,
    as numpy's eig computes them but without its complex copy.

    LAPACK's dgeev (right vectors only) returns R real: the eigenvector of
    a real eigenvalue in its column, and for a conjugate pair the columns
    (Re r, Im r) of the eigenvector r of the +Im member, which comes
    first; numpy's eig builds its complex vectors from exactly these
    columns.  The call is numpy's, with the workspace a query asks for,
    in numpy's OpenBLAS on one thread up to order ``SERIAL_LAPACK_ORDER``,
    on X's own buffer when X is a writeable Fortran-ordered float64 array
    (X is then overwritten), else on a copy.  Where that dgeev is not
    found, this is numpy's eig with its pairs split.  Raises LinAlgError,
    as eig does, for a non-square or non-finite X or when the QR
    iteration fails.
    """
    with serial_lapack(len(X)):
        if _lapack("dgeev") is not None:
            wr, wi, R = _dgeev(X, b"V")
            return wr + 1j * wi, R
        lam, v = np.linalg.eig(X)
    if np.isrealobj(v):
        return lam.astype(complex), v
    R = v.real.copy()
    firsts = np.flatnonzero(lam.imag > 0)
    R[:, firsts + 1] = v.imag[:, firsts]
    return lam, R


def real_schur(X: np.ndarray):
    """R and U of the real Schur form X = U R U^T of a real square X, as
    ``scipy.linalg.schur(X, output="real")`` computes them.

    The call is LAPACK's dgees with Schur vectors and no sorting, with the
    workspace a query asks for, in numpy's OpenBLAS on one thread up to
    order ``SERIAL_LAPACK_ORDER``.  R is written over X's buffer when X is
    a writeable Fortran-ordered float64 array, else over a copy.  Where
    numpy's dgees is not found, this is scipy's schur, with the same
    overwrite rule.  Raises LinAlgError for a non-square or non-finite X
    or when the QR iteration fails.
    """
    with serial_lapack(len(X)):
        A = _workspace(X)
        found = _lapack("dgees")
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
    found = _lapack("dtrsyl")
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
