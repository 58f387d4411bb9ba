
import ctypes
import sys
import threading
import time
import weakref

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from conftest import scipy_thread_controls
from openquad import _blas
from openquad import model as mdl
from openquad import spectra as sp
from openquad import steady_state
from openquad.validation import spectrum_deviation


class FakeControls:
    """Stand-in (get, set) pair that records every count it is set to."""

    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def get(self):
        return self.threads

    def set(self, threads):
        self.calls.append(threads)
        self.threads = threads


@pytest.fixture
def fake(monkeypatch):
    controls = FakeControls(4)
    monkeypatch.setattr(_blas, "thread_controls", lambda: (controls.get, controls.set))
    return controls


def test_scope_restores_the_previous_count(fake):
    with _blas.serial_lapack(10):
        assert fake.threads == 1
    assert fake.threads == 4
    with pytest.raises(RuntimeError):
        with _blas.serial_lapack(10):
            assert fake.threads == 1
            raise RuntimeError("body failed")
    assert fake.threads == 4
    assert fake.calls == [1, 4, 1, 4]


def test_scope_toggles_nothing_above_the_cutoff(fake):
    with _blas.serial_lapack(_blas.SERIAL_LAPACK_ORDER + 1):
        assert fake.threads == 4
    assert fake.calls == []
    with _blas.serial_lapack(_blas.SERIAL_LAPACK_ORDER):
        assert fake.threads == 1


def test_scopes_nest(fake):
    with _blas.serial_lapack(10):
        with _blas.serial_lapack(10):
            assert fake.threads == 1
        assert fake.threads == 1
    assert fake.threads == 4 and fake.calls == [1, 4]


def run_threads(target, count):
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)


def test_scopes_overlapping_in_two_threads_restore_the_count(fake):
    # the second scope opens while the first is open, and the first closes
    # while the second is open: the count is set once and restored once
    barrier = threading.Barrier(2, timeout=10)
    seen = []

    def scoped():
        with _blas.serial_lapack(10):
            barrier.wait()
            seen.append(fake.threads)
            barrier.wait()

    run_threads(scoped, 2)
    assert seen == [1, 1]
    assert fake.threads == 4 and fake.calls == [1, 4]


def test_scopes_of_many_threads_alternate_the_count(fake):
    # more threads than cores, switching often: every set of one thread is
    # followed by a restore before the next, and the count ends where it began
    barrier = threading.Barrier(4, timeout=10)
    seen = []

    def scoped():
        barrier.wait()
        for _ in range(2000):
            with _blas.serial_lapack(10):
                seen.append(fake.threads)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_threads(scoped, 4)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 8000 and set(seen) == {1}
    assert fake.threads == 4
    assert fake.calls == [1, 4] * (len(fake.calls) // 2)


def test_worker_initializer_sets_both_pools_to_one_thread(fake):
    # numpy's pool is the only one a solve uses, so it is the one a forked
    # sweep worker sets
    _blas.single_threaded()
    assert fake.calls == [1] and fake.threads == 1


def test_real_scope_restores_the_previous_count():
    controls = _blas.thread_controls()
    if controls is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread controls")
    get, set_ = controls
    original = get()
    try:
        set_(2)
        with pytest.raises(RuntimeError):
            with _blas.serial_lapack(10):
                assert get() == 1
                raise RuntimeError("body failed")
        assert get() == 2
    finally:
        set_(original)


def clear_lookups():
    for lookup in (_blas.thread_controls, _blas._lapack):
        lookup.cache_clear()


def lapack_returns(monkeypatch, routine, found):
    """Make ``_blas._lapack(routine)`` return ``found``; the lookups of the
    other routines are left as they were."""
    lookup = _blas._lapack
    monkeypatch.setattr(_blas, "_lapack", lambda name: found if name == routine else lookup(name))


def missing_library(path):
    raise OSError(f"cannot load {path}")


@pytest.mark.parametrize(
    "library", [missing_library, lambda path: object()],
    ids=["library_missing", "symbols_missing"],
)
def test_failed_lookup_is_a_silent_no_op(monkeypatch, library):
    # the LAPACK lookups fail too, and are not kept for later tests
    monkeypatch.setattr(_blas.ctypes, "CDLL", library)
    clear_lookups()
    try:
        assert _blas.thread_controls() is None
        with _blas.serial_lapack(10):
            state = steady_state(mdl.xy_redfield_model(mdl.ChainParams(6, 0.5, 0.9)))
        _blas.single_threaded()
        assert state.residual < 1e-14
    finally:
        clear_lookups()


# LAPACK's argument count of each routine of the signature table
LAPACK_ARGUMENTS = {"dgeev": 14, "dgees": 15, "dtrsyl": 13}


@pytest.mark.parametrize("routine", LAPACK_ARGUMENTS)
def test_each_routine_takes_lapacks_arguments_and_two_string_lengths(routine):
    # a short or long entry in the table would otherwise pass silently; the
    # typed function is looked up once
    assert set(_blas._SIGNATURES) == set(LAPACK_ARGUMENTS)
    found = _blas._lapack(routine)
    if found is None:
        pytest.skip(f"numpy's LAPACK has no {routine}")
    function, _ = found
    assert len(function.argtypes) == LAPACK_ARGUMENTS[routine] + 2
    assert list(function.argtypes[-2:]) == [ctypes.c_size_t] * 2
    assert _blas._lapack(routine) is found


@pytest.mark.parametrize("n, tol", [(53, 1e-12), (253, 1e-10)])
def test_serial_steady_state_matches_the_threaded_one(monkeypatch, n, tol):
    model = mdl.xy_redfield_model(mdl.ChainParams(n, 0.5, 0.9))
    serial = steady_state(model).two_point.B
    monkeypatch.setattr(_blas, "SERIAL_LAPACK_ORDER", 0)  # the Schur form threaded
    threaded = steady_state(model).two_point.B
    assert np.abs(serial - threaded).max() <= tol


def test_gram_eigenvalues_are_eigvalsh_bit_for_bit():
    # orders up to 2 x 253, where numpy's threaded solve and a one-thread
    # one differ in the last bits, against eigvalsh under the same thread
    # scope (the product outside it); a strided view like a block of B,
    # and a float32 matrix
    for A in gram_cases():
        before = A.copy()
        w = _blas.gram_eigenvalues(A)
        G = A.T @ A
        with _blas.serial_lapack(len(G)):
            ref = np.linalg.eigvalsh(G)
        assert w.tobytes() == ref.tobytes()
        assert np.array_equal(A, before)


def test_real_eig_is_numpy_eig_split_into_real_pairs(monkeypatch):
    # numpy's eig, with each conjugate pair of vectors r, conj r as the
    # columns (Re r, Im r), bit for bit: in numpy's dgeev and without it;
    # a real spectrum (symmetric matrix) and a mixed one.  A Fortran-ordered
    # X is the workspace, a C-ordered one is left as it was
    rng = np.random.default_rng(5)
    S = rng.standard_normal((40, 40))
    for found in (_blas._lapack("dgeev"), None):
        lapack_returns(monkeypatch, "dgeev", found)
        for X in (S + S.T, S, S[:7, :7].copy()):
            ref, v = np.linalg.eig(X)
            pairs = np.flatnonzero(ref.imag > 0)
            split = v.real.copy()
            split[:, pairs + 1] = v.imag[:, pairs]
            before = X.copy()
            lam, R = _blas.real_eig(X)
            assert np.array_equal(X, before)
            assert lam.dtype == complex and np.isrealobj(R)
            assert np.array_equal(lam, ref) and np.array_equal(R, split)
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
            _blas.real_eig(np.full((3, 3), np.nan))
        with pytest.raises(np.linalg.LinAlgError, match="must be square"):
            _blas.real_eig(np.ones((3, 2)))
        # a read-only Fortran-ordered X is not the workspace either
        X = np.asfortranarray(S)
        X.flags.writeable = False
        lam, _ = _blas.real_eig(X)
        assert np.array_equal(X, S) and np.array_equal(lam, np.linalg.eig(S)[0])
        if found is not None:  # a writeable Fortran-ordered X is
            X = np.asfortranarray(S)
            _blas.real_eig(X)
            assert not np.array_equal(X, S)


def gram_cases():
    """Matrices A of the Gram eigensolves: orders up to 2 x 253, a strided
    view like a block of B, and a float32 matrix."""
    B = np.random.default_rng(3).standard_normal((506, 506))
    return [B[:1, :1], B[:7, :5], B[:106, :106], B[:300, :252], B, B[3:259, 3:259],
            B[:50, :40].astype(np.float32)]


def test_gram_eigh_is_eigh_bit_for_bit():
    # against eigh under the same thread scope (the product inside it); the
    # vectors C-ordered, as eigh returns them
    for A in gram_cases():
        before = A.copy()
        s, Q = _blas.gram_eigh(A)
        with _blas.serial_lapack(A.shape[1]):
            s_ref, Q_ref = np.linalg.eigh(A.T @ A)
        assert s.tobytes() == s_ref.tobytes() and Q.tobytes() == Q_ref.tobytes()
        assert Q.flags.c_contiguous and np.array_equal(A, before)


def test_real_eigenvalues_are_eigvals_bit_for_bit(monkeypatch):
    # against eigvals under the same thread scope, in numpy's dgeev and
    # without it: a real spectrum is returned real, as eigvals returns it.
    # A Fortran-ordered X is the workspace, a C-ordered one is left as it was
    rng = np.random.default_rng(9)
    S = rng.standard_normal((96, 96))
    X_gap = np.ascontiguousarray(
        sp._lyapunov_matrices(mdl.xy_redfield_model(mdl.ChainParams(53, 0.5, 0.9)))[0])
    for found in (_blas._lapack("dgeev"), None):
        lapack_returns(monkeypatch, "dgeev", found)
        for X in (S, S + S.T, S[:16, :16].copy(), np.ones((1, 1)), X_gap):
            with _blas.serial_lapack(len(X)):
                ref = np.linalg.eigvals(X)
            before = X.copy()
            lam = _blas.real_eigenvalues(X)
            assert lam.dtype == ref.dtype and lam.tobytes() == ref.tobytes()
            assert np.array_equal(X, before)
        with pytest.raises(np.linalg.LinAlgError, match="must be square"):
            _blas.real_eigenvalues(np.ones((3, 2)))
        if found is not None:
            X = np.asfortranarray(S)
            _blas.real_eigenvalues(X)
            assert not np.array_equal(X, S)


# each eigensolve of the solvers: a call at order 20, the LAPACK routine it
# makes in numpy's LAPACK through ctypes, and the routine it falls back to
# without it; the Gram eigensolves have no ctypes routine (None) and are
# always numpy.linalg's
X20 = np.random.default_rng(13).standard_normal((20, 20))
MODEL10 = mdl.xy_lindblad_model(mdl.ChainParams(10, 0.5, 0.9))  # no eigh in its bath
RULE_CASES = {
    "rapidities": (lambda: sp.rapidities(MODEL10), "dgeev", np.linalg, "eigvals"),
    "_gram_eigh": (lambda: sp._gram_eigh(X20), None, np.linalg, "eigh"),
    "gram_eigenvalues": (lambda: _blas.gram_eigenvalues(X20), None, np.linalg, "eigvalsh"),
    "real_eig": (lambda: _blas.real_eig(X20), "dgeev", np.linalg, "eig"),
    "real_schur": (lambda: _blas.real_schur(X20), "dgees", scipy.linalg, "schur"),
}


def spy_on_lapack(monkeypatch, fake, case, found, action=None):
    """Make the case's LAPACK routine (found) or its fallback record the
    fake pool's thread count when it is called, then do ``action``.  A
    case without a ctypes routine spies on its numpy.linalg call either
    way."""
    _, lookup, module, name = RULE_CASES[case]
    seen = []

    def spy(routine):
        def call(*args, **kwargs):
            seen.append(fake.threads)
            if action is not None:
                action()
            return routine(*args, **kwargs)
        return call

    if found and lookup is not None:
        routine, integer = _blas._lapack(lookup)
        lapack_returns(monkeypatch, lookup, (spy(routine), integer))
    else:
        if lookup is not None:
            lapack_returns(monkeypatch, lookup, None)
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    return seen


@pytest.mark.parametrize("found", [True, False], ids=["numpy_lapack", "fallback"])
@pytest.mark.parametrize("case", RULE_CASES)
def test_eigensolves_run_on_one_thread_up_to_the_cutoff(monkeypatch, fake, case, found):
    call = RULE_CASES[case][0]
    seen = spy_on_lapack(monkeypatch, fake, case, found)
    call()
    assert seen and set(seen) == {1}
    assert fake.threads == 4 and fake.calls == [1, 4]
    # above the cutoff the count is not touched
    monkeypatch.setattr(_blas, "SERIAL_LAPACK_ORDER", 19)
    seen.clear()
    call()
    assert seen and set(seen) == {4}
    assert fake.calls == [1, 4]


def failing():
    raise np.linalg.LinAlgError("the LAPACK call failed")


@pytest.mark.parametrize("case", RULE_CASES)
def test_failed_eigensolves_restore_the_count(monkeypatch, fake, case):
    spy_on_lapack(monkeypatch, fake, case, True, failing)
    with pytest.raises(np.linalg.LinAlgError, match="call failed"):
        RULE_CASES[case][0]()
    assert fake.threads == 4 and fake.calls == [1, 4]


def test_non_finite_x_restores_the_count(fake):
    bad = X20.copy(order="F")
    bad[3, 5] = np.nan
    for solve in (_blas.real_eigenvalues, _blas.real_eig, _blas.real_schur):
        fake.calls.clear()
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
            solve(bad)
        assert fake.threads == 4 and fake.calls == [1, 4]


def spy_on_threads(monkeypatch):
    """Record the thread of each ``_blas.real_eigenvalues`` call."""
    threads = []
    solve = _blas.real_eigenvalues

    def spy(X):
        threads.append(threading.get_ident())
        return solve(X)

    monkeypatch.setattr(_blas, "real_eigenvalues", spy)
    return threads


def test_side_by_side_eigenvalues_are_the_serial_ones_in_order(monkeypatch, fake):
    # more helpers than cores, switching often: each entry lands at its
    # index with the bits of a serial eigensolve, a failed eigensolve and a
    # matrix that failed to build are their own entries, and the count
    # is set to one before the first helper and restored after the last
    rng = np.random.default_rng(5)
    matrices = [rng.standard_normal((order, order)) for order in rng.integers(2, 60, 48)]
    matrices[7][1, 1] = np.nan
    refused = ValueError("the matrix failed to build")
    items = matrices[:20] + [refused] + matrices[20:]
    expected = [refused if item is refused else None if i == 7 else
                _blas.real_eigenvalues(item.copy()) for i, item in enumerate(items)]
    fake.calls.clear()
    seen = spy_on_lapack(monkeypatch, fake, "rapidities", True)
    threads = spy_on_threads(monkeypatch)
    active = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = _blas._real_eigenvalues_side_by_side(iter(items), 60, 8)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == active
    assert fake.threads == 4 and fake.calls == [1, 4]
    # a workspace query and the call for each finite matrix
    assert len(seen) == 2 * (len(matrices) - 1) and set(seen) == {1}
    assert len(threads) == len(matrices) and threading.get_ident() not in threads
    assert len(results) == len(items)
    assert isinstance(results[7], np.linalg.LinAlgError) and results[20] is refused
    for i, (got, want) in enumerate(zip(results, expected)):
        if i not in (7, 20):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class LingeringSemaphore(threading.Semaphore):
    """A semaphore whose releasing thread goes on for a while, as a helper
    thread may after it frees its slot and before it ends."""

    def release(self, n=1):
        super().release(n)
        time.sleep(0.005)


def test_side_by_side_keeps_at_most_threads_plus_one_matrices_alive(monkeypatch, fake):
    # before the next matrix is built, at most one per helper is alive, also
    # while a helper that freed its slot has not ended yet
    monkeypatch.setattr(threading, "Semaphore", LingeringSemaphore)
    rng = np.random.default_rng(6)
    refs, alive = [], []

    def matrices():
        for _ in range(24):
            alive.append(sum(ref() is not None for ref in refs))
            X = np.asfortranarray(rng.standard_normal((40, 40)))
            refs.append(weakref.ref(X))
            yield X

    results = _blas._real_eigenvalues_side_by_side(matrices(), 40, 3)
    assert len(results) == 24 and max(alive) <= 3
    assert fake.calls == [1, 4]


@pytest.mark.parametrize("case", ["one_helper", "one_pool_thread", "no_controls",
                                  "above_the_cutoff"])
def test_side_by_side_runs_serially(monkeypatch, fake, case):
    # the eigensolves run on the calling thread, each under its own scope
    # (none above the cutoff), when there is no second helper or the pool
    # cannot be held to one thread
    threads, order = 2, 30
    if case == "one_helper":
        threads = 1
    elif case == "one_pool_thread":
        fake.threads = 1
    elif case == "no_controls":
        monkeypatch.setattr(_blas, "thread_controls", lambda: None)
    else:
        monkeypatch.setattr(_blas, "SERIAL_LAPACK_ORDER", order - 1)
    calls = spy_on_threads(monkeypatch)
    X = np.random.default_rng(7).standard_normal((order, order))
    results = _blas._real_eigenvalues_side_by_side([X, X, X], order, threads)
    assert calls == [threading.get_ident()] * 3
    assert all(r.tobytes() == results[0].tobytes() for r in results)
    if case in ("one_helper", "one_pool_thread"):
        assert fake.calls == [1, fake.threads] * 3
    else:
        assert fake.calls == []


def test_numpy_scope_sets_numpy_pool_only():
    # the scope holds numpy's pool and leaves scipy's as it was
    numpy_pool, scipy_pool = _blas.thread_controls(), scipy_thread_controls()
    if numpy_pool is None or scipy_pool is None:
        pytest.skip("no OpenBLAS thread controls")
    originals = numpy_pool[0](), scipy_pool[0]()
    try:
        numpy_pool[1](2)
        scipy_pool[1](2)
        with _blas.serial_lapack(10):
            assert numpy_pool[0]() == 1 and scipy_pool[0]() == 2
        assert numpy_pool[0]() == 2 and scipy_pool[0]() == 2
    finally:
        numpy_pool[1](originals[0])
        scipy_pool[1](originals[1])


def quasi_triangular(rng, order):
    """A real quasi-upper-triangular matrix in LAPACK's Schur canonical
    form, with 2 x 2 blocks for the complex pairs of a random matrix."""
    R, _ = scipy.linalg.schur(rng.standard_normal((order, order)), output="real")
    assert np.diag(R, -1).any()
    return R


@pytest.mark.parametrize("order", [2, 106, 506])
def test_real_schur_matches_scipys_schur(order):
    rng = np.random.default_rng(order)
    X = rng.standard_normal((order, order))
    R, U = _blas.real_schur(X)
    R_ref, _ = scipy.linalg.schur(X, output="real")
    sub = np.diag(R, -1)
    assert not np.tril(R, -2).any() and not (sub[1:] * sub[:-1]).any()
    # orthogonal to order x eps, as LAPACK's own U is (scipy's U is off by
    # 2.3e-14 at order 506)
    assert np.abs(U.T @ U - np.eye(order)).max() <= order * np.finfo(float).eps
    assert np.linalg.norm(U @ R @ U.T - X) <= 1e-13 * np.linalg.norm(X)
    lam, ref = np.linalg.eigvals(R), np.linalg.eigvals(R_ref)
    assert spectrum_deviation(lam, ref) <= 1e-12 * np.abs(ref).max()


def test_real_schur_overwrites_a_fortran_ordered_x_only(monkeypatch):
    # in numpy's dgees and in scipy's schur when it is not found; a
    # read-only or C-ordered X is copied
    S = np.random.default_rng(7).standard_normal((40, 40))
    for found in (_blas._lapack("dgees"), None):
        lapack_returns(monkeypatch, "dgees", found)
        frozen = np.asfortranarray(S)
        frozen.flags.writeable = False
        for X, overwritten in ((np.asfortranarray(S), True), (S.copy(), False), (frozen, False)):
            R, U = _blas.real_schur(X)
            assert np.shares_memory(R, X) == overwritten
            assert np.array_equal(X, S) != overwritten
            assert np.linalg.norm(U @ R @ U.T - S) <= 1e-13 * np.linalg.norm(S)
        for bad in (np.inf, np.nan):
            X = np.asfortranarray(S)
            X[3, 5] = bad
            with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
                _blas.real_schur(X)
        with pytest.raises(np.linalg.LinAlgError, match="must be square"):
            _blas.real_schur(np.ones((3, 2)))


def test_triangular_sylvester_matches_scipys_dtrsyl():
    # quasi-triangular A and B with 2 x 2 blocks, as views into larger
    # Fortran-ordered factors, and a C-ordered right-hand side and a view
    # of one, as the blocked solve passes them
    rng = np.random.default_rng(11)
    RA, RB = quasi_triangular(rng, 60), quasi_triangular(rng, 45)
    for A, B in ((RA[:48, :48], RB[:31, :31]), (RA[12:, 12:], RB), (RA[:1, :1], RB[:2, :2])):
        for C in (rng.standard_normal((len(A), len(B))),
                  rng.standard_normal((len(B) + 5, len(A) + 3))[2:2 + len(B), 1:1 + len(A)].T):
            before = C.copy()
            Z, scale = _blas.triangular_sylvester(A, B, C)
            Z_ref, scale_ref, info = lapack.dtrsyl(A, B, C, tranb="T")
            assert info == 0 and scale == scale_ref == 1.0
            assert np.abs(Z - Z_ref).max() <= 1e-13 * np.abs(Z_ref).max()
            assert np.linalg.norm(A @ Z + Z @ B.T - C) <= 1e-13 * np.linalg.norm(C)
            assert np.array_equal(C, before)
    with pytest.raises(ValueError, match="shapes"):
        _blas.triangular_sylvester(RA, RB, np.zeros((45, 60)))


@pytest.mark.parametrize(
    "model",
    [mdl.xy_redfield_model(mdl.ChainParams(53, 0.5, 0.9)),
     mdl.xy_lindblad_model(mdl.ChainParams(200, 0.2, 1.05))],
    ids=["redfield_n53", "lindblad_n200"],
)
def test_steady_state_falls_back_to_scipys_routines(monkeypatch, model):
    # where numpy's LAPACK lacks dgees and dtrsyl (MKL or Accelerate
    # builds), the solve takes scipy's schur and dtrsyl, with the same B
    reference = steady_state(model).two_point.B
    calls = []

    def counted(module, name):
        routine = getattr(module, name)

        def call(*args, **kwargs):
            calls.append(name)
            return routine(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    counted(scipy.linalg, "schur")
    counted(lapack, "dtrsyl")
    monkeypatch.setattr(_blas, "_LAPACK_NAMES", ())
    clear_lookups()
    try:
        B = steady_state(model).two_point.B
    finally:
        clear_lookups()
    assert calls.count("schur") == 1 and "dtrsyl" in calls
    assert np.abs(B - reference).max() <= 1e-12
