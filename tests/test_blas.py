
import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from conftest import scipy_thread_controls
from openquad import _blas
from openquad import model as mdl
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


def missing_library(path):
    raise OSError(f"cannot load {path}")


@pytest.mark.parametrize(
    "library", [missing_library, lambda path: object()],
    ids=["library_missing", "symbols_missing"],
)
def test_failed_lookup_is_a_silent_no_op(monkeypatch, library):
    monkeypatch.setattr(_blas.ctypes, "CDLL", library)
    _blas.thread_controls.cache_clear()
    try:
        assert _blas.thread_controls() is None
        with _blas.serial_lapack(10):
            state = steady_state(mdl.xy_redfield_model(mdl.ChainParams(6, 0.5, 0.9)))
        _blas.single_threaded()
        assert state.residual < 1e-14
    finally:
        _blas.thread_controls.cache_clear()


@pytest.mark.parametrize("n, tol", [(53, 1e-12), (253, 1e-10)])
def test_serial_steady_state_matches_the_threaded_one(monkeypatch, n, tol):
    model = mdl.xy_redfield_model(mdl.ChainParams(n, 0.5, 0.9))
    serial = steady_state(model).two_point.B
    monkeypatch.setattr(_blas, "SERIAL_LAPACK_ORDER", 0)  # the Schur form threaded
    threaded = steady_state(model).two_point.B
    assert np.abs(serial - threaded).max() <= tol


def test_gram_eigenvalues_are_eigvalsh_bit_for_bit(monkeypatch):
    # orders up to 2 x 253, where numpy's threaded solve and a one-thread
    # one differ in the last bits; a strided view like a block of B, and a
    # float32 matrix, which goes to eigvalsh
    rng = np.random.default_rng(3)
    B = rng.standard_normal((506, 506))
    cases = [B[:1, :1], B[:7, :5], B[:106, :106], B[:300, :252], B, B[3:259, 3:259],
             B[:50, :40].astype(np.float32)]
    for found in (_blas._numpy_dsyevd(), None):
        monkeypatch.setattr(_blas, "_numpy_dsyevd", lambda: found)
        for A in cases:
            before = A.copy()
            w = _blas.gram_eigenvalues(A)
            assert w.tobytes() == np.linalg.eigvalsh(A.T @ A).tobytes()
            assert np.array_equal(A, before)


def test_real_eig_is_numpy_eig_split_into_real_pairs(monkeypatch):
    # numpy's eig, with each conjugate pair of vectors r, conj r as the
    # columns (Re r, Im r), bit for bit: in numpy's dgeev and without it;
    # a real spectrum (symmetric matrix) and a mixed one.  A Fortran-ordered
    # X is the workspace, a C-ordered one is left as it was
    rng = np.random.default_rng(5)
    S = rng.standard_normal((40, 40))
    for found in (_blas._numpy_dgeev(), None):
        monkeypatch.setattr(_blas, "_numpy_dgeev", lambda: found)
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
    for found in (_blas._numpy_dgees(), None):
        monkeypatch.setattr(_blas, "_numpy_dgees", lambda: found)
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
    monkeypatch.setattr(_blas, "_numpy_lapack", lambda routine: None)
    caches = (_blas._numpy_dsyevd, _blas._numpy_dgeev, _blas._numpy_dgees, _blas._numpy_dtrsyl)
    for cache in caches:
        cache.cache_clear()
    try:
        B = steady_state(model).two_point.B
    finally:
        for cache in caches:
            cache.cache_clear()
    assert calls.count("schur") == 1 and "dtrsyl" in calls
    assert np.abs(B - reference).max() <= 1e-12
