import numpy as np
import pytest

from openquad import _blas
from openquad import model as mdl
from openquad import steady_state


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
    controls = {"numpy": FakeControls(4), "scipy": FakeControls(2)}
    monkeypatch.setattr(
        _blas, "thread_controls", lambda library: (controls[library].get, controls[library].set)
    )
    return controls


def test_scope_restores_the_previous_count(fake):
    scipy = fake["scipy"]
    with _blas.serial_lapack(10):
        assert scipy.threads == 1
    assert scipy.threads == 2
    with pytest.raises(RuntimeError):
        with _blas.serial_lapack(10):
            assert scipy.threads == 1
            raise RuntimeError("body failed")
    assert scipy.threads == 2
    assert scipy.calls == [1, 2, 1, 2]
    assert fake["numpy"].calls == []  # numpy's pool keeps its threads


def test_scope_toggles_nothing_above_the_cutoff(fake):
    with _blas.serial_lapack(_blas.SERIAL_LAPACK_ORDER + 1):
        assert fake["scipy"].threads == 2
    assert fake["scipy"].calls == []
    with _blas.serial_lapack(_blas.SERIAL_LAPACK_ORDER):
        assert fake["scipy"].threads == 1


def test_worker_initializer_sets_both_pools_to_one_thread(fake):
    _blas.single_threaded()
    assert fake["numpy"].calls == [1] and fake["scipy"].calls == [1]


def test_real_scope_restores_the_previous_count():
    controls = _blas.thread_controls("scipy")
    if controls is None:
        pytest.skip("scipy's BLAS exposes no OpenBLAS thread controls")
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
        assert _blas.thread_controls("scipy") is None
        assert _blas.thread_controls("numpy") is None
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
    monkeypatch.setattr(_blas, "SERIAL_LAPACK_ORDER", 0)  # scipy's pool threaded
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


def test_numpy_scope_sets_numpy_pool_only(fake):
    with _blas.serial_lapack(10, "numpy"):
        assert fake["numpy"].threads == 1 and fake["scipy"].threads == 2
    assert fake["numpy"].calls == [1, 4] and fake["scipy"].calls == []
    with _blas.serial_lapack(_blas.SERIAL_LAPACK_ORDER + 1, "numpy"):
        assert fake["numpy"].threads == 4
    assert fake["numpy"].calls == [1, 4]
