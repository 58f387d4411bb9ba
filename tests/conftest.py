import pytest

from openquad import model as mdl
from openquad import spectra as sp


@pytest.fixture
def redfield_n2():
    return mdl.xy_redfield_model(mdl.ChainParams(2, 0.5, 0.9))


@pytest.fixture
def redfield_n3():
    return mdl.xy_redfield_model(mdl.ChainParams(3, 0.6, 0.4))


@pytest.fixture
def lindblad_n2():
    return mdl.xy_lindblad_model(mdl.ChainParams(2, 0.5, 0.9))


def random_antisymmetric(rng, dim, complex_=True):
    a = rng.normal(size=(dim, dim))
    if complex_:
        a = a + 1j * rng.normal(size=(dim, dim))
    return a - a.T


def random_structure(rng, n):
    """Structure matrix of a random Lindblad problem on n modes: a random
    imaginary antisymmetric H and a random positive M = G G^dag.  Unlike a
    generic antisymmetric matrix it is trace preserving."""
    H = 1j * random_antisymmetric(rng, 2 * n, complex_=False)
    G = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
    return sp.assemble_structure_matrix(H, G @ G.conj().T).A


def scipy_thread_controls():
    """(get, set) thread-count functions of the OpenBLAS that scipy.linalg
    links, or None when it has none.  The library's own code never calls
    scipy's LAPACK on a production path, so it looks up only numpy's
    (``openquad._blas.thread_controls``); the tests that compare with
    scipy's routines hold scipy's pool with these."""
    import ctypes

    import scipy.linalg

    try:
        lib = ctypes.CDLL(scipy.linalg._flapack.__file__)
    except (AttributeError, OSError):
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
