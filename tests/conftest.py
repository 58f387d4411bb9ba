import pytest

from openquad import model as mdl


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
