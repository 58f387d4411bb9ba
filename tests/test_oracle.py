import numpy as np
import pytest

from openquad import model as mdl
from openquad import oracle as orc
from openquad import spectra as sp
from openquad import steady_state
from openquad.validation import oracle_check_table, spectrum_deviation


def test_majoranas_n1():
    ws = orc.dense_majoranas(1)
    assert np.allclose(ws[0], orc.SX)
    assert np.allclose(ws[1], orc.SY)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_majorana_algebra(n):
    ws = orc.dense_majoranas(n)
    dim = 2**n
    for j in range(2 * n):
        assert np.allclose(ws[j], ws[j].conj().T)
        for k in range(2 * n):
            anti = ws[j] @ ws[k] + ws[k] @ ws[j]
            assert np.abs(anti - 2 * (j == k) * np.eye(dim)).max() < 1e-14
    with pytest.raises(ValueError):
        orc.dense_majoranas(7)


def test_vectorization_identities():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(orc.unvec(orc.lmul(A) @ orc.vec(X)), A @ X)
    assert np.allclose(orc.unvec(orc.rmul(B) @ orc.vec(X)), X @ B)


def test_liouvillean_trace_preservation(redfield_n2, lindblad_n2):
    for model in (redfield_n2, lindblad_n2):
        if model.is_lindblad:
            liouv = orc.dense_liouvillean(model)
        else:
            liouv = orc.dense_liouvillean(model, sp.bath_vectors(model))
        ones = orc.vec(np.eye(liouv.dim))
        assert np.abs(ones @ liouv.L).max() < 1e-12
        rng = np.random.default_rng(1)
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert abs(np.trace(orc.unvec(liouv.L @ orc.vec(rho)))) < 1e-12


def test_closed_dynamics_spectrum_imaginary():
    model = mdl.xy_redfield_model(mdl.ChainParams(2, 0.5, 0.9), lam=0.0)
    liouv = orc.dense_liouvillean(model, sp.bath_vectors(model))
    evals = np.linalg.eigvals(liouv.L)
    assert np.abs(evals.real).max() < 1e-12


def test_oracle_ness_properties(redfield_n2):
    liouv = orc.dense_liouvillean(redfield_n2, sp.bath_vectors(redfield_n2))
    rho = orc.oracle_ness(liouv)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-7
    assert np.linalg.norm(liouv.L @ orc.vec(rho)) < 1e-10


def test_oracle_ness_degenerate_kernel_refused():
    model = mdl.xy_redfield_model(mdl.ChainParams(2, 0.5, 0.9), lam=0.0)
    liouv = orc.dense_liouvillean(model, sp.bath_vectors(model))
    with pytest.raises(orc.DegenerateKernelError):
        orc.oracle_ness(liouv)


@pytest.mark.parametrize("beta,gamma,h,theta", [(0.5, 0.5, 0.9, np.pi / 6),
                                                (2.0, 0.8, 0.4, 0.9),
                                                (5.0, 0.3, 1.2, 0.1)])
def test_gibbs_fixed_point(beta, gamma, h, theta):
    model = mdl.xy_redfield_model(
        mdl.ChainParams(3, gamma, h),
        beta_L=beta,
        beta_R=beta,
        thetas=(theta, 0.0, theta, 0.0),
    )
    liouv = orc.dense_liouvillean(model, sp.bath_vectors(model))
    ws = orc.dense_majoranas(3)
    rho_g = orc.gibbs_state(orc.dense_quadratic(model.H, ws), beta)
    resid = np.linalg.norm(liouv.L @ orc.vec(rho_g)) / np.linalg.norm(orc.vec(rho_g))
    assert resid < 1e-10
    rho = orc.oracle_ness(liouv)
    assert np.abs(rho - rho_g).max() < 1e-9


def test_even_sector_spectrum_identity(redfield_n2):
    state = steady_state(redfield_n2)
    liouv = orc.dense_liouvillean(redfield_n2, sp.bath_vectors(redfield_n2))
    lam_pipe = sp.liouvillean_eigenvalues(state, sp.even_weight_selectors(2))
    lam_orc = np.linalg.eigvals(orc.even_sector_matrix(liouv))
    assert spectrum_deviation(lam_pipe, lam_orc) < 1e-8


def test_reduced_and_expectation_basics():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho_a = a @ a.conj().T
    rho_a /= np.trace(rho_a)
    rho_b = b @ b.conj().T
    rho_b /= np.trace(rho_b)
    prod = np.kron(rho_a, rho_b)  # site 1 (x) sites 2,3
    assert np.abs(orc.oracle_reduced(prod, [0], 3) - rho_a).max() < 1e-12
    assert np.abs(orc.oracle_reduced(prod, [1, 2], 3) - rho_b).max() < 1e-12
    assert orc.oracle_expectation(prod, np.eye(8)) == pytest.approx(1.0)


def test_evolve_fixed_point(redfield_n2):
    liouv = orc.dense_liouvillean(redfield_n2, sp.bath_vectors(redfield_n2))
    rho = orc.oracle_ness(liouv)
    rho_t = orc.oracle_evolve(liouv, rho, 3.0)
    assert np.abs(rho_t - rho).max() < 1e-12


def test_oracle_check_table_small_models():
    for make in (mdl.xy_redfield_model, mdl.xy_lindblad_model):
        model = make(mdl.ChainParams(3, 0.6, 0.4))
        table = oracle_check_table(model)
        assert max(dev for _, dev in table) < 1e-10
        names = [name for name, _ in table]
        assert "two_point_matrix" in names and "even_spectrum" in names
