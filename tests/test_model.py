import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openquad import cli, ness, spectra
from openquad import model as mdl
from openquad import oracle as orc


def test_chain_params_critical_field():
    assert mdl.ChainParams(4, 0.5, 0.2).h_c == pytest.approx(0.75)
    assert mdl.ChainParams(4, -0.5, 0.2).h_c == pytest.approx(0.75)
    assert mdl.ChainParams(4, 1.3, 0.2).h_c == pytest.approx(abs(1 - 1.69))
    with pytest.raises(ValueError):
        mdl.ChainParams(0, 0.5, 0.2)


def test_xy_hamiltonian_n1_field_only():
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(1, 0.3, 1.0))
    assert np.allclose(H, np.array([[0, -0.5j], [0.5j, 0]]))


def test_xy_hamiltonian_n2_xx_zero_field():
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(2, 0.0, 0.0))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2], expected[2, 1] = -0.25j, 0.25j
    expected[0, 3], expected[3, 0] = 0.25j, -0.25j
    assert np.abs(H - expected).max() < 1e-15


def xy_hamiltonian_by_pairs(params):
    """Reference: the pairwise fill, one w_a w_b term at a time, with its
    coefficient split antisymmetrically over (a, b) and (b, a)."""
    n, gamma, h = params.n, params.gamma, params.h
    H = np.zeros((2 * n, 2 * n), dtype=complex)

    def add_pair(a, b, coeff):
        H[a, b] += coeff / 2
        H[b, a] -= coeff / 2

    for j in range(n):
        add_pair(2 * j, 2 * j + 1, -1j * h)
    for j in range(n - 1):
        add_pair(2 * j + 1, 2 * j + 2, -1j * (1 + gamma) / 2)
        add_pair(2 * j, 2 * j + 3, 1j * (1 - gamma) / 2)
    return H


@pytest.mark.parametrize("n", [2, 5, 24, 253])
@pytest.mark.parametrize("gamma,h", [(0.5, 0.9), (0.0, 0.0), (1.0, -0.4), (-0.3, 1.7)])
def test_xy_hamiltonian_matches_the_pairwise_fill(n, gamma, h):
    params = mdl.ChainParams(n, gamma, h)
    H, ref = mdl.build_xy_hamiltonian(params), xy_hamiltonian_by_pairs(params)
    assert np.array_equal(H, ref)
    assert H.tobytes() == ref.tobytes()  # signed zeros too


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("gamma,h", [(0.7, 0.3), (0.0, 1.0), (1.3, 0.9)])
def test_xy_hamiltonian_matches_pauli_construction(n, gamma, h):
    # sum_jk w_j H_jk w_k must equal the direct Pauli build of the spin chain
    params = mdl.ChainParams(n, gamma, h)
    H = mdl.build_xy_hamiltonian(params)
    ws = orc.dense_majoranas(n)
    assert np.abs(H + H.T).max() < 1e-14
    assert np.abs(H + H.conj()).max() < 1e-14
    lhs = orc.dense_quadratic(H, ws)
    rhs = orc.dense_xy_spin_hamiltonian(params)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_couplings_trivial_angles():
    ops = mdl.build_xy_couplings((1.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 0.0), 3)
    assert np.allclose(ops[0].x, np.eye(6)[0])
    assert np.allclose(ops[1].x, 0.0)
    assert ops[0].bath_id == "L" and ops[2].bath_id == "R"


def test_couplings_right_edge_components():
    x3 = mdl.build_xy_couplings((1, 0, 1, 0), (0, 0, math.pi / 6, 0), 2)[2].x
    assert np.allclose(x3, [0, 0, -0.5, math.sqrt(3) / 2])


@pytest.mark.parametrize("n", [2, 3])
def test_couplings_match_pauli_up_to_string(n):
    # x_mu . w equals W^dagger times the Pauli form of the coupling operators
    kappas = (1.0, 0.5, 1.0, 0.25)
    thetas = (math.pi / 6, 0.3, math.pi / 6, 1.1)
    ops = mdl.build_xy_couplings(kappas, thetas, n)
    ws = orc.dense_majoranas(n)
    paulis = orc.dense_pauli_couplings(kappas, thetas, n)
    W = orc.string_operator(n)
    for mu in range(4):
        lhs = orc.dense_linear(ops[mu].x, ws)
        rhs = paulis[mu] if mu < 2 else W.conj().T @ paulis[mu]
        assert np.abs(lhs - rhs).max() < 1e-13
    with pytest.raises(ValueError):
        mdl.build_xy_couplings(kappas, thetas, 1)


def test_ohmic_examples():
    assert mdl.ohmic_spectral_function(0.0, 2.0, 1.0) == pytest.approx(0.5)
    assert mdl.ohmic_spectral_function(1.0, 1.0, 1.0) == pytest.approx(
        1.0 / (math.e - 1.0)
    )
    assert mdl.ohmic_spectral_function(-1.0, 1.0, 1.0) == pytest.approx(
        math.e / (math.e - 1.0)
    )
    with pytest.raises(ValueError):
        mdl.ohmic_spectral_function(1.0, -0.5, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    omega=st.floats(-50.0, 50.0, allow_nan=False),
    beta=st.floats(0.01, 100.0, allow_nan=False),
)
@example(omega=5e-324, beta=0.01)
def test_ohmic_kms_identity(omega, beta):
    # G(-w) = e^{beta w} G(w), restricted to representable Boltzmann factors
    if abs(beta * omega) > 500:
        return
    lam = 0.7
    lhs = mdl.ohmic_spectral_function(-omega, beta, lam)
    rhs = math.exp(beta * omega) * mdl.ohmic_spectral_function(omega, beta, lam)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("omega", [5e-324, 1e-320])
def test_ohmic_subnormal_frequency(omega):
    # lam^2 * omega underflows here; the limit lam^2 / beta must not
    lam = 0.7
    assert mdl.ohmic_spectral_function(omega, 1.0, lam) == pytest.approx(
        lam**2, rel=1e-12
    )


def test_ohmic_no_overflow_at_extreme_arguments():
    v = mdl.ohmic_spectral_function(4.0, 200.0, 1.0)
    assert 0.0 <= v < 1e-300
    v = mdl.ohmic_spectral_function(-4.0, 200.0, 1.0)
    assert v == pytest.approx(4.0)


def test_bath_spec_validation():
    with pytest.raises(ValueError):
        mdl.RedfieldOhmic(-1.0, 0.1)
    with pytest.raises(ValueError):
        mdl.LindbladRates(np.array([[1.0, 1.0], [0.0, 1.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        mdl.LindbladRates(np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PSD
    ok = mdl.LindbladRates(np.array([[1.0, 0.2j], [-0.2j, 1.0]]))
    assert ok.gamma.shape == (2, 2)
    with pytest.raises(ValueError, match="rates"):
        mdl.lindblad_jump_vectors(3, (-0.5, 0.3, 0.5, 0.1))


def test_quadratic_model_validation():
    params = mdl.ChainParams(2, 0.5, 0.9)
    H = mdl.build_xy_hamiltonian(params)
    with pytest.raises(ValueError):
        mdl.QuadraticModel(np.eye(4), (), {})  # not antisymmetric
    ops = mdl.build_xy_couplings((1, 0, 1, 0), (0, 0, 0, 0), 2)
    with pytest.raises(ValueError):
        mdl.QuadraticModel(H, ops, {"L": mdl.RedfieldOhmic(1.0, 0.1)})  # missing R
    # a non-finite H, an empty one, and a real one handed to the structure
    # matrix are refused by the one check with a ValueError naming H, and
    # no warning
    bad = []
    for value in (np.nan, np.inf, -np.inf):
        for entry in (complex(0.0, value), value):
            Hb = H.copy()
            Hb[0, 1] = entry
            bad.append(lambda Hb=Hb: mdl.QuadraticModel(Hb, (), {}))
    bad.append(lambda: mdl.QuadraticModel(np.zeros((0, 0)), (), {}))
    bad.append(lambda: spectra.assemble_structure_matrix(np.eye(4), 0))
    bad.append(lambda: spectra.assemble_structure_matrix(np.eye(4), np.zeros((4, 4))))
    for call in bad:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Hamiltonian matrix H must be"):
                call()


def test_hamiltonian_check_in_real_arithmetic():
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(3, 0.5, 0.9))
    bad = H.copy()
    bad[0, 1] += 1e-6j  # Im H no longer antisymmetric
    with pytest.raises(ValueError, match="antisymmetric"):
        mdl.QuadraticModel(bad, (), {})
    bad = H + 1e-6  # a real part
    with pytest.raises(ValueError, match="purely imaginary"):
        mdl.QuadraticModel(bad, (), {})
    # rounding-level deviations pass: Im H is kept as given, and the
    # rounding-level real part is dropped
    noisy = H + 1e-14 * (1 + 1j) * np.random.default_rng(0).normal(size=H.shape)
    model = mdl.QuadraticModel(noisy, (), {})
    assert np.array_equal(model.K, noisy.imag)
    assert np.array_equal(model.H.imag, noisy.imag) and not model.H.real.any()


def test_bath_vectors_read_the_checked_hamiltonian(monkeypatch):
    # the model checked H once; bath_vectors does not check it again
    model = mdl.xy_redfield_model(mdl.ChainParams(6, 0.5, 0.9))
    monkeypatch.setattr(spectra, "_check_hamiltonian", lambda H: pytest.fail("H checked twice"))
    assert len(spectra.bath_vectors(model)) == 4


def test_model_keeps_im_h_and_builds_h_bit_for_bit():
    for build in (mdl.xy_redfield_model, mdl.xy_lindblad_model):
        for n in (2, 3, 53):
            for gamma in (0.5, 1.0):
                for h in (0.0, 0.9):
                    params = mdl.ChainParams(n, gamma, h)
                    model = build(params)
                    assert model.H.tobytes() == mdl.build_xy_hamiltonian(params).tobytes()
                    assert model.K.dtype == np.float64 and model.K.flags.c_contiguous


def test_solvers_never_read_the_complex_hamiltonian(monkeypatch, tmp_path):
    # every solver reads the model's real K; only the oracle and the
    # 4n x 4n structure matrix build the complex H
    redfield = mdl.xy_redfield_model(mdl.ChainParams(6, 0.5, 0.9))
    lindblad = mdl.xy_lindblad_model(mdl.ChainParams(6, 0.5, 0.9))
    monkeypatch.setattr(mdl.QuadraticModel, "H",
                        property(lambda self: pytest.fail("model.H was read")))
    for model in (redfield, lindblad):
        ness.steady_state(model)
        spectra.normal_modes(model)
        spectra.rapidities(model)
    assert len(spectra.bath_vectors(redfield)) == 4
    assert cli.run({"task": "ness", "model": {"n": 6}}, output_dir=str(tmp_path)).exists()


def test_dispersion_and_stationary_point():
    params = mdl.ChainParams(10, 0.5, 0.2)
    qs = np.linspace(0.01, math.pi - 0.01, 500)
    om = mdl.dispersion(qs, params)
    q_star = mdl.stationary_wavenumber(params)
    assert q_star is not None
    assert math.cos(q_star) * (1 - params.gamma**2) == pytest.approx(params.h, abs=1e-9)
    # interior stationary point is the minimum of omega on (0, pi)
    assert mdl.dispersion(q_star, params) <= om.min() + 1e-9
    # short-range phase has no interior stationary point
    assert mdl.stationary_wavenumber(mdl.ChainParams(10, 0.5, 0.9)) is None
