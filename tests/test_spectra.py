import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import random_antisymmetric, random_structure, scipy_thread_controls
from openquad import model as mdl
from openquad import ness as ns
from openquad import spectra as sp
from openquad._blas import serial_lapack
from openquad.cli import ExperimentConfig, build_model
from openquad.validation import spectrum_deviation

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_eigensystem_n1():
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(1, 0.0, 1.0))
    eig = sp.hamiltonian_eigensystem(H)
    assert eig.epsilons == pytest.approx([0.5])


def test_eigensystem_pairing_and_normalization():
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(6, 0.7, 0.4))
    eig = sp.hamiltonian_eigensystem(H)
    n = 6
    assert np.all(np.diff(eig.epsilons) >= 0)
    for m in range(n):
        u = eig.modes[m]
        assert np.linalg.norm(H @ u - eig.epsilons[m] * u) < 1e-11
        assert np.linalg.norm(H @ u.conj() + eig.epsilons[m] * u.conj()) < 1e-11
    G = eig.modes @ eig.modes.T
    D = eig.modes @ eig.modes.conj().T
    assert np.abs(G).max() < 1e-11
    assert np.abs(D - np.eye(n)).max() < 1e-11
    # multiset {+-eps} equals the eigenvalue multiset of H
    full = np.sort(np.concatenate([eig.epsilons, -eig.epsilons]))
    assert np.abs(full - np.sort(np.linalg.eigvalsh(H).real)).max() < 1e-11


def test_eigensystem_handles_boundary_zero_modes():
    # deep topological phase: edge epsilon is exponentially split and a
    # Hermitian eigensolver would mix the (u, u*) partners
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(40, 0.5, 0.2))
    eig = sp.hamiltonian_eigensystem(H)
    G = eig.modes @ eig.modes.T
    D = eig.modes @ eig.modes.conj().T
    assert np.abs(G).max() < 1e-11
    assert np.abs(D - np.eye(40)).max() < 1e-11


def test_eigensystem_rejects_malformed():
    with pytest.raises(ValueError):
        sp.hamiltonian_eigensystem(np.eye(4))
    bad = 1j * np.ones((4, 4))
    with pytest.raises(ValueError):
        sp.hamiltonian_eigensystem(bad)


def test_eigensystem_periodic_matches_half_dispersion():
    # with periodic bonds the positive eigenvalues are omega(2 pi j / n) / 2
    n = 12
    params = mdl.ChainParams(n, 0.4, 0.7)
    H = mdl.build_xy_hamiltonian(params).copy()
    for (a, b, c) in (
        (2 * n - 1, 0, -1j * (1 + params.gamma) / 2),
        (2 * n - 2, 1, 1j * (1 - params.gamma) / 2),
    ):
        H[a, b] += c / 2
        H[b, a] -= c / 2
    eig = sp.hamiltonian_eigensystem(H)
    om = np.sort(mdl.dispersion(2 * np.pi * np.arange(n) / n, params))
    assert np.abs(np.sort(eig.epsilons) - om / 2.0).max() < 1e-12


def test_bath_vector_zero_coupling():
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(2, 0.5, 0.9))
    z = sp.bath_vector(np.array([1.0, 0, 0, 0]), 1.0, 0.0, H)
    assert np.abs(z).max() == 0.0
    with pytest.raises(ValueError):
        sp.bath_vector(np.array([1.0, 0, 0, 0]), -1.0, 0.1, H)


def test_bath_vector_rejects_malformed_hamiltonian():
    x = np.array([1.0, 0, 0, 0])
    with pytest.raises(ValueError):
        sp.bath_vector(x, 1.0, 0.1, np.eye(4))
    with pytest.raises(ValueError):
        sp.bath_vector(x, 1.0, 0.1, 1j * np.ones((4, 4)))


@pytest.mark.parametrize("n", [2, 128], ids=["eigh_route", "series_route"])
def test_bath_vector_rejects_a_coupling_of_another_length(n):
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(n, 0.5, 0.7))
    with pytest.raises(ValueError, match="coupling vector"):
        sp.bath_vector(np.ones(2 * n + 2), 5.2, 0.1, H)


def pair_sum_bath_vector(x, beta, lam, H):
    """The paper's pair sum z = pi sum_m [G(4 eps_m) (x . u_m*) u_m +
    G(-4 eps_m) (x . u_m) u_m*] on the paired eigensystem: the reference
    for the matrix-function route of ``bath_vector``."""
    eig = sp.hamiltonian_eigensystem(H)
    w = 4.0 * eig.epsilons
    with np.errstate(invalid="ignore", divide="ignore"):
        hi = np.where(w > 0, lam**2 * w / -np.expm1(-beta * w), lam**2 / beta)
    lo = hi * np.exp(-beta * w)
    u = eig.modes
    return np.pi * ((lo * (u.conj() @ x)) @ u + (hi * (u @ x)) @ u.conj())


BATH_CASES = [
    (mdl.ChainParams(100, 0.5, 0.0), 0.8),  # free chain: degenerate and zero eps
    (mdl.ChainParams(96, 0.5, 0.75), 0.8),
    (mdl.ChainParams(40, 0.5, 0.2), 0.8),  # exponentially split edge modes
    (mdl.ChainParams(24, 0.5, 0.9), 0.01),  # y -> 0 limit of y / tanh(y)
    (mdl.ChainParams(24, 0.5, 0.9), 500.0),  # large-y limit
]


@pytest.mark.parametrize("params, beta", BATH_CASES)
def test_bath_vector_matches_pair_sum(params, beta):
    H = mdl.build_xy_hamiltonian(params)
    two_n = 2 * params.n
    rng = np.random.default_rng(7)
    xs = [np.eye(two_n)[0], np.eye(two_n)[-1],
          rng.normal(size=two_n) + 1j * rng.normal(size=two_n)]  # complex coupling
    for x in xs:
        z = sp.bath_vector(x, beta, 0.3, H)
        ref = pair_sum_bath_vector(x, beta, 0.3, H)
        assert np.abs(z - ref).max() <= 1e-13 * np.abs(ref).max()


def test_bath_vectors_one_eigensolve_per_model(monkeypatch):
    model = mdl.xy_redfield_model(
        mdl.ChainParams(96, 0.5, 0.75), kappas=(1.0, 0.7, 1.0, 0.4)
    )
    calls = count_eigh(monkeypatch)
    zs = sp.bath_vectors(model)
    assert len(model.couplings) == len(zs) == 4
    assert len(calls) == 1
    for c, z in zip(model.couplings, zs):
        spec = model.bath[c.bath_id]
        ref = pair_sum_bath_vector(c.x, spec.beta, spec.lam, model.H)
        assert np.abs(z - ref).max() <= 1e-13 * np.abs(ref).max()


def series_and_eigh(K, betas, X):
    """g(K^T K) X by the Chebyshev series and by the eigh of K^T K."""
    diags, L = sp._diagonals(K)
    return (sp._gram_function_series(diags, L, betas, X),
            sp._gram_function_eigh(K, betas, X))


@pytest.mark.parametrize("params, beta", BATH_CASES)
def test_bath_series_matches_eigh(params, beta):
    K = mdl.build_xy_hamiltonian(params).imag
    two_n = 2 * params.n
    rng = np.random.default_rng(7)
    X = np.column_stack([np.eye(two_n)[0], np.eye(two_n)[-1], rng.normal(size=two_n)])
    series, ref = series_and_eigh(K, [beta] * 3, X)
    assert (np.abs(series - ref).max(axis=0) <= 1e-13 * np.abs(ref).max(axis=0)).all()


def test_bath_series_matches_eigh_at_n1000():
    # the north-star chain, both baths in one block (beta 0.3 and 5.2)
    model = mdl.xy_redfield_model(mdl.ChainParams(1000, 0.5, 1.2), kappas=(1.0, 0.7, 1.0, 0.4))
    X = np.array([c.x.real for c in model.couplings]).T
    betas = [model.bath[c.bath_id].beta for c in model.couplings]
    assert sorted(set(betas)) == [0.3, 5.2]
    series, ref = series_and_eigh(model.H.imag, betas, X)
    assert (np.abs(series - ref).max(axis=0) <= 1e-13 * np.abs(ref).max(axis=0)).all()


def test_chebyshev_coefficients_are_cut_at_rounding_and_kept():
    c = sp._chebyshev_coefficients(5.2, 1.21)
    assert sp._chebyshev_coefficients(5.2, 1.21) is c
    assert not c.flags.writeable
    assert np.abs(c[-1]) > 2 * np.finfo(float).eps * np.abs(c).max()
    # the a priori count that the cost rule uses is close to the cut
    assert len(c) <= sp._series_terms(5.2, 1.21) <= 1.2 * len(c)
    # the series reproduces g itself on [0, L]
    s = np.linspace(0.0, 1.21, 101)
    t = 2.0 * s / 1.21 - 1.0
    series = np.polynomial.chebyshev.chebval(t, c)
    g = sp._ohmic_g(s, 5.2)
    assert np.abs(series - g).max() <= 1e-14 * np.abs(g).max()


def test_bath_vector_at_a_very_low_temperature(monkeypatch):
    # a term count past any series budget: the eigh route, and g = sqrt(s)
    assert sp._series_terms(1e9, 1.0) > 1e9
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(128, 0.5, 0.7))
    x = np.eye(256)[0] + 0j
    calls = count_eigh(monkeypatch)
    z = sp.bath_vector(x, 1e9, 0.3, H)
    assert len(calls) == 1
    ref = pair_sum_bath_vector(x, 1e9, 0.3, H)
    assert np.abs(z - ref).max() <= 1e-13 * np.abs(ref).max()


def count_eigh(monkeypatch):
    """Record each eigh of K^T K the bath makes (``_blas.gram_eigh``)."""
    calls = []
    eigh = sp.gram_eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(sp, "gram_eigh", counting_eigh)
    return calls


@pytest.mark.parametrize("name", ["fig_gap_h0.3", "fig_gap_h0.75", "fig_gap_h0.8"])
def test_cost_rule_keeps_eigh_on_the_gap_scans(monkeypatch, name):
    cfg = ExperimentConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    calls = count_eigh(monkeypatch)
    for n in cfg.sizes:
        sp.bath_vectors(build_model(cfg, n=n))
    assert len(calls) == len(cfg.sizes)


def test_cost_rule_keeps_eigh_at_n53_and_takes_the_series_at_n253(monkeypatch):
    sweep = ExperimentConfig.from_dict(json.loads((CONFIGS / "fig_tok_entropy.json").read_text()))
    density = ExperimentConfig.from_dict(json.loads((CONFIGS / "fig_density_h0.7.json").read_text()))
    assert (sweep.n, density.n) == (53, 253)
    calls = count_eigh(monkeypatch)
    sp.bath_vectors(build_model(sweep))
    assert len(calls) == 1
    sp.bath_vectors(build_model(density))
    assert len(calls) == 1


@pytest.mark.parametrize("x_of", [
    lambda rng, two_n: [1.0, 1j] @ rng.normal(size=(2, two_n)),  # two block columns
    lambda rng, two_n: np.eye(two_n)[0] + 0j,
], ids=["complex", "real"])
def test_series_route_bath_vector_matches_pair_sum(monkeypatch, x_of):
    params = mdl.ChainParams(128, 0.5, 0.7)
    H = mdl.build_xy_hamiltonian(params)
    x = x_of(np.random.default_rng(3), 2 * params.n)
    calls = count_eigh(monkeypatch)
    z = sp.bath_vector(x, 5.2, 0.3, H)
    assert not calls
    ref = pair_sum_bath_vector(x, 5.2, 0.3, H)
    assert np.abs(z - ref).max() <= 1e-13 * np.abs(ref).max()


def test_bath_vector_quadrature_oracle():
    """Independent check of the bath vector: the closed-form correlation
    function -lam^2 (pi/beta)^2 / sinh^2(pi t / beta) (inverse Fourier
    transform of the Ohmic spectral function) is integrated against the
    Heisenberg propagator along the shifted contour Im t = -beta/2, where
    the integrand is smooth and exponentially decaying."""
    from numpy.polynomial.legendre import leggauss

    params = mdl.ChainParams(1, 0.0, 0.8)
    H = mdl.build_xy_hamiltonian(params)
    eig = sp.hamiltonian_eigensystem(H)
    x = np.array([1.0, 0.0], dtype=complex)
    beta, lam = 1.3, 0.2
    z = sp.bath_vector(x, beta, lam, H)

    xs_, ws_ = leggauss(400)
    smax = 8.0 * beta
    s = smax * xs_
    w = smax * ws_
    gamma_mid = lam**2 * (np.pi / beta) ** 2 / np.cosh(np.pi * s / beta) ** 2
    zq = np.zeros(2, dtype=complex)
    for m, eps in enumerate(eig.epsilons):
        e4 = 4.0 * eps
        phase_minus = np.exp(1j * e4 * s + e4 * beta / 2)
        phase_plus = np.exp(-1j * e4 * s - e4 * beta / 2)
        proj = eig.modes[m] @ x
        proj_c = eig.modes[m].conj() @ x
        zq += 0.5 * np.sum(w * gamma_mid * phase_minus) * proj * eig.modes[m].conj()
        zq += 0.5 * np.sum(w * gamma_mid * phase_plus) * proj_c * eig.modes[m]
    assert np.abs(z - zq).max() < 1e-6


def test_bath_matrix_outer_product_structure():
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(2, 0.5, 0.9))
    x = np.array([1.0, 0, 0, 0], dtype=complex)
    z = np.array([0.3, 0.4j, 0, 0])
    model = mdl.QuadraticModel(
        H,
        (mdl.CouplingOperator(x, "L"),),
        {"L": mdl.RedfieldOhmic(1.0, 0.1)},
    )
    M = sp.bath_matrix(model, z_vectors=[z])
    assert np.allclose(M[0], z)
    assert np.abs(M[1:]).max() == 0.0


def test_bath_matrix_matches_the_full_outer_products():
    # rows where x vanishes are skipped: the same bytes as adding them all
    model = mdl.xy_redfield_model(mdl.ChainParams(12, 0.5, 0.9), kappas=(1.0, 0.7, 1.0, 0.4))
    x = [1.0, 1j] @ np.random.default_rng(2).normal(size=(2, 24))
    dense = mdl.QuadraticModel(model.H, model.couplings + (mdl.CouplingOperator(x, "L"),),
                               model.bath)
    for m in (model, dense):
        zs = sp.bath_vectors(m)
        ref = np.zeros((24, 24), dtype=complex)
        for c, z in zip(m.couplings, zs):
            ref += np.outer(c.x, z)
        assert sp.bath_matrix(m, zs).tobytes() == ref.tobytes()


def test_lindblad_two_parametrizations_agree(lindblad_n2):
    M_rates = sp.bath_matrix(lindblad_n2)
    M_jumps = sp.bath_matrix_from_jumps(mdl.lindblad_jump_vectors(2))
    assert np.abs(M_rates - M_jumps).max() < 1e-12
    assert np.abs(M_rates - M_rates.conj().T).max() < 1e-12


def test_delta_correlated_bath_reduces_to_lindblad():
    """Gamma(t) -> gamma delta(t+0) turns the bath-vector integral into
    z_nu = sum_mu gamma[nu,mu] x_mu exactly, reproducing the Lindblad
    bath matrix; verified also as the narrow-kernel limit."""
    params = mdl.ChainParams(2, 0.5, 0.9)
    H = mdl.build_xy_hamiltonian(params)
    eig = sp.hamiltonian_eigensystem(H)
    xs = np.array([c.x for c in mdl.build_xy_couplings((1, 1, 1, 1), (0, np.pi / 2, 0, np.pi / 2), 2)])
    gamma = np.array(
        [[0.2, 0.05j, 0, 0], [-0.05j, 0.3, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.15]]
    )
    z_delta = gamma @ xs  # the one-sided delta integrates to full weight
    M_red = np.einsum("nj,nk->jk", xs, z_delta)
    M_lind = np.einsum("nm,nj,mk->jk", gamma, xs, xs)
    assert np.abs(M_red - M_lind).max() < 1e-12

    # narrow one-sided kernel converges to the same z (first order in width,
    # removed by Richardson extrapolation)
    def z_width(w):
        # integral_0^inf of a one-sided kernel of width w against f(-tau),
        # with f(-tau) in its spectral form for the first coupling
        taus = np.linspace(0, 12 * w, 4001)
        kern = (2.0 / (w * math.sqrt(math.pi))) * np.exp(-((taus / w) ** 2))
        f0 = np.zeros((len(taus), 2 * params.n), dtype=complex)
        for m, eps in enumerate(eig.epsilons):
            u = eig.modes[m]
            f0 += np.exp(4j * eps * taus)[:, None] * ((xs[0] @ u) * u.conj())[None, :]
            f0 += np.exp(-4j * eps * taus)[:, None] * ((xs[0] @ u.conj()) * u)[None, :]
        return np.trapezoid(kern[:, None] * f0, taus, axis=0)

    target = xs[0].astype(complex)
    z1 = z_width(1e-3)
    z2 = z_width(5e-4)
    extrap = 2 * z2 - z1
    assert np.abs(extrap - target).max() < 1e-5


def test_structure_matrix_free_case():
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(3, 0.5, 0.9))
    st = sp.assemble_structure_matrix(H, np.zeros((6, 6), dtype=complex))
    assert st.A0 == 0
    assert np.abs(st.A[0::2, 0::2] + 2j * H).max() < 1e-15
    assert np.abs(st.A[1::2, 1::2] + 2j * H).max() < 1e-15
    assert np.abs(st.A[0::2, 1::2]).max() == 0.0


def test_structure_matrix_block_tridiagonal_form():
    # free part is block tridiagonal with the printed 4x4 blocks
    g, h = 0.7, 0.4
    params = mdl.ChainParams(5, g, h)
    A = sp.assemble_structure_matrix(
        mdl.build_xy_hamiltonian(params), np.zeros((10, 10), dtype=complex)
    ).A
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    a_blk = -1j * h * np.kron(sy, np.eye(2))
    b_blk = 0.5 * np.kron(1j * sy - g * sx, np.eye(2))
    for m in range(5):
        assert np.abs(A[4 * m : 4 * m + 4, 4 * m : 4 * m + 4] - a_blk).max() < 1e-14
    for m in range(4):
        blk = A[4 * m : 4 * m + 4, 4 * m + 4 : 4 * m + 8]
        assert np.abs(blk - b_blk).max() < 1e-14
        blk_c = A[4 * m + 4 : 4 * m + 8, 4 * m : 4 * m + 4]
        assert np.abs(blk_c + b_blk.T).max() < 1e-14


def test_structure_matrix_properties(redfield_n3):
    st = sp.structure_matrix(redfield_n3)
    assert np.abs(st.A + st.A.T).max() < 1e-12
    M = sp.bath_matrix(redfield_n3)
    assert st.A0 == pytest.approx(np.trace(M) + np.trace(M.conj()))
    assert abs(complex(st.A0).imag) < 1e-12


def test_border_blocks_decay_exponentially():
    # bath-dressed border blocks l_j decay with the distance from the edge
    model = mdl.xy_redfield_model(mdl.ChainParams(40, 0.5, 0.9))
    M = sp.bath_matrix(model)
    A = sp.assemble_structure_matrix(model.H, M).A
    A_free = sp.assemble_structure_matrix(model.H, np.zeros_like(M)).A
    B = A - A_free
    norms = np.array(
        [np.linalg.norm(B[0:4, 4 * j : 4 * j + 4]) for j in range(40)]
    )
    # monotone decay after a short burn-in, down to the noise floor
    tail = norms[2:12]
    assert np.all(np.diff(np.log(tail)) < 0)
    assert tail[-1] < 1e-6 * tail[0]


def test_normal_modes_reconstruction(redfield_n2):
    st = sp.structure_matrix(redfield_n2)
    modes = sp.normal_modes(st)
    n = 2
    J = sp.symplectic_form(2 * n)
    assert np.abs(modes.V @ modes.V.T - J).max() < 1e-9
    D = np.zeros((4 * n, 4 * n), dtype=complex)
    for j, b in enumerate(modes.rapidities):
        D[2 * j, 2 * j] = b
        D[2 * j + 1, 2 * j + 1] = -b
    recon = modes.V.T @ D @ J @ modes.V
    assert np.abs(recon - st.A).max() < 1e-9 * max(1.0, np.abs(st.A).max())
    assert np.all(modes.rapidities.real > 0)


def test_normal_modes_recovers_synthetic_rapidities():
    rng = np.random.default_rng(11)
    base = sp.normal_modes(random_structure(rng, 2))
    V = base.V
    J = sp.symplectic_form(4)
    target = np.array([2.0 + 1.0j, 1.5, 0.9 - 0.3j, 0.4 + 0.2j])
    D = np.zeros((8, 8), dtype=complex)
    for j, b in enumerate(target):
        D[2 * j, 2 * j] = b
        D[2 * j + 1, 2 * j + 1] = -b
    A = V.T @ D @ J @ V
    got = sp.normal_modes(A)
    assert np.abs(np.sort_complex(got.rapidities) - np.sort_complex(target)).max() < 1e-9


def test_normal_modes_scaling_linearity():
    rng = np.random.default_rng(5)
    A = random_structure(rng, 2)
    m1 = sp.normal_modes(A)
    m2 = sp.normal_modes(2.5 * A)
    assert (
        np.abs(np.sort_complex(m2.rapidities) - np.sort_complex(2.5 * m1.rapidities)).max()
        < 1e-9
    )


def test_normal_modes_degenerate_cluster():
    # two decoupled identical dissipative blocks produce exactly degenerate
    # rapidities; the J-normalization must still come out
    rng = np.random.default_rng(2)
    blk = random_structure(rng, 1)
    A = np.zeros((8, 8), dtype=complex)
    A[:4, :4] = blk
    A[4:, 4:] = blk
    modes = sp.normal_modes(A)
    J = sp.symplectic_form(4)
    assert np.abs(modes.V @ modes.V.T - J).max() < 1e-9


def test_normal_modes_zero_rapidity_warns():
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(2, 0.5, 0.9))
    st = sp.assemble_structure_matrix(H, np.zeros((4, 4), dtype=complex))
    with pytest.warns(sp.ZeroRapidityWarning):
        modes = sp.normal_modes(st)
    assert sp.spectral_gap(modes) == 0.0
    # the unitary case still satisfies the J-normalization
    J = sp.symplectic_form(4)
    assert np.abs(modes.V @ modes.V.T - J).max() < 1e-9


def test_normal_modes_keep_conjugate_pairs_adjacent():
    # descending (Re, Im) by each block's +Im member, the pair (beta,
    # conj beta) adjacent: also on the free chain, whose real parts are all
    # zeroed as round-off, so that every Re ties exactly
    free = sp.assemble_structure_matrix(
        mdl.build_xy_hamiltonian(mdl.ChainParams(4, 0.5, 0.9)), np.zeros((8, 8), dtype=complex))
    with pytest.warns(sp.ZeroRapidityWarning):
        tied = sp.normal_modes(free)
    assert (tied.rapidities.real == 0).all()
    damped = sp.normal_modes(mdl.xy_redfield_model(mdl.ChainParams(20, 0.5, 0.9)))
    assert (damped.rapidities.imag == 0).sum() == 2  # two 1 x 1 blocks among the pairs
    for modes in (tied, damped):
        beta = modes.rapidities
        firsts = np.flatnonzero(beta.imag > 0)
        assert np.array_equal(beta[firsts + 1], beta[firsts].conj())
        lead = beta.copy()
        lead[firsts + 1] = beta[firsts]
        keys = list(zip(lead.real, lead.imag))
        assert keys == sorted(keys, reverse=True)


def test_normal_modes_rejects_a_non_trace_preserving_matrix():
    # a generic antisymmetric matrix has a nonzero c.c block: it is the
    # structure matrix of no master equation
    with pytest.raises(ValueError, match="trace preserving"):
        sp.normal_modes(random_antisymmetric(np.random.default_rng(11), 8))


@pytest.mark.parametrize("shape", [(6, 6), (8, 4), (8,)])
def test_normal_modes_rejects_a_matrix_not_of_order_4n(shape):
    # the antisymmetric, trace-preserving 6 x 6 A was read as 3 rapidities,
    # n = 1 and a 3 x 3 "two-point matrix"
    A = np.zeros(shape, dtype=complex)
    if shape == (6, 6):
        A[0, 1], A[1, 0] = 0.5, -0.5
    with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))}: expected a square"):
        sp.normal_modes(A)


def test_normal_modes_at_the_critical_field():
    # Redfield n = 253 at h = 0.75, the chain of fig_density_h0.75: the gap
    # 3.18e-10 is the pair sum of two conjugate rapidities, which the
    # eigenvalues of the 4n x 4n structure matrix lost to round-off (gap 0,
    # steady state off by 8.6e-3)
    model = mdl.xy_redfield_model(mdl.ChainParams(253, 0.5, 0.75))
    state = ns.steady_state(model)
    modes = sp.normal_modes(sp.structure_matrix(model))
    assert sp.spectral_gap(modes) == pytest.approx(sp.spectral_gap(state), rel=1e-6)
    T = ns.ness_two_point(modes, uniqueness_tol=-math.inf)
    assert np.abs(T.T - state.two_point.T).max() < 1e-9


def _reconstruct(modes):
    """V^T D J V with D = diag(beta_1, -beta_1, beta_2, -beta_2, ...)."""
    D = np.diag(np.stack([modes.rapidities, -modes.rapidities], axis=1).ravel())
    return modes.V.T @ D @ sp.symplectic_form(len(modes.rapidities)) @ modes.V


def test_normal_modes_exact_zero_block():
    # free Ising chain at h = 0: the edge Majoranas decouple, so A has an
    # exact zero eigenvalue of multiplicity 4: X has a double zero, whose
    # pair sums vanish with G Y G^T = 0 (Y = 0)
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(4, 1.0, 0.0))
    st = sp.assemble_structure_matrix(H, np.zeros((8, 8), dtype=complex))
    assert np.sum(np.abs(np.linalg.eigvals(st.A)) < 1e-12) == 4
    with pytest.warns(sp.ZeroRapidityWarning):
        modes = sp.normal_modes(st)
    J = sp.symplectic_form(8)
    assert np.abs(modes.V @ modes.V.T - J).max() < 1e-12
    assert np.abs(_reconstruct(modes) - st.A).max() < 1e-12


def _degenerate_blocks():
    rng = np.random.default_rng(2)
    blk = random_structure(rng, 1)
    return np.kron(np.eye(3), blk)  # three identical blocks: threefold rapidities


@pytest.mark.parametrize(
    "make",
    [
        lambda: mdl.xy_redfield_model(mdl.ChainParams(100, 0.5, 0.9)),
        lambda: mdl.xy_lindblad_model(mdl.ChainParams(24, 0.5, 0.9)),
        _degenerate_blocks,
    ],
    ids=["redfield_n100", "lindblad_n24", "degenerate_blocks"],
)
def test_normal_modes_normalization_and_reconstruction(make):
    built = make()
    physical = isinstance(built, mdl.QuadraticModel)
    A = sp.structure_matrix(built).A if physical else built
    modes = sp.normal_modes(A)
    J = sp.symplectic_form(len(modes.rapidities))
    assert np.abs(modes.V @ modes.V.T - J).max() < 1e-9
    assert np.abs(_reconstruct(modes) - A).max() < 1e-9 * np.abs(A).max()
    if physical:
        rapidities = sp.lyapunov_form(built).rapidities
        assert spectrum_deviation(modes.rapidities, rapidities) < 1e-10


@pytest.mark.parametrize("make", [mdl.xy_redfield_model, mdl.xy_lindblad_model])
def test_lyapunov_rapidities_are_the_normal_mode_rapidities(make):
    # eig(X) = 2 beta, read off the 1x1 and 2x2 blocks of the real Schur form
    model = make(mdl.ChainParams(6, 0.5, 0.9))
    form = sp.lyapunov_form(model)
    assert np.abs(form.rapidities.imag).max() > 0.1  # 2x2 blocks occur
    assert np.abs(form.U @ form.R @ form.U.T - form.X).max() < 1e-12
    dev = spectrum_deviation(form.rapidities, 0.5 * np.linalg.eigvals(form.X))
    assert dev < 1e-12
    modes = sp.normal_modes(sp.structure_matrix(model))
    assert spectrum_deviation(form.rapidities, modes.rapidities) < 1e-10


def dense_coupling_models():
    # random H and two dense complex couplings: every row is in S
    rng = np.random.default_rng(11)
    H = 1j * random_antisymmetric(rng, 12, complex_=False)
    cs = tuple(mdl.CouplingOperator(rng.normal(size=12) + 1j * rng.normal(size=12), b)
               for b in ("L", "R"))
    G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return [
        mdl.QuadraticModel(H, cs, {"L": mdl.RedfieldOhmic(1.0, 0.3),
                                   "R": mdl.RedfieldOhmic(0.5, 0.2)}),
        mdl.QuadraticModel(H, cs, mdl.LindbladRates(G @ G.conj().T)),
    ]


LYAPUNOV_ROW_MODELS = [
    build(mdl.ChainParams(n, 0.5, 0.9))
    for n in (2, 5, 53, 253)
    for build in (mdl.xy_redfield_model, mdl.xy_lindblad_model)
] + dense_coupling_models()
LYAPUNOV_ROW_IDS = [f"{b}_n{n}" for n in (2, 5, 53, 253) for b in ("redfield", "lindblad")] + [
    "redfield_dense", "lindblad_dense"]


@pytest.mark.parametrize("model", LYAPUNOV_ROW_MODELS, ids=LYAPUNOV_ROW_IDS)
def test_bath_matrix_from_the_coupling_rows_is_the_dense_formula(model):
    # M filled in from its rows S only: the bits, signed zeros included, of
    # the sums over every row and column
    xs = np.array([c.x for c in model.couplings])
    if model.is_lindblad:
        ref = np.einsum("nm,nj,mk->jk", model.bath.gamma, xs, xs)
    else:
        ref = np.zeros((len(model.H), len(model.H)), dtype=complex)
        for x, z in zip(xs, sp.bath_vectors(model)):
            ref += np.outer(x, z)
    M = sp.bath_matrix(model)
    assert M.tobytes() == ref.tobytes()


@pytest.mark.parametrize("model", LYAPUNOV_ROW_MODELS, ids=LYAPUNOV_ROW_IDS)
def test_lyapunov_matrices_from_the_coupling_rows_are_the_dense_formula(model):
    # X and Y from the rows S of M only: the bits, signed zeros included, of
    # the formula on the whole bath matrix
    M = sp.bath_matrix(model)
    X, Y = sp._lyapunov_matrices(model)
    for got, ref in ((X, 4.0 * (M.real - model.H.imag)), (Y, 4.0 * (M.imag - M.imag.T))):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert X.flags.f_contiguous  # for the Schur form to overwrite
    with serial_lapack(len(X)):  # the thread rule of every eigensolve
        ref = 0.5 * np.linalg.eigvals(X)
    assert np.array_equal(sp.rapidities(model), ref)


def test_schur_form_overwrites_x():
    X, _ = sp._lyapunov_matrices(mdl.xy_redfield_model(mdl.ChainParams(20, 0.5, 0.9)))
    ref = X.copy()
    R, U, rapidities = sp._real_schur(X)
    assert np.shares_memory(R, X)
    assert np.abs(U @ R @ U.T - ref).max() < 1e-12
    assert spectrum_deviation(rapidities, 0.5 * np.linalg.eigvals(ref)) < 1e-12


def test_schur_workspace_query_keeps_the_bits_of_schur():
    # numpy's dgees, after its own workspace query, gives the bits of
    # scipy's schur when both OpenBLAS pools run on one thread (the Schur
    # form runs on one thread up to order SERIAL_LAPACK_ORDER)
    controls = scipy_thread_controls()
    if controls is None:
        pytest.skip("scipy's BLAS exposes no OpenBLAS thread controls")
    get, set_ = controls
    previous = get()
    try:
        set_(1)
        for n in (20, 53, 253):
            X, _ = sp._lyapunov_matrices(mdl.xy_redfield_model(mdl.ChainParams(n, 0.5, 0.7)))
            R_ref, U_ref = scipy.linalg.schur(X.copy(order="F"), output="real")
            R, U, _ = sp._real_schur(X)
            assert R.tobytes() == R_ref.tobytes() and U.tobytes() == U_ref.tobytes()
    finally:
        set_(previous)


@pytest.mark.parametrize(
    "model",
    [
        mdl.xy_redfield_model(mdl.ChainParams(6, 0.5, 0.9)),
        mdl.xy_lindblad_model(mdl.ChainParams(6, 0.5, 0.9)),
        mdl.xy_redfield_model(mdl.ChainParams(96, 0.5, 0.75)),
    ],
    ids=["redfield_n6", "lindblad_n6", "redfield_n96_critical"],
)
def test_eigenvalue_rapidities_are_the_schur_rapidities(model):
    dev = spectrum_deviation(sp.rapidities(model), sp.lyapunov_form(model).rapidities)
    assert dev < 1e-10


@pytest.mark.parametrize("name", ["fig_gap_h0.3", "fig_gap_h0.75", "fig_gap_h0.8"])
def test_gap_from_eigenvalues_matches_the_schur_gap(name):
    # every size of the gap-scaling configs; the smallest gap, 3.8e-8 at
    # n = 96 on h = 0.75, carries the largest relative rounding, 4e-9
    cfg = ExperimentConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    for n in cfg.sizes:
        model = build_model(cfg, n=n)
        gap = sp.spectral_gap(sp.rapidities(model))
        assert gap == pytest.approx(sp.spectral_gap(sp.lyapunov_form(model)), rel=1e-8)


def identity_modes(two_n):
    """R = G = 1 and Z = 0 for ``NormalModes`` built by hand."""
    return np.eye(two_n), np.eye(two_n), np.zeros((two_n, two_n))


def test_spectral_gap_definition():
    modes = sp.NormalModes(np.array([1 + 1j, 0.3, 2.0]), *identity_modes(3))
    assert sp.spectral_gap(modes) == pytest.approx(0.6)
    assert sp.spectral_gap(modes.rapidities) == pytest.approx(0.6)
    assert sp.spectral_gap(np.array([-1e-15, 0.3])) == 0.0


def test_liouvillean_eigenvalues_and_selectors(redfield_n2):
    modes = sp.normal_modes(sp.structure_matrix(redfield_n2))
    beta = modes.rapidities
    assert sp.liouvillean_eigenvalues(modes, np.zeros((1, 4), dtype=int))[0] == 0
    sel = np.array([[1, 1, 0, 0]])
    assert sp.liouvillean_eigenvalues(modes, sel)[0] == pytest.approx(
        -2 * (beta[0] + beta[1])
    )
    sels = sp.even_weight_selectors(2)
    assert len(sels) == 8
    assert (sels.sum(axis=1) % 2 == 0).all()
    with pytest.raises(ValueError):
        sp.even_weight_selectors(5)
    big = sp.NormalModes(np.ones(18, dtype=complex), *identity_modes(18))
    with pytest.raises(ValueError):
        sp.full_liouvillean_spectrum(big)


def test_nondiagonalizable_rejected():
    # nilpotent antisymmetric matrix (A^2 = 0, rank 2): genuinely defective,
    # with X = 0 and Y != 0, a Jordan pair
    B = np.array([[1.0, 1j], [1j, -1.0]])  # symmetric, B^2 = 0
    A = np.zeros((4, 4), dtype=complex)
    A[:2, 2:] = B
    A[2:, :2] = -B
    with pytest.raises(sp.NonDiagonalizableError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sp.normal_modes(A)


def test_exceptional_point_rejected():
    # a positive Lindblad M and a Hermitian H whose X = 4(Re M - Im H) is
    # the Jordan block [[1, 1], [0, 1]]: eig(X) returns parallel vectors
    H = np.array([[0.0, -0.125j], [0.125j, 0.0]])
    M = np.array([[0.25, 0.125], [0.125, 0.25]], dtype=complex)
    st = sp.assemble_structure_matrix(H, M)
    with pytest.raises(sp.NonDiagonalizableError, match="condition number"):
        sp.normal_modes(st)


def test_gram_eigh_memo_keeps_one_hamiltonian_bit_for_bit(monkeypatch):
    # a temperature sweep's points share K: one eigh, and the bath
    # vectors of a fresh eigh; another K replaces the kept one
    params = mdl.ChainParams(53, 0.5, 0.9)
    models = [mdl.xy_redfield_model(params, beta_L=b, beta_R=5.2) for b in (0.3, 1.0, 3.0)]
    other = mdl.xy_redfield_model(mdl.ChainParams(53, 0.5, 0.7))
    fresh = [sp.bath_vectors(m) for m in models + [other, models[0]]]
    calls = count_eigh(monkeypatch)
    with sp._gram_eigh_memo():
        kept = [sp.bath_vectors(m) for m in models + [other, models[0]]]
    assert len(calls) == 3
    assert sp._GRAM_EIGH_MEMO is None
    for zs, ref in zip(kept, fresh):
        assert all(np.array_equal(z, r) for z, r in zip(zs, ref))


@pytest.mark.parametrize(
    "model",
    [
        mdl.xy_redfield_model(mdl.ChainParams(20, 0.5, 0.9)),
        mdl.xy_lindblad_model(mdl.ChainParams(24, 0.5, 0.9)),
        mdl.xy_redfield_model(mdl.ChainParams(6, 0.5, 0.75)),
    ],
    ids=["redfield_n20", "lindblad_n24", "redfield_n6_critical"],
)
def test_normal_modes_of_a_model_are_those_of_its_structure_matrix(model):
    # X and Y from the coupling rows, against X and Y read off the 4n x 4n A
    got, ref = sp.normal_modes(model), sp.normal_modes(sp.structure_matrix(model))
    assert np.abs(got.rapidities - ref.rapidities).max() < 1e-12
    assert np.abs(got.Z - ref.Z).max() < 1e-12
    assert np.abs(ns.ness_two_point(got).T - ns.ness_two_point(ref).T).max() < 1e-12
    assert np.isrealobj(got.Z) and np.isrealobj(ref.Z)  # X and Y are real


def _model_and_structure(H, M):
    """A Lindblad model whose bath matrix is the real symmetric M (one
    coupling per Majorana, rate matrix M), and its structure matrix."""
    two_n = len(H)
    couplings = [mdl.CouplingOperator(x, "L") for x in np.eye(two_n)]
    model = mdl.QuadraticModel(H, couplings, mdl.LindbladRates(M))
    return model, sp.assemble_structure_matrix(H, M)


def test_normal_modes_of_a_model_refuse_as_those_of_its_structure_matrix():
    # no dissipation: zero rapidities, warned on both inputs
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(2, 0.5, 0.9))
    for struct in _model_and_structure(H, np.zeros((4, 4))):
        with pytest.warns(sp.ZeroRapidityWarning):
            sp.normal_modes(struct)
    # the exceptional point of test_exceptional_point_rejected
    H = np.array([[0.0, -0.125j], [0.125j, 0.0]])
    M = np.array([[0.25, 0.125], [0.125, 0.25]])
    for struct in _model_and_structure(H, M):
        with pytest.raises(sp.NonDiagonalizableError, match="condition number"):
            sp.normal_modes(struct)


@pytest.mark.parametrize("rows", [1, 7, 8])
def test_normal_modes_panels_keep_each_pair_whole(monkeypatch, rows):
    # panels of 1, 7 and 8 rows: a panel boundary inside a pair moves by one
    # row, and Z is that of one panel, bit for bit
    model = mdl.xy_redfield_model(mdl.ChainParams(20, 0.5, 0.9))
    whole = sp.normal_modes(model)
    monkeypatch.setattr(sp, "_PANEL_ROWS", rows)
    panels = sp.normal_modes(model)
    assert np.array_equal(panels.R, whole.R) and np.array_equal(panels.G, whole.G)
    assert np.array_equal(panels.Z, whole.Z)
