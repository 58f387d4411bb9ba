import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from conftest import random_antisymmetric, random_structure
from openquad import model as mdl
from openquad import ness as ns
from openquad import oracle as orc
from openquad import spectra as sp
from openquad import steady_state
from openquad._blas import serial_lapack
from openquad.cli import ExperimentConfig, build_model
from openquad.dynamics import propagate_two_point

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def oracle_steady(model):
    if model.is_lindblad:
        liouv = orc.dense_liouvillean(model)
    else:
        liouv = orc.dense_liouvillean(model, sp.bath_vectors(model))
    rho = orc.oracle_ness(liouv)
    return liouv, rho, orc.dense_majoranas(model.n)


def test_two_point_operator_identities(redfield_n3):
    T = steady_state(redfield_n3).two_point
    m = T.T.shape[0]
    assert np.abs(np.diag(T.T) - 1.0).max() < 1e-9
    assert np.abs(T.T + T.T.T - 2 * np.eye(m)).max() < 1e-9
    assert np.abs((T.T - np.eye(m)) - 1j * T.B).max() < 1e-9


def test_two_point_matches_oracle(redfield_n2):
    T = steady_state(redfield_n2).two_point
    _, rho, ws = oracle_steady(redfield_n2)
    assert np.abs(T.T - orc.two_point_matrix(rho, ws)).max() < 1e-9


def test_two_point_equilibrium_is_gibbs():
    beta = 1.1
    model = mdl.xy_redfield_model(
        mdl.ChainParams(3, 0.5, 0.9), beta_L=beta, beta_R=beta
    )
    T = steady_state(model).two_point
    ws = orc.dense_majoranas(3)
    rho_g = orc.gibbs_state(orc.dense_quadratic(model.H, ws), beta)
    assert np.abs(T.T - orc.two_point_matrix(rho_g, ws)).max() < 1e-8


def test_two_point_requires_unique_steady_state():
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(2, 0.5, 0.9))
    st = sp.assemble_structure_matrix(H, np.zeros((4, 4), dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sp.ZeroRapidityWarning)
        modes = sp.normal_modes(st)
    with pytest.raises(ns.NonUniqueNESSError):
        ns.ness_two_point(modes)


def test_steady_state_requires_unique_steady_state():
    model = mdl.xy_lindblad_model(mdl.ChainParams(2, 0.5, 0.9), (0.0,) * 4)
    assert np.abs(sp.lyapunov_form(model).rapidities.real).max() < 1e-12
    with pytest.raises(ns.NonUniqueNESSError):
        steady_state(model)


def test_steady_state_rejects_large_residual(redfield_n2, monkeypatch):
    solve = ns.triangular_sylvester

    def perturbed(*args, **kwargs):
        Z, scale = solve(*args, **kwargs)
        return 1.001 * Z, scale

    monkeypatch.setattr(ns, "triangular_sylvester", perturbed)
    with pytest.raises(np.linalg.LinAlgError):
        steady_state(redfield_n2)


def _dtrsyl_lyapunov(R, C):
    Z, scale, info = lapack.dtrsyl(R, R, C, tranb="T")
    assert info >= 0
    return Z / scale


def _relative(A, B):
    return np.linalg.norm(A - B) / np.linalg.norm(B)


@pytest.mark.parametrize(
    "model",
    [
        mdl.xy_redfield_model(mdl.ChainParams(53, 0.5, 0.9)),
        mdl.xy_redfield_model(mdl.ChainParams(96, 0.5, 0.75)),
        mdl.xy_redfield_model(mdl.ChainParams(253, 0.5, 0.7)),
        mdl.xy_lindblad_model(mdl.ChainParams(200, 0.2, 1.05)),
    ],
    ids=["redfield_n53", "redfield_n96_critical", "redfield_n253", "lindblad_n200"],
)
def test_blocked_lyapunov_solve_matches_dtrsyl(model):
    # 2n = 106 is one dtrsyl leaf; 2n = 506 recurses two levels
    form = sp.lyapunov_form(model)
    C = form.U.T @ form.Y @ form.U
    Z = ns._lyapunov(form.R, C)
    assert _relative(Z, _dtrsyl_lyapunov(form.R, C)) <= 1e-10


def test_blocked_lyapunov_solve_keeps_2x2_blocks_whole():
    # a quasi-triangular R in LAPACK's standard form, with 2x2 blocks
    # [[a, b], [c, a]] (b c < 0) straddling the midpoint splits of the
    # first two levels: 300 -> 151 + 149, 151 -> 76 + 75, 149 -> 75 + 74
    rng = np.random.default_rng(5)
    m = 300
    R = np.triu(rng.normal(size=(m, m)) / np.sqrt(m), 1)
    R[np.diag_indices(m)] = rng.uniform(0.5, 2.0, m)
    starts = {149, 74, 224}
    starts |= set(range(3, m - 1, 11)) - {s + d for s in starts for d in (-1, 1)}
    for i in sorted(starts):
        R[i + 1, i + 1] = R[i, i]
        R[i, i + 1], R[i + 1, i] = rng.uniform(0.2, 1.0), -rng.uniform(0.2, 1.0)
    assert np.count_nonzero(np.diag(R, -1)) == len(starts)
    assert not (np.diag(R, -1)[1:] * np.diag(R, -1)[:-1]).any()  # blocks disjoint
    assert ns._split(R) == 151
    C = rng.normal(size=(m, m))
    C = C - C.T
    Z = ns._lyapunov(R, C)
    assert np.linalg.norm(R @ Z + Z @ R.T - C) <= 1e-12 * np.linalg.norm(C)
    assert _relative(Z, _dtrsyl_lyapunov(R, C)) <= 1e-10


def test_blocked_lyapunov_solve_honours_the_dtrsyl_scale(monkeypatch):
    # a leaf that returns a scaled solution (as dtrsyl does to avoid
    # overflow) must be divided by its own scale
    model = mdl.xy_redfield_model(mdl.ChainParams(96, 0.5, 0.75))
    B = steady_state(model).two_point.B
    solve = ns.triangular_sylvester

    def scaled(*args, **kwargs):
        Z, scale = solve(*args, **kwargs)
        return 0.5 * Z / scale, 0.5

    monkeypatch.setattr(ns, "triangular_sylvester", scaled)
    assert np.array_equal(steady_state(model).two_point.B, B)


@pytest.mark.parametrize(
    "model",
    [mdl.xy_redfield_model(mdl.ChainParams(53, 0.5, 0.9)),
     mdl.xy_lindblad_model(mdl.ChainParams(200, 0.2, 1.05))],
    ids=["redfield_n53", "lindblad_n200"],
)
def test_steady_state_calls_no_scipy_lapack(monkeypatch, model):
    # the Schur form and the dtrsyl leaves run in numpy's LAPACK
    # (``openquad._blas``): scipy's would raise here
    reference = steady_state(model).two_point.B

    def refuse(*args, **kwargs):
        raise AssertionError("the solve must not call scipy's LAPACK")

    monkeypatch.setattr(scipy.linalg, "schur", refuse)
    monkeypatch.setattr(lapack, "dgees", refuse)
    monkeypatch.setattr(lapack, "dtrsyl", refuse)
    assert np.abs(steady_state(model).two_point.B - reference).max() <= 1e-12


@pytest.mark.parametrize(
    "model",
    [
        mdl.xy_redfield_model(mdl.ChainParams(53, 0.5, 0.9)),
        mdl.xy_redfield_model(mdl.ChainParams(96, 0.5, 0.75)),
        mdl.xy_lindblad_model(mdl.ChainParams(200, 0.2, 1.05)),
    ],
    ids=["redfield_n53", "redfield_n96_critical", "lindblad_n200"],
)
def test_steady_state_matches_normal_modes_route(model):
    state = steady_state(model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sp.ZeroRapidityWarning)
        modes = sp.normal_modes(sp.structure_matrix(model))
    T = ns.ness_two_point(modes)
    assert np.abs(state.two_point.T - T.T).max() <= 1e-9
    assert sp.spectral_gap(state) == pytest.approx(sp.spectral_gap(modes), rel=1e-8)
    assert state.residual <= 1e-12


@pytest.mark.parametrize("build", [mdl.xy_redfield_model, mdl.xy_lindblad_model])
@pytest.mark.parametrize("h", [0.2, 0.7, 0.75, 1.2])
def test_steady_state_matches_the_dense_right_hand_side(build, h):
    # U^T Y U from the rank-2|S| product, against two dense products
    model = build(mdl.ChainParams(53, 0.5, h))
    state = steady_state(model, uniqueness_tol=-np.inf)
    form = sp.lyapunov_form(model)
    B = form.U @ ns._lyapunov(form.R, form.U.T @ form.Y @ form.U) @ form.U.T
    B = 0.5 * (B - B.T)
    assert _relative(state.two_point.B, B) <= 1e-13
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sp.ZeroRapidityWarning)
        modes = sp.normal_modes(sp.structure_matrix(model))
    T = ns.ness_two_point(modes, uniqueness_tol=-np.inf)
    assert np.abs(state.two_point.T - T.T).max() <= 1e-9


@pytest.mark.parametrize("build", [mdl.xy_redfield_model, mdl.xy_lindblad_model])
def test_steady_state_hands_over_the_b_of_its_t(build):
    two_point = steady_state(build(mdl.ChainParams(30, 0.5, 0.9))).two_point
    B = two_point.__dict__["B"]  # set by steady_state, not computed from T
    Z = two_point.T - np.eye(len(B))
    Z *= -1j
    assert np.array_equal(B, Z.real)
    assert np.array_equal(np.signbit(B), np.signbit(Z.real))
    assert not B.flags.writeable
    assert np.array_equal(two_point.T.real, np.eye(len(B)))


def test_steady_state_memory_is_a_few_dense_buffers():
    # in units of 2n x 2n doubles: T (two) and B (one) are returned; on the
    # way R over X, U and the solve's buffer are alive.  Measured 3.5 in
    # all; 4.1 while scipy's schur made its own workspace query, which
    # copies X and allocates a second U, and 9.1 for a solve that kept M,
    # X, Y, R, U and their products alive
    model = mdl.xy_redfield_model(mdl.ChainParams(200, 0.5, 0.9))
    steady_state(model)  # first-call allocations
    tracemalloc.start()
    try:
        steady_state(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.6 * 400**2 * 8, peak / (400**2 * 8)


def test_steady_state_at_the_critical_field_n253():
    # min Re beta = 1.6e-10 here, just above the uniqueness threshold
    state = steady_state(mdl.xy_redfield_model(mdl.ChainParams(253, 0.5, 0.75)))
    T = state.two_point.T
    assert sp.spectral_gap(state) > 0
    assert np.abs(T + T.T - 2 * np.eye(len(T))).max() <= 1e-9
    assert state.residual <= 1e-12


def test_green_route_agrees_with_modes(redfield_n2):
    st = sp.structure_matrix(redfield_n2)
    state = steady_state(redfield_n2)
    Tg = ns.ness_two_point_green(st, rapidity_hint=state.rapidities)
    T = state.two_point
    assert np.abs(T.T - Tg.T).max() < 1e-6


def test_green_route_tail_convergence(redfield_n2):
    # truncation error of the regularized resolvent integral falls at least
    # like 1/Omega for the off-diagonal entries
    st = sp.structure_matrix(redfield_n2)
    state = steady_state(redfield_n2)
    T = state.two_point
    scale = np.abs(state.rapidities).max()
    errs = []
    for omega_max in (30 * scale, 300 * scale):
        Tg = ns.ness_two_point_green(
            st, omega_max=omega_max, rapidity_hint=state.rapidities
        )
        errs.append(np.abs(Tg.T - T.T).max())
    assert errs[1] < errs[0] / 5 or errs[1] < 1e-9


def test_green_route_residue_identity():
    # synthetic 4x4 structure matrix with known modes: the quadrature must
    # reproduce the residue sum  I + sum_j (v_2j (x) v_2j-1 - v_2j-1 (x) v_2j)
    rng = np.random.default_rng(8)
    base = sp.normal_modes(random_structure(rng, 1))
    V = base.V
    J = sp.symplectic_form(2)
    target = np.array([1.2 + 0.7j, 0.8 - 0.2j])
    D = np.diag([target[0], -target[0], target[1], -target[1]])
    A = V.T @ D @ J @ V
    Tg = ns.ness_two_point_green(A, rapidity_hint=target)
    iB = sum(
        np.outer(V[2 * j + 1], V[2 * j]) - np.outer(V[2 * j], V[2 * j + 1])
        for j in range(2)
    )
    expected = np.eye(2) + iB[0::2, 0::2]
    assert np.abs(Tg.T - expected).max() < 1e-7


def test_quadratic_expectation_examples(redfield_n3):
    T = steady_state(redfield_n3).two_point
    zero = np.zeros((6, 6))
    assert ns.quadratic_expectation(T, zero) == 0
    # sz_m encoded as -i on the (2m-1, 2m) pair reproduces the profile
    P = np.zeros((6, 6), dtype=complex)
    P[2, 3], P[3, 2] = -0.5j, 0.5j
    assert ns.quadratic_expectation(T, P).real == pytest.approx(
        ns.magnetization_profile(T)[1]
    )
    with pytest.raises(ValueError):
        ns.quadratic_expectation(T, np.eye(6))


def test_quadratic_expectation_against_oracle(redfield_n3):
    T = steady_state(redfield_n3).two_point
    _, rho, ws = oracle_steady(redfield_n3)
    rng = np.random.default_rng(4)
    P = random_antisymmetric(rng, 6)
    lhs = ns.quadratic_expectation(T, P)
    rhs = orc.oracle_expectation(rho, orc.dense_quadratic(P, ws))
    assert abs(lhs - rhs) < 1e-9


def test_commutator_quadratic_identities():
    rng = np.random.default_rng(9)
    P = random_antisymmetric(rng, 6)
    R = random_antisymmetric(rng, 6)
    assert np.abs(ns.commutator_quadratic(P, P)).max() < 1e-12
    ws = orc.dense_majoranas(3)
    lhs = orc.dense_quadratic(P, ws) @ orc.dense_quadratic(R, ws) - orc.dense_quadratic(
        R, ws
    ) @ orc.dense_quadratic(P, ws)
    rhs = orc.dense_quadratic(ns.commutator_quadratic(P, R), ws)
    assert np.abs(lhs - rhs).max() < 1e-12
    with pytest.raises(ValueError):
        ns.commutator_quadratic(np.eye(6), R)


def test_energy_density_structure():
    params = mdl.ChainParams(4, 1.0, 0.0)
    mats = ns.energy_density_matrices(params)
    # Ising point, zero field: single Majorana pair per density
    P = mats[1]
    nz = np.argwhere(P != 0)
    assert sorted(map(tuple, nz)) == [(3, 4), (4, 3)]
    assert P[3, 4] == pytest.approx(-0.5j)

    # sum rule: total of H_m equals H minus half the boundary fields
    params = mdl.ChainParams(4, 0.3, 0.8)
    H = mdl.build_xy_hamiltonian(params)
    total = sum(ns.energy_density_matrices(params))
    boundary = np.zeros_like(H)
    for site in (0, 3):
        boundary[2 * site, 2 * site + 1] += -1j * params.h / 4
        boundary[2 * site + 1, 2 * site] -= -1j * params.h / 4
    assert np.abs(total - (H - boundary)).max() < 1e-14


def test_energy_current_continuity_in_hilbert_space():
    # i[H, H_m] = Q_{m-1} - Q_m for bulk m, as an operator identity at n=5
    params = mdl.ChainParams(5, 0.7, 0.4)
    ws = orc.dense_majoranas(5)
    H = orc.dense_quadratic(mdl.build_xy_hamiltonian(params), ws)
    hmats = ns.energy_density_matrices(params)
    dense_h = [orc.dense_quadratic(P, ws) for P in hmats]
    dense_q = [
        orc.dense_quadratic(
            1j * ns.commutator_quadratic(hmats[m], hmats[m + 1]), ws
        )
        for m in range(3)
    ]
    for m in (1, 2):
        lhs = 1j * (H @ dense_h[m] - dense_h[m] @ H)
        rhs = dense_q[m - 1] - dense_q[m]
        assert np.abs(lhs - rhs).max() < 1e-12


def test_heat_current_profile_against_oracle(redfield_n3):
    params = redfield_n3.params
    T = steady_state(redfield_n3).two_point
    _, rho, ws = oracle_steady(redfield_n3)
    hmats = ns.energy_density_matrices(params)
    Qop = orc.dense_quadratic(1j * ns.commutator_quadratic(hmats[0], hmats[1]), ws)
    assert ns.heat_current_profile(T, params)[0] == pytest.approx(
        orc.oracle_expectation(rho, Qop).real, abs=1e-9
    )


def test_heat_current_vanishes_in_equilibrium():
    model = mdl.xy_redfield_model(mdl.ChainParams(8, 0.5, 0.6), beta_L=1.3, beta_R=1.3)
    T = steady_state(model).two_point
    assert np.abs(ns.heat_current_profile(T, model.params)).max() < 1e-9


def test_heat_current_flat_and_real(redfield_n2):
    model = mdl.xy_redfield_model(mdl.ChainParams(12, 0.5, 0.9))
    T = steady_state(model).two_point
    Q = ns.heat_current_profile(T, model.params)
    bulk = Q[1:-1]
    assert bulk.std() / abs(bulk.mean()) < 1e-8


@pytest.mark.parametrize(
    "model",
    [
        mdl.xy_redfield_model(mdl.ChainParams(40, 0.5, 0.9)),
        mdl.xy_lindblad_model(mdl.ChainParams(40, 0.2, 1.05)),
    ],
    ids=["redfield", "lindblad"],
)
def test_band_stencils_match_dense_reference(model):
    # n = 40 is far beyond the oracle; the reference is the contraction of
    # the dense 2n x 2n coefficient matrices with all of T, every window
    # from the first to the last included
    params = model.params
    T = steady_state(model).two_point
    hmats = ns.energy_density_matrices(params)
    dens = [np.sum(P * T.T).real for P in hmats]
    cur = [
        np.sum(1j * ns.commutator_quadratic(P, R) * T.T).real
        for P, R in zip(hmats[:-1], hmats[1:])
    ]
    h_prof = ns.energy_density_profile(T, params)
    q_prof = ns.heat_current_profile(T, params)
    assert h_prof.shape == (39,) and q_prof.shape == (38,)
    assert np.abs(h_prof - dens).max() <= 1e-15
    assert np.abs(q_prof - cur).max() <= 1e-15


def test_observable_report_solves_three_correlation_spectra(monkeypatch):
    model = mdl.xy_redfield_model(mdl.ChainParams(12, 0.5, 0.9))
    T = steady_state(model).two_point
    blocks = []
    spectrum = ns.correlation_spectrum

    def counted(two_point, block):
        blocks.append(list(block))
        return spectrum(two_point, block)

    monkeypatch.setattr(ns, "correlation_spectrum", counted)
    rep = ns.observable_report(T, model.params)
    whole = list(range(1, 13))
    assert sorted(blocks) == sorted([whole[:6], whole[6:], whole])
    assert rep.positivity_excess == ns.positivity_excess(T)
    assert rep.entropy_total == ns.block_entropy(T, whole)


def test_spin_correlator_against_oracle(redfield_n3):
    T = steady_state(redfield_n3).two_point
    _, rho, ws = oracle_steady(redfield_n3)
    n = 3
    sz = [-1j * ws[2 * m] @ ws[2 * m + 1] for m in range(n)]
    for l in range(1, n + 1):
        for m in range(1, n + 1):
            direct = orc.oracle_expectation(
                rho, sz[l - 1] @ sz[m - 1]
            ) - orc.oracle_expectation(rho, sz[l - 1]) * orc.oracle_expectation(
                rho, sz[m - 1]
            )
            assert ns.spin_spin_correlator(T, l, m) == pytest.approx(
                direct.real, abs=1e-9
            )
    # diagonal is 1 - s_z^2
    szp = ns.magnetization_profile(T)
    assert ns.spin_spin_correlator(T, 2, 2) == pytest.approx(1 - szp[1] ** 2)


def test_correlation_matrix_consistency(redfield_n3):
    T = steady_state(redfield_n3).two_point
    C = ns.correlation_matrix(T)
    for l in range(1, 4):
        for m in range(1, 4):
            assert C[l - 1, m - 1] == pytest.approx(
                ns.spin_spin_correlator(T, l, m), abs=1e-12
            )
    assert np.abs(C - C.T).max() < 1e-9


def whole_matrix_correlations(two_point):
    """C in one expression over the whole of T, the diagonal filled in."""
    T = two_point.T
    C = (T[0::2, 0::2] * T[1::2, 1::2] - T[0::2, 1::2] * T[1::2, 0::2]).real.copy()
    np.fill_diagonal(C, 1.0 - ns.magnetization_profile(two_point) ** 2)
    return C


def test_correlation_matrix_is_the_whole_matrix_formula_bit_for_bit():
    # n = 300 spans two row panels; on the random T numpy's complex product
    # differs from the plain real formula, which the check must tell apart
    rng = np.random.default_rng(11)
    steady = steady_state(mdl.xy_redfield_model(mdl.ChainParams(53, 0.5, 0.7))).two_point
    modes = sp.normal_modes(sp.structure_matrix(mdl.xy_redfield_model(
        mdl.ChainParams(20, 0.5, 0.9))))
    shape = (600, 600)
    random = ns.TwoPointMatrix(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for two_point in (steady, ns.ness_two_point(modes), random):
        C, ref = ns.correlation_matrix(two_point), whole_matrix_correlations(two_point)
        assert C.dtype == np.float64 and C.flags.c_contiguous
        assert same_bits(C, ref)
        assert same_bits(np.signbit(C), np.signbit(ref))
    T = random.T
    a, b, c, d = T[0::2, 0::2], T[1::2, 1::2], T[0::2, 1::2], T[1::2, 0::2]
    plain = (a.real * b.real - a.imag * b.imag) - (c.real * d.real - c.imag * d.imag)
    np.fill_diagonal(plain, 1.0 - ns.magnetization_profile(random) ** 2)
    assert not same_bits(plain, whole_matrix_correlations(random))


def test_residual_correlator_constant_matrix():
    C = np.full((8, 8), -0.25)
    assert ns.residual_correlator(C, 8) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        ns.residual_correlator(np.ones((3, 3)), 3)


def test_correlation_decay_constant():
    C = np.full((6, 6), 0.5)
    assert np.allclose(ns.correlation_decay(C), 0.5)


def test_block_entropy_limits():
    n = 3
    T = ns.TwoPointMatrix(np.eye(2 * n, dtype=complex))  # B = 0: maximally mixed
    assert ns.block_entropy(T, [1, 2]) == pytest.approx(2.0)
    # nu = 1 on every mode: pure Gaussian state, zero entropy
    B = np.zeros((2 * n, 2 * n))
    for m in range(n):
        B[2 * m, 2 * m + 1] = 1.0
        B[2 * m + 1, 2 * m] = -1.0
    T = ns.TwoPointMatrix(np.eye(2 * n) + 1j * B)
    assert ns.block_entropy(T, range(1, n + 1)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("block", [[0], [7], [1, 1], [2, 3, 2]],
                         ids=["site_0", "site_n_plus_1", "repeated", "repeated_in_block"])
def test_block_sites_are_checked(block):
    # site 0 used to wrap to the last site through index -2/-1, and a
    # repeated site entered B twice
    T = steady_state(mdl.xy_redfield_model(mdl.ChainParams(6, 0.5, 0.9))).two_point
    with pytest.raises(ValueError, match="distinct and lie in 1..6"):
        ns.correlation_spectrum(T, block)
    with pytest.raises(ValueError):
        ns.block_entropy(T, block)


def test_empty_block_has_no_spectrum_and_no_entropy():
    T = steady_state(mdl.xy_redfield_model(mdl.ChainParams(6, 0.5, 0.9))).two_point
    assert ns.correlation_spectrum(T, []).shape == (0,)
    assert ns.block_entropy(T, []) == 0.0


def complex_correlation_spectrum(two_point, block):
    """The nu_j from the complex Hermitian solve eigvalsh(i Bsub): the
    reference for the real Bsub^T Bsub solve of ``correlation_spectrum``."""
    block = sorted(block)
    idx = np.concatenate([[2 * a - 2, 2 * a - 1] for a in block])
    Bsub = two_point.B[np.ix_(idx, idx)]
    nu = np.linalg.eigvalsh(1j * Bsub)
    return np.sort(nu[nu > -1e-12 * max(1.0, np.abs(nu).max())])[::-1][: len(block)]


def config_model(name, **overrides):
    cfg = ExperimentConfig.from_dict(json.loads((CONFIGS / f"{name}.json").read_text()))
    return build_model(cfg, **overrides)


@pytest.mark.parametrize("name, overrides", [
    ("fig_tok_entropy", {}),  # Redfield n = 53
    ("fig_density_h0.7", {}),  # Redfield n = 253
    ("fig_profilwrld_lindblad", {}),  # Lindblad n = 200
    ("fig_phase", {"gamma": 1.3, "h": 0.67}),  # Redfield n = 100, gap 2.3e-9
], ids=["redfield_n53", "redfield_n253", "lindblad_n200", "fig_phase_point"])
def test_real_correlation_spectrum_matches_the_complex_route(name, overrides):
    model = config_model(name, **overrides)
    T = steady_state(model).two_point
    rep = ns.observable_report(T, model.params)
    n = model.n
    halves = range(1, n // 2 + 1), range(n // 2 + 1, n + 1)
    ref = {}
    for key, block in zip(("left", "right", "total"), (*halves, range(1, n + 1))):
        nu, nu_ref = ns.correlation_spectrum(T, block), complex_correlation_spectrum(T, block)
        assert nu.shape == nu_ref.shape == (len(block),)
        assert np.abs(nu - nu_ref).max() <= 1e-7
        ref[key] = nu_ref
    entropy = {k: ns._spectrum_entropy(v) for k, v in ref.items()}
    assert abs(rep.entropy_left - entropy["left"]) <= 1e-12
    assert abs(rep.entropy_right - entropy["right"]) <= 1e-12
    assert abs(rep.entropy_total - entropy["total"]) <= 1e-12
    if n % 2 == 0:
        qmi = entropy["left"] + entropy["right"] - entropy["total"]
        assert abs(rep.mutual_information - qmi) <= 1e-12
    else:  # the report has none; take the halves of the first n - 1 sites
        m = n - 1
        blocks = range(1, m // 2 + 1), range(m // 2 + 1, m + 1), range(1, m + 1)
        s_left, s_right, s_all = (ns._spectrum_entropy(complex_correlation_spectrum(T, b))
                                  for b in blocks)
        qmi = ns.quantum_mutual_information(T, m)
        assert abs(qmi - (s_left + s_right - s_all)) <= 1e-12
    assert abs(rep.positivity_excess - ns._spectrum_excess(ref["total"])) <= 1e-12


def uncached_B(two_point):
    return (-1j * (two_point.T - np.eye(two_point.T.shape[0]))).real


def test_B_is_computed_once_per_instance(redfield_n3):
    T = steady_state(redfield_n3).two_point
    B = T.B
    assert T.B is B
    assert not B.flags.writeable
    assert B.tobytes() == np.ascontiguousarray(uncached_B(T)).tobytes()
    other = ns.TwoPointMatrix(T.T.copy())
    assert other.B is not B and np.array_equal(other.B, B)


def test_cached_B_has_the_bytes_of_the_uncached_formula():
    # signed zeros, a real part off the diagonal and non-finite entries
    rng = np.random.default_rng(5)
    T = np.eye(6) + 1j * random_antisymmetric(rng, 6, complex_=False)
    T[0, 2] += 0.25
    T[1, 3] = complex(-0.0, -0.0)
    T[2, 4] = complex(3.0, -0.0)
    T[3, 5] = complex(np.inf, 1.0)
    T[4, 0] = complex(-2.0, np.nan)
    with np.errstate(invalid="ignore"):
        two_point = ns.TwoPointMatrix(T)
        ref = np.ascontiguousarray(uncached_B(two_point))
        assert two_point.B.tobytes() == ref.tobytes()


def test_block_entropy_against_oracle(redfield_n3):
    T = steady_state(redfield_n3).two_point
    _, rho, _ = oracle_steady(redfield_n3)
    s_pipe = ns.block_entropy(T, [1, 2])
    rho_a = orc.oracle_reduced(rho, [0, 1], 3)
    assert s_pipe == pytest.approx(orc.von_neumann_entropy(rho_a), abs=1e-8)


def test_qmi_product_state_and_oracle():
    # block-diagonal B across the half cut: additive entropies, zero QMI
    B = np.zeros((8, 8))
    for m in range(4):
        B[2 * m, 2 * m + 1] = 0.3
        B[2 * m + 1, 2 * m] = -0.3
    T = ns.TwoPointMatrix(np.eye(8) + 1j * B)
    assert ns.quantum_mutual_information(T) == pytest.approx(0.0, abs=1e-12)

    model = mdl.xy_redfield_model(mdl.ChainParams(4, 0.5, 0.9))
    T = steady_state(model).two_point
    _, rho, _ = oracle_steady(model)
    left = orc.oracle_reduced(rho, [0, 1], 4)
    right = orc.oracle_reduced(rho, [2, 3], 4)
    qmi_o = (
        orc.von_neumann_entropy(left)
        + orc.von_neumann_entropy(right)
        - orc.von_neumann_entropy(rho)
    )
    assert ns.quantum_mutual_information(T) == pytest.approx(qmi_o, abs=1e-8)


def test_energy_fluctuation_profile():
    model = mdl.xy_redfield_model(mdl.ChainParams(8, 0.5, 0.9))
    T = steady_state(model).two_point
    f = ns.energy_fluctuation_profile(T, model.params)
    assert f.shape == (7,)
    assert (f >= 0).all()
    # equilibrium bulk densities are translation invariant, so bulk f is tiny
    beta = 0.9
    model_eq = mdl.xy_redfield_model(
        mdl.ChainParams(12, 0.5, 0.9), beta_L=beta, beta_R=beta
    )
    T_eq = steady_state(model_eq).two_point
    f_eq = ns.energy_fluctuation_profile(T_eq, model_eq.params)
    assert np.abs(f_eq[3:-3]).max() < 0.05


def test_equilibrium_energy_density_matches_gibbs_at_n5():
    beta = 0.9
    model = mdl.xy_redfield_model(
        mdl.ChainParams(5, 0.5, 0.9), beta_L=beta, beta_R=beta
    )
    T = steady_state(model).two_point
    ws = orc.dense_majoranas(5)
    rho_g = orc.gibbs_state(orc.dense_quadratic(model.H, ws), beta)
    dens = ns.energy_density_profile(T, model.params)
    for m, P in enumerate(ns.energy_density_matrices(model.params)):
        exact = orc.oracle_expectation(rho_g, orc.dense_quadratic(P, ws)).real
        assert dens[m] == pytest.approx(exact, abs=1e-8)


def test_positivity_excess_is_recorded():
    model = mdl.xy_redfield_model(mdl.ChainParams(10, 0.5, 0.9))
    T = steady_state(model).two_point
    assert 0.0 <= ns.positivity_excess(T) <= 1e-6


def test_observable_report_serializes(redfield_n3):
    model = mdl.xy_redfield_model(mdl.ChainParams(6, 0.5, 0.9))
    state = steady_state(model)
    rep = ns.observable_report(
        state.two_point, model.params, gap=sp.spectral_gap(state)
    )
    d = rep.to_dict()
    assert len(d["s_z"]) == 6
    assert len(d["correlations"]) == 6
    assert d["spectral_gap"] > 0
    assert d["mutual_information"] is not None


@pytest.mark.slow
def test_hypersensitivity_signature():
    """In the long-range phase the central magnetization is a rapidly
    fluctuating function of h; its total variation per unit field on a
    fine grid exceeds the smooth-phase value by at least 10x at n = 80."""

    def tv_per_h(h_grid, n):
        vals = []
        for h in h_grid:
            model = mdl.xy_redfield_model(mdl.ChainParams(n, 0.5, float(h)))
            T = steady_state(model).two_point
            vals.append(ns.magnetization_profile(T)[n // 2 - 1])
        vals = np.array(vals)
        return np.abs(np.diff(vals)).sum() / (h_grid[-1] - h_grid[0])

    lrmc = tv_per_h(np.linspace(0.2, 0.4, 161), 80)
    smooth = tv_per_h(np.linspace(0.9, 1.1, 41), 80)
    assert lrmc >= 10.0 * smooth


# the per-site loops that magnetization_profile, residual_correlator,
# correlation_decay and correlation_spectrum replaced: the references
# their array forms must match bit for bit


def loop_magnetization_profile(two_point):
    B = two_point.B
    return np.array([B[2 * m, 2 * m + 1] for m in range(two_point.n)])


def loop_residual_correlator(C, n):
    l, m = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    far = np.abs(l - m) > n / 2
    return float(np.abs(C[far]).mean())


def loop_correlation_decay(C):
    n = C.shape[0]
    return np.array([np.mean(np.diagonal(C, offset=r)) for r in range(n)])


def loop_correlation_spectrum(two_point, block):
    block = sorted(block)
    if len(set(block)) != len(block) or not all(1 <= a <= two_point.n for a in block):
        raise ValueError(f"block sites must be distinct and lie in 1..{two_point.n}")
    if not block:
        return np.zeros(0)
    idx = np.concatenate([[2 * a - 2, 2 * a - 1] for a in block])
    Bsub = two_point.B[np.ix_(idx, idx)]
    G = Bsub.T @ Bsub
    with serial_lapack(len(G)):  # the thread rule of every eigensolve
        nu2 = np.linalg.eigvalsh(G)
    return np.sqrt(np.maximum(nu2[1::2], 0.0))[::-1]


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [4, 5, 53, 100, 253])
def test_observables_without_site_loops_match_the_loops(n):
    T = steady_state(mdl.xy_redfield_model(mdl.ChainParams(n, 0.5, 0.9))).two_point
    C = ns.correlation_matrix(T)
    assert same_bits(ns.magnetization_profile(T), loop_magnetization_profile(T))
    assert same_bits(ns.correlation_decay(C), loop_correlation_decay(C))
    assert same_bits(ns.residual_correlator(C, n), loop_residual_correlator(C, n))
    half = n // 2
    for block in (range(1, half + 1), range(half + 1, n + 1), range(1, n + 1),
                  [n, 1, 3], np.array([2, n - 1]), [2]):
        assert same_bits(ns.correlation_spectrum(T, block),
                         loop_correlation_spectrum(T, block))


def test_leaf_order_moves_the_steady_state_by_rounding_only(monkeypatch):
    # 2n = 106 is one dtrsyl at leaves of order 128, and 2n = 506 is split
    # at both orders
    for n in (53, 253):
        model = mdl.xy_redfield_model(mdl.ChainParams(n, 0.5, 0.7))
        B = steady_state(model).two_point.B
        with monkeypatch.context() as patch:
            patch.setattr(ns, "_LEAF_ORDER", 128)
            ref = steady_state(model).two_point.B
        assert np.linalg.norm(B - ref) <= 1e-13 * np.linalg.norm(ref)


# the readers as they were written on a stored complex T, kept as the
# reference for the readers that form their entries of T from B

def t_magnetization_profile(two_point):
    return (-1j * np.diagonal(two_point.T, 1)[0::2]).real


def t_band_stencil(P, T, count):
    k = len(P)
    idx = 2 * np.arange(count)[:, None] + np.arange(k)
    windows = T[idx[:, :, None], idx[:, None, :]]
    return (P * windows).reshape(count, k * k).sum(axis=1)


def t_energy_density_profile(two_point, params):
    return t_band_stencil(ns._energy_density_block(params), two_point.T, params.n - 1).real


def t_heat_current_profile(two_point, params):
    block = ns._energy_density_block(params)
    Q = 1j * ns.commutator_quadratic(np.pad(block, (0, 2)), np.pad(block, (2, 0)))
    return t_band_stencil(Q, two_point.T, params.n - 2).real


def t_spin_spin_correlator(two_point, l, m):
    T = two_point.T
    if l == m:
        return float(1.0 - t_magnetization_profile(two_point)[l - 1] ** 2)
    a, b = 2 * l - 2, 2 * m - 2
    return float((T[a, b] * T[a + 1, b + 1] - T[a, b + 1] * T[a + 1, b]).real)


def t_wick_four_point(two_point, j, k, l, m):
    T = two_point.T
    return complex(T[j, k] * T[l, m] - T[j, l] * T[k, m] + T[j, m] * T[k, l])


REDFIELD_N53 = mdl.xy_redfield_model(mdl.ChainParams(53, 0.5, 0.7))
LINDBLAD_N20 = mdl.xy_lindblad_model(mdl.ChainParams(20, 0.2, 1.05))
B_STORED_STATES = {  # each producer of a state from B, on the chain
    "steady_redfield_n53": lambda: steady_state(REDFIELD_N53).two_point,
    "steady_lindblad_n20": lambda: steady_state(LINDBLAD_N20).two_point,
    "normal_modes_n53": lambda: ns.ness_two_point(sp.normal_modes(REDFIELD_N53)),
    "propagated_n20": lambda: propagate_two_point(
        sp.normal_modes(LINDBLAD_N20), ns.TwoPointMatrix(np.eye(40)), 3.0),
}


@pytest.mark.parametrize("name", B_STORED_STATES)
def test_readers_of_b_match_the_formulas_on_t(name):
    two_point = B_STORED_STATES[name]()
    params = (LINDBLAD_N20 if name.endswith("n20") else REDFIELD_N53).params
    assert np.isrealobj(two_point._z) and two_point.B is two_point._z
    n = params.n
    assert np.array_equal(ns.magnetization_profile(two_point),
                          t_magnetization_profile(two_point))
    C = ns.correlation_matrix(two_point)
    assert same_bits(C, whole_matrix_correlations(two_point))
    assert same_bits(np.signbit(C), np.signbit(whole_matrix_correlations(two_point)))
    dens = t_energy_density_profile(two_point, params)
    heat = t_heat_current_profile(two_point, params)
    assert np.array_equal(ns.energy_density_profile(two_point, params), dens)
    assert np.array_equal(ns.heat_current_profile(two_point, params), heat)
    for l, m in ((1, 1), (1, 2), (2, 1), (3, n), (n, n - 1)):
        assert np.array_equal(ns.spin_spin_correlator(two_point, l, m),
                              t_spin_spin_correlator(two_point, l, m))
    for idx in ((0, 1, 2, 3), (3, 2, 1, 0), (0, 0, 1, 1), (5, 2, 5, 2 * n - 1)):
        assert np.array_equal(ns.wick_four_point(two_point, *idx),
                              t_wick_four_point(two_point, *idx))
    rep = ns.observable_report(two_point, params)
    assert np.array_equal(rep.s_z, t_magnetization_profile(two_point))
    assert np.array_equal(rep.correlations, whole_matrix_correlations(two_point))
    assert rep.residual_correlator == ns.residual_correlator(
        whole_matrix_correlations(two_point), n)
    assert np.array_equal(rep.heat_current, heat)
    assert np.array_equal(rep.energy_density, dens)
    assert np.array_equal(rep.energy_fluctuation, ns._relative_fluctuation(dens))


def test_correlation_matrix_keeps_the_signed_zeros_of_the_complex_product():
    # a B with exact zeros of both signs: the real products of B give -0
    # where the complex product of T = 1 + iB gives +0
    rng = np.random.default_rng(8)
    B = rng.choice([0.0, -0.0, 0.5, -0.5], size=(80, 80))
    B = np.triu(B, 1) - np.triu(B, 1).T
    T = np.zeros(B.shape, dtype=complex)
    T.imag[...] = B
    np.fill_diagonal(T.real, 1.0)
    two_point = ns.TwoPointMatrix(T)
    assert np.isrealobj(two_point._z) and same_bits(two_point.B, B)
    C, ref = ns.correlation_matrix(two_point), whole_matrix_correlations(two_point)
    assert same_bits(np.signbit(C), np.signbit(ref)) and same_bits(C, ref)


def test_state_readers_build_no_t(monkeypatch):
    model = mdl.xy_redfield_model(mdl.ChainParams(12, 0.5, 0.9))
    state = steady_state(model)
    modes_state = ns.ness_two_point(sp.normal_modes(model))

    def refuse(self):
        raise AssertionError("T was built")

    monkeypatch.setattr(ns.TwoPointMatrix, "T", property(refuse))
    for two_point in (state.two_point, modes_state):
        ns.observable_report(two_point, model.params, gap=sp.spectral_gap(state))
        ns.spin_spin_correlator(two_point, 2, 5)
        ns.wick_four_point(two_point, 0, 3, 4, 7)
        ns.quadratic_expectation(two_point, random_antisymmetric(
            np.random.default_rng(1), 24, complex_=False))


def test_t_is_rebuilt_on_each_access_and_not_kept(redfield_n3):
    two_point = steady_state(redfield_n3).two_point
    T = two_point.T
    assert two_point.T is not T and same_bits(two_point.T, T)
    assert "T" not in vars(two_point)
    assert not two_point._z.flags.writeable


@pytest.mark.parametrize("make", ["steady_state", "ness_two_point"])
def test_t_of_a_solved_state_round_trips_bit_for_bit(make):
    model = mdl.xy_redfield_model(mdl.ChainParams(30, 0.5, 0.9))
    if make == "steady_state":
        two_point = steady_state(model).two_point
    else:
        two_point = ns.ness_two_point(sp.normal_modes(model))
    B, T = two_point.B, two_point.T
    assert B.dtype == np.float64 and not B.flags.writeable
    assert same_bits(T.imag, B) and same_bits(T.real, np.eye(len(B)))
    again = ns.TwoPointMatrix(T)
    assert np.isrealobj(again._z)
    assert same_bits(again.B, B) and same_bits(again.T, T)


def test_a_t_with_a_real_part_off_one_is_held_complex():
    # T - 1 with a real part has a complex Z; B is its real part
    rng = np.random.default_rng(3)
    B = random_antisymmetric(rng, 6, complex_=False)
    T = np.eye(6) + 1j * B
    T[0, 1] += 1e-3
    two_point = ns.TwoPointMatrix(T)
    assert np.iscomplexobj(two_point._z)
    assert np.array_equal(two_point.B, B) and np.abs(two_point.T - T).max() <= 1e-15


@pytest.mark.parametrize("indices", [(-1, 0, 1, 2), (0, 1, 2, 6), (0, 1.5, 2, 3)],
                         ids=["negative", "out_of_range", "non_integral"])
def test_wick_four_point_refuses_an_index_outside_the_majoranas(redfield_n3, indices):
    # -1 wrapped to index 5, 6 and 1.5 raised numpy's IndexError
    two_point = steady_state(redfield_n3).two_point
    with pytest.raises(ValueError, match=r"Majorana indices must be integers in 0\.\.5"):
        ns.wick_four_point(two_point, *indices)
