import numpy as np
import pytest
import scipy.integrate as si

from openquad import dynamics as dyn
from openquad import model as mdl
from openquad import ness as ns
from openquad import oracle as orc
from openquad import spectra as sp
from openquad import steady_state


def dense_redfield(model):
    eig = sp.hamiltonian_eigensystem(model.H)
    zs = sp.bath_vectors(model, eig)
    return orc.dense_liouvillean(model, zs)


def test_correlator_t0_is_wick(redfield_n2):
    modes = sp.normal_modes(sp.structure_matrix(redfield_n2))
    T = steady_state(redfield_n2).two_point
    c0 = dyn.dynamic_correlator(modes, (1, 2), (3, 4), 0.0)
    assert c0 == pytest.approx(ns.wick_four_point(T, 0, 1, 2, 3), abs=1e-12)


def test_correlator_factorizes_at_long_times(redfield_n2):
    modes = sp.normal_modes(sp.structure_matrix(redfield_n2))
    T = steady_state(redfield_n2).two_point
    c_inf = dyn.dynamic_correlator(modes, (1, 2), (3, 4), 500.0)
    assert c_inf == pytest.approx(T.T[0, 1] * T.T[2, 3], abs=1e-12)


def test_correlator_matches_oracle(redfield_n2):
    modes = sp.normal_modes(sp.structure_matrix(redfield_n2))
    liouv = dense_redfield(redfield_n2)
    rho = orc.oracle_ness(liouv)
    ws = orc.dense_majoranas(2)
    gap = sp.spectral_gap(modes)
    times = np.linspace(0.0, 10.0 / gap, 7)
    for pair_jk, pair_lm in (((1, 2), (3, 4)), ((1, 3), (2, 4))):
        vals = dyn.dynamic_correlator(modes, pair_jk, pair_lm, times)
        j, k = pair_jk
        l, m = pair_lm
        for i, t in enumerate(times):
            pert = ws[l - 1] @ ws[m - 1] @ rho
            rt = orc.oracle_evolve(liouv, pert, t)
            exact = np.trace(ws[j - 1] @ ws[k - 1] @ rt)
            assert abs(vals[i] - exact) < 1e-8


def static_schedule(A, A0, t_final, dt):
    return dyn.DriveSchedule(lambda t: (A, A0), t_final, dt)


def test_propagator_static_limit(redfield_n2):
    st = sp.structure_matrix(redfield_n2)
    t_final = 0.7
    U, C, C0 = dyn.time_ordered_propagator(
        static_schedule(st.A, st.A0, t_final, 1e-3)
    )
    import scipy.linalg as sla

    exact = sla.expm(2 * t_final * st.A)
    assert np.abs(U - exact).max() < 1e-8
    assert np.abs(C - t_final * st.A).max() < 1e-8
    assert C0 == pytest.approx(t_final * st.A0)


def test_propagator_second_order_convergence(redfield_n2):
    st = sp.structure_matrix(redfield_n2)

    def sampler(t):
        return np.cos(0.8 * t) * st.A, 0.0

    errs = []
    ref, _, _ = dyn.time_ordered_propagator(dyn.DriveSchedule(sampler, 1.0, 1e-4))
    for dt in (4e-3, 2e-3):
        U, _, _ = dyn.time_ordered_propagator(dyn.DriveSchedule(sampler, 1.0, dt))
        errs.append(np.abs(U - ref).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_propagator_guards():
    A = np.array([[0.0, 4.0], [-4.0, 0.0]])
    with pytest.raises(dyn.StepTooLargeError):
        dyn.time_ordered_propagator(static_schedule(A, 0.0, 1.0, 0.1))
    # eigenvalues of U = exp(2tA) reach phase +-pi at 2t = pi for the
    # rotation generator below: the principal log is refused there
    Aim = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(dyn.BranchAmbiguityError):
        dyn.time_ordered_propagator(static_schedule(Aim, 0.0, 1.5708, 1e-4))


def test_propagate_fixed_point(redfield_n2):
    modes = sp.normal_modes(sp.structure_matrix(redfield_n2))
    T = steady_state(redfield_n2).two_point
    for t in (0.0, 0.5, 3.0):
        Tt = dyn.propagate_two_point(modes, T, t)
        assert np.abs(Tt.T - T.T).max() < 1e-10


def test_propagate_matches_oracle(redfield_n2):
    modes = sp.normal_modes(sp.structure_matrix(redfield_n2))
    liouv = dense_redfield(redfield_n2)
    ws = orc.dense_majoranas(2)
    rho0 = orc.gibbs_state(orc.dense_quadratic(redfield_n2.H, ws), 0.7)
    T0 = ns.TwoPointMatrix(orc.two_point_matrix(rho0, ws))
    for t in (0.0, 0.4, 2.0, 9.0):
        Tt = dyn.propagate_two_point(modes, T0, t)
        rt = orc.oracle_evolve(liouv, rho0, t)
        assert np.abs(Tt.T - orc.two_point_matrix(rt, ws)).max() < 1e-8


def test_propagate_structure_and_semigroup(redfield_n2):
    modes = sp.normal_modes(sp.structure_matrix(redfield_n2))
    ws = orc.dense_majoranas(2)
    rho0 = orc.gibbs_state(orc.dense_quadratic(redfield_n2.H, ws), 0.4)
    T0 = ns.TwoPointMatrix(orc.two_point_matrix(rho0, ws))
    t1, t2 = 0.7, 1.9
    Ta = dyn.propagate_two_point(modes, T0, t1 + t2)
    Tb = dyn.propagate_two_point(modes, dyn.propagate_two_point(modes, T0, t1), t2)
    assert np.abs(Ta.T - Tb.T).max() < 1e-9
    for t in (0.3, 5.0):
        Tt = dyn.propagate_two_point(modes, T0, t).T
        assert np.abs(np.diag(Tt) - 1).max() < 1e-8
        assert np.abs(Tt + Tt.T - 2 * np.eye(4)).max() < 1e-8


def test_propagate_relaxation_rate(redfield_n2):
    # || T(t) - T_ness || decays asymptotically at the two-excitation rate
    # 2 min Re(beta_r + beta_r'), which equals twice the spectral gap here
    modes = sp.normal_modes(sp.structure_matrix(redfield_n2))
    T_ness = steady_state(redfield_n2).two_point
    beta = modes.rapidities
    pair_rates = (beta.real[:, None] + beta.real[None, :])[
        ~np.eye(len(beta), dtype=bool)
    ]
    rate = 2.0 * pair_rates.min()
    # the slowest pair is a conjugate rapidity pair, so this is twice the gap
    assert rate == pytest.approx(2.0 * sp.spectral_gap(modes), rel=1e-6)
    ws = orc.dense_majoranas(2)
    rho0 = orc.gibbs_state(orc.dense_quadratic(redfield_n2.H, ws), 0.4)
    T0 = ns.TwoPointMatrix(orc.two_point_matrix(rho0, ws))
    t1, t2 = 40.0, 60.0
    d1 = np.abs(dyn.propagate_two_point(modes, T0, t1).T - T_ness.T).max()
    d2 = np.abs(dyn.propagate_two_point(modes, T0, t2).T - T_ness.T).max()
    measured = -np.log(d2 / d1) / (t2 - t1)
    assert measured == pytest.approx(rate, rel=0.05)


def test_driven_propagation_matches_dense_integration():
    # sinusoidally driven field on a Lindblad chain: collapse the ordered
    # product to a generator and compare against brute-force integration
    rates = (0.5, 0.3, 0.5, 0.1)
    ls = mdl.lindblad_jump_vectors(2, rates)
    M = sp.bath_matrix_from_jumps(ls)

    def h_of_t(t):
        return 0.9 + 0.4 * np.sin(1.3 * t)

    def sampler(t):
        st = sp.assemble_structure_matrix(
            mdl.build_xy_hamiltonian(mdl.ChainParams(2, 0.5, h_of_t(t))), M
        )
        return st.A, st.A0

    t_final = 2.0
    schedule = dyn.DriveSchedule(sampler, t_final, 1e-3)
    ws = orc.dense_majoranas(2)
    rho0 = orc.gibbs_state(
        orc.dense_quadratic(mdl.build_xy_hamiltonian(mdl.ChainParams(2, 0.5, 0.9)), ws),
        0.7,
    )
    T0 = ns.TwoPointMatrix(orc.two_point_matrix(rho0, ws))
    Tt = dyn.propagate_schedule(schedule, T0)

    jump_ops = [orc.dense_linear(l, ws) for l in ls]

    def rhs(t, v):
        Ht = orc.dense_quadratic(
            mdl.build_xy_hamiltonian(mdl.ChainParams(2, 0.5, h_of_t(t))), ws
        )
        rho = orc.unvec(v)
        out = -1j * (Ht @ rho - rho @ Ht)
        for L in jump_ops:
            Ld = L.conj().T
            out += 2 * L @ rho @ Ld - Ld @ L @ rho - rho @ Ld @ L
        return orc.vec(out)

    sol = si.solve_ivp(rhs, (0, t_final), orc.vec(rho0), rtol=1e-11, atol=1e-13)
    T_exact = orc.two_point_matrix(orc.unvec(sol.y[:, -1]), ws)
    assert np.abs(Tt.T - T_exact).max() < 1e-6
