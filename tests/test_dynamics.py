import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate as si
import scipy.linalg as sla

from openquad import dynamics as dyn
from openquad import model as mdl
from openquad import ness as ns
from openquad import oracle as orc
from openquad import spectra as sp
from openquad import steady_state


def dense_redfield(model):
    return orc.dense_liouvillean(model, sp.bath_vectors(model))


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


def test_correlator_rejects_out_of_range_indices(redfield_n2):
    # index 0 would wrap to the last Majorana; 5 exceeds 2n = 4
    modes = sp.normal_modes(sp.structure_matrix(redfield_n2))
    for pairs in (((0, 2), (3, 4)), ((1, 2), (3, 5))):
        with pytest.raises(ValueError, match="Majorana indices"):
            dyn.dynamic_correlator(modes, *pairs, 0.0)
    # an index of 1.5 raised numpy's bare IndexError; an integral 2.0 is index 2
    with pytest.raises(ValueError, match=r"Majorana indices must lie in 1\.\.4"):
        dyn.dynamic_correlator(modes, (1.5, 2), (3, 4), 0.0)
    assert dyn.dynamic_correlator(modes, (1, 2.0), (3, 4), 0.7) == \
        dyn.dynamic_correlator(modes, (1, 2), (3, 4), 0.7)


def test_correlator_takes_empty_and_two_dimensional_times(redfield_n2):
    # [] raised "range() arg 3 must not be zero", a 2 x 3 grid numpy's
    # broadcast error: one value per time, flattened in C order
    modes = sp.normal_modes(sp.structure_matrix(redfield_n2))
    empty = dyn.dynamic_correlator(modes, (1, 2), (3, 4), [])
    assert empty.shape == (0,) and empty.dtype == complex
    times = np.linspace(0.0, 5.0, 6)
    flat = dyn.dynamic_correlator(modes, (1, 2), (3, 4), times)
    grid = dyn.dynamic_correlator(modes, (1, 2), (3, 4), times.reshape(2, 3))
    assert grid.shape == (6,) and np.array_equal(grid, flat)


def correlator_pair_sum(modes, pair_jk, pair_lm, times):
    """Reference: the triangular sum over mode pairs r < r', one complex
    exponential per (time, pair)."""
    j, k = pair_jk
    l, m = pair_lm
    V, beta = modes.V, modes.rapidities
    cols = [2 * (idx - 1) for idx in (j, k, l, m)]
    Ve, Vo = V[1::2], V[0::2]
    uj, uk = Ve[:, cols[0]], Ve[:, cols[1]]
    vl, vm = Vo[:, cols[2]], Vo[:, cols[3]]
    static = 4.0 * (uj @ Vo[:, cols[1]]) * (Ve[:, cols[2]] @ vm)
    F = np.outer(uk, uj) - np.outer(uj, uk)
    G = np.outer(vm, vl) - np.outer(vl, vm)
    iu = np.triu_indices(len(beta), k=1)
    rates = (beta[:, None] + beta[None, :])[iu]
    return static - 4.0 * np.exp(-2.0 * np.outer(times, rates)) @ (F * G)[iu]


@pytest.mark.parametrize(
    "pairs", [((1, 2), (3, 4)), ((3, 4), (1, 2)), ((1, 3), (2, 4)), ((2, 4), (1, 3))]
)
def test_correlator_matches_pair_sum(pairs):
    modes = sp.normal_modes(
        sp.structure_matrix(mdl.xy_redfield_model(mdl.ChainParams(20, 0.5, 0.9)))
    )
    times = np.linspace(0.0, 20.0, 201)
    vals = dyn.dynamic_correlator(modes, *pairs, times)
    assert np.abs(vals - correlator_pair_sum(modes, *pairs, times)).max() < 1e-14


def test_correlator_memory_is_linear_in_times():
    # the pair sum held a (times x pairs) complex array: 611 MB here
    modes = sp.normal_modes(
        sp.structure_matrix(mdl.xy_redfield_model(mdl.ChainParams(100, 0.5, 0.9)))
    )
    times = np.linspace(0.0, 20.0, 1001)
    tracemalloc.start()
    try:
        dyn.dynamic_correlator(modes, (1, 2), (3, 4), times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def static_schedule(A, A0, t_final, dt):
    return dyn.DriveSchedule(lambda t: (A, A0), t_final, dt)


def test_propagator_static_limit(redfield_n2):
    st = sp.structure_matrix(redfield_n2)
    t_final = 0.7
    U, C, C0 = dyn.time_ordered_propagator(
        static_schedule(st.A, st.A0, t_final, 1e-3)
    )
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
    # two copies of a 2 x 2 generator: a sample is of order 4n
    A = np.kron(np.eye(2), [[0.0, 4.0], [-4.0, 0.0]])
    with pytest.raises(dyn.StepTooLargeError):
        dyn.time_ordered_propagator(static_schedule(A, 0.0, 1.0, 0.1))
    # eigenvalues of U = exp(2tA) reach phase +-pi at 2t = pi for the
    # rotation generator below: the principal log is refused there
    Aim = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(dyn.BranchAmbiguityError):
        dyn.time_ordered_propagator(static_schedule(Aim, 0.0, 1.5708, 1e-4))


def test_step_guard_uses_the_exact_two_norm():
    # a star generator: ||A||_1 = ||A||_inf = 11 but ||A||_2 = sqrt(11),
    # so the cheap bound sqrt(||A||_1 ||A||_inf) exceeds the limit at
    # dt = 0.05 while the 2-norm, which decides, does not
    A = np.zeros((12, 12))
    A[0, 1:], A[1:, 0] = 1.0, -1.0
    assert 2 * 11 * 0.05 >= 0.5 > 2 * np.linalg.norm(A, 2) * 0.05
    U, _, _ = dyn.time_ordered_propagator(static_schedule(A, 0.0, 0.5, 0.05))
    assert np.abs(U - sla.expm(2 * 0.5 * A)).max() < 1e-12
    with pytest.raises(dyn.StepTooLargeError, match=r"= 0\.663 >= 0\.5 at step 0"):
        dyn.time_ordered_propagator(static_schedule(A, 0.0, 0.5, 0.1))


@pytest.mark.parametrize(
    "t_final, dt", [(np.inf, 1e-3), (np.nan, 1e-3), (1.0, np.nan), (1.0, np.inf)]
)
def test_schedule_rejects_non_finite_horizon_or_step(t_final, dt):
    with pytest.raises(ValueError, match="finite"):
        dyn.DriveSchedule(lambda t: (np.zeros((4, 4)), 0.0), t_final, dt)


def complex_ordered_product(sampler, t_final, dt):
    """Reference: the midpoint product of complex step exponentials."""
    U = np.eye(sampler(0.0)[0].shape[0], dtype=complex)
    for i in range(int(round(t_final / dt))):
        U = sla.expm(2.0 * dt * np.asarray(sampler((i + 0.5) * dt)[0], dtype=complex)) @ U
    return U


def lindblad_drive(n):
    """Sampler of a Lindblad XY chain with h(t) = 0.9 + 0.4 sin 1.3t."""
    M = sp.bath_matrix_from_jumps(mdl.lindblad_jump_vectors(n, (0.5, 0.3, 0.5, 0.1)))

    def sampler(t):
        H = mdl.build_xy_hamiltonian(mdl.ChainParams(n, 0.5, 0.9 + 0.4 * np.sin(1.3 * t)))
        st = sp.assemble_structure_matrix(H, M)
        return st.A, st.A0

    return sampler


def integrated_midpoint_product(sampler, t_final, dt):
    """Reference: U from dU/dt = 2 A(t_(i+1/2)) U, integrated over each step
    by scipy's solve_ivp at rtol = atol = 1e-12 (no matrix exponential)."""
    U = np.eye(sampler(0.0)[0].shape[0], dtype=complex)
    for i in range(int(round(t_final / dt))):
        A = 2.0 * np.asarray(sampler((i + 0.5) * dt)[0], dtype=complex)
        sol = si.solve_ivp(lambda t, u, A=A: (A @ u.reshape(A.shape)).ravel(), (0.0, dt),
                           U.ravel(), method="DOP853", rtol=1e-12, atol=1e-12)
        U = sol.y[:, -1].reshape(U.shape)
    return U


def test_real_step_matches_complex_step():
    sampler = lindblad_drive(4)
    U, _, _ = dyn.time_ordered_propagator(dyn.DriveSchedule(sampler, 0.5, 5e-3))
    assert np.abs(U - integrated_midpoint_product(sampler, 0.5, 5e-3)).max() < 1e-12


def test_product_turns_complex_at_an_unsymmetric_sample():
    # a sample without the conjugation symmetry of a Hermiticity-preserving
    # Liouvillean (still antisymmetric) from t = 0.2 on
    physical = lindblad_drive(3)
    rng = np.random.default_rng(7)
    kick = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    kick = 0.05 * (kick - kick.T)

    def sampler(t):
        A, A0 = physical(t)
        return (A + kick if t > 0.2 else A), A0

    U, _, _ = dyn.time_ordered_propagator(dyn.DriveSchedule(sampler, 0.4, 5e-3))
    assert np.abs(U - integrated_midpoint_product(sampler, 0.4, 5e-3)).max() < 1e-12


def test_schedule_rejects_an_initial_state_of_another_size():
    # the n = 3 drive acts on 2n = 6 Majoranas; the check comes before any
    # exponential, so the sampler runs once
    calls = []
    physical = lindblad_drive(3)

    def sampler(t):
        calls.append(t)
        return physical(t)

    schedule = dyn.DriveSchedule(sampler, 0.5, 2.5e-3)
    with pytest.raises(ValueError, match=r"is 8 x 8, but the generator acts on 2n = 6"):
        dyn.propagate_schedule(schedule, ns.TwoPointMatrix(np.eye(8)))
    assert len(calls) == 1


def mode_correlation_readout(U, T):
    """Reference: T(t) = 2 (U S0 U^T)[odd, odd] (1-based) with the 4n x 4n
    adjoint-Majorana correlations S0 = <1| a_r a_s |rho> of T."""
    S = np.empty((2 * len(T), 2 * len(T)), dtype=complex)
    S[0::2, 0::2] = T / 2.0
    S[0::2, 1::2] = -0.5j * T.T
    S[1::2, 0::2] = 0.5j * T
    S[1::2, 1::2] = T.T / 2.0
    return 2.0 * (U @ S @ U.T)[0::2, 0::2]


def test_schedule_matches_the_mode_correlation_readout():
    n = 24
    schedule = dyn.DriveSchedule(lindblad_drive(n), 0.5, 2.5e-3)
    T0 = steady_state(mdl.xy_lindblad_model(mdl.ChainParams(n, 0.5, 0.5))).two_point
    U, _, _ = dyn.time_ordered_propagator(schedule)
    ref = mode_correlation_readout(U, T0.T)
    assert np.abs(dyn.propagate_schedule(schedule, T0).T - ref).max() < 1e-13


def test_schedule_matches_the_generator_route():
    # T(t) from U S0 U^T against the paper's route: C = log(U)/2 taken as
    # a static Liouvillean for unit time
    n = 6
    schedule = dyn.DriveSchedule(lindblad_drive(n), 0.5, 2.5e-3)
    T0 = steady_state(mdl.xy_lindblad_model(mdl.ChainParams(n, 0.5, 0.5))).two_point
    Tt = dyn.propagate_schedule(schedule, T0)
    _, C, _ = dyn.time_ordered_propagator(schedule)
    ref = dyn.propagate_two_point(sp.normal_modes(sp.StructureMatrix(C, 0.0)), T0, 1.0)
    assert np.abs(Tt.T - ref.T).max() < 1e-10


def structure_from_pair(X, Y):
    """A trace-preserving 4n x 4n A with the given X and antisymmetric Y:
    the inverse of ``spectra._lyapunov_pair``."""
    s = -0.5 * (X - X.T)
    d = -0.5j * Y
    p = 0.5 * Y
    m = 0.5j * (X + X.T)
    A = np.empty((2 * len(X), 2 * len(X)), dtype=complex)
    A[0::2, 0::2] = 0.5 * (s + d)
    A[1::2, 1::2] = 0.5 * (s - d)
    A[0::2, 1::2] = 0.5 * (p + m)
    A[1::2, 0::2] = 0.5 * (p - m)
    return A


def non_hermitian_drive(n):
    """The Lindblad drive with a fixed complex kick to X and Y: trace
    preserving, antisymmetric, but not Hermiticity preserving."""
    physical = lindblad_drive(n)
    rng = np.random.default_rng(11)
    dX = 0.1 * (rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n)))
    dY = 0.1 * (rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n)))
    dA = structure_from_pair(dX, dY - dY.T)

    def sampler(t):
        A, A0 = physical(t)
        return A + dA, A0

    return sampler


def van_loan_blocks(X, Y, dt):
    """Reference: Phi and W from expm of the 4n x 4n Van Loan block."""
    two_n = len(X)
    E = sla.expm(dt * np.block([[-X, Y], [np.zeros_like(X), X.T]]))
    Phi = E[:two_n, :two_n]
    return Phi, E[:two_n, two_n:] @ Phi.T


@pytest.mark.parametrize("drive", [lindblad_drive, non_hermitian_drive])
def test_van_loan_step_matches_the_block_exponential(drive):
    A = drive(24)(0.3)[0]
    X, Y = sp._lyapunov_pair(A, 1e-12 * max(1.0, np.abs(A).max()))
    assert np.iscomplexobj(X) == (drive is non_hermitian_drive)
    # the benchmark's step, and one just inside the guard ||2A||_2 dt < 0.5
    for dt in (2.5e-3, 0.499 / (2 * np.linalg.norm(A, 2))):
        Phi, W = dyn._van_loan_step(X, Y, dt)
        ref_Phi, ref_W = van_loan_blocks(X, Y, dt)
        assert np.abs(Phi - ref_Phi).max() < 1e-13 * np.abs(ref_Phi).max()
        assert np.abs(W - ref_W).max() < 1e-13 * np.abs(ref_W).max()


def test_schedule_matches_the_ordered_product_on_a_non_hermitian_drive():
    # trace preserving but not Hermiticity preserving: Z turns complex
    # at the first step, and the 4n x 4n complex product is the reference
    n = 3
    sampler = non_hermitian_drive(n)
    T0 = steady_state(mdl.xy_lindblad_model(mdl.ChainParams(n, 0.5, 0.5))).two_point
    Tt = dyn.propagate_schedule(dyn.DriveSchedule(sampler, 0.4, 5e-3), T0)
    ref = mode_correlation_readout(complex_ordered_product(sampler, 0.4, 5e-3), T0.T)
    assert np.abs(Tt.T.real - np.eye(2 * n)).max() > 1e-3
    assert np.abs(Tt.T - ref).max() < 1e-12


def test_schedule_rejects_a_sample_that_is_not_trace_preserving():
    physical = lindblad_drive(3)
    kick = np.zeros((12, 12), dtype=complex)
    kick[0, 2], kick[2, 0] = 0.1, -0.1  # antisymmetric, in the c.c block

    def sampler(t):
        A, A0 = physical(t)
        return A + kick, A0

    schedule = dyn.DriveSchedule(sampler, 0.5, 2.5e-3)
    with pytest.raises(ValueError, match="not trace preserving"):
        dyn.propagate_schedule(schedule, ns.TwoPointMatrix(np.eye(6)))


def test_schedule_rejects_a_sample_not_of_order_4n():
    # antisymmetric and trace preserving, but 6 x 6: with a 3 x 3 initial
    # matrix it was stepped as a chain of 1.5 sites
    A = np.zeros((6, 6), dtype=complex)
    A[0, 1], A[1, 0] = 0.5, -0.5
    calls = []

    def sampler(t):
        calls.append(t)
        return A, 0.0

    schedule = dyn.DriveSchedule(sampler, 0.5, 2.5e-3)
    with pytest.raises(ValueError, match=r"shape \(6, 6\): expected a square matrix of order 4n"):
        dyn.propagate_schedule(schedule, ns.TwoPointMatrix(np.eye(3)))
    assert len(calls) == 1


def non_square_schedule():
    return dyn.DriveSchedule(lambda t: (np.zeros((8, 4), dtype=complex), 0.0), 0.5, 2.5e-3)


def test_schedule_rejects_a_sample_that_is_not_square():
    # the antisymmetry check broadcast A + A^T and failed inside numpy
    with pytest.raises(ValueError, match=r"shape \(8, 4\): expected a square matrix of order 4n"):
        dyn.propagate_schedule(non_square_schedule(), ns.TwoPointMatrix(np.eye(4)))


def test_propagator_rejects_a_sample_that_is_not_square():
    with pytest.raises(ValueError, match=r"shape \(8, 4\): expected a square matrix of order 4n"):
        dyn.time_ordered_propagator(non_square_schedule())


def test_schedule_rejects_an_initial_matrix_that_is_not_a_state():
    # T + T^T = 2 holds for the two-point matrix of every state; the
    # check comes before the first sample
    calls = []
    physical = lindblad_drive(3)

    def sampler(t):
        calls.append(t)
        return physical(t)

    schedule = dyn.DriveSchedule(sampler, 0.5, 2.5e-3)
    T0 = np.eye(6, dtype=complex)
    T0[0, 1] = T0[1, 0] = 1e-6
    with pytest.raises(ValueError, match=r"\|T \+ T\^T - 2\| = 2e-06: it is not"):
        dyn.propagate_schedule(schedule, ns.TwoPointMatrix(T0))
    assert calls == []


def test_schedule_step_guard(redfield_n2):
    st = sp.structure_matrix(redfield_n2)
    dt = 0.3 / np.linalg.norm(st.A, 2)
    with pytest.raises(dyn.StepTooLargeError, match=r"^\|\|2A\|\| dt = 0\.600 >= 0\.5 at step 0$"):
        dyn.propagate_schedule(static_schedule(st.A, st.A0, 4 * dt, dt),
                               ns.TwoPointMatrix(np.eye(4)))


def test_schedule_exponentiates_nothing(monkeypatch):
    # the n = 24 drive of the benchmark: 2n x 2n products only, and a real
    # Z throughout (T - 1 stays exactly imaginary)
    calls = []
    expm = sla.expm
    monkeypatch.setattr(sla, "expm", lambda *a, **k: calls.append(1) or expm(*a, **k))
    n = 24
    schedule = dyn.DriveSchedule(lindblad_drive(n), 0.5, 2.5e-3)
    Tt = dyn.propagate_schedule(schedule, ns.TwoPointMatrix(np.eye(2 * n)))
    assert calls == []
    assert np.array_equal(Tt.T.real, np.eye(2 * n))
    dyn.time_ordered_propagator(dyn.DriveSchedule(lindblad_drive(n), 5e-3, 2.5e-3))
    assert len(calls) == 2  # the counter sees the cross-check route


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


@pytest.mark.parametrize(
    "build, n", [(mdl.xy_redfield_model, 20), (mdl.xy_lindblad_model, 24)]
)
def test_propagate_matches_dense_relaxation(build, n):
    # T(t) = T_ness + expm(-Xt) (T0 - T_ness) expm(-X^T t) with the X of the
    # Lyapunov form, for a quench from the steady state at another field
    model = build(mdl.ChainParams(n, 0.5, 0.9))
    modes = sp.normal_modes(sp.structure_matrix(model))
    X = sp.lyapunov_form(model).X
    T_ness = steady_state(model).two_point.T
    T0 = steady_state(build(mdl.ChainParams(n, 0.5, 0.5))).two_point
    for t in (0.0, 0.3, 2.0, 15.0):
        K = sla.expm(-X * t)
        dense = T_ness + K @ (T0.T - T_ness) @ K.T
        assert np.abs(dyn.propagate_two_point(modes, T0, t).T - dense).max() < 1e-12


def relaxation_by_mode_pairs(modes, initial, t):
    """Reference: T_ness + R (D o E(t)) R^T with D = G (T(0) - T_ness) G^T
    and E_rs(t) = exp(-t(lambda_r + lambda_s)), everything rebuilt from
    the normal modes on each call."""
    T_ness = ns.ness_two_point(modes).T
    V = modes.V
    R = np.sqrt(2.0) * V[1::2, 0::2].T
    G = (V[0::2, 0::2] + 1j * V[0::2, 1::2]) / np.sqrt(2.0)
    lam = 2.0 * modes.rapidities
    D = G @ (initial.T - T_ness) @ G.T
    E = np.exp(-t * (lam[:, None] + lam[None, :]))
    return T_ness + R @ (D * E) @ R.T


def structure_of(X, Y):
    """Trace-preserving structure matrix whose ``normal_modes`` read back
    X and Y; a complex X gives one without the conjugation symmetry."""
    S, Q, P = -(X - X.T) / 2, 0.5j * (X + X.T), Y / 2
    D = -1j * P
    A = np.empty((2 * len(X), 2 * len(X)), dtype=complex)
    A[0::2, 0::2], A[1::2, 1::2] = (S + D) / 2, (S - D) / 2
    A[0::2, 1::2], A[1::2, 0::2] = (P + Q) / 2, (P - Q) / 2
    return sp.StructureMatrix(A, 0.0)


def quench_cases():
    """(modes, T0, X, Y): the normal modes of a static generator with its
    Lyapunov pair, and a state to quench from."""
    for build, n in ((mdl.xy_redfield_model, 20), (mdl.xy_lindblad_model, 24)):
        model = build(mdl.ChainParams(n, 0.5, 0.9))
        form = sp.lyapunov_form(model)
        T0 = steady_state(build(mdl.ChainParams(n, 0.5, 0.5))).two_point
        yield sp.normal_modes(sp.structure_matrix(model)), T0, form.X, form.Y
    # the generator C = log(U)/2 of a drive taken as a static Liouvillean
    n = 6
    _, C, _ = dyn.time_ordered_propagator(dyn.DriveSchedule(lindblad_drive(n), 0.5, 2.5e-3))
    T0 = steady_state(mdl.xy_lindblad_model(mdl.ChainParams(n, 0.5, 0.5))).two_point
    yield (sp.normal_modes(sp.StructureMatrix(C, 0.0)), T0,
           *sp._lyapunov_pair(C, 1e-12 * max(1.0, np.abs(C).max())))
    # C keeps the conjugation symmetry, so its X is real; this X is not
    form = sp.lyapunov_form(mdl.xy_lindblad_model(mdl.ChainParams(3, 0.5, 0.9)))
    X = form.X + 0.05j * np.random.default_rng(7).normal(size=form.X.shape)
    T0 = steady_state(mdl.xy_lindblad_model(mdl.ChainParams(3, 0.5, 0.5))).two_point
    yield sp.normal_modes(structure_of(X, form.Y)), T0, X, form.Y


def complex_pair_basis(modes):
    """The complex eigenvectors R_c of X and G_c = R_c^-1, rebuilt from the
    blocks of ``modes``: columns (f, f + 1) of a pair of a real R hold
    (Re r, Im r) of the eigenvector r of the +Im rapidity f, so they
    become r and conj r."""
    R = modes.R.astype(complex)
    if np.isrealobj(modes.R):
        for f in np.flatnonzero(modes.rapidities.imag > 0):
            p, q = modes.R[:, f], modes.R[:, f + 1]
            R[:, f], R[:, f + 1] = p + 1j * q, p - 1j * q
    return R, np.linalg.inv(R)


def block_lambda(modes):
    """Lambda with X R = R Lambda: diag(2 beta) for a complex R, and for a
    real one [[a, b], [-b, a]] on the columns (f, f + 1) of each pair
    2 beta_f = a + ib."""
    lam = 2.0 * modes.rapidities
    if np.iscomplexobj(modes.R):
        return np.diag(lam)
    L = np.diag(lam.real)
    for f in np.flatnonzero(lam.imag > 0):
        L[f, f + 1], L[f + 1, f] = lam[f].imag, -lam[f].imag
    return L


def complex_mode_steady_state(X, Y):
    """Reference: Z = R Z~ R^T with one complex eig X R = R diag(lambda),
    G = R^-1 and Z~ = G Y G^T / (lambda_i + lambda_j), real when X and Y
    are: the normal-mode steady state of complex eigenvectors."""
    lam, R = np.linalg.eig(X)
    R = R.astype(complex)
    G = np.linalg.inv(R)
    Z = R @ (G @ Y @ G.T / (lam[:, None] + lam)) @ R.T
    if np.isrealobj(X) and np.isrealobj(Y):
        Z = Z.real
    return 0.5 * (Z - Z.T)


def real_basis_cases():
    for modes, _, X, Y in quench_cases():
        yield modes, X, Y
    # Redfield n = 100 at h = 0.9: 2 real eigenvalues among the pairs
    model = mdl.xy_redfield_model(mdl.ChainParams(100, 0.5, 0.9))
    form = sp.lyapunov_form(model)
    yield sp.normal_modes(model), form.X, form.Y


def test_normal_modes_real_blocks():
    blocks = set()
    for modes, X, Y in real_basis_cases():
        R, G, L = modes.R, modes.G, block_lambda(modes)
        assert np.isrealobj(R) == np.isrealobj(G) == np.isrealobj(modes.Z) == np.isrealobj(X)
        scale = np.abs(X).sum(axis=0).max()
        assert np.abs(X @ R - R @ L).max() < 1e-12 * scale
        assert np.abs(G @ R - np.eye(len(R))).max() < 1e-12
        for t in (0.0, 0.3, 2.0, 15.0):
            assert np.abs(R @ sla.expm(-L * t) @ G - sla.expm(-X * t)).max() < 1e-12
        assert np.abs(modes.Z - complex_mode_steady_state(X, Y)).max() < 1e-12
        if np.isrealobj(R):
            blocks.add(int((modes.rapidities.imag == 0).sum()))
    assert 2 in blocks  # mixed 1 x 1 and 2 x 2 blocks were seen


def test_propagate_matches_the_mode_pair_formula():
    for modes, T0, *_ in quench_cases():
        for t in (0.0, 0.3, 1.0, 2.0, 15.0):
            ref = relaxation_by_mode_pairs(modes, T0, t)
            assert np.abs(dyn.propagate_two_point(modes, T0, t).T - ref).max() < 1e-12


def test_normal_modes_fields_are_the_readouts_off_V():
    # the paper's readouts off the 4n x 4n rows: R_c^T/sqrt2 in the odd
    # columns of the -beta rows, sqrt2 G_c from the two column sets of the
    # +beta rows, and T = 2 (-beta rows)^T (+beta rows) on the odd columns,
    # with R_c, G_c the complex pair basis of the fields
    for modes, *_ in quench_cases():
        V = modes.V
        R = np.sqrt(2.0) * V[1::2, 0::2].T
        G = (V[0::2, 0::2] + 1j * V[0::2, 1::2]) / np.sqrt(2.0)
        T = 2.0 * V[1::2, 0::2].T @ V[0::2, 0::2]
        Rc, Gc = complex_pair_basis(modes)
        assert np.abs(Rc - R).max() < 1e-12
        assert np.abs(Gc - G).max() < 1e-12
        assert np.abs(ns.ness_two_point(modes).T - T).max() < 1e-12


def correlator_by_one_product(modes, pair_jk, pair_lm, times):
    """Reference: C(t) = T_jk T_lm + e(t) . W e(t) with the dense
    W = (R_j x R_k) o (u_m u_l^T - u_l u_m^T), u = G T_ness[:, l|m], and
    e(t) = exp(-lambda t) for all times in one (times x 2n) array, with
    the complex pair basis R, G."""
    j, k = pair_jk
    l, m = pair_lm
    T, (R, G) = ns.ness_two_point(modes).T, complex_pair_basis(modes)
    ul, um = G @ T[:, l - 1], G @ T[:, m - 1]
    W = np.outer(R[j - 1], R[k - 1]) * (np.outer(um, ul) - np.outer(ul, um))
    e = np.exp(-np.outer(np.atleast_1d(times), 2.0 * modes.rapidities))
    return T[j - 1, k - 1] * T[l - 1, m - 1] + ((e @ W) * e).sum(axis=1)


def test_correlator_matches_the_one_product_formula():
    times = np.linspace(0.0, 20.0, 101)
    pairs = (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((2, 6), (5, 1)), ((4, 4), (1, 6)))
    for modes, *_ in quench_cases():
        for pair_jk, pair_lm in pairs:
            ref = correlator_by_one_product(modes, pair_jk, pair_lm, times)
            got = dyn.dynamic_correlator(modes, pair_jk, pair_lm, times)
            assert np.abs(got - ref).max() < 1e-12
            scalar = dyn.dynamic_correlator(modes, pair_jk, pair_lm, 0.7)
            assert isinstance(scalar, complex)
            assert abs(scalar - correlator_by_one_product(modes, pair_jk, pair_lm, 0.7)[0]) < 1e-12


def test_correlator_peak_does_not_grow_with_the_number_of_times():
    # beyond the returned array (one complex per time), the peak is a block
    # of times, the same for 101 and 20001 of them
    n = 20
    modes = sp.normal_modes(mdl.xy_redfield_model(mdl.ChainParams(n, 0.5, 0.9)))
    extra = []
    for count in (101, 20001):
        times = np.linspace(0.0, 20.0, count)
        tracemalloc.start()
        try:
            out = dyn.dynamic_correlator(modes, (1, 2), (3, 4), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - out.nbytes)
    assert abs(extra[1] - extra[0]) < (2 * n) ** 2 * 16  # one 2n x 2n complex matrix


def test_relaxation_refuses_a_non_unique_state_on_every_call():
    # the modes of test_two_point_requires_unique_steady_state: no bath
    H = mdl.build_xy_hamiltonian(mdl.ChainParams(2, 0.5, 0.9))
    st = sp.assemble_structure_matrix(H, np.zeros((4, 4), dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sp.ZeroRapidityWarning)
        modes = sp.normal_modes(st)
    T0 = ns.TwoPointMatrix(np.eye(4))
    for _ in range(2):
        with pytest.raises(ns.NonUniqueNESSError):
            dyn.propagate_two_point(modes, T0, 1.0)
    with pytest.raises(ns.NonUniqueNESSError):
        dyn.dynamic_correlator(modes, (1, 2), (3, 4), 1.0)


def test_two_initial_states_on_the_same_modes():
    # the second state must not see anything kept from the first
    n = 20
    model = mdl.xy_redfield_model(mdl.ChainParams(n, 0.5, 0.9))
    modes = sp.normal_modes(sp.structure_matrix(model))
    X = sp.lyapunov_form(model).X
    T_ness = steady_state(model).two_point.T
    states = (steady_state(mdl.xy_redfield_model(mdl.ChainParams(n, 0.5, 0.5))).two_point,
              ns.TwoPointMatrix(np.eye(2 * n)))
    for t in (0.3, 2.0):
        K = sla.expm(-X * t)
        for T0 in states:
            dense = T_ness + K @ (T0.T - T_ness) @ K.T
            assert np.abs(dyn.propagate_two_point(modes, T0, t).T - dense).max() < 1e-12


def test_propagate_rejects_an_initial_state_of_another_size(redfield_n2):
    modes = sp.normal_modes(sp.structure_matrix(redfield_n2))
    with pytest.raises(ValueError, match=r"but the generator acts on 2n = 4"):
        dyn.propagate_two_point(modes, ns.TwoPointMatrix(np.eye(6)), 1.0)
    # a matrix that is not square is refused when the state is made
    with pytest.raises(ValueError, match=r"must be square, got shape \(4, 3\)"):
        ns.TwoPointMatrix(np.eye(4)[:, :3])
    with pytest.raises(ValueError, match=r"must be square, got shape \(4,\)"):
        ns.TwoPointMatrix(np.ones(4))


@pytest.mark.parametrize("t", [-500.0, -1e-3, np.nan, np.inf])
def test_time_must_be_finite_and_nonnegative(redfield_n2, t):
    # t = -500 from T0 = 1 grew to |T| ~ 5e38 at n = 4; NaN gave a NaN matrix
    modes = sp.normal_modes(sp.structure_matrix(redfield_n2))
    T0 = ns.TwoPointMatrix(np.eye(4))
    with pytest.raises(ValueError, match=r"finite t >= 0"):
        dyn.propagate_two_point(modes, T0, t)
    with pytest.raises(ValueError, match=r"finite t >= 0"):
        dyn.dynamic_correlator(modes, (1, 2), (3, 4), [0.0, t])


def driven_n2_dense(t_final):
    """Schedule, T0 and the two-point matrix at t_final of brute-force
    integration on the dense 4^n Liouvillean, for a sinusoidally driven
    field on an n = 2 Lindblad chain."""
    rates = (0.5, 0.3, 0.5, 0.1)
    ls = mdl.lindblad_jump_vectors(2, rates)

    def h_of_t(t):
        return 0.9 + 0.4 * np.sin(1.3 * t)

    schedule = dyn.DriveSchedule(lindblad_drive(2), t_final, 1e-3)
    ws = orc.dense_majoranas(2)
    rho0 = orc.gibbs_state(
        orc.dense_quadratic(mdl.build_xy_hamiltonian(mdl.ChainParams(2, 0.5, 0.9)), ws),
        0.7,
    )
    T0 = ns.TwoPointMatrix(orc.two_point_matrix(rho0, ws))

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
    return schedule, T0, orc.two_point_matrix(orc.unvec(sol.y[:, -1]), ws)


def test_driven_propagation_matches_dense_integration():
    # sinusoidally driven field on a Lindblad chain: propagate through the
    # ordered product and compare against brute-force integration
    schedule, T0, T_exact = driven_n2_dense(2.0)
    Tt = dyn.propagate_schedule(schedule, T0)
    assert np.abs(Tt.T - T_exact).max() < 1e-6


def test_driven_propagation_past_the_branch_cut():
    # at t = 2.25 an eigenvalue of U sits on the negative real axis: the
    # generator is refused, the propagation is not
    schedule, T0, T_exact = driven_n2_dense(2.25)
    with pytest.raises(dyn.BranchAmbiguityError):
        dyn.time_ordered_propagator(schedule)
    Tt = dyn.propagate_schedule(schedule, T0)
    assert np.abs(Tt.T - T_exact).max() < 1e-6


def test_propagate_refuses_an_initial_matrix_that_is_not_a_state(redfield_n2):
    # 2 x identity gave |T + T^T - 2| = 2.0, 1.79 and 0.61 at t = 0, 1 and 5
    modes = sp.normal_modes(sp.structure_matrix(redfield_n2))
    for t in (0.0, 1.0, 5.0):
        with pytest.raises(ValueError, match=r"\|T \+ T\^T - 2\| = 2: it is not"):
            dyn.propagate_two_point(modes, ns.TwoPointMatrix(2 * np.eye(4)), t)


def refuse_t(monkeypatch):
    def refuse(self):
        raise AssertionError("T was built")

    monkeypatch.setattr(ns.TwoPointMatrix, "T", property(refuse))


def test_propagators_build_no_t(monkeypatch):
    modes = sp.normal_modes(mdl.xy_redfield_model(mdl.ChainParams(3, 0.5, 0.9)))
    initial = ns.TwoPointMatrix(np.eye(6))
    schedule = dyn.DriveSchedule(lindblad_drive(3), 0.05, 2.5e-3)
    refuse_t(monkeypatch)
    for two_point in (initial, ns.ness_two_point(modes)):
        dyn.propagate_two_point(modes, two_point, 1.0)
        dyn.propagate_schedule(schedule, two_point)


@pytest.mark.parametrize("propagate", ["propagate_two_point", "propagate_schedule"])
def test_t_of_a_propagated_state_round_trips_bit_for_bit(propagate):
    modes = sp.normal_modes(mdl.xy_redfield_model(mdl.ChainParams(3, 0.5, 0.9)))
    initial = ns.ness_two_point(sp.normal_modes(mdl.xy_redfield_model(
        mdl.ChainParams(3, 0.5, 1.4))))
    if propagate == "propagate_two_point":
        two_point = dyn.propagate_two_point(modes, initial, 2.0)
    else:
        two_point = dyn.propagate_schedule(dyn.DriveSchedule(lindblad_drive(3), 0.05, 2.5e-3),
                                           initial)
    B, T = two_point.B, two_point.T
    assert B.dtype == np.float64 and not B.flags.writeable and B is two_point._z
    assert T.imag.tobytes() == B.tobytes()
    assert T.real.tobytes() == np.eye(len(B)).tobytes()
    again = ns.TwoPointMatrix(T)
    assert again.B.tobytes() == B.tobytes() and again.T.tobytes() == T.tobytes()


def test_propagation_allocates_one_buffer_beyond_its_state():
    # two 2n x 2n buffers: Z(0) - Z, which becomes Z(t), and one for the
    # products.  Measured 2.2 real (2n)^2 matrices in all; 5.4 while
    # e^{-Xt} and its products were formed apart and a complex T returned
    model = mdl.xy_redfield_model(mdl.ChainParams(100, 0.5, 0.9))
    modes = sp.normal_modes(model)
    initial = steady_state(mdl.xy_redfield_model(mdl.ChainParams(100, 0.5, 1.4))).two_point
    dyn.propagate_two_point(modes, initial, 1.0)  # first-call allocations
    tracemalloc.start()
    try:
        out = dyn.propagate_two_point(modes, initial, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    complex_matrix = 200**2 * 16
    assert peak - out.B.nbytes < complex_matrix, (peak - out.B.nbytes) / complex_matrix
