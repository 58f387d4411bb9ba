"""Acceptance criteria, one test per criterion.

Every tolerance is pinned here.  Scaling-law fits declare their grids and
windows explicitly; windows follow the documented rule of discarding the
head points (boundary/contact transients) and staying above the
double-precision floor of the observable.  Run with ``pytest -s`` to see
the per-criterion summary lines.

The reported heat current is the commutator current Q_m = i[H_m, H_m+1]
(which satisfies the continuity equation exactly); the reference values
of the coupling-strength fit correspond to a current normalized at twice
that, so criterion 11 compares (2a, b).
"""

import warnings

import numpy as np
import pytest
import scipy.integrate as si

from openquad import cli
from openquad import dynamics as dyn
from openquad import model as mdl
from openquad import ness as ns
from openquad import oracle as orc
from openquad import spectra as sp
from openquad import steady_state
from openquad.validation import oracle_check_table, spectrum_deviation

pytestmark = pytest.mark.acceptance


def report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}"
    print(line)
    assert ok, line


def redfield(n, gamma, h, **kw):
    return mdl.xy_redfield_model(mdl.ChainParams(n, gamma, h), **kw)


def lindblad(n, gamma, h):
    return mdl.xy_lindblad_model(mdl.ChainParams(n, gamma, h))


def bulk_current(model, uniqueness_tol=1e-10):
    T = steady_state(model, uniqueness_tol).two_point
    Q = ns.heat_current_profile(T, model.params)
    return Q[2:-2]


def test_criterion_01_oracle_equivalence():
    """n in {2,3}, Redfield and Lindblad, 3 parameter points each: all
    pipeline observables match the dense oracle to 1e-8."""
    points = [
        dict(gamma=0.5, h=0.9, beta_L=0.3, beta_R=5.2, lam=0.1),
        dict(gamma=0.6, h=0.4, beta_L=1.0, beta_R=2.0, lam=0.15),
        dict(gamma=1.3, h=0.7, beta_L=0.7, beta_R=0.2, lam=0.08),
    ]
    worst = 0.0
    for n in (2, 3):
        for pt in points:
            model = redfield(n, pt["gamma"], pt["h"], beta_L=pt["beta_L"],
                             beta_R=pt["beta_R"], lam=pt["lam"])
            worst = max(worst, max(d for _, d in oracle_check_table(model)))
        for pt in points:
            model = lindblad(n, pt["gamma"], pt["h"])
            worst = max(worst, max(d for _, d in oracle_check_table(model)))
    report(1, "oracle equivalence", worst <= 1e-8, f"max deviation {worst:.2e}")


def test_criterion_02_gibbs_fixed_point():
    """Equal temperatures: the Liouvillean annihilates the Gibbs state and
    the pipeline steady state carries the Gibbs covariance."""
    worst_resid, worst_dev = 0.0, 0.0
    for beta in (0.5, 2.0, 5.0):
        model = redfield(3, 0.5, 0.9, beta_L=beta, beta_R=beta)
        liouv = orc.dense_liouvillean(model, sp.bath_vectors(model))
        ws = orc.dense_majoranas(3)
        rho_g = orc.gibbs_state(orc.dense_quadratic(model.H, ws), beta)
        resid = np.linalg.norm(liouv.L @ orc.vec(rho_g)) / np.linalg.norm(
            orc.vec(rho_g)
        )
        T = steady_state(model).two_point
        dev = np.abs(T.T - orc.two_point_matrix(rho_g, ws)).max()
        worst_resid = max(worst_resid, resid)
        worst_dev = max(worst_dev, dev)
    ok = worst_resid <= 1e-10 and worst_dev <= 1e-8
    report(2, "gibbs fixed point", ok,
           f"residual {worst_resid:.2e}, covariance dev {worst_dev:.2e}")


def test_criterion_03_spectrum_identity():
    """Even-sector dense spectrum equals the binary rapidity combinations."""
    model = redfield(2, 0.5, 0.9)
    modes = sp.normal_modes(sp.structure_matrix(model))
    liouv = orc.dense_liouvillean(model, sp.bath_vectors(model))
    lam_pipe = sp.liouvillean_eigenvalues(modes, sp.even_weight_selectors(2))
    lam_orc = np.linalg.eigvals(orc.even_sector_matrix(liouv))
    dev = spectrum_deviation(lam_pipe, lam_orc)
    report(3, "spectrum identity", dev <= 1e-8, f"multiset distance {dev:.2e}")


def test_criterion_04_green_function_crosscheck():
    """Lyapunov steady state vs resolvent quadrature at n = 8."""
    model = redfield(8, 0.5, 0.9)
    st = sp.structure_matrix(model)
    state = steady_state(model)
    Tg = ns.ness_two_point_green(st, rapidity_hint=state.rapidities)
    dev = np.abs(state.two_point.T - Tg.T).max()
    report(4, "green-function crosscheck", dev <= 1e-6, f"entrywise dev {dev:.2e}")


def test_criterion_05_current_flatness_and_ballistic_scaling():
    """Bulk heat current is position independent and O(n^0)."""
    flat = bulk_current(redfield(40, 0.5, 0.9))
    rel_std = flat.std() / abs(flat.mean())
    means = [bulk_current(redfield(n, 0.5, 0.9)).mean() for n in (40, 80, 160)]
    spread = (max(means) - min(means)) / abs(np.mean(means))
    ok = rel_std <= 1e-7 and spread < 0.10
    report(5, "flat + ballistic current", ok,
           f"rel std {rel_std:.2e}, size spread {100 * spread:.2f}%")


def _cres(model):
    T = steady_state(model, uniqueness_tol=-np.inf).two_point
    return ns.residual_correlator(ns.correlation_matrix(T), model.params.n)


def test_criterion_06_phase_transition_scalings():
    """(a) 1/n law of the residual correlator in the long-range phase;
    (b) Redfield and (c) Lindblad exponential decay in the short-range
    phase with the reported rates.

    Windows: (a) grid n = 20..120 step 4 with the first 20% discarded
    (boundary transient; the quantity fluctuates on the beat scale set by
    the stationary wavenumber). (b) n = 5..15, between the contact
    transient and the double-precision floor that C_res hits near n = 18.
    (c) n = 14..28 step 2, the asymptotic straight-line regime."""
    sizes_a = np.arange(20, 121, 4)
    vals_a = np.array([_cres(redfield(int(n), 0.5, 0.2)) for n in sizes_a])
    drop = int(np.ceil(0.2 * len(sizes_a)))
    expo, _, _ = cli.fit_power_law(sizes_a[drop:], vals_a[drop:])
    ok_a = -1.15 <= expo <= -0.85

    sizes_b = np.arange(5, 16)
    vals_b = np.array([_cres(redfield(int(n), 0.5, 0.9)) for n in sizes_b])
    eta_r, _, _ = cli.fit_exponential(sizes_b, vals_b)
    ok_b = abs(eta_r - 1.192) <= 0.1 * 1.192

    sizes_c = np.arange(14, 29, 2)
    vals_c = np.array([_cres(lindblad(int(n), 0.5, 0.9)) for n in sizes_c])
    eta_l, _, _ = cli.fit_exponential(sizes_c, vals_c)
    ok_c = abs(eta_l - 0.937) <= 0.1 * 0.937

    report(6, "phase-transition scalings", ok_a and ok_b and ok_c,
           f"1/n exponent {expo:.3f}, eta_redfield {eta_r:.3f}, "
           f"eta_lindblad {eta_l:.3f}")


def test_criterion_07_correlation_decay_exponents():
    """Distance decay of the correlator at h = 1.05, gamma = 0.2, n = 200;
    fitted over r in [4, 14] (above the contact region, above the
    precision floor)."""
    rs = np.arange(4, 15)
    out = {}
    for kind, make in (("redfield", redfield), ("lindblad", lindblad)):
        model = make(200, 0.2, 1.05)
        T = steady_state(model).two_point
        decay = np.abs(ns.correlation_decay(ns.correlation_matrix(T)))
        xi, _, _ = cli.fit_exponential(rs, decay[rs])
        out[kind] = xi
    ok = abs(out["redfield"] - 1.635) <= 0.1 * 1.635 and abs(
        out["lindblad"] - 0.937
    ) <= 0.1 * 0.937
    report(7, "correlation decay exponents", ok,
           f"xi_redfield {out['redfield']:.3f}, xi_lindblad {out['lindblad']:.3f}")


def test_criterion_08_gap_scaling():
    """Liouvillean gap closes as n^-3 off criticality and n^-5 at h_c.
    Grid n = 32..96 step 8 (below n = 32 the h = 0.8 curve still carries
    its finite-size transient)."""
    sizes = np.arange(32, 97, 8)
    expos = {}
    for h in (0.3, 0.75, 0.8):
        gaps = []
        for n in sizes:
            model = redfield(int(n), 0.5, h)
            gaps.append(sp.spectral_gap(sp.lyapunov_form(model)))
        expos[h], _, _ = cli.fit_power_law(sizes, np.array(gaps))
    ok = (
        -3.3 <= expos[0.3] <= -2.7
        and -3.3 <= expos[0.8] <= -2.7
        and -5.5 <= expos[0.75] <= -4.5
    )
    report(8, "gap scaling", ok,
           f"exponents h=0.3: {expos[0.3]:.2f}, h=0.8: {expos[0.8]:.2f}, "
           f"h=0.75: {expos[0.75]:.2f}")


def test_criterion_09_delta_beta_quadratic_law():
    """Residual correlator grows as (delta beta)^2 around equilibrium."""
    dbs = np.array([0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0])
    vals = []
    for db in dbs:
        model = redfield(100, 0.5, 0.3, beta_L=2 - db / 2, beta_R=2 + db / 2)
        vals.append(_cres(model))
    expo, _, _ = cli.fit_power_law(dbs, np.array(vals))
    report(9, "delta-beta quadratic law", abs(expo - 2.0) <= 0.1,
           f"exponent {expo:.3f}")


def test_criterion_10_negative_differential_conductance():
    """The current is non-monotone in the driving: along the cold-bath
    line beta_R = 5.2 the current peaks at an interior beta_L near 0.05
    (the figure's 'shoulders of maxima around beta_L ~ 0.05, beta_R > 1');
    heating the left bath beyond the peak lowers the current."""
    bls = np.geomspace(0.005, 2.0, 18)
    qs = np.array(
        [
            bulk_current(
                redfield(53, 0.5, 0.9, beta_L=float(bl), beta_R=5.2),
                uniqueness_tol=-np.inf,
            ).mean()
            for bl in bls
        ]
    )
    k = int(np.argmax(qs))
    interior = 0 < k < len(qs) - 1
    drop_hot = qs[0] < 0.95 * qs[k]
    drop_cold = qs[-1] < 0.95 * qs[k]
    ok = interior and drop_hot and drop_cold
    report(10, "negative differential conductance", ok,
           f"max at beta_L={bls[k]:.3f}, edge ratios "
           f"{qs[0] / qs[k]:.2f}/{qs[-1] / qs[k]:.2f}")


def test_criterion_11_karevski_law():
    """Current vs coupling strength follows a lambda^2/(b + lambda^4) law
    with the reported constants; comparison uses (2a, b) because the
    reference values correspond to a current normalized at twice the
    commutator current."""
    lams = np.array([0.08, 0.12, 0.18, 0.27, 0.4, 0.6, 0.9])
    targets = {0.5: (0.040, 0.0070), 0.75: (0.066, 0.0076), 1.0: (0.088, 0.0071)}
    ok = True
    details = []
    for h, (a_t, b_t) in targets.items():
        qs = np.array(
            [
                bulk_current(
                    redfield(200, 0.5, h, lam=float(l)), uniqueness_tol=-np.inf
                ).mean()
                for l in lams
            ]
        )
        a, b, _ = cli.fit_karevski(lams, qs)
        ok = ok and abs(2 * a - a_t) <= 0.15 * a_t and abs(b - b_t) <= 0.15 * b_t
        details.append(f"h={h}: 2a={2 * a:.4f}/{a_t}, b={b:.5f}/{b_t}")
    report(11, "karevski law", ok, "; ".join(details))


def test_criterion_12_qmi_phase_signature():
    """Mutual information saturates above h_c and grows linearly below.
    The h = 0.3 growth is read off a least-squares line through I(n) on
    even n in [40, 140] (I(n) itself fluctuates on the commensuration
    beat scale); saturation at h = 0.9 is clean and tested directly."""
    def qmi(model):
        T = steady_state(model).two_point
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ns.PositivityWarning)
            return ns.quantum_mutual_information(T)

    sat_ratio = qmi(redfield(120, 0.5, 0.9)) / qmi(redfield(60, 0.5, 0.9))
    sizes = np.arange(40, 141, 4)
    vals = np.array([qmi(redfield(int(n), 0.5, 0.3)) for n in sizes])
    slope, icpt = np.polyfit(sizes, vals, 1)
    lin_ratio = (slope * 120 + icpt) / (slope * 60 + icpt)
    ok = sat_ratio < 1.2 and abs(lin_ratio - 2.0) <= 0.3
    report(12, "qmi phase signature", ok,
           f"saturation ratio {sat_ratio:.3f}, linear-growth ratio {lin_ratio:.3f}")


def test_criterion_13_dynamics():
    """Closed-form dynamical correlator and the driven propagator agree
    with dense-oracle evolution."""
    model = redfield(2, 0.5, 0.9)
    modes = sp.normal_modes(sp.structure_matrix(model))
    liouv = orc.dense_liouvillean(model, sp.bath_vectors(model))
    rho = orc.oracle_ness(liouv)
    ws = orc.dense_majoranas(2)
    gap = sp.spectral_gap(modes)
    times = np.linspace(0.0, 10.0 / gap, 9)
    vals = dyn.dynamic_correlator(modes, (1, 2), (3, 4), times)
    dev_corr = 0.0
    for i, t in enumerate(times):
        rt = orc.oracle_evolve(liouv, ws[2] @ ws[3] @ rho, t)
        dev_corr = max(dev_corr, abs(vals[i] - np.trace(ws[0] @ ws[1] @ rt)))

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
    rho0 = orc.gibbs_state(orc.dense_quadratic(model.H, ws), 0.7)
    T0 = ns.TwoPointMatrix(orc.two_point_matrix(rho0, ws))
    Tt = dyn.propagate_schedule(dyn.DriveSchedule(sampler, t_final, 1e-3), T0)
    jump_ops = [orc.dense_linear(l, ws) for l in ls]

    def rhs(t, v):
        Ht = orc.dense_quadratic(
            mdl.build_xy_hamiltonian(mdl.ChainParams(2, 0.5, h_of_t(t))), ws
        )
        rho_v = orc.unvec(v)
        out = -1j * (Ht @ rho_v - rho_v @ Ht)
        for L in jump_ops:
            Ld = L.conj().T
            out += 2 * L @ rho_v @ Ld - Ld @ L @ rho_v - rho_v @ Ld @ L
        return orc.vec(out)

    sol = si.solve_ivp(rhs, (0, t_final), orc.vec(rho0), rtol=1e-11, atol=1e-13)
    dev_drive = np.abs(
        Tt.T - orc.two_point_matrix(orc.unvec(sol.y[:, -1]), ws)
    ).max()
    ok = dev_corr <= 1e-8 and dev_drive <= 1e-6
    report(13, "dynamics", ok,
           f"correlator dev {dev_corr:.2e}, driven dev {dev_drive:.2e}")


def test_criterion_14_structural_invariants():
    """KMS, antisymmetry, symplectic normalization, two-point identities
    and positivity across the model test matrix."""
    # KMS identity of the bath spectral function
    omegas = np.concatenate([-np.geomspace(1e-3, 40, 25), np.geomspace(1e-3, 40, 25)])
    kms_dev = 0.0
    for beta in (0.3, 1.0, 5.2, 30.0):
        for w in omegas:
            if abs(beta * w) > 500:
                continue
            lhs = mdl.ohmic_spectral_function(-w, beta, 0.1)
            rhs = np.exp(beta * w) * mdl.ohmic_spectral_function(w, beta, 0.1)
            kms_dev = max(kms_dev, abs(lhs - rhs) / abs(rhs))

    matrix = [
        redfield(16, 0.5, 0.9),
        redfield(12, 0.5, 0.5, beta_L=1.1, beta_R=1.1),
        redfield(10, 0.0, 0.5),
        redfield(10, 1.3, 0.7),
        lindblad(16, 0.5, 0.9),
    ]
    dev_A = dev_J = dev_diag = dev_sym = excess = 0.0
    for model in matrix:
        st = sp.structure_matrix(model)
        dev_A = max(dev_A, np.abs(st.A + st.A.T).max())
        modes = sp.normal_modes(st)
        J = sp.symplectic_form(2 * model.n)
        dev_J = max(dev_J, np.abs(modes.V @ modes.V.T - J).max())
        # the identities hold for the steady state of both routes
        for T in (steady_state(model).two_point, ns.ness_two_point(modes)):
            dev_diag = max(dev_diag, np.abs(np.diag(T.T) - 1).max())
            dev_sym = max(
                dev_sym, np.abs(T.T + T.T.T - 2 * np.eye(2 * model.n)).max()
            )
            excess = max(excess, ns.positivity_excess(T))
    ok = (
        kms_dev <= 1e-12
        and dev_A <= 1e-12
        and dev_J <= 1e-9
        and dev_diag <= 1e-9
        and dev_sym <= 1e-9
        and excess <= 1e-6
    )
    report(14, "structural invariants", ok,
           f"KMS {kms_dev:.1e}, A^T+A {dev_A:.1e}, VV^T-J {dev_J:.1e}, "
           f"diag(T)-1 {dev_diag:.1e}, T+T^T-2 {dev_sym:.1e}, "
           f"positivity excess {excess:.1e}")
