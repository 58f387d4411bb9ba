"""Cross-checks of the pipeline against the dense oracle.

Each check computes one observable family both ways at small n and
reports the maximum absolute deviation.  The observables come from the
Lyapunov steady state that every run uses; the two-point matrix of the
normal-mode route is checked as well.  Used by the oracle_check task
of the runner and by the acceptance tests.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import ness as ns
from . import oracle as orc
from . import spectra as sp
from .model import QuadraticModel

__all__ = ["oracle_check_table", "spectrum_deviation"]


def spectrum_deviation(evals_a, evals_b) -> float:
    """Multiset distance: optimal matching of two eigenvalue lists."""
    a = np.asarray(evals_a)
    b = np.asarray(evals_b)
    if len(a) != len(b):
        raise ValueError("spectra have different sizes")
    cost = np.abs(a[:, None] - b[None, :])
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max())


def oracle_check_table(model: QuadraticModel) -> list[tuple[str, float]]:
    """All pipeline-vs-oracle deviations for one small model (n <= 3)."""
    params = model.params
    n = model.n
    if n > 3:
        raise ValueError("oracle checks are limited to n <= 3")
    ws = orc.dense_majoranas(n)
    if model.is_lindblad:
        liouv = orc.dense_liouvillean(model)
    else:
        liouv = orc.dense_liouvillean(model, sp.bath_vectors(model))
    rho = orc.oracle_ness(liouv)
    state = ns.steady_state(model)
    T = state.two_point
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sp.ZeroRapidityWarning)
        T_modes = ns.ness_two_point(sp.normal_modes(sp.structure_matrix(model)))

    checks: list[tuple[str, float]] = []
    ones = orc.vec(np.eye(liouv.dim))
    checks.append(("trace_preservation", float(np.abs(ones @ liouv.L).max())))

    T_o = orc.two_point_matrix(rho, ws)
    checks.append(("two_point_matrix", float(np.abs(T.T - T_o).max())))
    checks.append(
        ("two_point_matrix_normal_modes", float(np.abs(T_modes.T - T_o).max()))
    )

    # spin-spin correlators via Wick vs exact trace
    sz = [-1j * ws[2 * m] @ ws[2 * m + 1] for m in range(n)]
    dev = 0.0
    for l in range(n):
        for m in range(n):
            conn = orc.oracle_expectation(rho, sz[l] @ sz[m]) - orc.oracle_expectation(
                rho, sz[l]
            ) * orc.oracle_expectation(rho, sz[m])
            dev = max(dev, abs(ns.spin_spin_correlator(T, l + 1, m + 1) - conn))
    checks.append(("spin_correlators", float(dev)))

    dev = 0.0
    for m in range(n):
        dev = max(
            dev,
            abs(
                ns.magnetization_profile(T)[m]
                - orc.oracle_expectation(rho, sz[m]).real
            ),
        )
    checks.append(("magnetization", float(dev)))

    if params is not None and n >= 3:
        hmats = ns.energy_density_matrices(params)
        dens = ns.energy_density_profile(T, params)
        dev_h = 0.0
        for m, P in enumerate(hmats):
            val = orc.oracle_expectation(rho, orc.dense_quadratic(P, ws))
            dev_h = max(dev_h, abs(dens[m] - val.real))
        checks.append(("energy_density", float(dev_h)))
        dev_q = 0.0
        qprof = ns.heat_current_profile(T, params)
        for m in range(n - 2):
            Qop = orc.dense_quadratic(
                1j * ns.commutator_quadratic(hmats[m], hmats[m + 1]), ws
            )
            dev_q = max(dev_q, abs(qprof[m] - orc.oracle_expectation(rho, Qop).real))
        checks.append(("heat_current", float(dev_q)))

    # block entropies on every contiguous block starting at site 1
    dev = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ns.PositivityWarning)
        for size in range(1, n + 1):
            s_pipe = ns.block_entropy(T, range(1, size + 1))
            rho_a = orc.oracle_reduced(rho, range(size), n)
            dev = max(dev, abs(s_pipe - orc.von_neumann_entropy(rho_a)))
        checks.append(("block_entropy", float(dev)))
        if n % 2 == 0:
            qmi_pipe = ns.quantum_mutual_information(T)
            left = orc.oracle_reduced(rho, range(n // 2), n)
            right = orc.oracle_reduced(rho, range(n // 2, n), n)
            qmi_o = (
                orc.von_neumann_entropy(left)
                + orc.von_neumann_entropy(right)
                - orc.von_neumann_entropy(rho)
            )
            checks.append(("mutual_information", float(abs(qmi_pipe - qmi_o))))

    # even-sector Liouvillean spectrum vs binary rapidity combinations
    sel = sp.even_weight_selectors(n)
    lam_pipe = sp.liouvillean_eigenvalues(state, sel)
    lam_orc = np.linalg.eigvals(orc.even_sector_matrix(liouv))
    checks.append(("even_spectrum", spectrum_deviation(lam_pipe, lam_orc)))
    return checks
