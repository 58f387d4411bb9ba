"""Time-domain tools for static and driven quadratic Liouvilleans.

For a static Liouvillean the propagator is diagonal in the normal-master
-mode excitation basis, which yields closed-form steady-state dynamical
correlation functions and an O(n^3) propagation rule for the two-point
matrix of any Gaussian initial state.  Explicitly time-dependent
problems are handled through the time-ordered 4n x 4n group element
U = T exp(2 Int A(t) dt), which carries the initial correlations
<1| a_r a_s |rho> to S(t) = U S(0) U^T.  The effective generator
C = log(U)/2 is formed only on request (``time_ordered_propagator``);
``propagate_schedule`` never forms it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .ness import TwoPointMatrix, _check_unique, ness_two_point
from .spectra import NormalModes

__all__ = [
    "BranchAmbiguityError",
    "StepTooLargeError",
    "DriveSchedule",
    "dynamic_correlator",
    "time_ordered_propagator",
    "propagate_two_point",
    "propagate_schedule",
]


class BranchAmbiguityError(Exception):
    """An eigenvalue of the time-ordered propagator sits too close to the
    negative real axis; the principal matrix logarithm is unreliable."""


class StepTooLargeError(Exception):
    """The midpoint-rule step violates ||2 A|| dt < 0.5."""


@dataclass(frozen=True)
class DriveSchedule:
    """Sampled drive A(t), A0(t) on [0, t_final] with fixed step dt.

    ``sampler`` maps a time to the instantaneous structure matrix data;
    each sampled A must be antisymmetric.
    """

    sampler: Callable[[float], tuple[np.ndarray, complex]]
    t_final: float
    dt: float

    def __post_init__(self):
        if not (math.isfinite(self.t_final) and math.isfinite(self.dt)):
            raise ValueError("horizon and step must be finite")
        if self.t_final <= 0 or self.dt <= 0:
            raise ValueError("horizon and step must be positive")


def dynamic_correlator(modes: NormalModes, pair_jk, pair_lm, times) -> np.ndarray:
    """Steady-state response C_(j,k),(l,m)(t) = <w_j(t) w_k(t) w_l w_m>.

    Only zero- and two-excitation sectors contribute, giving the
    factorized static term plus a double sum over mode pairs weighted by
    exp(-2t(beta_r + beta_r')) = e_r(t) e_r'(t).  The pair weights W are
    symmetric with a zero diagonal, so the sum over r < r' is half the
    quadratic form e(t) . W e(t): one matrix product for all times, with
    memory linear in their number.  The relative sign of the
    two-excitation term is fixed by Wick's theorem at t = 0 (it comes out
    opposite to the obvious pairing because the two annihilation maps
    anticommute past each other when contracted).  Majorana indices are
    1-based; t >= 0.
    """
    _check_unique(modes)
    j, k = pair_jk
    l, m = pair_lm
    if not all(1 <= idx <= 2 * modes.n for idx in (j, k, l, m)):
        raise ValueError(f"Majorana indices must lie in 1..{2 * modes.n}")
    scalar = np.ndim(times) == 0
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if (times < 0).any():
        raise ValueError("correlator defined for t >= 0")
    V = modes.V
    beta = modes.rapidities
    cols = [2 * (idx - 1) for idx in (j, k, l, m)]  # odd 1-based -> 0-based even
    Ve = V[1::2]  # rows 2r (1-based)
    Vo = V[0::2]  # rows 2r-1 (1-based)
    uj, uk = Ve[:, cols[0]], Ve[:, cols[1]]
    vl, vm = Vo[:, cols[2]], Vo[:, cols[3]]
    static = 4.0 * (uj @ Vo[:, cols[1]]) * (Ve[:, cols[2]] @ vm)
    F = np.outer(uk, uj) - np.outer(uj, uk)
    G = np.outer(vm, vl) - np.outer(vl, vm)
    E = np.exp(-2.0 * np.outer(times, beta))
    out = static - 2.0 * ((E @ (F * G)) * E).sum(axis=1)
    return complex(out[0]) if scalar else out


def _real_form(A: np.ndarray, scale: float):
    """Real matrix W A W^dag for a structure matrix with the conjugation
    symmetry of a Hermiticity-preserving Liouvillean, else None.

    In the 1-based indices of ``spectra.assemble_structure_matrix`` such
    an A has A[even, even] = conj A[odd, odd] and A[even, odd] =
    conj A[odd, even].  With P = A[0::2, 0::2] and Q = A[0::2, 1::2], the
    unitary W that groups the odd indices before the even ones and then
    applies [[1, 1], [-i, i]]/sqrt2 gives the real matrix
    [[Re(P+Q), Im(Q-P)], [Im(P+Q), Re(P-Q)]].  The symmetry is tested
    with the tolerance of the antisymmetry check.
    """
    if A.shape[0] % 2:
        return None
    P, Q = A[0::2, 0::2], A[0::2, 1::2]
    tol = 1e-12 * scale
    if (np.abs(A[1::2, 1::2] - P.conj()).max() > tol
            or np.abs(A[1::2, 0::2] - Q.conj()).max() > tol):
        return None
    return np.block([[(P + Q).real, (Q - P).imag], [(P + Q).imag, (P - Q).real]])


def _complex_form(R: np.ndarray) -> np.ndarray:
    """W^dag R W: the inverse of ``_real_form``'s transformation."""
    half = R.shape[0] // 2
    R11, R12 = R[:half, :half], R[:half, half:]
    R21, R22 = R[half:, :half], R[half:, half:]
    P = 0.5 * ((R11 + R22) + 1j * (R21 - R12))
    Q = 0.5 * ((R11 - R22) + 1j * (R12 + R21))
    out = np.empty(R.shape, dtype=complex)
    out[0::2, 0::2] = P
    out[0::2, 1::2] = Q
    out[1::2, 0::2] = Q.conj()
    out[1::2, 1::2] = P.conj()
    return out


def _ordered_product(schedule: DriveSchedule):
    """U = T exp(2 Int_0^t A(tau) dtau) as an ordered product of midpoint
    exponentials, and C0 = Int A0.

    Samples with the conjugation symmetry of ``_real_form`` are
    exponentiated and multiplied as real matrices and U is transformed
    back once at the end; from the first sample without it on, the
    product is complex.  Raises StepTooLargeError when ||2 A||_2 dt >= 0.5
    at any midpoint (W is unitary, so the real form has the same norm).
    """
    n_steps = int(round(schedule.t_final / schedule.dt))
    if n_steps < 1 or abs(n_steps * schedule.dt - schedule.t_final) > 1e-9 * schedule.t_final:
        raise ValueError("t_final must be an integer number of steps")
    dt = schedule.dt
    U = None
    real = True
    C0 = 0.0 + 0.0j
    for i in range(n_steps):
        A, A0 = schedule.sampler((i + 0.5) * dt)
        A = np.asarray(A, dtype=complex)
        scale = max(1.0, np.abs(A).max())
        if np.abs(A + A.T).max() > 1e-12 * scale:
            raise ValueError("sampled structure matrix is not antisymmetric")
        gen = _real_form(A, scale) if real else None
        if gen is None:
            if real and U is not None:
                U = _complex_form(U)
            real = False
            gen = A
        # ||gen||_2 <= sqrt(||gen||_1 ||gen||_inf): the SVD of the exact
        # 2-norm is needed only when this bound reaches the limit
        abs_gen = np.abs(gen)
        bound = math.sqrt(abs_gen.sum(axis=0).max() * abs_gen.sum(axis=1).max())
        if 2.0 * bound * dt >= 0.5:
            norm = np.linalg.norm(gen, 2)
            if 2.0 * norm * dt >= 0.5:
                raise StepTooLargeError(f"||2A|| dt = {2 * norm * dt:.3f} >= 0.5 at step {i}")
        step = sla.expm(2.0 * dt * gen)
        U = step if U is None else step @ U  # later times act on the left
        C0 += complex(A0) * dt
    return (_complex_form(U) if real else U), C0


def time_ordered_propagator(schedule: DriveSchedule):
    """U = T exp(2 Int_0^t A(tau) dtau) by an ordered product of midpoint
    exponentials, and its generator (C, C0) with C = log(U)/2, C0 = Int A0.

    Second-order accurate in dt.  Raises StepTooLargeError when
    ||2 A|| dt >= 0.5 at any midpoint, and BranchAmbiguityError when an
    eigenvalue of U has phase within 0.1 rad of +-pi (principal log
    branch undefined).
    """
    U, C0 = _ordered_product(schedule)
    phases = np.angle(np.linalg.eigvals(U))
    if (np.abs(np.abs(phases) - np.pi) < 0.1).any():
        raise BranchAmbiguityError(
            "an eigenvalue of U lies within 0.1 rad of the branch cut"
        )
    C = 0.5 * sla.logm(U)
    C = 0.5 * (C - C.T)  # the exact generator is antisymmetric; strip noise
    return U, C, C0


def _mode_correlations(two_point: TwoPointMatrix) -> np.ndarray:
    """<1| a_r a_s |rho> for an even, trace-one state with two-point
    matrix T, over all 4n adjoint-Majorana indices."""
    T = two_point.T
    two_n = T.shape[0]
    S = np.empty((2 * two_n, 2 * two_n), dtype=complex)
    S[0::2, 0::2] = T / 2.0
    S[0::2, 1::2] = -0.5j * T.T
    S[1::2, 0::2] = 0.5j * T
    S[1::2, 1::2] = T.T / 2.0
    return S


def propagate_two_point(
    modes: NormalModes, initial: TwoPointMatrix, t: float
) -> TwoPointMatrix:
    """Evolve the two-point matrix of a Gaussian state for time t under
    the static Liouvillean with the given normal modes.

    T(t) = T_ness + 2 Ve^T (g o E(t)) Ve, where g_rs = <1| b_r b_s |rho0>
    collects the two-excitation content of the initial state and
    E_rs(t) = exp(-2t(beta_r + beta_s)).  T(t) -> T_ness at the rate set
    by the spectral gap.
    """
    _check_unique(modes)
    beta = modes.rapidities
    V = modes.V
    T_ness = ness_two_point(modes).T
    S = _mode_correlations(initial)
    Vplus = V[0::2]  # +beta rows define the annihilation maps b_r
    g = Vplus @ S @ Vplus.T
    g = 0.5 * (g - g.T)  # exactly antisymmetric in exact arithmetic
    E = np.exp(-2.0 * t * (beta[:, None] + beta[None, :]))
    Ve_odd = V[1::2, 0::2]
    T_t = T_ness + 2.0 * Ve_odd.T @ (g * E) @ Ve_odd
    return TwoPointMatrix(T_t)


def propagate_schedule(schedule: DriveSchedule, initial: TwoPointMatrix) -> TwoPointMatrix:
    """Two-point matrix after evolving ``initial`` through the full drive.

    The mode correlations S = <1| a_r a_s |rho> evolve as U S U^T under
    the time-ordered propagator U, and T = 2 S[odd, odd] (1-based).  The
    generator log(U)/2 is not formed, so no branch of the logarithm has
    to be chosen and any horizon the step guard admits is accepted.
    """
    U, _ = _ordered_product(schedule)
    U_odd = U[0::2]  # rows of the real adjoint Majoranas (1-based odd)
    return TwoPointMatrix(2.0 * U_odd @ _mode_correlations(initial) @ U_odd.T)
