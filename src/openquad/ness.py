"""Steady-state two-point matrix and every observable derived from it.

The non-equilibrium steady state of a quadratic Liouvillean is Gaussian:
it is fully described by T_jk = <w_j w_k> = delta_jk + i B_jk with a real
antisymmetric B.  This module solves for T from the real 2n x 2n
Lyapunov form (``steady_state``, the route every run takes), computes it
two more ways for cross-checks (from the normal-mode eigenvectors, which
solve the same Lyapunov equation by an eigendecomposition, and by
quadrature of the resolvent Green's function, which does not), and
evaluates magnetization, spin-spin correlators, heat currents, energy
densities, block entropies, and mutual information via Wick's theorem.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._blas import gram_eigenvalues, triangular_sylvester
from .model import _PANEL_ROWS, ChainParams, QuadraticModel
from .spectra import (
    ZERO_RAPIDITY_TOL,
    NormalModes,
    StructureMatrix,
    _lyapunov_rows,
    _real_schur,
    _x_from_rows,
    _y_rows,
)

__all__ = [
    "NonUniqueNESSError",
    "PositivityWarning",
    "TwoPointMatrix",
    "SteadyState",
    "ObservableReport",
    "steady_state",
    "ness_two_point",
    "ness_two_point_green",
    "quadratic_expectation",
    "commutator_quadratic",
    "wick_four_point",
    "energy_density_matrices",
    "magnetization_profile",
    "heat_current_profile",
    "energy_density_profile",
    "energy_fluctuation_profile",
    "spin_spin_correlator",
    "correlation_matrix",
    "residual_correlator",
    "correlation_decay",
    "correlation_spectrum",
    "block_entropy",
    "positivity_excess",
    "quantum_mutual_information",
    "observable_report",
]

RESIDUAL_TOL = 1e-10


class NonUniqueNESSError(Exception):
    """A rapidity real part (numerically) vanishes: no unique steady state."""


class PositivityWarning(UserWarning):
    """Correlation spectrum slightly exceeds 1: the Redfield steady state
    is not exactly positive (expected at low temperature / strong coupling)."""


@dataclass(frozen=True, init=False)
class TwoPointMatrix:
    """T_jk = <w_j w_k> of a Gaussian state; T = 1 + iB with B real
    antisymmetric.

    Held as Z = -i(T - 1), read-only: real, and then Z = B, for every
    physical state; complex only when T - 1 has a real part, as for
    unphysical test matrices and non-Hermitian drives.
    ``TwoPointMatrix(T)`` computes Z from T; the solvers and propagators
    hand over their Z through ``_two_point_from_b`` and build no T.
    ``T`` is rebuilt on each access and not kept, so the observables read
    Z: a complex 2n x 2n T is twice the size of B.
    """

    _z: np.ndarray

    def __init__(self, T):
        T = np.asarray(T, dtype=complex)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError(f"two-point matrix must be square, got shape {T.shape}")
        Z = T - np.eye(len(T))
        Z *= -1j
        self._keep(Z if Z.imag.any() else Z.real.copy())

    def _keep(self, Z: np.ndarray) -> None:
        Z.flags.writeable = False
        object.__setattr__(self, "_z", Z)
        if not np.iscomplexobj(Z):
            self.__dict__["B"] = Z  # what the cached property would return

    @property
    def n(self) -> int:
        return len(self._z) // 2

    @property
    def T(self) -> np.ndarray:
        """T = 1 + iZ as a new complex 2n x 2n array on each access."""
        idx = np.arange(len(self._z))
        return _t_entries(self._z, idx[:, None], idx)

    @cached_property
    def B(self) -> np.ndarray:
        """Real antisymmetric part: B = Re Z = -i (T - 1) with the imaginary
        part dropped.

        Z itself when Z is real; for a complex Z its real part, copied on
        first use and kept (read-only) in the instance, which is treated
        as immutable.
        """
        B = self._z.real.copy()
        B.flags.writeable = False
        return B


def _t_entries(Z: np.ndarray, rows, cols) -> np.ndarray:
    """T[rows, cols] (numpy indexing by two integer arrays) of T = 1 + iZ,
    with the bits of ``TwoPointMatrix.T``: for a real Z the real parts are
    exactly 1 on the diagonal of T and +0 off it."""
    rows, cols = np.broadcast_arrays(rows, cols)
    if np.iscomplexobj(Z):
        T = 1j * Z[rows, cols]
        T.real[rows == cols] += 1.0
    else:
        T = np.zeros(rows.shape, dtype=complex)
        T.imag[...] = Z[rows, cols]
        T.real[rows == cols] = 1.0
    return T


@dataclass(frozen=True)
class SteadyState:
    """Steady state of one model from the real Lyapunov form.

    ``rapidities`` are the 2n numbers beta_j = eig(X)/2, as in
    ``NormalModes``, so ``spectral_gap`` and ``liouvillean_eigenvalues``
    accept this object.  ``residual`` is the relative residual of the
    Lyapunov solve that produced ``two_point``.
    """

    rapidities: np.ndarray
    two_point: TwoPointMatrix
    residual: float


def _check_unique(rapidities: np.ndarray, tol: float = ZERO_RAPIDITY_TOL) -> None:
    if rapidities.real.min() <= tol:
        raise NonUniqueNESSError(
            f"min Re beta <= {tol:g}: steady state is not unique; "
            "two-point matrix undefined"
        )


def ness_two_point(
    modes: NormalModes, uniqueness_tol: float = ZERO_RAPIDITY_TOL
) -> TwoPointMatrix:
    """Steady-state T = 1 + iZ with the Z of ``spectra.normal_modes``;
    in the paper's eigenvectors, T_jk = 2 sum_m V[2m, 2j-1] V[2m-1, 2k-1]
    (1-based).  The state holds a read-only view of ``modes.Z``, with no
    copy.  Requires all Re beta_j > 0; the default refusal threshold
    1e-10 can be lowered for critical points whose finite gap underflows
    it (relaxation there is still unique, just slow).
    """
    _check_unique(modes.rapidities, uniqueness_tol)
    return _two_point_from_b(modes.Z.view())


# order at or below which a triangular Sylvester solve goes to one
# unblocked dtrsyl.  Measured on 2 cores for 2n = 106, 400, 506 and 2000
# (right after ``lyapunov_form``), leaves of order <= 48 beat 64-96 and
# 128 at every size: 1.5 -> 1.0 ms at 2n = 106, 31 -> 23 ms at 506 and
# 0.71 -> 0.51-0.63 s at 2000.  B moves by at most 6e-14 relative against
# leaves of order 128.  The leaves (level-1/2 work) and the products of
# the recursion run in numpy's OpenBLAS with no thread scope: on 2 cores
# the whole blocked solve took 1.0 / 19 / 75 ms at 2n = 106 / 506 / 1000
# (min of 7) with the leaves unscoped, 1.4 / 30 / 87 ms with each leaf
# on one thread and 1.5 / 24 / 85 ms with the whole solve on one thread;
# at 2000 the three (0.41 / 0.37 / 0.40 s) are within the runs' spread
_LEAF_ORDER = 48


def _dtrsyl(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> None:
    """Overwrite C with Z, A Z + Z B^T = C, by LAPACK's unblocked dtrsyl
    (``_blas.triangular_sylvester``)."""
    Z, scale = triangular_sylvester(A, B, C)
    np.divide(Z, scale, out=C)


def _split(R: np.ndarray) -> int:
    """A split point near the middle of a real quasi-triangular R that
    does not cut one of its 2x2 diagonal blocks."""
    k = len(R) // 2
    return k + 1 if R[k, k - 1] != 0.0 else k


def _sylvester(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> None:
    """Overwrite C with Z, A Z + Z B^T = C, for real quasi-upper-triangular
    A and B, recursively blocked: split the larger of A and B, solve the
    trailing half first and fold it into the right-hand side of the
    leading half with one matrix product."""
    if max(len(A), len(B)) <= _LEAF_ORDER:
        _dtrsyl(A, B, C)
    elif len(A) >= len(B):
        k = _split(A)
        _sylvester(A[k:, k:], B, C[k:])
        C[:k] -= A[:k, k:] @ C[k:]
        _sylvester(A[:k, :k], B, C[:k])
    else:
        k = _split(B)
        _sylvester(A, B[k:, k:], C[:, k:])
        C[:, :k] -= C[:, k:] @ B[:k, k:].T
        _sylvester(A, B[:k, :k], C[:, :k])


def _lyapunov(R: np.ndarray, C: np.ndarray, overwrite_c: bool = False) -> np.ndarray:
    """Z with R Z + Z R^T = C for a real quasi-upper-triangular R and an
    antisymmetric C, recursively blocked (Jonsson & Kagstrom, ACM TOMS 28
    (2002) 392).  With R = [[R11, R12], [0, R22]]:

        R22 Z22 + Z22 R22^T = C22
        R11 Z12 + Z12 R22^T = C12 - R12 Z22          (Z21 = -Z12^T)
        R11 Z11 + Z11 R11^T = C11 + W - W^T,  W = R12 Z12^T

    so all but the leaves is matrix products.  Each block of Z is written
    over its block of C: into C itself with ``overwrite_c``, else into a
    copy.
    """
    if not overwrite_c:
        C = C.copy()
    if len(R) <= _LEAF_ORDER:
        _dtrsyl(R, R, C)
        return C
    k = _split(R)
    R11, R12, R22 = R[:k, :k], R[:k, k:], R[k:, k:]
    Z22 = _lyapunov(R22, C[k:, k:], overwrite_c=True)
    Z12 = C[:k, k:]
    Z12 -= R12 @ Z22
    _sylvester(R11, R22, Z12)
    np.negative(Z12.T, out=C[k:, :k])
    W = R12 @ Z12.T
    C11 = C[:k, :k]
    C11 += W
    C11 -= W.T
    _lyapunov(R11, C11, overwrite_c=True)
    return C


def _antisymmetrize(B: np.ndarray) -> None:
    """B <- (B - B^T) / 2 in place, one pair of blocks at a time."""
    two_n = len(B)
    for i in range(0, two_n, _PANEL_ROWS):
        I = slice(i, i + _PANEL_ROWS)
        np.multiply(B[I, I] - B[I, I].T, 0.5, out=B[I, I])
        for j in range(i + _PANEL_ROWS, two_n, _PANEL_ROWS):
            J = slice(j, j + _PANEL_ROWS)
            upper = B[I, J] - B[J, I].T
            B[J, I] -= B[I, J].T
            B[J, I] *= 0.5
            np.multiply(upper, 0.5, out=B[I, J])


def _two_point_from_b(B: np.ndarray) -> TwoPointMatrix:
    """TwoPointMatrix of T = 1 + iB that holds B itself, made read-only,
    as its Z (and, when B is real, as its ``B``); no T is built.  The one
    way the library builds a state from its B, or from the complex Z of a
    complex generator or initial state."""
    two_point = object.__new__(TwoPointMatrix)
    two_point._keep(B)
    return two_point


def steady_state(
    model: QuadraticModel, uniqueness_tol: float = ZERO_RAPIDITY_TOL
) -> SteadyState:
    """Rapidities and steady-state two-point matrix of one model.

    T = 1 + iB with B the real antisymmetric solution of the 2n x 2n
    Lyapunov equation X B + B X^T = Y (``spectra.lyapunov_form``), solved
    by Bartels-Stewart on the real Schur form X = U R U^T that also gives
    the rapidities.  The triangular solve on R is recursively blocked, so
    its work is matrix products; blocks of order <= 48 go to LAPACK's
    dtrsyl.  The Schur form and the leaves run in numpy's LAPACK
    (``_blas.real_schur``, ``_blas.triangular_sylvester``), like the rest
    of the solve.  The 4n x 4n structure matrix is never built.

    At most three dense 2n x 2n real buffers are alive at once, besides
    the model's K: X and Y come from the rows S that the couplings touch
    (``spectra._lyapunov_rows``), and only Y[S] is kept; the Schur form
    overwrites X, after a workspace query that copies nothing
    (``spectra._real_schur``); U^T Y U, of rank 2|S|, is one product of
    inner dimension 2|S|; the solve writes Z over U^T Y U and B = U Z U^T
    goes back into that buffer; the residual rebuilds X from K and X[S].
    B is handed to the returned ``TwoPointMatrix``, which builds no T.
    The traced peak at n = 200 is 3.5 (2n)^2 doubles.

    Raises NonUniqueNESSError when min Re beta <= ``uniqueness_tol``, as
    ``ness_two_point`` does, and numpy.linalg.LinAlgError when the
    relative residual |X B + B X^T - Y| / (2 |X| |B| + |Y|) (Frobenius
    norms) exceeds 1e-10.
    """
    S, XS, YS = _lyapunov_rows(model)
    R, U, betas = _real_schur(_x_from_rows(model.K, S, XS))
    _check_unique(betas, uniqueness_tol)
    # U^T Y U = [U_S^T | -G^T] [G ; U_S] with G = Y[S] U - Y[S, S] U_S / 2,
    # since Y is nonzero only in the rows and columns S
    US = U[S]
    G = YS @ U - 0.5 * (YS[:, S] @ US)
    C = np.concatenate([US, -G]).T @ np.concatenate([G, US])
    _lyapunov(R, C, overwrite_c=True)
    del R
    B = np.matmul(U @ C, U.T, out=C)  # B = U Z U^T, over Z
    del U
    _antisymmetrize(B)
    X = _x_from_rows(model.K, S, XS)
    norm_x = np.linalg.norm(X)
    XB = X @ B  # B X^T = -(X B)^T for antisymmetric B
    del X
    square = y_square = 0.0
    for i in range(0, len(B), _PANEL_ROWS):
        rows = slice(i, i + _PANEL_ROWS)
        Y = _y_rows(S, YS, rows)
        square += np.linalg.norm(XB[rows] - XB[:, rows].T - Y) ** 2
        y_square += np.linalg.norm(Y) ** 2
    del XB
    denom = 2.0 * norm_x * np.linalg.norm(B) + np.sqrt(y_square)
    residual = float(np.sqrt(square) / denom) if denom > 0 else 0.0
    if not residual <= RESIDUAL_TOL:
        raise np.linalg.LinAlgError(
            f"steady-state Lyapunov residual {residual:.3g} exceeds {RESIDUAL_TOL:g}"
        )
    return SteadyState(betas, _two_point_from_b(B), residual)


def _matrix_panel_quad(f, a: float, b: float, tol: float, depth: int = 0):
    """Adaptive Gauss-Lobatto-style panel integration of a matrix-valued
    function: 7-point Simpson refinement with max-norm error control."""
    xs = np.linspace(a, b, 5)
    vals = [f(x) for x in xs]
    h = (b - a) / 4
    coarse = (b - a) / 6.0 * (vals[0] + 4 * vals[2] + vals[4])
    fine = h / 3.0 * (vals[0] + 4 * vals[1] + 2 * vals[2] + 4 * vals[3] + vals[4])
    err = np.abs(fine - coarse).max() / 15.0
    if err < tol or depth >= 28:
        return fine + (fine - coarse) / 15.0, err
    left, el = _matrix_panel_quad(f, a, 0.5 * (a + b), tol / 2, depth + 1)
    right, er = _matrix_panel_quad(f, 0.5 * (a + b), b, tol / 2, depth + 1)
    return left + right, el + er


def ness_two_point_green(
    struct: StructureMatrix | np.ndarray,
    omega_max: float | None = None,
    tol: float = 1e-7,
    rapidity_hint: np.ndarray | None = None,
) -> TwoPointMatrix:
    """Steady-state T_jk by quadrature of the non-equilibrium Green's
    function G(w) = (A - i w)^(-1):

        <w_j w_k> = delta_jk - (1/pi) Int dw [G(w)]_{2j-1, 2k-1}.

    G(w) ~ 1/(i w) at large |w|; the asymptote S(w) = (A + i w)/(w^2 + c^2)
    is subtracted inside the integral (its principal-value integral,
    pi A / c, is restored analytically, and the identity carries the
    delta_jk part), leaving an absolutely convergent integrand

        G - S = (c^2 - A^2) (A - i w)^(-1) / (w^2 + c^2) = O(w^-3).

    The symmetric tail beyond omega_max is corrected to O(omega_max^-5).
    Completely independent of the eigenvector route: one dense solve per
    quadrature node.
    """
    A = struct.A if isinstance(struct, StructureMatrix) else np.asarray(struct)
    four_n = A.shape[0]
    if rapidity_hint is None:
        evals = np.linalg.eigvals(A)
    else:
        evals = np.concatenate([rapidity_hint, -np.asarray(rapidity_hint)])
    beta_scale = np.abs(evals).max()
    if beta_scale == 0:
        raise NonUniqueNESSError("structure matrix vanishes; no unique NESS")
    c = beta_scale
    if omega_max is None:
        omega_max = 1e3 * beta_scale
    eye = np.eye(four_n)
    A2 = A @ A
    prefactor = c**2 * eye - A2

    def integrand(w: float) -> np.ndarray:
        G = np.linalg.solve(A - 1j * w * eye, eye)
        return prefactor @ G / (w**2 + c**2)

    # panel boundaries at the projections of the resolvent poles onto the
    # real axis so the adaptive splitter starts near the sharp features
    marks = np.unique(np.concatenate([evals.imag, [-omega_max, 0.0, omega_max]]))
    marks = marks[(marks >= -omega_max) & (marks <= omega_max)]
    marks = np.unique(np.concatenate([marks, [-omega_max, omega_max]]))
    total = np.zeros((four_n, four_n), dtype=complex)
    err = 0.0
    panel_tol = tol * np.pi / max(len(marks) - 1, 1)
    for a, b in zip(marks[:-1], marks[1:]):
        part, e = _matrix_panel_quad(integrand, a, b, panel_tol)
        total += part
        err += e
    tail = 2.0 * (prefactor @ A) / (3.0 * omega_max**3)
    integral = total + tail + np.pi * A / c
    est_error = (err + np.abs(prefactor @ A2).max() / omega_max**4) / np.pi
    if est_error > 10 * tol:
        raise RuntimeError(
            f"green-function quadrature error estimate {est_error:.2e} "
            f"exceeds tolerance {tol:.2e}"
        )
    iB_full = -integral / np.pi
    T = np.eye(four_n // 2, dtype=complex) + iB_full[0::2, 0::2]
    return TwoPointMatrix(T)


def quadratic_expectation(two_point: TwoPointMatrix, P: np.ndarray) -> complex:
    """<w . P w> = sum_jk P_jk T_jk = tr P + i sum_jk P_jk Z_jk for
    antisymmetric P."""
    P = np.asarray(P)
    if np.abs(P + P.T).max() > 1e-12 * max(1.0, np.abs(P).max()):
        raise ValueError("coefficient matrix must be antisymmetric")
    return complex(np.trace(P) + 1j * np.sum(P * two_point._z))


def commutator_quadratic(P: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Coefficient matrix of [w.Pw, w.Rw] = w.Cw:  C = 4 (PR - RP)."""
    P = np.asarray(P)
    R = np.asarray(R)
    for name, Q in (("P", P), ("R", R)):
        if np.abs(Q + Q.T).max() > 1e-12 * max(1.0, np.abs(Q).max()):
            raise ValueError(f"{name} must be antisymmetric")
    return 4.0 * (P @ R - R @ P)


def wick_four_point(two_point: TwoPointMatrix, j: int, k: int, l: int, m: int) -> complex:
    """<w_j w_k w_l w_m> by Wick contraction, from six entries of T.

    Majorana indices are 0-based integers in 0..2n-1; anything else
    (negative, too large or non-integral) raises ValueError.
    """
    two_n = len(two_point._z)
    indices = np.asarray((j, k, l, m), dtype=float)
    if not ((indices == np.round(indices)) & (indices >= 0) & (indices < two_n)).all():
        raise ValueError(f"Majorana indices must be integers in 0..{two_n - 1}")
    j, k, l, m = indices.astype(int)
    t = _t_entries(two_point._z, [j, l, j, k, j, k], [k, m, l, m, m, l])
    return complex(t[0] * t[1] - t[2] * t[3] + t[4] * t[5])


def _energy_density_block(params: ChainParams) -> np.ndarray:
    """The 4 x 4 coefficient block of H_m on Majoranas w_2m-1..w_2m+2; it
    is the same for every m."""
    gamma, h = params.gamma, params.h
    P = np.zeros((4, 4), dtype=complex)
    pairs = (
        (1, 2, -1j * (1 + gamma) / 2),
        (0, 3, 1j * (1 - gamma) / 2),
        (0, 1, -1j * h / 2),
        (2, 3, -1j * h / 2),
    )
    for i, j, coeff in pairs:
        P[i, j] += coeff / 2
        P[j, i] -= coeff / 2
    return P


def _band_stencil(P: np.ndarray, two_point: TwoPointMatrix, count: int) -> np.ndarray:
    """sum_jk P_jk T_jk over the windows T[2m:2m+k, 2m:2m+k], m < count,
    each formed as 1 + iB from the band of the stored Z.  Each window's
    product is summed as one row, in the order ``np.sum`` of that window
    alone uses (an einsum would change the last digits)."""
    k = len(P)
    idx = 2 * np.arange(count)[:, None] + np.arange(k)
    windows = _t_entries(two_point._z, idx[:, :, None], idx[:, None, :])
    return (P * windows).reshape(count, k * k).sum(axis=1)


def energy_density_matrices(params: ChainParams) -> list[np.ndarray]:
    """Coefficient matrices of the two-body energy density H_m, m=1..n-1:

        H_m = -i (1+g)/2 w_2m w_2m+1 + i (1-g)/2 w_2m-1 w_2m+2
              - i h/2 w_2m-1 w_2m - i h/2 w_2m+1 w_2m+2.

    The sum over m gives the full Hamiltonian matrix minus half the field
    term on the two boundary sites.

    This is the dense reference definition for the oracle checks: n - 1
    matrices of size 2n x 2n, O(n^3) memory.  Runs never call it; the
    profiles slide its 4 x 4 block along the band of T instead.
    """
    if params.n < 2:
        raise ValueError("energy densities need n >= 2")
    n, block = params.n, _energy_density_block(params)
    return [np.pad(block, (2 * m, 2 * n - 4 - 2 * m)) for m in range(n - 1)]


def magnetization_profile(two_point: TwoPointMatrix) -> np.ndarray:
    """<sz_m> for every site: sz_m = -i w_2m-1 w_2m, so s_z(m) = B[2m-1, 2m]."""
    return np.diagonal(two_point.B, 1)[0::2].copy()


def heat_current_profile(two_point: TwoPointMatrix, params: ChainParams) -> np.ndarray:
    """<Q_m> for m = 1..n-2, with Q_m = i [H_m, H_m+1].

    Q_m lives on the six Majoranas w_2m-1..w_2m+4 that the two densities
    share, so its 6 x 6 block is built once and slid along the band of
    T = 1 + iB.
    """
    if params.n < 3:
        raise ValueError("heat current needs n >= 3")
    block = _energy_density_block(params)
    Q = 1j * commutator_quadratic(np.pad(block, (0, 2)), np.pad(block, (2, 0)))
    vals = _band_stencil(Q, two_point, params.n - 2)
    for m in np.flatnonzero(np.abs(vals.imag) > 1e-9 * np.maximum(1, np.abs(vals))):
        warnings.warn(f"heat current Q_{m + 1} has imaginary part {vals[m].imag:.2e}")
    return vals.real.copy()


def energy_density_profile(two_point: TwoPointMatrix, params: ChainParams) -> np.ndarray:
    """<H_m> for m = 1..n-1, the 4 x 4 block of H_m slid along the band of
    T = 1 + iB."""
    if params.n < 2:
        raise ValueError("energy densities need n >= 2")
    vals = _band_stencil(_energy_density_block(params), two_point, params.n - 1)
    return vals.real.copy()


def _relative_fluctuation(dens: np.ndarray) -> np.ndarray:
    hbar = dens[1:-1].mean()  # bulk m = 2 .. n-2 (1-based)
    if hbar == 0.0:
        warnings.warn("bulk energy density averages to zero; reporting |<H_m> - 0|")
        return np.abs(dens)
    return np.abs(dens - hbar) / abs(hbar)


def energy_fluctuation_profile(
    two_point: TwoPointMatrix, params: ChainParams
) -> np.ndarray:
    """Relative spatial fluctuation f(m) = |<H_m> - Hbar| / |Hbar| with the
    bulk average Hbar over m = 2..n-2 (1-based).  Falls back to absolute
    fluctuations (and warns) when the bulk average vanishes."""
    if params.n < 5:
        raise ValueError("fluctuation profile needs n >= 5")
    return _relative_fluctuation(energy_density_profile(two_point, params))


def spin_spin_correlator(two_point: TwoPointMatrix, l: int, m: int) -> float:
    """Connected <sz_l sz_m> correlator (1-based sites) via Wick's theorem:

        C_lm = <w_2l-1 w_2m-1><w_2l w_2m> - <w_2l-1 w_2m><w_2l w_2m-1>

    for l != m, and 1 - s_z(l)^2 on the diagonal; the four entries of T
    are formed from Z.
    """
    n = two_point.n
    if not (1 <= l <= n and 1 <= m <= n):
        raise ValueError("site indices out of range")
    if l == m:
        sz = two_point.B[2 * l - 2, 2 * l - 1]
        return float(1.0 - sz**2)
    a, b = 2 * l - 2, 2 * m - 2
    t = _t_entries(two_point._z, [a, a + 1, a, a + 1], [b, b + 1, b + 1, b])
    return float((t[0] * t[1] - t[2] * t[3]).real)


def correlation_matrix(two_point: TwoPointMatrix) -> np.ndarray:
    """All connected sz-sz correlations C_lm as an n x n symmetric matrix,
    contiguous float64.

    Re(Too Tee - Toe Teo) is formed one panel of rows at a time, and each
    entry has the bits of the complex product and difference of the
    whole-matrix formula on ``TwoPointMatrix.T``.  For a real Z = B the
    off-diagonal T = iB gives Re((iBoo)(iBee) - (iBoe)(iBeo)) =
    Boe Beo - Boo Bee in real products, plus 0.0, which turns a -0 into
    the +0 of the complex route; a complex Z forms complex panels.
    """
    Z = two_point._z
    n = two_point.n
    C = np.empty((n, n))
    first, second = np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)  # of each site
    for i in range(0, n, _PANEL_ROWS):
        rows = slice(i, i + _PANEL_ROWS)
        if np.iscomplexobj(Z):
            o, e = first[rows, None], second[rows, None]
            panel = _t_entries(Z, o, first) * _t_entries(Z, e, second)
            panel -= _t_entries(Z, o, second) * _t_entries(Z, e, first)
            C[rows] = panel.real
        else:
            odd = slice(2 * i, 2 * (i + _PANEL_ROWS), 2)
            even = slice(2 * i + 1, 2 * (i + _PANEL_ROWS), 2)
            panel = Z[odd, 1::2] * Z[even, 0::2]
            panel -= Z[odd, 0::2] * Z[even, 1::2]
            np.add(panel, 0.0, out=C[rows])
    sz = magnetization_profile(two_point)
    np.fill_diagonal(C, 1.0 - sz**2)
    return C


def residual_correlator(C: np.ndarray, n: int | None = None) -> float:
    """Mean |C_lm| over site pairs farther apart than n/2."""
    if n is None:
        n = C.shape[0]
    if n < 4:
        raise ValueError("residual correlator needs n >= 4")
    sites = np.arange(n)
    far = np.abs(np.subtract.outer(sites, sites)) > n / 2
    return float(np.abs(C[far]).mean())


def correlation_decay(C: np.ndarray) -> np.ndarray:
    """Distance-resolved correlator C(r) = mean of C_lm over m - l = r,
    returned for r = 0..n-1.  Each mean is the sum ``np.mean`` takes,
    divided by the count, so the bits are those of ``np.mean``."""
    n = C.shape[0]
    return np.array([np.add.reduce(np.diagonal(C, r)) / (n - r) for r in range(n)])


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    """H2(x) = -x log2 x - (1-x) log2 (1-x), with 0 log 0 = 0."""
    x = np.clip(x, 0.0, 1.0)
    out = np.zeros_like(x)
    inner = (x > 0) & (x < 1)
    xi = x[inner]
    out[inner] = -(xi * np.log2(xi) + (1 - xi) * np.log2(1 - xi))
    return out


def correlation_spectrum(two_point: TwoPointMatrix, block) -> np.ndarray:
    """The nu_j >= 0, descending, with +-i nu_j the eigenvalues of B
    restricted to the Majorana rows/columns of the given (1-based) sites;
    empty for no sites.  Raises ValueError for a site outside 1..n or a
    repeated site.

    Read off one real symmetric eigensolve: Bsub^T Bsub = -Bsub^2 has
    each nu_j^2 twice, and nu_j is the square root of every other one.
    The eigensolve is ``np.linalg.eigvalsh`` of Bsub^T Bsub, on one
    thread up to the cutoff of ``_blas.gram_eigenvalues``.
    nu_j^2 is accurate to eps |Bsub|^2, so nu_j only to about sqrt(eps)
    (1e-8) absolute where it is near 0; the entropies, the mutual
    information and the positivity excess depend smoothly on nu^2 there
    and keep full accuracy (they agree with a complex Hermitian solve of
    iBsub to about 1e-13).
    """
    sites = np.sort(np.array(list(block)))
    if len(sites) and (
        sites[0] < 1 or sites[-1] > two_point.n or (sites[1:] == sites[:-1]).any()
    ):
        raise ValueError(f"block sites must be distinct and lie in 1..{two_point.n}")
    if not len(sites):
        return np.zeros(0)
    if sites[-1] - sites[0] == len(sites) - 1:  # one run of sites: a view
        Bsub = two_point.B[2 * sites[0] - 2 : 2 * sites[-1], 2 * sites[0] - 2 : 2 * sites[-1]]
    else:
        idx = (2 * sites[:, None] + [-2, -1]).ravel()
        Bsub = two_point.B[np.ix_(idx, idx)]
    nu2 = gram_eigenvalues(Bsub)  # ascending pairs
    return np.sqrt(np.maximum(nu2[1::2], 0.0))[::-1]


def _spectrum_excess(nu: np.ndarray) -> float:
    """max_j |nu_j| - 1, clamped below at 0 (0 for an empty spectrum)."""
    return float(max(0.0, np.abs(nu).max() - 1.0)) if len(nu) else 0.0


def _spectrum_entropy(nu: np.ndarray) -> float:
    """sum_j H2((1 + nu_j)/2) over the |nu_j| clamped to [0, 1]."""
    return float(_binary_entropy((1.0 + np.minimum(np.abs(nu), 1.0)) / 2.0).sum())


def block_entropy(two_point: TwoPointMatrix, block) -> float:
    """Von Neumann entropy (base 2) of the sites in ``block``:

        S_A = sum_j H2((1 + nu_j)/2)

    over the #A correlation eigenvalues of the block.  nu is clamped to
    [0, 1]; a clamped excess beyond 1e-7 triggers PositivityWarning but
    never an error (the Redfield steady state may be slightly
    non-positive).  The nu of ``correlation_spectrum`` are good only to
    about 1e-8 near 0, but there H2((1 + nu)/2) = 1 - nu^2 / (2 ln 2) +
    O(nu^4) depends on nu^2, which is accurate to rounding, so S_A is too.
    """
    nu = correlation_spectrum(two_point, block)
    excess = _spectrum_excess(nu)
    if excess > 1e-7:
        warnings.warn(
            f"correlation eigenvalue exceeds 1 by {excess:.2e}; "
            "steady state slightly non-positive",
            PositivityWarning,
            stacklevel=2,
        )
    return _spectrum_entropy(nu)


def positivity_excess(two_point: TwoPointMatrix) -> float:
    """max_j nu_j - 1 (clamped below at 0) over the whole lattice."""
    return _spectrum_excess(correlation_spectrum(two_point, range(1, two_point.n + 1)))


def quantum_mutual_information(two_point: TwoPointMatrix, n: int | None = None) -> float:
    """I(n) = S_{1..n/2} + S_{n/2+1..n} - S_{1..n} between the chain halves."""
    if n is None:
        n = two_point.n
    if n % 2:
        raise ValueError("mutual information between halves needs even n")
    left, right = range(1, n // 2 + 1), range(n // 2 + 1, n + 1)
    s_halves = block_entropy(two_point, left) + block_entropy(two_point, right)
    return s_halves - block_entropy(two_point, range(1, n + 1))


@dataclass
class ObservableReport:
    """Serializable bundle of every steady-state observable of one model.

    ``correlations`` is the n x n matrix C_lm of ``correlation_matrix``,
    a contiguous float64 array of its own (no view of a complex one).
    """

    s_z: np.ndarray
    correlations: np.ndarray
    residual_correlator: float
    correlation_decay: np.ndarray
    heat_current: np.ndarray
    energy_density: np.ndarray
    energy_fluctuation: np.ndarray
    entropy_left: float
    entropy_right: float
    entropy_total: float
    mutual_information: float | None
    positivity_excess: float
    spectral_gap: float | None = None

    def to_dict(self) -> dict:
        return {
            k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(self).items()
        }


def observable_report(
    two_point: TwoPointMatrix, params: ChainParams, gap: float | None = None
) -> ObservableReport:
    """Evaluate the full observable set of one steady state: the one place
    a run computes its observables.  The whole-chain correlation spectrum
    gives the total entropy and the positivity excess.

    Besides B it holds the n x n C (formed a panel of rows at a time) and
    one Bsub^T Bsub at a time, with the eigensolve's copy of it; no
    complex 2n x 2n T is built.
    It needs no model, only ``params``: the CLI releases the model, and
    its real 2n x 2n K, before calling it.
    """
    n = params.n
    C = correlation_matrix(two_point)
    half = n // 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PositivityWarning)
        s_left = block_entropy(two_point, range(1, half + 1))
        s_right = block_entropy(two_point, range(half + 1, n + 1))
    nu_whole = correlation_spectrum(two_point, range(1, n + 1))
    s_total = _spectrum_entropy(nu_whole)
    qmi = s_left + s_right - s_total if n % 2 == 0 else None
    dens = energy_density_profile(two_point, params)
    return ObservableReport(
        s_z=magnetization_profile(two_point),
        correlations=C,
        residual_correlator=residual_correlator(C, n) if n >= 4 else float("nan"),
        correlation_decay=correlation_decay(C),
        heat_current=heat_current_profile(two_point, params) if n >= 3 else np.array([]),
        energy_density=dens,
        energy_fluctuation=_relative_fluctuation(dens) if n >= 5 else np.array([]),
        entropy_left=s_left,
        entropy_right=s_right,
        entropy_total=s_total,
        mutual_information=qmi,
        positivity_excess=_spectrum_excess(nu_whole),
        spectral_gap=gap,
    )
