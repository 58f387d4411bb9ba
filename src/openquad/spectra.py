"""From a quadratic model to the diagonalized Liouvillean.

Pipeline:

    couplings + baths  -->  z_nu        bath vectors 2 pi lam^2 [g(K^T K) x - iKx],
                                        K = -iH real; g(K^T K) on every coupling
                                        at once, by a Chebyshev series on the
                                        sparse K or one eigh of K^T K (cost rule)
    M = sum_nu x_nu (x) z_nu            bath matrix (only its rows on the
                                        couplings' supports, for X and Y)
    (H, M)  -->  (X, Y)                 real 2n x 2n Lyapunov form
    X  --schur-->  (R, U), beta_j       rapidities from R's diagonal blocks
    X  --eigvals-->  beta_j             the same rapidities, for the gap alone
    (H, M)  -->  (A, A0)                4n x 4n structure matrix (cross-checks)
    model | A  -->  (X, Y)  --eig-->    normal master modes: one eig of X, with
        (beta, R, G = R^-1, Z)          X, Y from the coupling rows (a model) or
                                        read off A; X R = R Lambda with real
                                        2 x 2 blocks for the conjugate pairs of
                                        a real X, and X Z + Z X^T = Y in that
                                        basis: R, G, Z real when X, Y are

The steady state and the relaxation spectrum come from the real Lyapunov
form: X = 4iH + 2(M + conj M) has eigenvalues exactly 2 beta_j, and the
steady state solves X B + B X^T = Y on the same Schur form (see
``ness.steady_state``).  The normal modes are needed only where
eigenvectors are: the dynamics, and the cross-checks of the Lyapunov
route.  The paper's row-eigenvector matrix ``NormalModes.V`` is built on
demand from the complex eigenvectors of X: row 2j-1 (1-based) is the
eigenvector of A with rapidity +beta_j, row 2j the one with -beta_j, and
V V^T equals J = diag(sx, sx, ...).  The rapidities come in descending
order of (Re beta, Im beta), each conjugate pair adjacent.  The modes
solve X B + B X^T = Y again, by eigenvectors: independent of the Lyapunov
route are the checks V^T D J V = A, the Green's-function quadrature on A
and the dense oracle.  From a model, the modes and everything downstream
of them (``dynamics``) stay in 2n x 2n buffers.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._blas import gram_eigh, real_eig, real_eigenvalues, real_schur
from .model import _PANEL_ROWS, QuadraticModel, _check_hamiltonian

__all__ = [
    "HamiltonianEigensystem",
    "StructureMatrix",
    "LyapunovForm",
    "NormalModes",
    "NonDiagonalizableError",
    "ZeroRapidityWarning",
    "hamiltonian_eigensystem",
    "bath_vector",
    "bath_vectors",
    "bath_matrix",
    "bath_matrix_from_jumps",
    "assemble_structure_matrix",
    "structure_matrix",
    "lyapunov_form",
    "rapidities",
    "normal_modes",
    "spectral_gap",
    "liouvillean_eigenvalues",
    "full_liouvillean_spectrum",
    "even_weight_selectors",
    "symplectic_form",
]

# min Re beta below which normal_modes warns (ZeroRapidityWarning) and at
# or below which ness refuses the steady state as not unique
ZERO_RAPIDITY_TOL = 1e-10
COND_LIMIT = 1e12
_EPS = np.finfo(float).eps


class NonDiagonalizableError(Exception):
    """Structure matrix is numerically defective (eigenbasis of X
    ill-conditioned, or a Jordan pair beta_i + beta_j = 0)."""


class ZeroRapidityWarning(UserWarning):
    """Some rapidity has (numerically) vanishing real part; the steady
    state may be non-unique."""


@dataclass(frozen=True)
class HamiltonianEigensystem:
    """Eigen-decomposition of the antisymmetric imaginary matrix H.

    ``epsilons`` are the n nonnegative eigenvalues, ascending; row m of
    ``modes`` is the eigenvector u_m with H u_m = eps_m u_m.  The
    conjugate rows are the -eps_m eigenvectors, and normalization follows
    the bilinear convention u_l . u_m = 0, u_l . u_m* = delta_lm.
    """

    epsilons: np.ndarray
    modes: np.ndarray


@dataclass(frozen=True)
class StructureMatrix:
    """Antisymmetric 4n x 4n matrix A and scalar A0 of the quadratic
    Liouvillean  L+ = a . A a - A0."""

    A: np.ndarray
    A0: complex

    @property
    def n(self) -> int:
        return self.A.shape[0] // 4


@dataclass(frozen=True)
class LyapunovForm:
    """Real 2n x 2n form of the steady-state problem.

    The steady-state B of T = 1 + iB solves X B + B X^T = Y with
    X = 4iH + 2(M + conj M) and Y = -i(4(M + M^dag) - X - X^T), both
    real.  X = U R U^T is its real Schur form.  The eigenvalues of X are
    exactly 2 beta_j, so ``rapidities`` holds the same 2n numbers as
    ``NormalModes.rapidities`` (in another order) and ``spectral_gap``
    accepts this object.
    """

    X: np.ndarray
    Y: np.ndarray
    R: np.ndarray
    U: np.ndarray
    rapidities: np.ndarray  # (2n,)


@dataclass(frozen=True)
class NormalModes:
    """Rapidities beta_j (Re >= 0), the eigenbasis R of the X of
    ``lyapunov_form`` with G = R^-1, and the steady-state Z with
    X Z + Z X^T = Y (T = 1 + iZ).

    X R = R Lambda with Lambda block diagonal, so e^{-Xt} =
    R e^{-Lambda t} G.  For a real X (every Hermiticity-preserving
    Liouvillean) R, G and Z are real: a real lambda_j = 2 beta_j is a
    1 x 1 block with its eigenvector in column j, and a conjugate pair
    lambda = a +- ib (b > 0) is the 2 x 2 block [[a, b], [-b, a]] on
    columns (f, f + 1), which hold (Re r, Im r) of the eigenvector r of
    a + ib.  For a complex X, R holds the eigenvectors, Lambda =
    diag(lambda), and every block is 1 x 1.  The rapidities come in
    descending order of (Re beta, Im beta), with each conjugate pair of a
    real X adjacent, +Im first, and ordered by its +Im member, also where
    the zeroing of round-off real parts makes Re ties exact.
    """

    rapidities: np.ndarray  # (2n,)
    R: np.ndarray  # (2n, 2n)
    G: np.ndarray  # (2n, 2n)
    Z: np.ndarray  # (2n, 2n)

    @property
    def n(self) -> int:
        return len(self.rapidities) // 2

    @property
    def V(self) -> np.ndarray:
        """The paper's 4n x 4n row-eigenvector matrix, built on each call.

        With the complex eigenvectors R_c = R T and G_c = R_c^-1 = T^-1 G
        (``_pair_rows``) and F = G_c Z, the +beta rows are
        P = [G_c + iF | -(F + iG_c)]/sqrt2 and the -beta rows
        Q = [R_c^T | iR_c^T]/sqrt2 (odd | even columns, 1-based):
        P Q^T = G_c R_c = 1, P P^T = iG_c(Z + Z^T)G_c^T = 0 and Q Q^T = 0,
        so V V^T = J.
        """
        firsts = _pair_starts(self.rapidities, self.R)
        G = _pair_rows(self.G, firsts, _PAIR_TO_MODES)
        Rt = _pair_rows(self.R.T, firsts, _MODES_TO_PAIR.T)
        F = G @ self.Z
        rows = np.stack([np.stack([G + 1j * F, -(F + 1j * G)], axis=2),
                         np.stack([Rt, 1j * Rt], axis=2)], axis=1)  # [m, +-, k, odd|even]
        return rows.reshape(2 * len(Rt), -1) / np.sqrt(2.0)


# the eigenvectors (r, conj r) of a conjugate pair of a real X and its
# real columns (Re r, Im r) are related by [r, conj r] = [Re r, Im r] T;
# coordinates change as x_pair = T x_modes
_MODES_TO_PAIR = np.array([[1.0, 1.0], [1j, -1j]])
_PAIR_TO_MODES = 0.5 * np.array([[1.0, -1j], [1.0, 1j]])  # T^-1


def _pair_starts(lam: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The first columns f of the 2 x 2 blocks (f, f + 1) of a real
    eigenbasis R with eigenvalues ``lam`` in ``NormalModes`` order: the
    +Im member of each pair.  A complex R has none."""
    if np.iscomplexobj(R):
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(lam.imag > 0)


def _pair_rows(M: np.ndarray, firsts: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Complex copy of M with each pair of rows (f, f + 1), f in
    ``firsts``, replaced by B applied to it: O(size of M) work.  Columns
    go through ``M.T``."""
    out = M.astype(complex)
    a, b = M[firsts], M[firsts + 1]
    out[firsts] = B[0, 0] * a + B[0, 1] * b
    out[firsts + 1] = B[1, 0] * a + B[1, 1] * b
    return out


def symplectic_form(two_n: int) -> np.ndarray:
    """J = diag(sx, sx, ...) of size 2*two_n, pairing rows (2j-1, 2j)."""
    J = np.zeros((2 * two_n, 2 * two_n))
    idx = np.arange(two_n)
    J[2 * idx, 2 * idx + 1] = 1.0
    J[2 * idx + 1, 2 * idx] = 1.0
    return J


def hamiltonian_eigensystem(H: np.ndarray) -> HamiltonianEigensystem:
    """Paired eigensystem of a purely imaginary antisymmetric H: the
    paired reference.  No production path calls it; the tests check the
    matrix function of ``bath_vector`` against the paper's pair sum over
    these modes.

    Such a matrix is Hermitian, so its spectrum is real and comes in
    pairs (eps_m, -eps_m) with eigenvectors (u_m, u_m*).  Returns the
    nonnegative half, ascending, with the bilinear normalization
    u_l . u_m = 0 and u_l . u_m* = delta_lm.

    Worked on the real Schur form of the real antisymmetric -iH: the
    orthogonal 2x2-block canonical form provides exactly paired vectors
    even for degenerate, exponentially split (boundary-mode) or zero
    eigenvalues, where a plain Hermitian eigensolver would mix the
    (u, u*) partners.
    """
    import scipy.linalg as sla

    K = _check_hamiltonian(H)
    two_n = K.shape[0]
    n = two_n // 2
    T, Q = sla.schur(K, output="real")
    # collect 2x2 antisymmetric blocks and (paired-up) 1x1 zero blocks
    cols_a, cols_b, eps_list = [], [], []
    singles = []
    i = 0
    while i < two_n:
        if i + 1 < two_n and abs(T[i + 1, i]) > 0.0:
            t = 0.5 * (T[i, i + 1] - T[i + 1, i])
            if t >= 0:
                cols_a.append(i)
                cols_b.append(i + 1)
                eps_list.append(t)
            else:
                cols_a.append(i + 1)
                cols_b.append(i)
                eps_list.append(-t)
            i += 2
        else:
            singles.append(i)
            i += 1
    if len(singles) % 2:
        raise ValueError("odd number of zero modes: H is not antisymmetric-paired")
    for a, b in zip(singles[0::2], singles[1::2]):
        cols_a.append(a)
        cols_b.append(b)
        eps_list.append(0.0)
    eps = np.array(eps_list)
    # K q_a = -eps q_b, K q_b = eps q_a  =>  H (q_a - i q_b)/sqrt2 = +eps (...)
    modes = (Q[:, cols_a].T - 1j * Q[:, cols_b].T) / np.sqrt(2.0)
    order = np.argsort(eps, kind="stable")
    eps = eps[order]
    modes = modes[order]
    if len(eps) != n:
        raise ValueError("eigenvalues did not split into +/- pairs")
    return HamiltonianEigensystem(eps, modes)


def _ohmic_g(s: np.ndarray, beta: float) -> np.ndarray:
    """g(s) = (1/2beta) y / tanh(y) with y = 2 beta sqrt(s).  y / tanh(y)
    is even and analytic in y, so g is analytic in s: rounding in the
    small eigenvalues of K^T K is not amplified by the square root."""
    y = 2.0 * beta * np.sqrt(np.maximum(s, 0.0))
    ratio = np.ones_like(y)  # y / tanh(y) -> 1 at y = 0
    nz = y > 0
    ratio[nz] = y[nz] / np.tanh(y[nz])
    return ratio / (2.0 * beta)


def _diagonals(K: np.ndarray):
    """K as its nonzero diagonals, and L = |K|_1 |K|_inf >= |K^T K|_2.

    Each diagonal is a triple (rows, cols, values) with K V = sum of
    values * V[cols] added into rows, and K^T W = sum of values * W[rows]
    added into cols.  One scan of K finds them; the chain Hamiltonians
    have four.
    """
    two_n = len(K)
    flat = np.flatnonzero(K != 0)
    diags = []
    row_sums, col_sums = np.zeros(two_n), np.zeros(two_n)
    for d in np.unique(flat % two_n - flat // two_n):
        rows = slice(max(0, -d), two_n - max(0, d))
        cols = slice(max(0, d), two_n - max(0, -d))
        values = np.diagonal(K, d)[:, None]
        diags.append((rows, cols, values))
        row_sums[rows] += np.abs(values[:, 0])
        col_sums[cols] += np.abs(values[:, 0])
    # as Python floats, so a product beyond float range is inf without a warning
    return diags, float(row_sums.max()) * float(col_sums.max()) if diags else 0.0


def _apply(diags, V: np.ndarray, transpose: bool = False) -> np.ndarray:
    """K V (or K^T V) on the ``_diagonals`` of K, for a real block V."""
    out = np.zeros_like(V)
    for rows, cols, values in diags:
        if transpose:
            out[cols] += values * V[rows]
        else:
            out[rows] += values * V[cols]
    return out


def _series_terms(beta: float, L: float) -> int:
    """A priori count of the Chebyshev terms of g on [0, L] down to 2 eps.

    g has its poles at s = -(k pi / 2 beta)^2.  In t = 2s/L - 1 the first
    one lies at -(1 + 2u^2) with u = pi / (2 beta sqrt(L)), and the
    coefficients decay as rho^-k, rho = exp(arccosh(1 + 2u^2)) =
    exp(2 asinh(u)), the Bernstein ellipse through it (Trefethen, ATAP
    ch. 8).  Exact to a few terms for beta <= 5, and up to 1.6 times too
    many at beta = 500; finite for any beta > 0.
    """
    log_rho = 2.0 * np.arcsinh(np.pi / (2.0 * beta * np.sqrt(L)))
    return int(np.ceil(np.log(0.5 / _EPS) / log_rho)) + 2


@lru_cache(maxsize=64)
def _chebyshev_coefficients(beta: float, L: float) -> np.ndarray:
    """Chebyshev coefficients of g(s) on s in [0, L], cut where the tail
    falls below 2 eps of the largest one (read-only, cached).

    g is sampled at the N Chebyshev points cos(pi (k + 1/2) / N) of the
    first kind, and one FFT of the even extension gives the DCT-II.  N
    doubles until the cut lies in the first half of the N coefficients,
    so aliasing leaves them at rounding level.
    """
    N = 16
    while N < 2 * _series_terms(beta, L):
        N *= 2
    while True:
        k = np.arange(N)
        f = _ohmic_g(0.5 * L * (1.0 + np.cos(np.pi * (k + 0.5) / N)), beta)
        c = (np.fft.fft(np.concatenate([f, f[::-1]]))[:N]
             * np.exp(-0.5j * np.pi * k / N)).real / N
        c[0] *= 0.5
        keep = np.flatnonzero(np.abs(c) > 2.0 * _EPS * np.abs(c).max())[-1] + 1
        if keep <= N // 2:
            c = c[:keep]
            c.flags.writeable = False
            return c
        N *= 2


def _gram_function_series(diags, L: float, betas, X: np.ndarray) -> np.ndarray:
    """g(K^T K) X, column j at inverse temperature betas[j], by the
    Chebyshev series of g on [0, L] (``_chebyshev_coefficients``).

    The three-term recurrence T_k+1 = 2 A T_k - T_k-1 with
    A = (2/L) K^T K - 1 runs once on the whole real block X, each column
    summed with its own coefficients; K is applied by its ``_diagonals``
    and K^T K is never formed.
    """
    coeffs = [_chebyshev_coefficients(b, L) for b in betas]
    C = np.zeros((max(map(len, coeffs)), len(coeffs)))
    for j, c in enumerate(coeffs):
        C[: len(c), j] = c

    def shifted(V):  # A V
        return (2.0 / L) * _apply(diags, _apply(diags, V), transpose=True) - V

    prev, cur = X, shifted(X)
    out = C[0] * prev
    if len(C) > 1:
        out += C[1] * cur
    for c in C[2:]:
        prev, cur = cur, 2.0 * shifted(cur) - prev
        out += c * cur
    return out


# {key: (s, Q)} of the last eigh of K^T K while ``_gram_eigh_memo`` is
# open, else None: outside a sweep nothing is kept between calls
_GRAM_EIGH_MEMO: dict | None = None


@contextmanager
def _gram_eigh_memo():
    """Keep the eigendecomposition of K^T K of the last K inside the block.

    The points of a temperature or coupling sweep share one Hamiltonian,
    so all but the first reuse its eigh (``_gram_eigh``).  One entry is
    kept, and dropped before the eigh of another K; the previous state
    is restored on exit.  A process forked inside the block keeps its
    own copy.
    """
    global _GRAM_EIGH_MEMO
    previous, _GRAM_EIGH_MEMO = _GRAM_EIGH_MEMO, {}
    try:
        yield
    finally:
        _GRAM_EIGH_MEMO = previous


def _gram_eigh(K: np.ndarray, diags=None):
    """s, Q with K^T K = Q diag(s) Q^T, for a C-contiguous K.

    Inside ``_gram_eigh_memo`` the pair is looked up by K's nonzero
    diagonals (``_diagonals``, found again unless given): the order of K
    and the offsets and bytes of those diagonals determine K, so a hit
    returns the bits a new eigh would.
    """
    memo = _GRAM_EIGH_MEMO
    if memo is not None:
        key = (len(K), *((rows.start, cols.start, values.tobytes())
                         for rows, cols, values in diags or _diagonals(K)[0]))
        if key in memo:
            return memo[key]
        memo.clear()
    # numpy's eigh (dsyevd, divide and conquer) and its product, both on
    # one thread at the orders of the shipped configs (``_blas.gram_eigh``):
    # a threaded eigh right after the product once took 236 ms at 2n = 128,
    # against about 2 ms on one thread.  scipy's eigh would run in scipy's
    # own OpenBLAS, whose threads compete with numpy's still-spinning ones
    # (1.3x slower end to end on the gap scan, 2 cores)
    s, Q = gram_eigh(K)
    if memo is not None:
        memo[key] = s, Q
    return s, Q


def _gram_function_eigh(K: np.ndarray, diags, betas, X: np.ndarray) -> np.ndarray:
    """g(K^T K) X, column j at inverse temperature betas[j], from one
    symmetric eigendecomposition K^T K = Q diag(s) Q^T (``_gram_eigh``,
    keyed by the ``_diagonals`` of K), in real arithmetic."""
    s, Q = _gram_eigh(K, diags)
    g = {b: _ohmic_g(s, b) for b in set(betas)}
    return Q @ (np.column_stack([g[b] for b in betas]) * (Q.T @ X))


# cost model of the two routes of ``_ohmic_bath_vectors``, in units of one
# multiply-add on the block (about 3 ns on 2 cores): a series step costs
# 2 x (stored diagonal entries of K) x r of them plus about 50 us of numpy
# call overhead; a dense eigh of K^T K costs (2n)^3 / 10 of them (measured
# 48 ms at 2n = 506 and 1.3-2 s at 2n = 2000).  Small eighs cost more per
# (2n)^3, so the rule leans to the eigh there: at beta = 5.2 it takes the
# series from n of about 110-130 on the chain, where both routes take a
# few ms
_SERIES_STEP_COST = 16000
_EIGH_COST = 0.1


def _ohmic_bath_vectors(K: np.ndarray, xs: np.ndarray, betas, lams) -> list:
    """z = 2 pi lam^2 [g(K^T K) x - i K x] for each coupling x (a row of
    xs) at its own (beta, lam), on a C-contiguous K = -iH.

    The real and imaginary parts of the couplings form one real 2n x r
    block.  g(K^T K) goes on it by the Chebyshev series when its terms x
    (stored diagonals of K x r + a per-step constant) is below the (2n)^3
    of a dense eigh of K^T K, and by that eigh otherwise (dense K, small
    2n, very low temperature).  Inside ``_gram_eigh_memo`` (a sweep) that
    eigh is done once per Hamiltonian: points that change only the
    temperatures or the couplings reuse it, bit for bit.  A K whose
    |K|_1 |K|_inf overflows is refused (ValueError).
    """
    betas = [float(b) for b in betas]
    if not betas:
        return []
    if min(betas) <= 0:
        raise ValueError(f"inverse temperature must be positive, got {min(betas)}")
    m = len(betas)
    complex_rows = np.flatnonzero(xs.imag.any(axis=1))
    X = np.concatenate([xs.real, xs.imag[complex_rows]]).T
    col_betas = betas + [betas[i] for i in complex_rows]
    diags, L = _diagonals(K)
    if not np.isfinite(L):  # K^T K and its series bound lie beyond float range
        raise ValueError("Ohmic bath: |H|_1 |H|_inf of the Hamiltonian overflows")
    use_series = False
    if L > 0:
        terms = max(_series_terms(b, L) for b in set(betas))
        stored = sum(len(values) for _, _, values in diags)
        step = 2 * stored * X.shape[1] + _SERIES_STEP_COST
        use_series = terms * step < _EIGH_COST * len(K) ** 3
    if use_series:
        gX = _gram_function_series(diags, L, col_betas, X)
    else:
        gX = _gram_function_eigh(K, diags, col_betas, X)
    KX = _apply(diags, X)
    # with x = a + ib: g x - iK x = (g a + K b) + i (g b - K a)
    re, im = gX[:, :m].copy(), -KX[:, :m]
    re[:, complex_rows] += KX[:, m:]
    im[:, complex_rows] += gX[:, m:]
    Z = 2.0 * np.pi * np.asarray(lams, dtype=float) ** 2 * (re + 1j * im)
    return list(np.ascontiguousarray(Z.T))


def bath_vector(x: np.ndarray, beta: float, lam: float, H: np.ndarray) -> np.ndarray:
    """Bath vector of one coupling x to an Ohmic bath, for the Hamiltonian H.

    The paper samples the bath spectral function at the Bohr frequencies
    4 eps_m of H, z = pi sum_m [G(4 eps_m) (x . u_m*) u_m + G(-4 eps_m)
    (x . u_m) u_m*]; no broadening or frequency cutoff enters.  Summed
    over the (u_m, u_m*) pairs this is the matrix function
    z = pi G(4H) x with G(w) = lam^2 w / (e^{beta w} - 1).  Its even part
    in H is a function of H^2 = K^T K (K = -iH real antisymmetric) and
    its odd part is -2 pi lam^2 H x, so

        z = 2 pi lam^2 [g(K^T K) x - i K x],  g(s) = sqrt(s) coth(2 beta sqrt(s)),

    with g(0) = 1/(2 beta), and no pairing of eigenvectors.  g(K^T K) x
    comes from the Chebyshev series of g on [0, |K|_1^2], applied with the
    sparse K, or from one real symmetric eigendecomposition of K^T K,
    whichever a cost rule says is cheaper (see ``bath_vectors``); the two
    agree to about 1e-15 relative.  H is checked here as
    ``QuadraticModel`` checks it (ValueError), and so are beta > 0 and
    the length of x.
    """
    K = _check_hamiltonian(H)
    x = np.asarray(x, dtype=complex)
    if x.shape != (len(K),):
        raise ValueError(f"coupling vector has shape {x.shape}, H needs ({len(K)},)")
    return _ohmic_bath_vectors(K, x[None, :], [beta], [lam])[0]


def bath_vectors(model: QuadraticModel):
    """One bath vector per coupling (Redfield problems only), all from one
    application of g(K^T K) to the block of every coupling.

    K = Im H is the model's ``K``, which ``QuadraticModel`` has already
    checked.  The Chebyshev series of g is summed on the sparse K
    when its terms x (nonzeros of K) x (columns of the block), plus a
    per-step constant, is below the (2n)^3 of a dense eigh: on the chain
    from about n = 125 at the shipped temperatures.  The eigh of K^T K is
    kept for smaller chains, dense K and very low temperatures (the
    series needs about 500 terms at beta = 50 and 4000 at beta = 500).
    At n = 1000 the series takes about 60 terms and 0.02 s where the eigh
    took 2 s.
    """
    if model.is_lindblad:
        raise ValueError("bath vectors are a Redfield concept; model is Lindblad")
    specs = [model.bath[c.bath_id] for c in model.couplings]
    xs = np.array([c.x for c in model.couplings]).reshape(-1, len(model.K))
    return _ohmic_bath_vectors(model.K, xs, [s.beta for s in specs], [s.lam for s in specs])


def bath_matrix(model: QuadraticModel, z_vectors=None) -> np.ndarray:
    """Bath matrix M.

    Redfield: M = sum_nu x_nu (x) z_nu with the bath vectors of
    ``bath_vectors`` (or passed explicitly).  Lindblad:
    M = sum_{nu,mu} gamma[nu,mu] x_nu (x) x_mu, which is Hermitian.
    Only the rows that the couplings touch are nonzero (``_bath_rows``).
    """
    S, MS = _bath_rows(model, z_vectors)
    M = np.zeros(model.K.shape, dtype=complex)
    M[S] = MS
    return M


def bath_matrix_from_jumps(jump_vectors) -> np.ndarray:
    """Bath matrix of a Lindblad problem given directly by jump operators
    L_mu = l_mu . w:  M_jk = sum_mu conj(l_mu)_j (l_mu)_k."""
    ls = np.atleast_2d(np.asarray(jump_vectors, dtype=complex))
    return np.einsum("mj,mk->jk", ls.conj(), ls)


def assemble_structure_matrix(H: np.ndarray, M: np.ndarray) -> StructureMatrix:
    """Interleave H and M into the 4n x 4n structure matrix.

    With odd structure indices 2j-1 paired to the real adjoint Majorana
    of mode j and even ones to the imaginary part:

        A[odd, odd]   = -2i H - M + M^T
        A[odd, even]  =  i (M^T + conj(M))
        A[even, odd]  = -i (M + conj(M)^T)
        A[even, even] = -2i H - conj(M) + conj(M)^T
        A0 = tr M + tr conj(M)
    """
    # the M terms of every block pair are antisymmetric, so A is when H is
    two_n = len(_check_hamiltonian(H))
    H = np.asarray(H, dtype=complex)
    M = np.asarray(M, dtype=complex)
    if M.shape != (two_n, two_n):
        raise ValueError("H and M dimensions disagree")
    A = np.zeros((2 * two_n, 2 * two_n), dtype=complex)
    Mc = M.conj()
    A[0::2, 0::2] = -2j * H - M + M.T
    A[0::2, 1::2] = 1j * (M.T + Mc)
    A[1::2, 0::2] = -1j * (M + Mc.T)
    A[1::2, 1::2] = -2j * H - Mc + Mc.T
    A0 = np.trace(M) + np.trace(Mc)
    return StructureMatrix(A, complex(A0))


def structure_matrix(model: QuadraticModel) -> StructureMatrix:
    """Convenience: model -> (A, A0) in one call."""
    return assemble_structure_matrix(model.H, bath_matrix(model))


def _schur_eigenvalues(R: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real quasi-triangular Schur factor, read off its
    diagonal blocks.

    LAPACK leaves a 2x2 block in the standard form [[a, b], [c, a]] with
    b c < 0, whose eigenvalues are a +- i sqrt(|b|) sqrt(|c|); every other
    subdiagonal entry is exactly zero.
    """
    evals = np.diag(R).astype(complex)
    starts = np.flatnonzero(np.diag(R, -1))
    im = np.sqrt(np.abs(R[starts, starts + 1])) * np.sqrt(np.abs(R[starts + 1, starts]))
    evals[starts] += 1j * im
    evals[starts + 1] -= 1j * im
    return evals


def _bath_rows(model: QuadraticModel, z_vectors=None):
    """The rows S that the couplings touch, and the rows M[S] of the
    ``bath_matrix``; every other row of M is zero.

    S is the union of the couplings' supports: rows 1, 2, 2n-1 and 2n on
    the chain, every row for dense couplings.  Redfield: the outer
    products x_nu (x) z_nu (z from ``bath_vectors`` unless given) added
    on the rows where x_nu is nonzero.  Lindblad: the einsum of gamma and
    the couplings on S x S.
    """
    two_n = len(model.K)
    xs = np.array([c.x for c in model.couplings]).reshape(-1, two_n)
    S = np.flatnonzero(xs.any(axis=0))
    MS = np.zeros((len(S), two_n), dtype=complex)
    if model.is_lindblad:
        MS[:, S] = np.einsum("nm,nj,mk->jk", model.bath.gamma, xs[:, S], xs[:, S])
        return S, MS
    if z_vectors is None:
        z_vectors = bath_vectors(model)
    for x, z in zip(xs, z_vectors):
        rows = np.flatnonzero(x)
        MS[np.searchsorted(S, rows)] += np.outer(x[rows], z)
    return S, MS


def _lyapunov_rows(model: QuadraticModel):
    """S and the rows X[S], Y[S] of the Lyapunov form (``_bath_rows``).

    Off the rows S, M vanishes: X is -4K there, and Y is zero but in
    the columns S, where antisymmetry gives it (``_x_from_rows``,
    ``_y_rows``).
    """
    S, MS = _bath_rows(model)
    XS = 4.0 * (MS.real - model.K[S])
    MiT = np.zeros(MS.shape)  # rows S of Im M^T
    MiT[:, S] = MS.imag[:, S].T
    return S, XS, 4.0 * (MS.imag - MiT)


def _x_from_rows(K: np.ndarray, S: np.ndarray, XS: np.ndarray) -> np.ndarray:
    """X = 4 (0 - K) with the rows X[S] put in, in Fortran order, so
    that the Schur form can overwrite it (``_real_schur``)."""
    X = np.empty(K.shape, order="F")
    np.subtract(0.0, K, out=X)
    X *= 4.0
    X[S] = XS
    return X


def _y_rows(S: np.ndarray, YS: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """The rows ``rows`` of Y from its rows Y[S]: 0 - Y[S]^T in the
    columns S (the bits of 4 (Im M - Im M^T) there), Y[S] on the rows S,
    zero elsewhere."""
    start, stop, _ = rows.indices(YS.shape[1])
    Y = np.zeros((stop - start, YS.shape[1]))
    Y[:, S] = 0.0 - YS[:, rows].T
    inside = (S >= start) & (S < stop)
    Y[S[inside] - start] = YS[inside]
    return Y


def _lyapunov_matrices(model: QuadraticModel):
    """Real X = 4iH + 2(M + conj M) and Y = -i(4(M + M^dag) - X - X^T).

    Never builds the 4n x 4n structure matrix, nor the bath matrix M: H
    is purely imaginary, so 4iH = -4K, and Y = 4 (Im M - Im M^T), and
    both come from the rows of M that the couplings touch
    (``_lyapunov_rows``), bit for bit the formula on the whole M.  X is
    in Fortran order.
    """
    S, XS, YS = _lyapunov_rows(model)
    return _x_from_rows(model.K, S, XS), _y_rows(S, YS)


def _real_schur(X: np.ndarray):
    """R, U and the rapidities eig(X)/2 of the real Schur form
    X = U R U^T.  R is written into X's buffer (``_blas.real_schur``, in
    numpy's OpenBLAS): X must be a Fortran-ordered float array, and is
    overwritten.  The Schur form runs numpy's pool on one thread up to
    order ``SERIAL_LAPACK_ORDER``."""
    R, U = real_schur(X)
    return R, U, 0.5 * _schur_eigenvalues(R)


def lyapunov_form(model: QuadraticModel) -> LyapunovForm:
    """Model -> real X, Y, the Schur form of X and the rapidities eig(X)/2."""
    X, Y = _lyapunov_matrices(model)
    return LyapunovForm(X, Y, *_real_schur(X.copy(order="F")))


def _x_matrix(model: QuadraticModel) -> np.ndarray:
    """X of ``lyapunov_form`` alone, in Fortran order, from the coupling
    rows: the matrix whose eigenvalues are twice the rapidities."""
    S, XS, _ = _lyapunov_rows(model)
    return _x_from_rows(model.K, S, XS)


def rapidities(model: QuadraticModel) -> np.ndarray:
    """The 2n rapidities beta_j = eig(X)/2 of ``lyapunov_form``, from the
    eigenvalues of X alone: no Y, no Schur vectors and no Lyapunov solve.

    The eigenvalues are numpy's eigvals (LAPACK's dgeev without vectors),
    made on X's own buffer and, like every eigensolve of the solvers, on
    one thread up to order ``SERIAL_LAPACK_ORDER``
    (``_blas.real_eigenvalues``).  A gap scan builds the same X
    (``_x_matrix``) and solves its sizes side by side, each on one thread
    (``_blas._real_eigenvalues_side_by_side``).
    """
    return 0.5 * real_eigenvalues(_x_matrix(model))


def _lyapunov_pair(A: np.ndarray, tol: float):
    """The X, Y of ``lyapunov_form`` read off a 4n x 4n structure matrix.

    In the pairing c_j = (a_2j-1 +- i a_2j)/sqrt2 a trace-preserving A is
    [[0, X^T/2], [-X/2, -iY/2]]; its c.c block vanishes.  Raises
    ValueError when that block exceeds ``tol``.  X and Y are returned
    real when both imaginary parts are within ``tol`` (every
    Hermiticity-preserving A), else complex.  Raises ValueError naming
    the shape unless A is square of order 4n.
    """
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 4:
        raise ValueError(
            f"structure matrix has shape {A.shape}: expected a square matrix of order 4n"
        )
    oo, oe = A[0::2, 0::2], A[0::2, 1::2]
    eo, ee = A[1::2, 0::2], A[1::2, 1::2]
    d, s = oo - ee, oe + eo
    if np.abs(d + 1j * s).max() > tol:
        raise ValueError("structure matrix is not trace preserving: its c.c block is nonzero")
    X = -(oo + ee) - 1j * (oe - eo)
    Y = 1j * d + s
    if max(np.abs(X.imag).max(), np.abs(Y.imag).max()) <= tol:
        X, Y = X.real.copy(), Y.real.copy()  # contiguous, for the products
    return X, Y


def _one_norm(X: np.ndarray) -> float:
    return float(np.abs(X).sum(axis=0).max())


def _eig(X: np.ndarray):
    """Eigenvalues lambda and eigenbasis R of X (``NormalModes``): for a
    real X the real basis of LAPACK's dgeev (``_blas.real_eig``, which
    overwrites a Fortran-ordered X), for a complex X numpy's eig.

    The real eigensolve runs numpy's OpenBLAS on one thread up to order
    ``SERIAL_LAPACK_ORDER``: on 2 cores, in fresh processes right after a
    numpy product, it took 20-33 ms on one thread and 32-36 ms on two at
    order 200, and 0.66-0.72 s against 0.70-0.86 s at order 800.
    """
    if np.iscomplexobj(X):
        return np.linalg.eig(X)
    return real_eig(X)


def normal_modes(struct: StructureMatrix | np.ndarray | QuadraticModel) -> NormalModes:
    """Diagonalize the Liouvillean into normal master modes.

    In the pairing c_j = (a_2j-1 +- i a_2j)/sqrt2 a trace-preserving A is
    [[0, X^T/2], [-X/2, -iY/2]] (Prosen, arXiv:1005.0763), with the X and Y
    of ``lyapunov_form``.  Given a ``QuadraticModel``, X and Y are read
    from the coupling rows as ``lyapunov_form`` reads them, and no 4n x 4n
    matrix is built; given A (or a ``StructureMatrix``), they are read
    off A.  One eig X R = R Lambda gives beta = lambda/2 and G = R^-1,
    and Z = R Z~ R^T with Lambda Z~ + Z~ Lambda^T = G Y G^T solves
    X Z + Z X^T = Y; ``ness.ness_two_point`` returns T = 1 + iZ.  When X
    and Y are real (every Hermiticity-preserving Liouvillean) R, G and Z
    are real, with the 2 x 2 blocks of ``NormalModes``, and every product
    is real; Z~ is divided by the pair sums lambda_i + lambda_j in the
    complex eigenvector basis, a panel of rows at a time.  Real parts of
    lambda at round-off (1e3 eps |X|_1) are set to 0, and so is the
    complex Z~_ij where lambda_i + lambda_j and (G Y G^T)_ij are both at
    round-off (free chain).  Raises ValueError unless A is square of
    order 4n and trace preserving (vanishing c.c block),
    NonDiagonalizableError for a Jordan pair (a vanishing pair sum with
    (G Y G^T)_ij above 1e3 eps max(|X|_1, |Y|_1)) or a 1-norm condition
    number of R above 1e12; warns ZeroRapidityWarning when min Re beta
    falls below 1e-10.
    """
    if isinstance(struct, QuadraticModel):
        X, Y = _lyapunov_matrices(struct)
    else:
        A = np.asarray(struct.A if isinstance(struct, StructureMatrix) else struct)
        X, Y = _lyapunov_pair(A, 1e-12 * max(1.0, np.abs(A).max()))
    # X and Y are dropped once used, and Z~ is divided by the pair sums a
    # panel of rows at a time: no 2n x 2n array of sums or masks is built
    roundoff, x_norm = 1e3 * _EPS, _one_norm(X)
    tiny = roundoff * x_norm
    jordan = roundoff * max(x_norm, _one_norm(Y))
    lam, R = _eig(X)
    del X
    lam = np.where(np.abs(lam.real) <= tiny, 1j * lam.imag, lam)
    # descending (Re, Im), a real X's pairs kept together by the Im of
    # their +Im member and eig's position of it, which comes first
    lead = np.arange(len(lam)) - (np.isrealobj(R) & (lam.imag < 0))
    order = np.lexsort((lam.imag, -lead, lam.imag[lead], lam.real))[::-1]
    lam, R = lam[order], R[:, order]
    try:
        G = np.linalg.inv(R)
    except np.linalg.LinAlgError as exc:
        raise NonDiagonalizableError("X has a singular eigenvector matrix") from exc
    if _one_norm(R) * _one_norm(G) > COND_LIMIT:
        raise NonDiagonalizableError(
            "eigenvector matrix condition number exceeds 1e12; structure matrix "
            "is numerically defective"
        )
    betas = 0.5 * lam
    if betas.real.min() < ZERO_RAPIDITY_TOL:
        warnings.warn(
            "rapidity with vanishing real part: steady state may be non-unique",
            ZeroRapidityWarning,
            stacklevel=2,
        )
    Yt = G @ Y @ G.T
    del Y
    Zt = np.empty_like(Yt)
    firsts = _pair_starts(lam, R)
    is_first = np.zeros(len(lam), dtype=bool)
    is_first[firsts] = True
    is_second = np.roll(is_first, 1)
    start = 0
    while start < len(lam):
        stop = min(start + _PANEL_ROWS, len(lam))
        stop += bool(stop < len(lam) and is_first[stop - 1])  # a pair stays in one panel
        rows = slice(start, stop)
        panel = 0.5 * (Yt[rows] - Yt[:, rows].T)  # exactly antisymmetric, as Y is
        # to the complex eigenvectors, T^-1 panel T^-T, on the rows of the
        # 1 x 1 blocks and the +Im members only: for a real X the row of a
        # -Im member is the conjugate of its partner's, its columns swapped
        plus = np.flatnonzero(~is_second[rows])
        pair = is_first[rows][plus]
        H = panel[plus].astype(complex)
        H[pair] = 0.5 * (panel[plus[pair]] - 1j * panel[plus[pair] + 1])
        H = _pair_rows(H.T, firsts, _PAIR_TO_MODES).T
        sums = lam[start + plus, None] + lam
        near = np.abs(sums) <= tiny
        if (np.abs(H[near]) > jordan).any():
            raise NonDiagonalizableError("rapidities beta_i + beta_j = 0 form a Jordan pair")
        sums[near] = 1.0
        H /= sums
        H[near] = 0.0
        # and back to the blocks of R, T H T^T: a pair's rows are twice the
        # real part and minus twice the imaginary part of its +Im row
        H = _pair_rows(H.T, firsts, _MODES_TO_PAIR).T
        if np.iscomplexobj(Zt):
            Zt[rows] = H
        else:
            H[pair] *= 2.0
            Zt[start + plus] = H.real
            Zt[start + plus[pair] + 1] = -H.imag[pair]
        start = stop
    del Yt
    Z = R @ Zt
    del Zt
    Z = Z @ R.T
    # exactly antisymmetric, so T + T^T = 2 and V V^T = J even where a small
    # lambda_i + lambda_j would magnify the rounding of the products
    return NormalModes(betas, R, G, 0.5 * (Z - Z.T))


def spectral_gap(modes) -> float:
    """Relaxation rate Delta = 2 min_j Re beta_j (>= 0).

    Takes the rapidities themselves or any object that carries them
    (``NormalModes``, ``LyapunovForm``, ``ness.SteadyState``).
    """
    betas = getattr(modes, "rapidities", modes)
    return float(max(2.0 * np.asarray(betas).real.min(), 0.0))


def even_weight_selectors(n: int) -> np.ndarray:
    """All binary selectors nu in {0,1}^(2n) with even weight (n <= 4)."""
    if n > 4:
        raise ValueError("full enumeration of selectors is limited to n <= 4")
    two_n = 2 * n
    sel = ((np.arange(4**n)[:, None] >> np.arange(two_n)) & 1).astype(np.int64)
    return sel[sel.sum(axis=1) % 2 == 0]


def liouvillean_eigenvalues(modes: NormalModes, selectors) -> np.ndarray:
    """Liouvillean eigenvalues -2 nu . beta for each binary selector nu."""
    sel = np.atleast_2d(np.asarray(selectors))
    two_n = len(modes.rapidities)
    if sel.shape[1] != two_n:
        raise ValueError(f"selectors must have length {two_n}")
    if not np.isin(sel, (0, 1)).all():
        raise ValueError("selectors must be binary")
    return -2.0 * (sel @ modes.rapidities)


def full_liouvillean_spectrum(modes: NormalModes) -> np.ndarray:
    """All 4^n eigenvalues -2 nu . beta, nu in {0,1}^(2n).

    Refused for n > 8: the enumeration grows as 4^n.
    """
    n = modes.n
    if n > 8:
        raise ValueError("full spectrum enumeration refused for n > 8")
    two_n = 2 * n
    sel = ((np.arange(4**n)[:, None] >> np.arange(two_n)) & 1).astype(np.int64)
    return -2.0 * (sel @ modes.rapidities)
