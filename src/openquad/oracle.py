"""Brute-force ground truth at small n.

Everything here works with explicit 2^n-dimensional Hilbert-space
operators obtained through the Jordan-Wigner transformation and with the
dense 4^n x 4^n Liouvillean acting on column-vectorized density
matrices.  It exists to validate the structure-matrix pipeline and is
deliberately naive: dense algebra, no symmetry exploitation beyond the
operator-parity projector.  Guarded to small n.
"""

from __future__ import annotations

import numpy as np

from .model import ChainParams, QuadraticModel

__all__ = [
    "DegenerateKernelError",
    "dense_majoranas",
    "dense_quadratic",
    "dense_xy_spin_hamiltonian",
    "dense_pauli_couplings",
    "string_operator",
    "dense_liouvillean",
    "oracle_ness",
    "oracle_expectation",
    "oracle_reduced",
    "oracle_evolve",
    "two_point_matrix",
    "gibbs_state",
    "parity_diagonal",
    "even_sector_matrix",
    "von_neumann_entropy",
]

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

MAX_MAJORANA_SITES = 6
MAX_LIOUVILLE_SITES = 4


class DegenerateKernelError(Exception):
    """The Liouvillean kernel is not one-dimensional (no unique NESS)."""


def _site_operator(op: np.ndarray, m: int, n: int) -> np.ndarray:
    """op acting on site m (0-based) of an n-site chain."""
    out = np.ones((1, 1), dtype=complex)
    for j in range(n):
        out = np.kron(out, op if j == m else ID2)
    return out


def dense_majoranas(n: int) -> list[np.ndarray]:
    """Jordan-Wigner Majorana operators w_1..w_2n as 2^n x 2^n matrices.

    w_2m-1 = sx_m prod_{m'<m} sz_m',  w_2m = sy_m prod_{m'<m} sz_m'.
    """
    if n > MAX_MAJORANA_SITES:
        raise ValueError(f"dense Majoranas limited to n <= {MAX_MAJORANA_SITES}")
    ws = []
    string = np.eye(2**n, dtype=complex)
    for m in range(n):
        ws.append(string @ _site_operator(SX, m, n))
        ws.append(string @ _site_operator(SY, m, n))
        string = string @ _site_operator(SZ, m, n)
    return ws


def dense_quadratic(P: np.ndarray, ws: list[np.ndarray]) -> np.ndarray:
    """Hilbert-space operator sum_jk P_jk w_j w_k."""
    dim = ws[0].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for j in range(len(ws)):
        for k in range(len(ws)):
            if P[j, k] != 0:
                out += P[j, k] * (ws[j] @ ws[k])
    return out


def dense_linear(x: np.ndarray, ws: list[np.ndarray]) -> np.ndarray:
    """Hilbert-space operator x . w."""
    dim = ws[0].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for j, xj in enumerate(x):
        if xj != 0:
            out += xj * ws[j]
    return out


def dense_xy_spin_hamiltonian(params: ChainParams) -> np.ndarray:
    """Direct Pauli construction of the XY chain Hamiltonian."""
    n, gamma, h = params.n, params.gamma, params.h
    dim = 2**n
    H = np.zeros((dim, dim), dtype=complex)
    for j in range(n - 1):
        H += 0.5 * (1 + gamma) * _site_operator(SX, j, n) @ _site_operator(SX, j + 1, n)
        H += 0.5 * (1 - gamma) * _site_operator(SY, j, n) @ _site_operator(SY, j + 1, n)
    for j in range(n):
        H += h * _site_operator(SZ, j, n)
    return H


def dense_pauli_couplings(kappas, thetas, n: int) -> list[np.ndarray]:
    """The four boundary coupling operators in their Pauli form."""
    ops = []
    for mu in range(2):
        ops.append(
            kappas[mu]
            * (
                np.cos(thetas[mu]) * _site_operator(SX, 0, n)
                + np.sin(thetas[mu]) * _site_operator(SY, 0, n)
            )
        )
    for mu in range(2, 4):
        ops.append(
            kappas[mu]
            * (
                np.cos(thetas[mu]) * _site_operator(SX, n - 1, n)
                + np.sin(thetas[mu]) * _site_operator(SY, n - 1, n)
            )
        )
    return ops


def string_operator(n: int) -> np.ndarray:
    """W = (-i)^(n-1) w_1 w_2 ... w_2n; unitary, commutes with even operators."""
    ws = dense_majoranas(n)
    out = np.eye(2**n, dtype=complex) * (-1j) ** (n - 1)
    for w in ws:
        out = out @ w
    return out


# ---------------------------------------------------------------------------
# vectorization helpers (column stacking: vec(A X B) = kron(B^T, A) vec(X))


def vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    dim = round(len(v) ** 0.5)
    return v.reshape(dim, dim, order="F")


def lmul(A: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> A rho."""
    return np.kron(np.eye(A.shape[0]), A)


def rmul(B: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> rho B."""
    return np.kron(B.T, np.eye(B.shape[0]))


# ---------------------------------------------------------------------------


class DenseLiouvillean:
    """Dense generator of the master equation on vectorized density matrices."""

    def __init__(self, L: np.ndarray, n: int):
        self.L = L
        self.n = n

    @property
    def dim(self) -> int:
        return 2**self.n


def dense_liouvillean(model: QuadraticModel, z_vectors=None) -> DenseLiouvillean:
    """Vectorize -i[H_s, .] + dissipator into a dense matrix.

    For the Redfield problem the dissipator is used in its reduced form
    D rho = sum_nu ([(z_nu . w) rho, X_nu] + h.c.) and requires the bath
    vectors ``z_vectors`` (one per coupling).  For a Lindblad problem the
    rate-matrix form D rho = sum gamma_numu (2 X_mu rho X_nu - {X_nu X_mu, rho})
    is built directly.
    """
    n = model.n
    if n > MAX_LIOUVILLE_SITES:
        raise ValueError(f"dense Liouvillean limited to n <= {MAX_LIOUVILLE_SITES}")
    ws = dense_majoranas(n)
    Hs = dense_quadratic(model.H, ws)
    L = -1j * (lmul(Hs) - rmul(Hs))
    xs = [dense_linear(c.x, ws) for c in model.couplings]
    if model.is_lindblad:
        gamma = model.bath.gamma
        k = len(xs)
        for nu in range(k):
            for mu in range(k):
                g = gamma[nu, mu]
                if g == 0:
                    continue
                anti = xs[nu] @ xs[mu]
                L += g * (2 * lmul(xs[mu]) @ rmul(xs[nu]) - lmul(anti) - rmul(anti))
    else:
        if z_vectors is None:
            raise ValueError("Redfield oracle needs the bath vectors z_nu")
        for c, z in zip(model.couplings, z_vectors):
            X = dense_linear(c.x, ws)
            Z = dense_linear(z, ws)
            Zt = dense_linear(np.conj(z), ws)
            # [(z.w) rho, X] + [X, rho (z*.w)]
            L += lmul(Z) @ rmul(X) - lmul(X @ Z)
            L += lmul(X) @ rmul(Zt) - rmul(Zt @ X)
    return DenseLiouvillean(L, n)


def oracle_ness(liouv: DenseLiouvillean, degeneracy_tol: float = 1e-8) -> np.ndarray:
    """Steady state from the kernel of the dense Liouvillean.

    The kernel vector (smallest singular direction) is reshaped,
    Hermitized and trace-normalized.  Raises DegenerateKernelError when
    the two smallest singular values are not cleanly separated, which
    signals a non-unique steady state.
    """
    _, s, vh = np.linalg.svd(liouv.L)
    scale = max(s[0], 1.0)
    if s[-2] - s[-1] < degeneracy_tol * scale:
        raise DegenerateKernelError(
            f"two smallest singular values {s[-1]:.3e}, {s[-2]:.3e} are degenerate"
        )
    rho = unvec(vh[-1].conj())
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho)


def oracle_expectation(rho: np.ndarray, obs: np.ndarray) -> complex:
    return complex(np.trace(obs @ rho))


def oracle_reduced(rho: np.ndarray, block, n: int) -> np.ndarray:
    """Reduced density matrix on the given (0-based) sites."""
    block = sorted(block)
    keep = list(block)
    drop = [j for j in range(n) if j not in keep]
    t = rho.reshape([2] * (2 * n))
    # trace out dropped sites highest first so lower axes keep their position
    for j in sorted(drop, reverse=True):
        t = np.trace(t, axis1=j, axis2=j + t.ndim // 2)
    dim = 2 ** len(keep)
    return t.reshape(dim, dim)


def oracle_evolve(liouv: DenseLiouvillean, rho0: np.ndarray, t: float) -> np.ndarray:
    """rho(t) = exp(t L) rho0 via the dense matrix exponential."""
    from scipy.linalg import expm

    return unvec(expm(t * liouv.L) @ vec(rho0))


def two_point_matrix(rho: np.ndarray, ws: list[np.ndarray]) -> np.ndarray:
    """T_jk = tr(w_j w_k rho)."""
    m = len(ws)
    T = np.empty((m, m), dtype=complex)
    wr = [w @ rho for w in ws]
    for j in range(m):
        for k in range(m):
            T[j, k] = np.trace(ws[j] @ wr[k])
    return T


def gibbs_state(Hs: np.ndarray, beta: float) -> np.ndarray:
    from scipy.linalg import expm

    rho = expm(-beta * Hs)
    return rho / np.trace(rho)


def parity_diagonal(n: int) -> np.ndarray:
    """Diagonal of the fermion parity operator sz_1 ... sz_n."""
    diag = np.ones(1)
    for _ in range(n):
        diag = np.kron(diag, np.array([1.0, -1.0]))
    return diag


def even_sector_matrix(liouv: DenseLiouvillean) -> np.ndarray:
    """Restriction of L to the even-parity operator subspace.

    Matrix units |i><j| with equal parities of i and j span the even
    subspace; L commutes with the parity projector rho -> P rho P, so the
    plain submatrix is the restriction.
    """
    par = parity_diagonal(liouv.n)
    dim = liouv.dim
    cols = np.arange(dim * dim)
    i, j = cols % dim, cols // dim
    idx = np.flatnonzero(par[i] * par[j] > 0)
    return liouv.L[np.ix_(idx, idx)]


def von_neumann_entropy(rho: np.ndarray) -> float:
    """- tr rho log2 rho, with 0 log 0 = 0."""
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-14]
    return float(-np.sum(evals * np.log2(evals)))
