"""Problem definitions for open quadratic fermionic systems.

A system of n fermionic modes is described by 2n Hermitian Majorana
operators w_1..w_2n with {w_j, w_k} = 2 delta_jk.  The Hamiltonian is a
quadratic form H_s = sum_jk w_j H_jk w_k with an antisymmetric, purely
imaginary 2n x 2n matrix H, and the system couples linearly to thermal
baths through operators X_nu = x_nu . w.

This module holds the data types describing such a problem (Hamiltonian
matrix, coupling vectors, bath specifications), the Jordan-Wigner
builders for the open XY spin-1/2 chain, and the Ohmic bath spectral
function.  All constructors are pure; returned arrays should be treated
as immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = [
    "ChainParams",
    "CouplingOperator",
    "RedfieldOhmic",
    "LindbladRates",
    "QuadraticModel",
    "build_xy_hamiltonian",
    "build_xy_couplings",
    "ohmic_spectral_function",
    "xy_redfield_model",
    "xy_lindblad_model",
    "lindblad_jump_vectors",
    "dispersion",
    "stationary_wavenumber",
]

# rows per panel where a 2n x 2n check or update goes panel by panel, so
# that its temporaries are a few rows of the matrix and not the matrix
_PANEL_ROWS = 256


@dataclass(frozen=True)
class ChainParams:
    """Bulk parameters of the homogeneous XY chain.

    Attributes
    ----------
    n : int
        Number of spins (>= 1; transport quantities need n >= 2).
    gamma : float
        Anisotropy of the in-plane exchange.
    h : float
        Uniform transverse magnetic field.
    """

    n: int
    gamma: float
    h: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"chain needs at least one site, got n={self.n}")

    @property
    def h_c(self) -> float:
        """Critical field |1 - gamma^2| separating the long-range-correlated
        steady-state phase (0 < |h| < h_c) from the short-range one."""
        return abs(1.0 - self.gamma**2)


@dataclass(frozen=True)
class CouplingOperator:
    """Linear bath-coupling operator X = x . w.

    ``x`` is a complex 2n-vector; Hermitian couplings have real x.
    ``bath_id`` names the thermal bath this operator connects to;
    correlations between couplings attached to different bath_ids vanish.
    """

    x: np.ndarray
    bath_id: str

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=complex))


@dataclass(frozen=True)
class RedfieldOhmic:
    """Ohmic thermal bath at inverse temperature beta > 0 and coupling lam.

    The spectral function is lam^2 * omega / (exp(beta*omega) - 1); it
    satisfies the KMS identity G(-w) = exp(beta*w) G(w) exactly.
    """

    beta: float
    lam: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"inverse temperature must be positive, got {self.beta}")
        if self.lam < 0:
            raise ValueError(f"coupling strength must be nonnegative, got {self.lam}")


@dataclass(frozen=True)
class LindbladRates:
    """Hermitian, positive-semidefinite rate matrix over coupling indices.

    Specifies the memoryless (delta-correlated) bath limit in which the
    Redfield dissipator reduces to Lindblad form with bath matrix
    M = sum_{nu,mu} gamma[nu,mu] x_nu (x) x_mu.
    """

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("rate matrix must be square")
        if not np.allclose(g, g.conj().T, atol=1e-12):
            raise ValueError("Lindblad rate matrix must be Hermitian")
        if np.linalg.eigvalsh(g).min() < -1e-12 * max(1.0, np.linalg.norm(g)):
            raise ValueError("Lindblad rate matrix must be positive semidefinite")
        object.__setattr__(self, "gamma", g)


BathSpec = Union[Mapping[str, RedfieldOhmic], LindbladRates]


@dataclass(frozen=True)
class QuadraticModel:
    """Full problem definition: H matrix, couplings, and bath specification.

    ``bath`` is either a mapping bath_id -> RedfieldOhmic (thermal Redfield
    problem, couplings grouped by their bath_id) or a LindbladRates matrix
    over the coupling index.
    """

    H: np.ndarray
    couplings: tuple[CouplingOperator, ...]
    bath: BathSpec
    params: ChainParams | None = None

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] % 2:
            raise ValueError("Hamiltonian matrix must be 2n x 2n")
        # in real arithmetic: H is purely imaginary and Im H antisymmetric;
        # the maxima by reductions and Im H + Im H^T by row panels, with no
        # 2n x 2n temporary
        re_max = max(H.real.max(), -H.real.min())
        im_max = max(H.imag.max(), -H.imag.min())
        tol = 1e-12 * max(1.0, re_max, im_max)
        for i in range(0, len(H), _PANEL_ROWS):
            rows = slice(i, i + _PANEL_ROWS)
            if np.abs(H.imag[rows] + H.imag[:, rows].T).max() > tol:
                raise ValueError("Hamiltonian matrix must be antisymmetric")
        if 2.0 * re_max > tol:
            raise ValueError("Hamiltonian matrix must be purely imaginary")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "couplings", tuple(self.couplings))
        for c in self.couplings:
            if c.x.shape != (H.shape[0],):
                raise ValueError("coupling vector length must match 2n")
        if isinstance(self.bath, LindbladRates):
            if self.bath.gamma.shape[0] != len(self.couplings):
                raise ValueError("rate matrix dimension must match coupling count")
        else:
            known = set(self.bath)
            for c in self.couplings:
                if c.bath_id not in known:
                    raise ValueError(f"coupling refers to unknown bath {c.bath_id!r}")

    @property
    def n(self) -> int:
        return self.H.shape[0] // 2

    @property
    def is_lindblad(self) -> bool:
        return isinstance(self.bath, LindbladRates)


def build_xy_hamiltonian(params: ChainParams) -> np.ndarray:
    """Antisymmetric Majorana matrix of the open XY chain.

    Jordan-Wigner transforming
    H = sum_j [(1+gamma)/2 sx_j sx_j+1 + (1-gamma)/2 sy_j sy_j+1] + h sum_j sz_j
    with w_2m-1 = sx_m prod_{m'<m} sz_m', w_2m = sy_m prod_{m'<m} sz_m'
    gives

        H = -i sum_j [(1+gamma)/2 w_2j w_2j+1 - (1-gamma)/2 w_2j-1 w_2j+2]
            - i h sum_j w_2j-1 w_2j,

    whose coefficients are split antisymmetrically into the returned
    2n x 2n matrix: sum_jk w_j H_jk w_k reproduces the spin Hamiltonian
    exactly on the Hilbert space.
    """
    n, gamma, h = params.n, params.gamma, params.h
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    site, bond = 2 * np.arange(n), 2 * np.arange(n - 1)
    # the three families touch disjoint entries, so each entry is written
    # once; += and -= on the zeros keep the signed zeros of a pairwise fill
    for a, b, coeff in ((site, site + 1, -1j * h),
                        (bond + 1, bond + 2, -1j * (1 + gamma) / 2),
                        (bond, bond + 3, 1j * (1 - gamma) / 2)):
        H[a, b] += coeff / 2
        H[b, a] -= coeff / 2
    return H


def build_xy_couplings(
    kappas: Sequence[float], thetas: Sequence[float], n: int
) -> tuple[CouplingOperator, ...]:
    """Boundary coupling vectors of the open XY chain.

    X_1, X_2 act on the left edge, x = kappa (cos th, sin th, 0, ...);
    X_3, X_4 act on the right edge with x supported on the last two
    Majorana components as (-kappa sin th, kappa cos th).  The string
    operator picked up by the Jordan-Wigner transformation at the right
    edge is dropped: it is unitary and commutes with every even operator,
    so it has no effect on the even-sector dissipator.
    """
    if n < 2:
        raise ValueError(f"boundary-driven chain needs n >= 2, got n={n}")
    if len(kappas) != 4 or len(thetas) != 4:
        raise ValueError("expected four coupling strengths and four angles")
    ops = []
    for mu in range(2):
        x = np.zeros(2 * n, dtype=complex)
        x[0] = kappas[mu] * math.cos(thetas[mu])
        x[1] = kappas[mu] * math.sin(thetas[mu])
        ops.append(CouplingOperator(x, "L"))
    for mu in range(2, 4):
        x = np.zeros(2 * n, dtype=complex)
        x[2 * n - 2] = -kappas[mu] * math.sin(thetas[mu])
        x[2 * n - 1] = kappas[mu] * math.cos(thetas[mu])
        ops.append(CouplingOperator(x, "R"))
    return tuple(ops)


def ohmic_spectral_function(omega, beta: float, lam: float):
    """Ohmic bath spectral function lam^2 * omega / (exp(beta*omega) - 1).

    Evaluated as (lam^2 / beta) * x / expm1(x) in x = beta * omega, with
    the x = 0 limit lam^2 / beta.  No Boltzmann factor is exponentiated
    before being combined with its prefactor, and a subnormal omega never
    underflows lam^2 * omega: for omega > 0 the value decays like
    x e^{-x}, for omega < 0 it grows only linearly in |omega|.  Satisfies
    G(-w) = exp(beta*w) G(w) (KMS) exactly.
    """
    if beta <= 0:
        raise ValueError(f"inverse temperature must be positive, got {beta}")
    x = beta * np.atleast_1d(np.asarray(omega, dtype=float))
    ratio = np.ones_like(x)  # x / (e^x - 1) -> 1 as x -> 0
    nz = x != 0.0
    with np.errstate(over="ignore"):  # expm1 = inf gives the 0 limit
        ratio[nz] = x[nz] / np.expm1(x[nz])
    out = lam**2 / beta * ratio
    return float(out[0]) if np.ndim(omega) == 0 else out


# Paper-standard bath parameter defaults for the thermally driven chain.
DEFAULT_KAPPAS = (1.0, 0.0, 1.0, 0.0)
DEFAULT_THETAS = (math.pi / 6, 0.0, math.pi / 6, 0.0)
DEFAULT_BETA_L = 0.3
DEFAULT_BETA_R = 5.2
DEFAULT_LAMBDA = 0.1
DEFAULT_LINDBLAD_RATES = (0.5, 0.3, 0.5, 0.1)


def xy_redfield_model(
    params: ChainParams,
    beta_L: float = DEFAULT_BETA_L,
    beta_R: float = DEFAULT_BETA_R,
    lam: float = DEFAULT_LAMBDA,
    kappas: Sequence[float] = DEFAULT_KAPPAS,
    thetas: Sequence[float] = DEFAULT_THETAS,
) -> QuadraticModel:
    """XY chain thermally driven by Ohmic Redfield baths at both ends."""
    H = build_xy_hamiltonian(params)
    couplings = build_xy_couplings(kappas, thetas, params.n)
    bath = {
        "L": RedfieldOhmic(beta_L, lam),
        "R": RedfieldOhmic(beta_R, lam),
    }
    return QuadraticModel(H, couplings, bath, params=params)


def lindblad_jump_vectors(n: int, rates: Sequence[float] = DEFAULT_LINDBLAD_RATES):
    """Majorana component vectors of the local jump operators
    L_1 = sqrt(G1) s-_1, L_2 = sqrt(G2) s+_1, L_3 = sqrt(G3) s-_n,
    L_4 = sqrt(G4) s+_n (right-edge string factor dropped).  Raises
    ValueError for a negative rate."""
    g1, g2, g3, g4 = rates
    if min(rates) < 0:
        raise ValueError(f"Lindblad rates must be >= 0, got {tuple(rates)!r}")
    ls = np.zeros((4, 2 * n), dtype=complex)
    ls[0, 0], ls[0, 1] = 0.5, -0.5j          # s-_1 = (w1 - i w2)/2
    ls[1, 0], ls[1, 1] = 0.5, 0.5j           # s+_1 = (w1 + i w2)/2
    ls[2, -2], ls[2, -1] = 0.5j, 0.5         # s-_n ~ (w_2n + i w_2n-1)/2
    ls[3, -2], ls[3, -1] = -0.5j, 0.5        # s+_n ~ (w_2n - i w_2n-1)/2
    ls[0] *= math.sqrt(g1)
    ls[1] *= math.sqrt(g2)
    ls[2] *= math.sqrt(g3)
    ls[3] *= math.sqrt(g4)
    return ls


def xy_lindblad_model(
    params: ChainParams, rates: Sequence[float] = DEFAULT_LINDBLAD_RATES
) -> QuadraticModel:
    """XY chain with local Lindblad driving sigma-/sigma+ at each end.

    Built in the Hermitian-coupling form: X basis sx_1, sy_1, sx_n, sy_n
    with the rate matrix over coupling indices reproducing jump operators
    L = sqrt(Gamma) sigma-+.
    """
    n = params.n
    H = build_xy_hamiltonian(params)
    # Hermitian coupling basis: theta = 0 and pi/2 at each edge
    couplings = build_xy_couplings(
        (1.0, 1.0, 1.0, 1.0), (0.0, math.pi / 2, 0.0, math.pi / 2), n
    )
    xs = np.array([c.x for c in couplings])
    ls = lindblad_jump_vectors(n, rates)
    # coordinates of each jump vector in the coupling basis (xs is real
    # orthonormal on its support): L_m = sum_mu c[m, mu] X_mu
    coords = ls @ xs.conj().T @ np.linalg.inv(xs @ xs.conj().T).T
    gamma = np.einsum("mj,mk->kj", coords, coords.conj())
    return QuadraticModel(H, couplings, LindbladRates(gamma), params=params)


def dispersion(q, params: ChainParams):
    """Quasiparticle dispersion omega(q) = sqrt((cos q - h)^2 + g^2 sin^2 q)."""
    q = np.asarray(q, dtype=float)
    return np.sqrt((np.cos(q) - params.h) ** 2 + params.gamma**2 * np.sin(q) ** 2)


def stationary_wavenumber(params: ChainParams) -> float | None:
    """Nontrivial stationary point q* of the dispersion on (0, pi).

    Solves d omega / d q = 0, i.e. (1 - gamma^2) cos q = h, by bisection.
    Returns None when only the trivial stationary points q = 0, pi exist
    (the short-range phase |h| >= h_c).  The scale 1/q* sets the typical
    size of correlated patches in the steady-state correlation matrix.
    """
    g2 = 1.0 - params.gamma**2
    if g2 == 0.0 or abs(params.h / g2) >= 1.0:
        return None

    def f(q):
        return g2 * math.cos(q) - params.h

    lo, hi = 1e-12, math.pi - 1e-12
    if f(lo) * f(hi) > 0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
