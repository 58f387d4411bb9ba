"""Time-domain tools for static and driven quadratic Liouvilleans.

Under a static Liouvillean a Gaussian two-point matrix relaxes as
T(t) = T_ness + e^{-Xt} (T(0) - T_ness) e^{-X^T t}, with the real 2n x 2n
X of ``spectra.lyapunov_form`` (Prosen, J. Stat. Mech. P07020 (2010));
by quantum regression the same rule gives the steady-state dynamical
correlation functions.  Both read the eigenbasis X = R Lambda G,
G = R^-1, and T_ness = 1 + iZ that ``spectra.normal_modes`` keeps on its
``NormalModes``: for a real X, R and G are real and Lambda is block
diagonal, lambda = 2 beta on a 1 x 1 block and [[a, b], [-b, a]] for a
conjugate pair a +- ib, so e^{-Xt} = R e^{-Lambda t} G with the pair
blocks e^{-at} rot(bt).  Both work in 2n x 2n buffers:
``propagate_two_point`` in real products for a real generator and state,
``dynamic_correlator`` in a rank-2 form that reads two columns of Z,
rebuilds only the complex eigenvector entries it needs, and holds a block
of times at once.  The propagators read the Z = -i(T - 1) that a
``TwoPointMatrix`` holds and return their Z(t) in one, with no complex
T.  Explicitly time-dependent problems are sampled at the midpoint of
each step.
``propagate_schedule`` steps Z = -i(T - 1) by Z <- Phi Z Phi^T + W with
the 2n x 2n pair (X, Y) of each sample, where Phi and W are the blocks of
a Van Loan exponential summed by their Taylor series: no 4n x 4n matrix
is built or exponentiated.  The paper's route, the time-ordered 4n x 4n
group element U = T exp(2 Int A(t) dt) and its generator C = log(U)/2,
stays as the cross-check ``time_ordered_propagator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ness import TwoPointMatrix, _check_unique, _two_point_from_b
from .spectra import (_MODES_TO_PAIR, _PAIR_TO_MODES, NormalModes, _lyapunov_pair,
                      _pair_rows, _pair_starts)

__all__ = [
    "BranchAmbiguityError",
    "StepTooLargeError",
    "DriveSchedule",
    "dynamic_correlator",
    "time_ordered_propagator",
    "propagate_two_point",
    "propagate_schedule",
]


_UNIT_ROUNDOFF = np.finfo(float).eps / 2


class BranchAmbiguityError(Exception):
    """An eigenvalue of the time-ordered propagator sits too close to the
    negative real axis; the principal matrix logarithm is unreliable."""


class StepTooLargeError(Exception):
    """The midpoint-rule step violates ||2 A|| dt < 0.5."""


@dataclass(frozen=True)
class DriveSchedule:
    """Sampled drive A(t), A0(t) on [0, t_final] with fixed step dt.

    ``sampler`` maps a time to the instantaneous structure matrix data;
    each sampled A must be antisymmetric, and ``propagate_schedule``
    also needs it trace preserving (a vanishing c.c block, as in
    ``spectra.normal_modes``), which every Liouvillean of a master
    equation is.
    """

    sampler: Callable[[float], tuple[np.ndarray, complex]]
    t_final: float
    dt: float

    def __post_init__(self):
        if not (math.isfinite(self.t_final) and math.isfinite(self.dt)):
            raise ValueError("horizon and step must be finite")
        if self.t_final <= 0 or self.dt <= 0:
            raise ValueError("horizon and step must be positive")


def _check_size(initial: TwoPointMatrix, two_n: int) -> None:
    shape = initial._z.shape
    if shape != (two_n, two_n):
        raise ValueError(
            f"initial two-point matrix is {' x '.join(map(str, shape))}, "
            f"but the generator acts on 2n = {two_n} Majoranas"
        )


def _check_state(initial: TwoPointMatrix) -> float:
    """Raise ValueError unless the stored Z = -i(T - 1) of ``initial`` has
    |Z + Z^T| = |T + T^T - 2| <= 1e-12 max(1, max |Z|), as for the
    two-point matrix of every state; returns that tolerance."""
    Z = initial._z
    tol = 1e-12 * max(1.0, np.abs(Z).max())
    deviation = np.abs(Z + Z.T).max()
    if deviation > tol:
        raise ValueError(
            f"initial two-point matrix has |T + T^T - 2| = {deviation:.3g}: "
            "it is not the two-point matrix of a state"
        )
    return tol


def _initial_z(initial: TwoPointMatrix, tol: float) -> np.ndarray:
    """Z(0) = -i(T(0) - 1) of ``initial``: its real B when Z is real or
    its imaginary part 1 - Re T(0) is within ``tol``, as for every
    physical state, else the stored complex Z."""
    Z = initial._z
    if np.isrealobj(Z) or np.abs(Z.imag).max() <= tol:
        return initial.B
    return Z


def dynamic_correlator(modes: NormalModes, pair_jk, pair_lm, times) -> np.ndarray:
    """Steady-state response C_(j,k),(l,m)(t) = <w_j(t) w_k(t) w_l w_m>.

    By quantum regression C_jk(t) at fixed (l, m) relaxes like a two-point
    matrix, from the Wick matrix of w_l w_m rho_ness toward T_lm T_ness.
    In the complex eigenvectors R_c, G_c = R_c^-1 of X (rebuilt from the
    blocks of ``modes`` only on the rows and columns read, in O(n^2)),
    with u = G_c T_ness[:, l|m] their difference maps to
    u_m u_l^T - u_l u_m^T, so C(t) = T_jk T_lm + e(t) . W e(t) with
    e_r(t) = exp(-lambda_r t) and W = (R_c,j x R_c,k) o (u_m u_l^T - u_l u_m^T).
    W has rank 2: C(t) = T_jk T_lm + (e.a)(e.b) - (e.c)(e.d) with
    a = R_c,j o u_m, b = R_c,k o u_l, c = R_c,j o u_l and d = R_c,k o u_m,
    one (block x 2n) by (2n x 4) product per block of times; for a real X
    only the exponentials of the 1 x 1 blocks and the +Im members are
    computed, those of the -Im members being their conjugates.  Only the
    columns l, m of T_ness = 1 + iZ enter, and the work and memory are
    linear in the number of times.

    Majorana indices are 1-based integers in 1..2n.  A scalar t gives a
    complex; any other ``times`` gives a 1-D complex array with one value
    per entry of ``times`` in C order (an empty one gives an empty
    array).  Every t must be finite and >= 0.  Raises NonUniqueNESSError
    as ``ness_two_point`` does.
    """
    j, k = pair_jk
    l, m = pair_lm
    two_n = 2 * modes.n
    indices = np.asarray((j, k, l, m), dtype=float)
    if not ((indices == np.round(indices)) & (indices >= 1) & (indices <= two_n)).all():
        raise ValueError(f"Majorana indices must lie in 1..{two_n}")
    j, k, l, m = indices.astype(int) - 1
    scalar = np.ndim(times) == 0
    times = np.asarray(times, dtype=float).ravel()
    if not (np.isfinite(times).all() and (times >= 0).all()):
        raise ValueError("correlator defined for finite t >= 0")
    _check_unique(modes.rapidities)
    Z, R, G = modes.Z, modes.R, modes.G
    firsts = _pair_starts(modes.rapidities, R)
    Rj, Rk = _pair_rows(R[[j, k]].T, firsts, _MODES_TO_PAIR.T).T
    # G T_ness[:, l|m], T_ness = 1 + iZ, in real products for a real Z
    ul, um = _pair_rows(G[:, [l, m]] + 1j * (G @ Z[:, [l, m]]), firsts, _PAIR_TO_MODES).T
    static = ((j == k) + 1j * Z[j, k]) * ((l == m) + 1j * Z[l, m])
    factors = np.stack([Rj * um, Rk * ul, Rj * ul, Rk * um], axis=1)
    # e(t) in the order (+Im members, 1 x 1 blocks, -Im members): the
    # -Im members' exponentials are the conjugates of the first ones
    singles = np.setdiff1d(np.arange(two_n), np.concatenate([firsts, firsts + 1]))
    order = np.concatenate([firsts, singles, firsts + 1])
    rates, factors = -2.0 * modes.rapidities[order], factors[order]
    computed = len(firsts) + len(singles)
    out = np.empty(len(times), dtype=complex)
    # one buffer of e(t) for a block of times: about one 2n x 2n matrix, and
    # at least 4096 entries
    block = np.empty((max(1, min(len(times), max(two_n, 4096 // two_n))), two_n), dtype=complex)
    for start in range(0, len(times), len(block)):
        stop = min(start + len(block), len(times))
        e = block[: stop - start]
        np.multiply.outer(times[start:stop], rates[:computed], out=e[:, :computed])
        np.exp(e[:, :computed], out=e[:, :computed])
        np.conjugate(e[:, : len(firsts)], out=e[:, computed:])
        p = e @ factors
        out[start:stop] = static + (p[:, 0] * p[:, 1] - p[:, 2] * p[:, 3])
    return complex(out[0]) if scalar else out


def _midpoint_samples(schedule: DriveSchedule):
    """Yield (A, A0, scale) at the midpoints (i + 1/2) dt, each checked.

    Raises ValueError unless t_final is an integer number of steps, and
    when a sample is not square of order 4n or not antisymmetric; raises
    StepTooLargeError when ||2 A||_2 dt >= 0.5.  ``scale`` =
    max(1, max |A_ij|) sets the tolerance of the checks.
    """
    n_steps = int(round(schedule.t_final / schedule.dt))
    if n_steps < 1 or abs(n_steps * schedule.dt - schedule.t_final) > 1e-9 * schedule.t_final:
        raise ValueError("t_final must be an integer number of steps")
    dt = schedule.dt
    for i in range(n_steps):
        A, A0 = schedule.sampler((i + 0.5) * dt)
        A = np.asarray(A, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 4:
            raise ValueError(f"sampled structure matrix has shape {A.shape}: "
                             "expected a square matrix of order 4n")
        abs_A = np.abs(A)
        scale = max(1.0, abs_A.max())
        if np.abs(A + A.T).max() > 1e-12 * scale:
            raise ValueError("sampled structure matrix is not antisymmetric")
        # ||A||_2 <= sqrt(||A||_1 ||A||_inf): the SVD of the exact 2-norm
        # is needed only when this bound reaches the limit
        bound = math.sqrt(abs_A.sum(axis=0).max() * abs_A.sum(axis=1).max())
        if 2.0 * bound * dt >= 0.5:
            norm = np.linalg.norm(A, 2)
            if 2.0 * norm * dt >= 0.5:
                raise StepTooLargeError(f"||2A|| dt = {2 * norm * dt:.3f} >= 0.5 at step {i}")
        yield A, A0, scale


def _van_loan_step(X: np.ndarray, Y: np.ndarray, dt: float):
    """Phi = e^{-X dt} and W = Int_0^dt e^{-Xs} Y e^{-X^T s} ds.

    They are the blocks Phi and W Phi^-T of the Van Loan exponential of
    [[-X, Y], [0, X^T]] dt (Van Loan, IEEE TAC 23 (1978) 395), summed here
    as Taylor series in 2n x 2n products, by Horner's rule:
    Phi = sum_k (-X dt)^k / k! and W = sum_k (-1)^k dt^(k+1)/(k+1)! L^k(Y),
    with L(Z) = X Z + Z X^T = X Z - (X Z)^T for the antisymmetric Y.
    With theta = dt sqrt(||X||_1 ||X||_inf) >= ||X dt||_2, term k is at
    most theta^k / k! of Phi's first and (2 theta)^k / (k+1)! of W's; the
    sums end before the first term whose bound is below unit roundoff
    (about 20 terms at ||X dt||_2 = 0.5, the step guard's limit).
    """
    abs_X = np.abs(X)
    theta = dt * math.sqrt(abs_X.sum(axis=0).max() * abs_X.sum(axis=1).max())
    K, bound = 0, theta  # bound of term K + 1, (2 theta)^(K+1) / (K+2)!
    while bound > _UNIT_ROUNDOFF:
        K += 1
        bound *= 2.0 * theta / (K + 2)
    one = np.eye(len(X))
    Phi, S = one, Y
    for k in range(K, 0, -1):
        Phi = one + (-dt / k) * (X @ Phi)
        XS = X @ S
        S = Y + (-dt / (k + 1)) * (XS - XS.T)
    return Phi, dt * S


def time_ordered_propagator(schedule: DriveSchedule):
    """U = T exp(2 Int_0^t A(tau) dtau) by an ordered product of midpoint
    exponentials, and its generator (C, C0) with C = log(U)/2, C0 = Int A0.

    Second-order accurate in dt.  Raises ValueError when a sample is not
    square of order 4n or not antisymmetric, StepTooLargeError when
    ||2 A|| dt >= 0.5 at any midpoint, and BranchAmbiguityError when an
    eigenvalue of U has phase within 0.1 rad of +-pi (principal log
    branch undefined).
    """
    import scipy.linalg as sla

    U, C0 = None, 0.0 + 0.0j
    for A, A0, _ in _midpoint_samples(schedule):
        step = sla.expm(2.0 * schedule.dt * A)
        U = step if U is None else step @ U  # later times act on the left
        C0 += complex(A0) * schedule.dt
    phases = np.angle(np.linalg.eigvals(U))
    if (np.abs(np.abs(phases) - np.pi) < 0.1).any():
        raise BranchAmbiguityError(
            "an eigenvalue of U lies within 0.1 rad of the branch cut"
        )
    C = 0.5 * sla.logm(U)
    C = 0.5 * (C - C.T)  # the exact generator is antisymmetric; strip noise
    return U, C, C0


def propagate_two_point(
    modes: NormalModes, initial: TwoPointMatrix, t: float
) -> TwoPointMatrix:
    """Evolve the two-point matrix of a Gaussian state for time t under
    the static Liouvillean with the given normal modes.

    T(t) = T_ness + e^{-Xt} (T(0) - T_ness) e^{-X^T t}, that is
    Z(t) = Z + P (Z(0) - Z) P^T for T = 1 + iZ, with
    P = e^{-Xt} = R e^{-Lambda t} G from the blocks of ``modes``: each
    2 x 2 block of a pair lambda = a +- ib is e^{-at} rot(bt).  The
    product is formed as R (E (G D G^T) E^T) R^T with D = Z(0) - Z and
    E = e^{-Lambda t}: four 2n x 2n products, all real for a real
    generator and a real Z(0) (every physical state), and E mixes the
    pair's two rows, then columns, in O(n^2).  Only two 2n x 2n buffers
    are allocated, D and one for the products, and D becomes the Z(t)
    that the returned state holds: no T is built.  T(t) -> T_ness at the
    rate set by the spectral gap.
    Raises NonUniqueNESSError as ``ness_two_point`` does, and ValueError
    unless t is finite and >= 0, ``initial`` is 2n x 2n and it is the
    two-point matrix of a state (T + T^T = 2 to rounding, as
    ``propagate_schedule`` checks).
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("propagation defined for finite t >= 0")
    _check_size(initial, 2 * modes.n)
    tol = _check_state(initial)
    _check_unique(modes.rapidities)
    R, G = modes.R, modes.G
    e = np.exp(-t * 2.0 * modes.rapidities)
    D = _initial_z(initial, tol) - modes.Z
    W = G @ D
    np.matmul(W, G.T, out=D)
    if np.iscomplexobj(G):
        D *= e[:, None]
        D *= e
    else:
        # row c of E M is Re(e_c) M_c + Im(e_c) M_c', with c' the other
        # member of c's pair (Im(e_c) = 0 on a 1 x 1 block), and column c
        # of M E^T likewise
        partner = np.arange(len(G))
        firsts = _pair_starts(modes.rapidities, R)
        partner[firsts], partner[firsts + 1] = firsts + 1, firsts
        for axis, shape in ((0, (-1, 1)), (1, (1, -1))):
            np.take(D, partner, axis=axis, out=W, mode="clip")  # unbuffered
            W *= e.imag.reshape(shape)
            D *= e.real.reshape(shape)
            D += W
    np.matmul(R, D, out=W)
    np.matmul(W, R.T, out=D)
    D += modes.Z
    return _two_point_from_b(D)


def propagate_schedule(schedule: DriveSchedule, initial: TwoPointMatrix) -> TwoPointMatrix:
    """Two-point matrix after evolving ``initial`` through the full drive.

    T = 1 + iZ, and while the generator is held at its midpoint sample
    for one step, Z obeys dZ/dt = -X Z - Z X^T + Y with the 2n x 2n pair
    (X, Y) of ``spectra.lyapunov_form``, read off each sampled A.  One
    step is therefore exactly Z <- Phi Z Phi^T + W, with Phi and W from
    ``_van_loan_step``: 2n x 2n products only, and no 4n x 4n matrix is
    exponentiated.  This is the same midpoint rule as the ordered product
    U of ``time_ordered_propagator``.  Z is real while ``initial`` and
    the samples are (Hermiticity-preserving drives), else complex, and
    the returned state holds the last Z: no T is built.  No generator
    log(U)/2 is formed, so any horizon the step guard admits is
    accepted.

    Raises ValueError when ``initial`` is not the two-point matrix of a
    state (T + T^T != 2 beyond rounding), and at the first sample,
    before any step, when it is not 2n x 2n; ValueError for a sample
    that is not square of order 4n, not antisymmetric or not trace
    preserving, and
    StepTooLargeError when ||2 A||_2 dt >= 0.5 at a midpoint.
    """
    Z = _initial_z(initial, _check_state(initial))
    for A, _, scale in _midpoint_samples(schedule):
        X, Y = _lyapunov_pair(A, 1e-12 * scale)
        _check_size(initial, len(X))
        Phi, W = _van_loan_step(X, Y, schedule.dt)
        Z = Phi @ Z @ Phi.T + W
    return _two_point_from_b(Z)
