"""The far-from-equilibrium phase transition of the open XY chain.

Below the critical field h_c = |1 - gamma^2| the steady state develops
long-range magnetic correlations: the residual correlator C_res (mean
|sigma-z correlation| between far-apart sites) decays only like 1/n,
while above h_c it vanishes exponentially with size.  The stationary
point of the quasiparticle dispersion sets the size of the correlated
patches.
"""

import numpy as np

from openquad import (
    ChainParams,
    correlation_matrix,
    dispersion,
    residual_correlator,
    stationary_wavenumber,
    steady_state,
    xy_redfield_model,
)
from openquad.cli import fit_exponential, fit_power_law


def c_res(n, h):
    model = xy_redfield_model(ChainParams(n, 0.5, h))
    T = steady_state(model).two_point
    return residual_correlator(correlation_matrix(T), n)


print("gamma = 0.5  =>  h_c = 0.75\n")

print("long-range phase, h = 0.2 (C_res ~ 1/n):")
sizes = np.arange(24, 121, 8)
vals = np.array([c_res(int(n), 0.2) for n in sizes])
for n, v in zip(sizes, vals):
    print(f"  n = {n:3d}: C_res = {v:.3e}")
expo, _, _ = fit_power_law(sizes[3:], vals[3:])
print(f"  fitted power law beyond the head transient: n^{expo:+.2f}\n")

print("short-range phase, h = 0.9 (C_res ~ exp(-eta n)):")
sizes = np.arange(5, 16)
vals = np.array([c_res(int(n), 0.9) for n in sizes])
for n, v in zip(sizes, vals):
    print(f"  n = {n:3d}: C_res = {v:.3e}")
eta, _, _ = fit_exponential(sizes, vals)
print(f"  fitted decay rate eta = {eta:.3f}\n")

params = ChainParams(100, 0.5, 0.2)
q_star = stationary_wavenumber(params)
print(f"dispersion stationary point at h = 0.2: q* = {q_star:.4f}, "
      f"omega(q*) = {dispersion(q_star, params):.4f}")
print(f"  the length scale 1/q* = {1 / q_star:.2f} (beat period "
      f"2 pi/q* = {2 * np.pi / q_star:.1f} sites) sets the texture")
print("  of the correlation matrix in the long-range phase.")
print("above h_c only the trivial stationary points q = 0, pi remain:",
      stationary_wavenumber(ChainParams(100, 0.5, 0.9)))
