"""Steady state of a thermally driven XY chain, start to finish.

A 40-site chain with anisotropy 0.5 and field 0.9 couples to Ohmic
Redfield baths at its two ends (hot left, cold right).  One real
2n x 2n Schur-Lyapunov solve gives the rapidities and the steady-state
two-point matrix; we print the derived physics.
"""

import numpy as np

from openquad import (
    ChainParams,
    heat_current_profile,
    magnetization_profile,
    observable_report,
    spectral_gap,
    steady_state,
    xy_redfield_model,
)

params = ChainParams(n=40, gamma=0.5, h=0.9)
model = xy_redfield_model(params, beta_L=0.3, beta_R=5.2, lam=0.1)

state = steady_state(model)
gap = spectral_gap(state)
print(f"rapidities: min Re = {state.rapidities.real.min():.3e}, "
      f"max |beta| = {np.abs(state.rapidities).max():.3f}")
print(f"spectral gap (relaxation rate) = {gap:.3e}, "
      f"Lyapunov residual = {state.residual:.1e}\n")

T = state.two_point
s_z = magnetization_profile(T)
print("magnetization profile (every 5th site):")
for m in range(0, params.n, 5):
    bar = "#" * int(30 * (s_z[m] + 1) / 2)
    print(f"  site {m + 1:3d}: {s_z[m]:+.4f} {bar}")

Q = heat_current_profile(T, params)
print(f"\nheat current: mean {Q[2:-2].mean():.6f}, "
      f"relative bulk spread {Q[2:-2].std() / abs(Q[2:-2].mean()):.2e}")
print("(hot left bath drives energy rightward; the profile is flat because")
print(" the continuity equation holds exactly in the steady state)\n")

report = observable_report(T, params, gap=gap)
print(f"residual long-range correlator : {report.residual_correlator:.3e}")
print(f"half-chain entropies           : {report.entropy_left:.4f} + "
      f"{report.entropy_right:.4f} bits")
print(f"total entropy                  : {report.entropy_total:.4f} bits")
print(f"mutual information             : {report.mutual_information:.4f} bits")
print(f"positivity excess              : {report.positivity_excess:.2e}")
