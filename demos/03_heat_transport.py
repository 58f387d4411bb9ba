"""Heat transport: ballistic currents, negative differential conductance,
and the non-monotonic dependence on the bath coupling strength.

All currents are expectation values of Q_m = i [H_m, H_m+1] in the
steady state, with H_m the two-body energy density.
"""

import numpy as np

from openquad import (
    ChainParams,
    heat_current_profile,
    steady_state,
    xy_redfield_model,
)
from openquad.cli import fit_karevski


def bulk_q(n, h, beta_L=0.3, beta_R=5.2, lam=0.1):
    model = xy_redfield_model(ChainParams(n, 0.5, h), beta_L=beta_L,
                              beta_R=beta_R, lam=lam)
    T = steady_state(model, uniqueness_tol=0.0).two_point
    return heat_current_profile(T, model.params)[2:-2].mean()


print("ballistic transport: the current does not scale with system size")
for n in (20, 40, 80):
    print(f"  n = {n:3d}: Q = {bulk_q(n, 0.9):.6f}")

print("\nnegative differential conductance (n = 53, cold right bath at")
print("beta_R = 5.2): heating the left bath beyond T_L ~ 25 lowers Q")
for bl in (0.5, 0.2, 0.1, 0.05, 0.02, 0.01):
    q = bulk_q(53, 0.9, beta_L=bl)
    print(f"  beta_L = {bl:5.2f} (T_L = {1 / bl:6.1f}): Q = {q:.5f}")

print("\ncoupling-strength dependence at n = 60, h = 1.0 follows")
print("Q = a lam^2 / (b + lam^4): weak coupling feeds energy in slowly,")
print("strong coupling overdamps the boundary spins")
lams = np.array([0.08, 0.12, 0.18, 0.27, 0.4, 0.6, 0.9])
qs = np.array([bulk_q(60, 1.0, lam=float(l)) for l in lams])
for l, q in zip(lams, qs):
    print(f"  lambda = {l:4.2f}: Q = {q:.5f}")
a, b, resid = fit_karevski(lams, qs)
print(f"fit: a = {a:.4f}, b = {b:.5f}, rms misfit {resid:.1e} "
      f"(maximum near lambda = b^(1/4) = {b ** 0.25:.2f})")
