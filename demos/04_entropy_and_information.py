"""Entropies of the Gaussian steady state.

Every reduced state of the steady state is Gaussian, so block entropies
follow from the eigenvalues +-i nu_j of the correlation matrix B
restricted to the block: S = sum H2((1 + nu_j)/2).  The mutual
information between the chain halves distinguishes the two phases, and
the same spectrum monitors positivity of the (Redfield) steady state.
"""

import numpy as np

from openquad import (
    ChainParams,
    block_entropy,
    correlation_spectrum,
    positivity_excess,
    quantum_mutual_information,
    steady_state,
    xy_redfield_model,
)


def steady(n, h, **kw):
    model = xy_redfield_model(ChainParams(n, 0.5, h), **kw)
    return steady_state(model).two_point


T = steady(40, 0.9)
print("entropy of left blocks, n = 40, h = 0.9 (area law: saturates):")
for size in (2, 5, 10, 20, 30, 40):
    s = block_entropy(T, range(1, size + 1))
    print(f"  block 1..{size:2d}: S = {s:7.4f} bits")

print("\nmutual information between halves across the transition:")
for h in (0.3, 0.9):
    for n in (40, 80):
        qmi = quantum_mutual_information(steady(n, h))
        print(f"  h = {h}: I(n = {n:3d}) = {qmi:.4f} bits")
    print("   (grows with n below h_c = 0.75, saturates above)")

print("\ncorrelation spectrum of the full lattice, n = 20, defaults:")
nus = correlation_spectrum(steady(20, 0.9), range(1, 21))
print("  largest nu_j:", np.array2string(nus[:6], precision=6))
print(f"  positivity excess max(nu - 1, 0) = "
      f"{positivity_excess(steady(20, 0.9)):.2e}")

print("\ncold baths push nu toward 1; the weak-coupling Redfield steady")
print("state can then overshoot positivity by a tiny amount:")
T_cold = steady(12, 0.9, beta_L=40.0, beta_R=45.0, lam=0.6)
print(f"  beta ~ 40, lambda = 0.6: excess = {positivity_excess(T_cold):.2e}")
