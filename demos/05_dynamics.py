"""Time-domain tools: relaxation, dynamical correlations, driven chains.

For a static Liouvillean the two-point matrix relaxes as
T(t) = T_ness + e^{-Xt} (T(0) - T_ness) e^{-X^T t}, and by quantum
regression the same rule gives the steady-state dynamical correlations;
both run on the eigenpair of the 2n x 2n X.  An explicitly time-dependent
drive is handled by stepping T through each midpoint sample exactly,
with the 2n x 2n pair (X, Y) of that sample.  The effective generator
log(U)/2 of the paper's time-ordered product is not formed, so any
horizon works, including those where its branch is ambiguous.
"""

import numpy as np

from openquad import (
    ChainParams,
    DriveSchedule,
    TwoPointMatrix,
    assemble_structure_matrix,
    bath_matrix_from_jumps,
    build_xy_hamiltonian,
    dynamic_correlator,
    lindblad_jump_vectors,
    ness_two_point,
    normal_modes,
    propagate_schedule,
    propagate_two_point,
    spectral_gap,
    structure_matrix,
    xy_redfield_model,
)

model = xy_redfield_model(ChainParams(6, 0.5, 0.9))
modes = normal_modes(structure_matrix(model))
T_ness = ness_two_point(modes)
gap = spectral_gap(modes)
print(f"spectral gap = {gap:.4f}  (relaxation time ~ {1 / gap:.1f})\n")

# relax the maximally mixed state (T = identity) toward the steady state
T0 = TwoPointMatrix(np.eye(12, dtype=complex))
print("relaxation of the maximally mixed state:")
for t in (0.0, 5.0, 20.0, 80.0, 320.0):
    Tt = propagate_two_point(modes, T0, t)
    dist = np.abs(Tt.T - T_ness.T).max()
    print(f"  t = {t:6.1f}: ||T(t) - T_ness|| = {dist:.3e}")

print("\nsteady-state response <w1(t) w2(t) w3 w4>:")
times = np.linspace(0.0, 3.0 / gap, 7)
vals = dynamic_correlator(modes, (1, 2), (3, 4), times)
for t, v in zip(times, vals):
    print(f"  t = {t:7.2f}: {v.real:+.6f} {v.imag:+.6f}i")
print("  (decays to the factorized product as the excitations die out)\n")

# drive the field sinusoidally on a small Lindblad chain
rates = (0.5, 0.3, 0.5, 0.1)
M = bath_matrix_from_jumps(lindblad_jump_vectors(2, rates))


def sampler(t):
    h_t = 0.9 + 0.4 * np.sin(1.3 * t)
    st = assemble_structure_matrix(
        build_xy_hamiltonian(ChainParams(2, 0.5, h_t)), M
    )
    return st.A, st.A0


schedule = DriveSchedule(sampler, t_final=4.0, dt=1e-3)
T_start = TwoPointMatrix(np.eye(4, dtype=complex))
T_end = propagate_schedule(schedule, T_start)
print("driven n = 2 chain, h(t) = 0.9 + 0.4 sin(1.3 t), t = 0 -> 4:")
print("  final magnetizations:",
      np.array2string(np.array([T_end.B[0, 1], T_end.B[2, 3]]), precision=5))
print("  two-point identities hold:",
      np.abs(np.diag(T_end.T) - 1).max() < 1e-8)
