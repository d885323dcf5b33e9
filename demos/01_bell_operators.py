"""Build the three Bell operators and evaluate them along both paths.

Walks through: dichotomic observables from Bloch vectors, the CHSH-type pair
operator, assembly of the full 8x8 operators D_1, D_2, D_3, and the agreement
between the dense matrix-trace expectation and the fast Pauli-contraction
expectation.
"""

import numpy as np

from tribell import (
    MeasurementSettings,
    bell_operator,
    decompose,
    expectation_bell,
    expectation_bell_fast,
    ghz,
    observable,
    random_settings,
    to_density,
    wwzb_pair,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])

print("== observables ==")
print("Z-axis observable:\n", observable(Z).real)

print("\n== pair operator at CHSH-optimal settings ==")
m = MeasurementSettings(
    np.array([X, X, (X - Y) / np.sqrt(2)]),
    np.array([X, Y, (X + Y) / np.sqrt(2)]),
)
pair = wwzb_pair(m, excluded=1)
print("operator norm of the pair combination:", np.linalg.norm(np.linalg.eigvalsh(pair), np.inf))
print("(the quantum ceiling for this normalization is sqrt(2) =", np.sqrt(2), ")")

print("\n== full operators collapse at aligned settings ==")
aligned = MeasurementSettings.aligned(Z)
D1 = bell_operator(aligned, 1)
print("all a=b=z gives D_i = Z (x) Z (x) Z: diagonal", np.real(np.diag(D1)))

print("\n== GHZ state pushes index 1 to sqrt(2) ==")
rho = to_density(ghz())
for i in (1, 2, 3):
    print(f"  <D_{i}> at the tuned settings: {expectation_bell(rho, m, i):+.9f}")

print("\n== the two expectation paths agree to machine precision ==")
d = decompose(rho)
worst = 0.0
for seed in range(200):
    ms = random_settings(seed)
    for i in (1, 2, 3):
        gap = abs(expectation_bell(rho, ms, i) - expectation_bell_fast(d, ms, i))
        worst = max(worst, gap)
print("largest gap over 600 evaluations:", worst)
