"""Maximize the Bell expectations over settings and watch the bounds appear.

The certified sphere search drives each |<D_i>| to its ceiling: 1 for fully
separable states, sqrt(2) on the distinguished axis of a bi-separable state,
sqrt(2) on every axis for the GHZ state.  The quadratic form (sum of the three squared
expectations at one shared setting) reaches 3 on product states; for the GHZ
state the tuned maximum is strictly larger - the closing section reproduces
it against the closed-form value 3(u + 4u^2(1-u)) at u = (2+sqrt(7))/6.
"""

import numpy as np

from tribell import (
    OptimizerConfig,
    canonical_biseparable,
    ghz,
    maximally_mixed,
    maximize_omega,
    omega_planar_oracle,
    planar_grid_max,
    random_in_class,
    seesaw_max_abs_d,
    to_density,
)
from tribell.states import PureState

cfg = OptimizerConfig()
SQ2 = np.sqrt(2)

amp = np.zeros(8, dtype=complex)
amp[0] = 1.0
subjects = [
    ("|000>  (product)", to_density(PureState(amp))),
    ("random separable mixture", random_in_class(None, 3, 11)),
    ("pair state (x) |0>  (12-3)", to_density(canonical_biseparable("12-3", np.pi / 4))),
    ("GHZ", to_density(ghz())),
    ("I/8", maximally_mixed()),
]

print("== optimized |<D_i>| per state ==")
print(f"{'state':<28} {'m1':>10} {'m2':>10} {'m3':>10}")
for label, rho in subjects:
    ms = [seesaw_max_abs_d(rho, i).value for i in (1, 2, 3)]
    print(f"{label:<28} {ms[0]:>10.6f} {ms[1]:>10.6f} {ms[2]:>10.6f}")
print(f"(ceilings: 1 per axis if fully separable, sqrt(2) = {SQ2:.6f} universally)")

print("\n== brute-force planar grid never beats the certified search ==")
rho = to_density(ghz())
for i in (1, 2, 3):
    grid = planar_grid_max(rho, i)
    best = seesaw_max_abs_d(rho, i).value
    print(f"  i={i}: 16^3 grid {grid:.9f}  vs  search {best:.9f}")

print("\n== the quadratic form ==")
print("planar closed form at angle sum -pi/4:", omega_planar_oracle(-np.pi / 4, 0, 0))
res = maximize_omega(to_density(ghz()), cfg)
u = (2 + np.sqrt(7)) / 6
analytic = 3 * (u + 4 * u**2 * (1 - u))
print(f"maximize_omega(GHZ)      = {res.value:.9f}")
print(f"closed-form tuned value  = {analytic:.9f}")
print("The tuned maximum exceeds the aligned-settings value 3: the radius-sqrt(3)")
print("ball bounds separable states but not strongly entangled ones.")
print("maximize_omega(|000>)    =", f"{maximize_omega(subjects[0][1], cfg).value:.9f}  (cube corner)")
