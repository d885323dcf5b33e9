"""Acceptance suite: one test per numbered criterion, at the stated tolerances.

Each criterion prints a single summary line (visible with ``pytest -s``).
Criterion 4 is expected to FAIL on its maximally-entangled saturation clause:
the tuned quadratic maximum for the GHZ state is 3(u + 4u^2(1-u)) with
u = (2+sqrt(7))/6, about 3.9467, strictly above the advertised ceiling of 3.
The optimizer is correct and cross-verified through the independent dense
matrix path; see the repository notes for the analysis.  The criterion is
asserted as stated rather than weakened.
"""

import numpy as np
import pytest

from tribell.bell import (
    expectation_bell,
    expectation_bell_fast,
    omega,
    random_settings,
)
from tribell.classify import _draw_state
from tribell.cli import main
from tribell.optimize import (
    OptimizerConfig,
    maximize_omega,
    omega_planar_oracle,
    planar_case_settings,
    planar_grid_max,
    seesaw_max_abs_d,
    seesaw_max_abs_d_many,
)
from tribell.pauli import decompose, invariant_norms, q_norm
from tribell.states import (
    DensityMatrix,
    PARTITIONS,
    PureState,
    apply_local_unitaries,
    canonical_biseparable,
    ghz,
    phi_plus_otimes_zero,
    random_in_class,
    random_local_unitaries,
    random_pure,
    to_density,
)

SQ2 = np.sqrt(2.0)
CFG = OptimizerConfig()  # 32 starts, 500 sweeps, 1e-12, seed 0

AXIS_OF = {"1-23": 1, "2-13": 2, "12-3": 3}


def ket000():
    amp = np.zeros(8, dtype=complex)
    amp[0] = 1.0
    return to_density(PureState(amp))


def random_mixed(rng):
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


def test_criterion_01_fully_separable_bound():
    """300 optimized fully separable mixtures stay inside the unit cube."""
    rng = np.random.default_rng(101)
    states = [
        random_in_class(
            None,
            int(rng.integers(1, 5)),
            int(rng.integers(2**63)),
            pure_factors=bool(rng.random() < 0.5),
        )
        for _ in range(300)
    ]
    violations = 0
    worst = 0.0
    for res in seesaw_max_abs_d_many(states, (1, 2, 3)):
        worst = max(worst, res.value)
        if res.value > 1.0 + 1e-6:
            violations += 1
    assert violations == 0, f"{violations} optimized values above 1+1e-6 (worst {worst})"
    for i in (1, 2, 3):
        saturation = seesaw_max_abs_d(ket000(), i).value
        assert saturation == pytest.approx(1.0, abs=1e-6)
    print(f"\nACCEPTANCE 1 PASS: 900 optimized values <= 1+1e-6 (worst {worst:.9f}); |000> saturates 1.000000")


def test_criterion_02_biseparable_cuboids():
    """200 optimized samples per bi-separable class respect the cuboid bounds."""
    rng = np.random.default_rng(202)
    counts = {}
    for partition in PARTITIONS:
        axis = AXIS_OF[partition]
        states = [_draw_state(partition, rng) for _ in range(200)]
        violations = 0
        stretched = 0
        results = seesaw_max_abs_d_many(states, (1, 2, 3))
        for k, res in enumerate(results):
            i = k // len(states) + 1
            limit = SQ2 + 1e-6 if i == axis else 1.0 + 1e-6
            if res.value > limit:
                violations += 1
            if i == axis and res.value > 1.0 + 1e-6:
                stretched += 1
        counts[partition] = (violations, stretched)
        assert violations == 0, f"{partition}: {violations} cuboid violations"
    saturation = seesaw_max_abs_d(to_density(phi_plus_otimes_zero()), 3).value
    assert saturation == pytest.approx(1.414214, abs=1e-6)
    print(f"\nACCEPTANCE 2 PASS: zero cuboid violations over 600 optimized samples {counts}; pair state reaches m3=1.414214")


def test_criterion_03_universal_sqrt2_bound():
    """|<D_i>| never exceeds sqrt(2) and the GHZ state attains it on every index."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in range(2000):
        if k % 2 == 0:
            rho = to_density(random_pure(int(rng.integers(2**63))))
        else:
            rho = random_mixed(rng)
        m = random_settings(int(rng.integers(2**63)))
        i = int(rng.integers(1, 4))
        value = abs(expectation_bell(rho, m, i))
        worst = max(worst, value)
        assert value <= SQ2 + 1e-9
    rho_ghz = to_density(ghz())
    for i in (1, 2, 3):
        assert seesaw_max_abs_d(rho_ghz, i).value == pytest.approx(1.414214, abs=1e-6)
    print(f"\nACCEPTANCE 3 PASS: 2000 random |<D_i>| <= sqrt2+1e-9 (max {worst:.9f}); GHZ hits 1.414214 on every index")


def test_criterion_04_sphere_bound():
    """Random-pair omega stays below 3; saturation values equal 3.000000.

    EXPECTED FAILURE on the final clause: the optimized quadratic maximum of
    the maximally entangled state is 3(u + 4u^2(1-u)) = 3.9466954... at
    u = (2+sqrt(7))/6, found identically by the see-saw and the independent
    dense matrix path, so it cannot equal 3.000000 +- 1e-6.
    """
    rng = np.random.default_rng(404)
    worst = 0.0
    for k in range(2000):
        if k % 2 == 0:
            rho = to_density(random_pure(int(rng.integers(2**63))))
        else:
            rho = random_mixed(rng)
        m = random_settings(int(rng.integers(2**63)))
        value = omega(rho, m)
        worst = max(worst, value)
        assert value <= 3.0 + 1e-9
    print(f"\nACCEPTANCE 4 (random pairs): 2000 omega values <= 3+1e-9 (max {worst:.9f})")

    corner = maximize_omega(ket000(), CFG).value
    assert corner == pytest.approx(3.0, abs=1e-6)
    print("ACCEPTANCE 4 (cube corner): maximize_omega(|000>) = 3.000000")

    ghz_value = maximize_omega(to_density(ghz()), CFG).value
    analytic = 3.0 * ((2 + np.sqrt(7)) / 6 + 4 * ((2 + np.sqrt(7)) / 6) ** 2 * (1 - (2 + np.sqrt(7)) / 6))
    assert ghz_value == pytest.approx(3.0, abs=1e-6), (
        f"maximize_omega(GHZ) = {ghz_value:.9f}, not 3.000000: the quadratic bound is "
        f"not saturated at 3 for the maximally entangled state (true tuned maximum "
        f"{analytic:.9f}); see notes/decisions ledger"
    )
    print("ACCEPTANCE 4 PASS")


def test_criterion_05_pure_state_invariants():
    """Coefficient-norm identities for 500 Haar states, GHZ tensor components."""
    for seed in range(500):
        d = decompose(random_pure(seed))
        two_body, q_local = invariant_norms(d)
        assert two_body == pytest.approx(3.0, abs=1e-10)
        assert q_local == pytest.approx(4.0, abs=1e-10)
        assert 1.0 - 1e-9 <= q_norm(d) <= 2.0 + 1e-9
    d = decompose(ghz())
    assert abs(d.Q[0, 0, 0] - 1.0) <= 1e-12
    for idx in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        assert abs(d.Q[idx] + 1.0) <= 1e-12
    off = d.Q.copy()
    off[0, 0, 0] = 0
    off[0, 1, 1] = off[1, 0, 1] = off[1, 1, 0] = 0
    assert np.max(np.abs(off)) <= 1e-12
    print("\nACCEPTANCE 5 PASS: 500 Haar states give norms (3, 4) +- 1e-10, q_norm in [1, 2]; GHZ components exact to 1e-12")


def test_criterion_06_local_unitary_invariance():
    """Random local rotations preserve the norms and the optimized maximum."""
    rng = np.random.default_rng(606)
    worst_norm = 0.0
    worst_opt = 0.0
    originals, rotated_all = [], []
    for seed in range(100):
        psi = random_pure(seed)
        rotated = apply_local_unitaries(psi, random_local_unitaries(rng))
        n1 = invariant_norms(decompose(psi))
        n2 = invariant_norms(decompose(rotated))
        worst_norm = max(worst_norm, abs(n1[0] - n2[0]), abs(n1[1] - n2[1]))
        assert n1[0] == pytest.approx(n2[0], abs=1e-10)
        assert n1[1] == pytest.approx(n2[1], abs=1e-10)
        originals.append(to_density(psi))
        rotated_all.append(to_density(rotated))
    results = seesaw_max_abs_d_many(originals + rotated_all, (1,))
    for r1, r2 in zip(results[:100], results[100:]):
        worst_opt = max(worst_opt, abs(r1.value - r2.value))
        assert r1.value == pytest.approx(r2.value, abs=1e-5)
    print(f"\nACCEPTANCE 6 PASS: 100 rotations preserve norms (worst {worst_norm:.2e}) and m1 (worst {worst_opt:.2e})")


def test_criterion_07_dual_path_oracle():
    """Matrix-trace and coefficient-contraction paths agree to 1e-12."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for k in range(1000):
        if k % 2 == 0:
            rho = to_density(random_pure(int(rng.integers(2**63))))
        else:
            rho = random_mixed(rng)
        m = random_settings(int(rng.integers(2**63)))
        i = int(rng.integers(1, 4))
        slow = expectation_bell(rho, m, i)
        fast = expectation_bell_fast(decompose(rho), m, i)
        worst = max(worst, abs(slow - fast))
        assert abs(slow - fast) <= 1e-12
    print(f"\nACCEPTANCE 7 PASS: 1000 dual-path evaluations agree (worst gap {worst:.2e})")


def test_criterion_08_angle_oracle():
    """Closed planar form matches the matrix path; grid supremum is 3."""
    rng = np.random.default_rng(808)
    rho = to_density(ghz())
    for _ in range(50):
        t1, t2, t3 = rng.uniform(-np.pi, np.pi, size=3)
        closed = omega_planar_oracle(t1, t2, t3)  # asserts agreement internally
        direct = omega(rho, planar_case_settings(t1, t2, t3))
        assert abs(closed - direct) <= 1e-10
    angles = 2 * np.pi * np.arange(16) / 16
    g1, g2, g3 = np.meshgrid(angles, angles, angles, indexing="ij")
    total = g1 + g2 + g3
    closed_grid = 1.5 * (np.cos(total) - np.sin(total)) ** 2
    assert np.max(closed_grid) == pytest.approx(3.0, abs=1e-12)
    print("\nACCEPTANCE 8 PASS: 50 random planar angle triples agree to 1e-10; 16^3 grid supremum = 3")


def test_criterion_09_seesaw_properties():
    """Checked results (dense recheck and bracket, inside the optimizer) and grid cross-check."""
    rng = np.random.default_rng(909)
    # a value off the dense path or above its certified upper end raises inside the optimizer
    for _ in range(20):
        rho = _draw_state(["fully-separable", "1-23", "2-13", "12-3", "haar-pure"][int(rng.integers(5))], rng)
        seesaw_max_abs_d(rho, int(rng.integers(1, 4)))
    rho_ghz = to_density(ghz())
    for i in (1, 2, 3):
        grid = planar_grid_max(rho_ghz, i)
        best = seesaw_max_abs_d(rho_ghz, i).value
        assert grid <= best + 1e-6
    for partition in PARTITIONS:
        for alpha in (np.pi / 4, np.pi / 8):
            rho = to_density(canonical_biseparable(partition, alpha))
            for i in (1, 2, 3):
                grid = planar_grid_max(rho, i)
                best = seesaw_max_abs_d(rho, i).value
                assert grid <= best + 1e-6
    print("\nACCEPTANCE 9 PASS: every result rechecked; 16^3 planar grid never beats the m_i search by more than 1e-6")


def test_criterion_10_figure_reproduction(capsys, tmp_path):
    """CLI sampling populates regions I, II, III and corner deterministically."""
    specs = [
        ("fully-separable", "fixed-settings", 120),
        ("1-23", "optimized", 40),
        ("2-13", "optimized", 40),
        ("ghz-family", "optimized", 40),
    ]
    blocks = {}
    for label, mode, n in specs:
        argv = ["sample", "--class", label, "-n", str(n), "--seed", "10", "--mode", mode]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second, "sample output must be byte-identical per seed"
        blocks[label] = first
    combined = tmp_path / "combined.csv"
    rows = ["d1,d2,d3,class"]
    for block in blocks.values():
        rows.extend(block.strip().split("\n")[1:])
    combined.write_text("\n".join(rows) + "\n")
    assert main(["figure", str(combined), "--plane", "12"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")[1:]
    seen = {"I": 0, "II": 0, "III": 0, "corner": 0}
    for line in lines:
        u, v, region, label = line.split(",")
        seen[region] += 1
        if label == "fully-separable":
            assert region == "I", f"fully separable point left region I: {line}"
    assert all(seen[r] > 0 for r in seen), f"regions not all populated: {seen}"
    print(f"\nACCEPTANCE 10 PASS: regions populated {seen}; fully separable points confined to I; output deterministic")
