"""Multi-start see-saw, omega maximization, planar oracles and grid cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from tribell.bell import expectation_bell, omega
from tribell.classify import _draw_state
from tribell.core import ValidationError
from tribell.optimize import (
    OptimizerConfig,
    _maximize_sphere_quadratic,
    maximize_omega,
    omega_planar_oracle,
    planar_case_settings,
    planar_grid_max,
    seesaw_max_abs_d,
)
from tribell.states import (
    AcinParameters,
    PureState,
    acin_state,
    apply_local_unitaries,
    canonical_biseparable,
    ghz,
    maximally_mixed,
    phi_plus_otimes_zero,
    random_in_class,
    random_local_unitaries,
    random_pure,
    to_density,
    w_state,
)

SQ2 = np.sqrt(2.0)
CFG = OptimizerConfig()
FAST_CFG = OptimizerConfig(n_starts=12)


def ket000():
    amp = np.zeros(8, dtype=complex)
    amp[0] = 1.0
    return to_density(PureState(amp))


def drawn_1_23(k):
    """The k-th of twelve 1-23 states drawn from default_rng(2024)."""
    rng = np.random.default_rng(2024)
    return [_draw_state("1-23", rng) for _ in range(12)][k]


def fibonacci_sphere(n):
    """n nearly uniform unit vectors (golden-angle spiral)."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    r = np.sqrt(1.0 - z * z)
    phi = np.pi * (1.0 + np.sqrt(5.0)) * k
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


FIB_GRID = fibonacci_sphere(6000)
ENTRIES = hst.floats(-2.0, 2.0, allow_nan=False)
UNIT_VECTORS = (
    hst.lists(hst.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: v / np.linalg.norm(v))
)


def sphere_objective(g, c, v):
    """|G v + c|^2 for each row of v."""
    r = v @ g.T + c
    return np.sum(r * r, axis=-1)


def plus_phi_plus():
    """|+> on qubit 1 with the maximally entangled pair on qubits 2,3."""
    amp = np.zeros(8, dtype=complex)
    amp[[0b000, 0b011, 0b100, 0b111]] = 0.5
    return to_density(PureState(amp))


class TestSeesaw:
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_ghz_reaches_sqrt2_on_every_index(self, i):
        res = seesaw_max_abs_d(to_density(ghz()), i, CFG)
        assert res.value == pytest.approx(SQ2, abs=1e-6)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_product_state_saturates_local_bound(self, i):
        res = seesaw_max_abs_d(ket000(), i, CFG)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_one_entangled_pair_pattern(self):
        """Qubit 1 separable from an entangled pair: sqrt(2) on axis 1 only."""
        rho = plus_phi_plus()
        assert seesaw_max_abs_d(rho, 1, CFG).value == pytest.approx(SQ2, abs=1e-6)
        assert seesaw_max_abs_d(rho, 2, CFG).value <= 1.0 + 1e-6
        assert seesaw_max_abs_d(rho, 3, CFG).value <= 1.0 + 1e-6

    def test_result_contract(self):
        rho = to_density(random_pure(17))
        res = seesaw_max_abs_d(rho, 2, CFG)
        assert res.value == max(res.per_start_values)
        assert len(res.per_start_values) == CFG.n_starts
        # the reported settings reproduce the reported value through the matrix path
        assert abs(expectation_bell(rho, res.settings, 2)) == pytest.approx(res.value, abs=1e-10)
        assert 1 <= res.sweeps_used <= CFG.max_sweeps

    def test_bit_for_bit_reproducible(self):
        rho = random_in_class("2-13", 2, 8)
        r1 = seesaw_max_abs_d(rho, 1, CFG)
        r2 = seesaw_max_abs_d(rho, 1, CFG)
        assert r1.value == r2.value
        assert r1.per_start_values == r2.per_start_values
        np.testing.assert_array_equal(r1.settings.a, r2.settings.a)
        np.testing.assert_array_equal(r1.settings.b, r2.settings.b)

    def test_soundness_never_exceeds_sqrt2(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            rho = to_density(random_pure(int(rng.integers(2**63))))
            i = int(rng.integers(1, 4))
            assert seesaw_max_abs_d(rho, i, FAST_CFG).value <= SQ2 + 1e-9

    def test_degenerate_gradients_flagged_on_maximally_mixed(self):
        res = seesaw_max_abs_d(maximally_mixed(), 1, FAST_CFG)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.degenerate_updates > 0

    def test_local_unitary_covariance_of_value(self):
        """Settings absorb local rotations, so the optimum is LU-invariant."""
        rng = np.random.default_rng(29)
        for seed in range(4):
            psi = random_pure(seed)
            rotated = apply_local_unitaries(psi, random_local_unitaries(rng))
            v1 = seesaw_max_abs_d(to_density(psi), 1, CFG).value
            v2 = seesaw_max_abs_d(to_density(rotated), 1, CFG).value
            assert v1 == pytest.approx(v2, abs=1e-5)

    def test_schmidt_form_product_respects_stretched_axis(self):
        """A pure single-pair product: the distinguished axis caps at sqrt(2)."""
        rho = random_in_class("12-3", 1, 77, pure_factors=True)
        assert seesaw_max_abs_d(rho, 3, CFG).value <= SQ2 + 1e-6

    def test_batch_matches_single(self):
        states = [to_density(random_pure(s)) for s in (3, 4)] + [random_in_class("2-13", 2, 6)]
        from tribell.optimize import seesaw_max_abs_d_many

        batch = seesaw_max_abs_d_many(states, 2, FAST_CFG)
        for state, res in zip(states, batch):
            single = seesaw_max_abs_d(state, 2, FAST_CFG)
            assert res.value == pytest.approx(single.value, abs=1e-9)

    def test_bad_index_rejected(self):
        for i in (5, 2.0, True):
            with pytest.raises(ValidationError, match="index"):
                seesaw_max_abs_d(ket000(), i, CFG)

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="n_starts"):
            OptimizerConfig(n_starts=0)
        with pytest.raises(ValidationError, match="seed"):
            OptimizerConfig(seed=-1)
        with pytest.raises(ValidationError, match="n_starts must be an integer"):
            OptimizerConfig(n_starts=2.5)
        with pytest.raises(ValidationError, match="max_sweeps must be an integer"):
            OptimizerConfig(max_sweeps=float("nan"))
        with pytest.raises(ValidationError, match="seed must be an integer"):
            OptimizerConfig(seed=True)
        assert OptimizerConfig(n_starts=np.int64(3)).n_starts == 3

    def test_one_contraction_per_slot_pair(self, monkeypatch):
        """Each sweep contracts every slot once for both of its vectors, plus one initial call."""
        import tribell.optimize as opt

        calls = []
        original = opt.affine_coefficients
        monkeypatch.setattr(opt, "affine_coefficients", lambda *a: calls.append(a) or original(*a))
        cfg = OptimizerConfig(n_starts=1, max_sweeps=1)
        seesaw_max_abs_d(to_density(w_state()), 2, cfg)
        assert len(calls) == 4
        calls.clear()
        maximize_omega(to_density(w_state()), cfg)
        assert len(calls) == 12

    def test_single_start_works(self):
        res = seesaw_max_abs_d(to_density(ghz()), 1, OptimizerConfig(n_starts=1))
        assert len(res.per_start_values) == 1
        assert res.value <= SQ2 + 1e-9

    def test_empty_batch(self):
        from tribell.optimize import seesaw_max_abs_d_many

        assert seesaw_max_abs_d_many([], 1, FAST_CFG) == []


class TestMaximizeOmega:
    def test_product_corner_saturates_three(self):
        """For product states every coordinate is capped at 1, so omega <= 3."""
        res = maximize_omega(ket000(), CFG)
        assert res.value == pytest.approx(3.0, abs=1e-6)

    def test_maximally_mixed_is_zero(self):
        res = maximize_omega(maximally_mixed(), CFG)
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.degenerate_updates > 0

    @pytest.mark.parametrize(
        "make_state, target, tol",
        [
            # a local ascent stalled at omega = 3 and reported converged
            pytest.param(lambda: drawn_1_23(5), 3.1, None, id="1-23-draw-5"),
            pytest.param(lambda: drawn_1_23(6), 3.06, None, id="1-23-draw-6"),
            pytest.param(w_state, 3.390460397, 1e-8, id="w"),
            pytest.param(phi_plus_otimes_zero, 3.222517085, 1e-8, id="phi-plus-otimes-0"),
            pytest.param(
                lambda: acin_state(AcinParameters(np.array([0.5, 0.5, 0.5, 0.5, 0.0]), 0.0)),
                3.546253018, 1e-8, id="acin-0.5",
            ),
        ],
    )
    def test_default_config_values(self, make_state, target, tol):
        """Pinned omega under the default config; floors where only a bound is known."""
        value = maximize_omega(make_state(), CFG).value
        if tol is None:
            assert value >= target
        else:
            assert value == pytest.approx(target, abs=tol)

    def test_ghz_exceeds_aligned_saturation(self):
        """The tuned quadratic maximum for GHZ sits at 3(u + 4u^2(1-u)), u=(2+sqrt7)/6.

        Aligned settings give exactly 3; the optimizer finds the strictly
        better interior configuration.
        """
        u = (2.0 + np.sqrt(7.0)) / 6.0
        analytic = 3.0 * (u + 4.0 * u**2 * (1.0 - u))
        res = maximize_omega(to_density(ghz()), CFG)
        assert res.value == pytest.approx(analytic, abs=1e-6)
        assert res.value >= 3.0  # aligned-settings value is a lower bound

    def test_result_reproduces_through_matrix_path(self):
        rho = to_density(random_pure(33))
        res = maximize_omega(rho, FAST_CFG)
        assert omega(rho, res.settings) == pytest.approx(res.value, abs=1e-10)
        assert res.value == max(res.per_start_values)

    def test_reproducible(self):
        rho = random_in_class("1-23", 2, 5)
        r1 = maximize_omega(rho, FAST_CFG)
        r2 = maximize_omega(rho, FAST_CFG)
        assert r1.value == r2.value
        assert r1.per_start_values == r2.per_start_values

    def test_separable_states_respect_the_ball(self):
        """Mixtures of products stay in the radius-sqrt(3) ball even optimized."""
        for seed in range(4):
            rho = random_in_class(None, 3, seed)
            assert maximize_omega(rho, FAST_CFG).value <= 3.0 + 1e-9


class TestSphereQuadraticStep:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        g=hst.lists(ENTRIES, min_size=9, max_size=9),
        c=hst.lists(ENTRIES, min_size=3, max_size=3),
        rank=hst.integers(0, 3),
        c_kind=hst.sampled_from(["free", "zero", "off-top"]),
        v0=UNIT_VECTORS,
    )
    def test_step_is_the_global_maximizer(self, g, c, rank, c_kind, v0):
        """Unit, never below v0, at least the best of a 6000-point grid, and optimal.

        Rank-deficient G, G = 0 and c = 0 or c off the top singular direction
        (the hard case when b = G^T c misses the top eigenvector) included.
        Optimality is the More-Sorensen certificate: with A = G^T G, b = G^T c
        and lam = v . (A v + b), (lam I - A) v = b and lam >= mu_max(A).
        """
        u, s, vt = np.linalg.svd(np.reshape(g, (3, 3)))
        s[rank:] = 0.0
        g = u @ np.diag(s) @ vt
        c = np.asarray(c)
        if c_kind == "zero":
            c = np.zeros(3)
        elif c_kind == "off-top":
            c = 0.1 * (c[1] * u[:, 1] + c[2] * u[:, 2])
        v, n_degenerate = _maximize_sphere_quadratic(g[None], c[None], v0[None])
        v = v[0]
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        value = sphere_objective(g, c, v)
        assert value >= sphere_objective(g, c, v0)
        assert value >= sphere_objective(g, c, FIB_GRID).max() - 1e-12
        a, b = g.T @ g, g.T @ c
        lam = v @ (a @ v + b)
        scale = 1.0 + np.linalg.norm(a) + np.linalg.norm(b)
        assert np.linalg.norm(lam * v - a @ v - b) <= 1e-7 * scale
        assert lam >= np.linalg.eigvalsh(a)[-1] - 1e-12 * scale
        assert n_degenerate[0] == (rank == 0)
        if c_kind == "zero":
            assert v @ v0 >= 0.0  # the hard case's sign stays on v0's side


class TestPlanarOracle:
    def test_maximizing_angle_sum(self):
        """cos - sin peaks at -pi/4, where the closed form reaches 3."""
        assert omega_planar_oracle(-np.pi / 4, 0.0, 0.0) == pytest.approx(3.0, abs=1e-12)

    def test_vanishing_angle_sum(self):
        assert omega_planar_oracle(np.pi / 12, np.pi / 12, np.pi / 12) == pytest.approx(0.0, abs=1e-12)

    def test_zero_angles(self):
        assert omega_planar_oracle(0.0, 0.0, 0.0) == pytest.approx(1.5, abs=1e-12)

    def test_orthogonal_pair_geometry(self):
        m = planar_case_settings(0.3, -0.8, 1.1)
        s, t = (m.a + m.b) / 2.0, (m.a - m.b) / 2.0
        np.testing.assert_allclose(np.linalg.norm(s, axis=1), 1 / SQ2, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(t, axis=1), 1 / SQ2, atol=1e-12)
        np.testing.assert_allclose(s[:, 2], 0.0, atol=0)

    def test_random_angles_agree_with_matrix_path(self):
        rng = np.random.default_rng(37)
        rho = to_density(ghz())
        for _ in range(10):
            t1, t2, t3 = rng.uniform(-np.pi, np.pi, size=3)
            closed = omega_planar_oracle(t1, t2, t3)
            direct = omega(rho, planar_case_settings(t1, t2, t3))
            assert closed == pytest.approx(direct, abs=1e-10)


class TestPlanarGrid:
    @pytest.mark.parametrize("n_angles", [0, -3, 2.5, True])
    def test_bad_angle_count_rejected(self, n_angles):
        with pytest.raises(ValidationError, match="n_angles"):
            planar_grid_max(to_density(ghz()), 1, n_angles=n_angles)

    def test_grid_reaches_ghz_optimum(self):
        """The 16-angle grid contains the exact GHZ maximizer."""
        value = planar_grid_max(to_density(ghz()), 1)
        assert value == pytest.approx(SQ2, abs=1e-12)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_grid_never_beats_seesaw_on_ghz(self, i):
        rho = to_density(ghz())
        grid = planar_grid_max(rho, i)
        best = seesaw_max_abs_d(rho, i, CFG).value
        assert grid <= best + 1e-6

    @pytest.mark.parametrize("partition", ["1-23", "2-13", "12-3"])
    def test_grid_never_beats_seesaw_on_canonical_biseparable(self, partition):
        for alpha in (np.pi / 4, np.pi / 8):
            rho = to_density(canonical_biseparable(partition, alpha))
            for i in (1, 2, 3):
                grid = planar_grid_max(rho, i)
                best = seesaw_max_abs_d(rho, i, FAST_CFG).value
                assert grid <= best + 1e-6
