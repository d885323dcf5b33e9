"""The certified m_i search, omega maximization, planar oracles and grid cross-checks."""

import dataclasses
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from test_classify import trapped_1_23

from tribell.bell import MeasurementSettings, expectation_bell, multiaffine_form, omega, random_settings
from tribell.classify import _draw_state, sample_region
from tribell.core import PAULIS, ConsistencyError, ValidationError, _kron, _place
import tribell.optimize as opt
from tribell.optimize import (
    SPHERE_TOL,
    VERTEX_BLOCK,
    OptimizerConfig,
    _best_row,
    _half_icosahedron,
    _omega_model,
    _omega_values,
    _pair_power,
    _retract,
    maximize_omega,
    omega_planar_oracle,
    planar_case_settings,
    planar_grid_max,
    seesaw_max_abs_d,
    seesaw_max_abs_d_many,
)
from tribell.pauli import decompose
from tribell.states import (
    PARTITIONS,
    AcinParameters,
    DensityMatrix,
    PureState,
    acin_state,
    apply_local_unitaries,
    canonical_biseparable,
    generalized_ghz,
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


def plus_phi_plus():
    """|+> on qubit 1 with the maximally entangled pair on qubits 2,3."""
    amp = np.zeros(8, dtype=complex)
    amp[[0b000, 0b011, 0b100, 0b111]] = 0.5
    return to_density(PureState(amp))


class TestSeesaw:
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_ghz_reaches_sqrt2_on_every_index(self, i):
        res = seesaw_max_abs_d(to_density(ghz()), i)
        assert res.value == pytest.approx(SQ2, abs=1e-6)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_product_state_saturates_local_bound(self, i):
        res = seesaw_max_abs_d(ket000(), i)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_one_entangled_pair_pattern(self):
        """Qubit 1 separable from an entangled pair: sqrt(2) on axis 1 only."""
        rho = plus_phi_plus()
        assert seesaw_max_abs_d(rho, 1).value == pytest.approx(SQ2, abs=1e-6)
        assert seesaw_max_abs_d(rho, 2).value <= 1.0 + 1e-6
        assert seesaw_max_abs_d(rho, 3).value <= 1.0 + 1e-6

    def test_result_contract(self):
        rho = to_density(random_pure(17))
        res = seesaw_max_abs_d(rho, 2)
        # the search's lower end is the value; no ascent runs
        assert res.per_start_values == (res.value,)
        assert (res.sweeps_used, res.degenerate_updates) == (0, 0)
        assert res.value <= res.upper
        assert res.converged == (res.upper - res.value <= SPHERE_TOL + 1e-12)
        # the reported settings reproduce the reported value through the matrix path
        assert abs(expectation_bell(rho, res.settings, 2)) == pytest.approx(res.value, abs=1e-10)

    def test_bit_for_bit_reproducible(self):
        rho = random_in_class("2-13", 2, 8)
        r1 = seesaw_max_abs_d(rho, 1)
        r2 = seesaw_max_abs_d(rho, 1)
        assert r1.value == r2.value
        assert r1.per_start_values == r2.per_start_values
        np.testing.assert_array_equal(r1.settings.a, r2.settings.a)
        np.testing.assert_array_equal(r1.settings.b, r2.settings.b)

    def test_soundness_never_exceeds_sqrt2(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            rho = to_density(random_pure(int(rng.integers(2**63))))
            i = int(rng.integers(1, 4))
            assert seesaw_max_abs_d(rho, i).value <= SQ2 + 1e-9

    def test_maximally_mixed_closes_at_zero(self):
        """Every ceiling vanishes, so the bracket is [0, 0] with no degenerate updates."""
        res = seesaw_max_abs_d(maximally_mixed(), 1)
        assert (res.value, res.upper, res.converged) == (0.0, 0.0, True)
        assert res.degenerate_updates == 0

    def test_local_unitary_covariance_of_value(self):
        """Settings absorb local rotations, so the optimum is LU-invariant."""
        rng = np.random.default_rng(29)
        for seed in range(4):
            psi = random_pure(seed)
            rotated = apply_local_unitaries(psi, random_local_unitaries(rng))
            v1 = seesaw_max_abs_d(to_density(psi), 1).value
            v2 = seesaw_max_abs_d(to_density(rotated), 1).value
            assert v1 == pytest.approx(v2, abs=1e-5)

    def test_schmidt_form_product_respects_stretched_axis(self):
        """A pure single-pair product: the distinguished axis caps at sqrt(2)."""
        rho = random_in_class("12-3", 1, 77, pure_factors=True)
        assert seesaw_max_abs_d(rho, 3).value <= SQ2 + 1e-6

    def test_batch_matches_single(self):
        states = [to_density(random_pure(s)) for s in (3, 4)] + [random_in_class("2-13", 2, 6)]
        batch = seesaw_max_abs_d_many(states, (1, 2, 3))
        singles = [seesaw_max_abs_d(state, i) for i in (1, 2, 3) for state in states]
        for res, single in zip(batch, singles, strict=True):
            assert_same_result(res, single)

    @pytest.mark.parametrize("source, seed, n", [
        ("1-23", 31, 48),
        # a block edge splits the level of state 2's axis-2 search; pruned only
        # block by block, that level kept triangles which its lower end, raised
        # in the next block, rules out, and the merged value came out 2.5e-11
        # above the per-axis call's; each level is now pruned again at its
        # final lower ends
        ("haar-pure", 27, 64),
    ])
    def test_merged_axes_match_the_per_axis_calls(self, source, seed, n):
        """Every (state, axis) result of one (1, 2, 3) call is the per-axis call's, bit for bit.

        Some levels of the merged search hold more than VERTEX_BLOCK // 4
        triangles, so they split into blocks and some states straddle a
        block edge; a full block has VERTEX_BLOCK children.
        """
        rng = np.random.default_rng(seed)
        states = [_draw_state(source, rng) for _ in range(n)]
        children = []
        heights = opt._heights
        with mock.patch.object(opt, "_heights", lambda tri: children.append(len(tri)) or heights(tri)):
            merged = seesaw_max_abs_d_many(states, (1, 2, 3))
        assert VERTEX_BLOCK in children
        per_axis = [res for i in (1, 2, 3) for res in seesaw_max_abs_d_many(states, (i,))]
        for one, other in zip(merged, per_axis, strict=True):
            assert_same_result(one, other)

    def test_settings_are_read_only_views(self):
        for res in seesaw_max_abs_d_many([ket000(), to_density(w_state())], (1, 3)):
            for rows in (res.settings.a, res.settings.b):
                assert rows.shape == (3, 3)
                assert not rows.flags.writeable

    def test_one_stacked_intake_refuses_a_non_unit_row(self, monkeypatch):
        """A row off the unit sphere by 1e-6 raises the per-state intake's error, message and all."""
        original = opt._sphere_settings
        stretched = []

        def stretch(s, alpha, q, i):
            rows = original(s, alpha, q, i)
            if not stretched:
                rows[0, 0, 1] *= 1.0 + 1e-6  # a_2 of the first state
                stretched.append(rows[0].copy())
            return rows

        monkeypatch.setattr(opt, "_sphere_settings", stretch)
        with pytest.raises(ValidationError, match="a rows must be unit vectors") as info:
            seesaw_max_abs_d_many([to_density(w_state())], (1, 2, 3))
        with pytest.raises(ValidationError) as per_state:
            MeasurementSettings(*stretched[0])
        assert str(info.value) == str(per_state.value)

    def test_one_search_and_one_decompose_per_sample_call(self, monkeypatch):
        """An optimized sample call runs one sphere search and decomposes each state once.

        Its settings skip the intake of outside input: the one intake is the
        shared fixed setting that every sample call draws.
        """
        counts = dict.fromkeys(("search", "decompose", "intake"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(opt, "_sphere_search", counted("search", opt._sphere_search))
        monkeypatch.setattr(opt, "decompose", counted("decompose", opt.decompose))
        intake = counted("intake", MeasurementSettings.__post_init__)
        monkeypatch.setattr(MeasurementSettings, "__post_init__", intake)
        assert len(sample_region("1-23", 6, 3, "optimized")) == 6
        assert counts == {"search": 1, "decompose": 6, "intake": 1}

    def test_axes_must_be_a_list_or_tuple(self):
        for axes in (1, np.int64(2), "1"):
            with pytest.raises(ValidationError, match="axes must be a list or tuple"):
                seesaw_max_abs_d_many([ket000()], axes)
        with pytest.raises(ValidationError, match="index"):
            seesaw_max_abs_d_many([ket000()], (1, 4))

    def test_bad_index_rejected(self):
        for i in (5, 2.0, True):
            with pytest.raises(ValidationError, match="index"):
                seesaw_max_abs_d(ket000(), i)

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="n_starts"):
            OptimizerConfig(n_starts=0)
        with pytest.raises(ValidationError, match="seed"):
            OptimizerConfig(seed=-1)
        with pytest.raises(ValidationError, match="n_starts must be an integer"):
            OptimizerConfig(n_starts=2.5)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            OptimizerConfig(seed=True)
        assert OptimizerConfig(n_starts=np.int64(3)).n_starts == 3

    def test_cap_and_degenerate_count_are_constants(self):
        """The omega ascent's cap is 500, every result has no degenerate updates, and neither is settable."""
        assert OptimizerConfig().max_sweeps == 500
        with pytest.raises(TypeError):
            OptimizerConfig(max_sweeps=5)
        res = seesaw_max_abs_d(ket000(), 1)
        assert res.degenerate_updates == 0
        with pytest.raises(TypeError):
            dataclasses.replace(res, degenerate_updates=1)

    def test_one_contraction_per_slot_pair(self, monkeypatch):
        """Omega builds the multi-affine form once; the m_i search never builds it.

        The m_i search works on the Pauli tensors directly.
        """
        calls = []
        original = opt.multiaffine_form
        monkeypatch.setattr(opt, "multiaffine_form", lambda *a: calls.append(a) or original(*a))
        res = seesaw_max_abs_d(to_density(w_state()), 2)
        assert calls == []
        assert res.sweeps_used == 0
        monkeypatch.setattr(OptimizerConfig, "max_sweeps", 1)
        maximize_omega(to_density(w_state()), OptimizerConfig(n_starts=1))
        assert len(calls) == 1
        monkeypatch.setattr(OptimizerConfig, "max_sweeps", 5)
        maximize_omega(to_density(ghz()), OptimizerConfig(n_starts=3))
        assert len(calls) == 2

    def test_single_start_works(self):
        res = seesaw_max_abs_d(to_density(ghz()), 1)
        assert len(res.per_start_values) == 1
        assert res.value <= SQ2 + 1e-9

    def test_batched_recheck_catches_one_shifted_state(self, monkeypatch):
        """One stacked dense recheck per axis still compares every (state, axis) on its own."""
        states = [random_in_class("2-13", 2, seed) for seed in (6, 7, 8)]
        honest = seesaw_max_abs_d_many(states, (1, 2, 3))
        dense = opt.expectation_bell
        calls = []

        def shifted(rhos, settings, i):
            calls.append(len(rhos))
            values = dense(rhos, settings, i)
            if i == 2:
                values[1] += 1e-6 * np.sign(values[1])
            return values

        monkeypatch.setattr(opt, "expectation_bell", shifted)
        with pytest.raises(ConsistencyError, match="disagrees with matrix-path recomputation") as info:
            seesaw_max_abs_d_many(states, (1, 2, 3))
        assert calls == [3, 3, 3]
        assert repr(honest[len(states) + 1].value) in str(info.value)

    def test_empty_batch(self):
        assert seesaw_max_abs_d_many([], (1,)) == []
        assert seesaw_max_abs_d_many([ket000()], ()) == []


def random_state(kind, seed):
    """A Haar pure state or a full-rank Ginibre mixed state from ``seed``."""
    if kind == "pure":
        return to_density(random_pure(seed))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


def frobenius_bound(rho, i):
    """sqrt(lambda_max(Q_(i) Q_(i)^T + |alpha|^2 I - alpha alpha^T)): m_i never exceeds it."""
    d = decompose(rho)
    alpha = (d.alpha, d.beta, d.gamma)[i - 1]
    q = np.moveaxis(d.Q, i - 1, 0).reshape(3, 9)
    k = q @ q.T + alpha @ alpha * np.eye(3) - np.outer(alpha, alpha)
    return float(np.sqrt(np.linalg.eigvalsh(k)[-1]))


def rank_one_ceiling(rho, i):
    """Second ceiling on m_i from the SVD Q_(i) = sum_r sigma_r u_r (x) T_r, |T_r|_F = 1.

    sqrt(lambda_max(sigma_1^2 P u_1 u_1^T + |alpha|^2 I - alpha alpha^T) + 2 e sigma_1 sqrt(P)
    + e^2), with P = sigma_1^2 + sigma_2^2 of T_1 and e = sigma_2(Q_(i)).
    """
    d = decompose(rho)
    alpha = (d.alpha, d.beta, d.gamma)[i - 1]
    u, sigma, vt = np.linalg.svd(np.moveaxis(d.Q, i - 1, 0).reshape(3, 9))
    pair = np.linalg.svd(vt[0].reshape(3, 3), compute_uv=False)
    power = pair[0] ** 2 + pair[1] ** 2
    m = sigma[0] ** 2 * power * np.outer(u[:, 0], u[:, 0])
    m += alpha @ alpha * np.eye(3) - np.outer(alpha, alpha)
    e = sigma[1]
    return float(np.sqrt(np.linalg.eigvalsh(m)[-1] + 2.0 * e * sigma[0] * np.sqrt(power) + e * e))


def product_across_cut(i, pure, seed):
    """rho_i (x) rho_rest with qubit i pure or mixed and a full-rank rest, locally rotated."""
    rng = np.random.default_rng(seed)
    bloch = rng.standard_normal(3)
    bloch *= (1.0 if pure else rng.uniform(0.0, 1.0)) / np.linalg.norm(bloch)
    single = (PAULIS[0] + np.einsum("k,kab->ab", bloch, PAULIS[1:])) / 2.0
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rest = g @ g.conj().T
    u1, u2, u3 = random_local_unitaries(rng)
    u = _kron(_kron(u1, u2), u3)
    return DensityMatrix(u @ _place(_kron(single, rest / rest.trace().real), i) @ u.conj().T)


def with_white_noise(rho, p):
    """p rho + (1 - p) I/8, which scales alpha and Q by p."""
    return DensityMatrix(p * rho.matrix + (1.0 - p) * np.eye(8) / 8.0)


def rank_deficient_state(family, x, seed):
    """Products, pure pair states and generalized GHZ states, locally rotated."""
    if family == "product":
        return random_in_class(None, 1, seed, pure_factors=True)
    if family == "ghz":
        psi = generalized_ghz(x)
    else:
        psi = canonical_biseparable(family, x)
    rng = np.random.default_rng(seed)
    return to_density(apply_local_unitaries(psi, random_local_unitaries(rng)))


def assert_same_result(one, other):
    """Two m_i results agree bit for bit: bracket, flag and settings."""
    assert (one.value, one.upper, one.converged) == (other.value, other.upper, other.converged)
    np.testing.assert_array_equal(one.settings.a, other.settings.a)
    np.testing.assert_array_equal(one.settings.b, other.settings.b)


def counted_points(call):
    """``call()``'s result and the number of sphere points it evaluated."""
    seen = []
    values = opt._sphere_values

    def spy(alpha, q, owner, s):
        seen.append(len(s))
        return values(alpha, q, owner, s)

    with mock.patch.object(opt, "_sphere_values", spy):
        return call(), sum(seen)


class TestSphereSearch:
    SEARCH = settings(derandomize=True, database=None, max_examples=25, deadline=None)

    @SEARCH
    @given(
        kind=hst.sampled_from(["pure", "mixed"]),
        seed=hst.integers(0, 2**32),
        i=hst.integers(1, 3),
    )
    def test_bracket_holds(self, kind, seed, i):
        """value <= upper + tol <= Frobenius bound + tol, value >= |<D_i>| at random settings."""
        rho = random_state(kind, seed)
        res = seesaw_max_abs_d(rho, i)
        assert res.value <= res.upper + SPHERE_TOL
        assert res.upper <= frobenius_bound(rho, i) + 1e-12
        assert res.upper <= rank_one_ceiling(rho, i) + 1e-12
        for k in range(3):
            assert res.value >= abs(expectation_bell(rho, random_settings(seed + k), i)) - 1e-12

    @SEARCH
    @given(pure=hst.booleans(), seed=hst.integers(0, 2**32), i=hst.integers(1, 3))
    def test_products_across_the_cut_are_certified(self, pure, seed, i):
        """The second ceiling is exact on rho_i (x) rho_rest, so the bracket closes.

        The triangle bound alone closes such flat maxima only on triangles
        about 5e-5 wide and can stop at MAX_LIVE first.
        """
        rho = product_across_cut(i, pure, seed)
        res = seesaw_max_abs_d(rho, i)
        assert res.converged
        assert res.upper - res.value <= SPHERE_TOL
        assert res.upper == pytest.approx(rank_one_ceiling(rho, i), abs=1e-12)

    @SEARCH
    @given(pure=hst.booleans(), seed=hst.integers(0, 2**32), i=hst.integers(1, 3), shift=hst.integers(1, 2))
    def test_products_across_another_cut_close_at_level_zero(self, pure, seed, i, shift):
        """The Frobenius ceiling is exact when another qubit j is in a product with the rest.

        T(s) then has rank 1, so sigma_1^2 + sigma_2^2 = |T(s)|_F^2 and f(s) is a
        quadratic form whose top eigenvector, a level-0 point, attains the
        ceiling: the search evaluates the ten vertices and the two ceilings'
        eigenvectors and splits no triangle.
        """
        rho = product_across_cut((i + shift - 1) % 3 + 1, pure, seed)
        res, points = counted_points(lambda: seesaw_max_abs_d(rho, i))
        assert res.converged
        assert res.value == pytest.approx(frobenius_bound(rho, i), abs=1e-12)
        assert points <= 12

    def test_half_icosahedron_vertices_gather_into_its_faces(self):
        """Ten read-only vertices, numbered by first appearance in the faces, rebuild the faces exactly."""
        g = (1.0 + 5.0**0.5) / 2.0
        v = np.array([[0.0, x, y * g] for x in (-1, 1) for y in (-1, 1)])
        v = np.concatenate([v, np.roll(v, 1, axis=1), np.roll(v, 2, axis=1)])
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        near = v @ v.T > 0.4
        tri = v[np.array([f for f in combinations(range(12), 3) if near[np.ix_(f, f)].sum() == 9])]
        half = tri[tri.sum(axis=1) @ np.array([1.0, 2.0, 4.0]) > 0.0]
        vertices, faces = _half_icosahedron()
        assert vertices.shape == faces.shape == (10, 3)
        np.testing.assert_array_equal(vertices[faces], half)
        first = [int(k) for k in dict.fromkeys(faces.flat)]
        assert first == list(range(10))
        assert not vertices.flags.writeable and not faces.flags.writeable
        assert _half_icosahedron()[0] is vertices

    def test_sphere_points_on_biseparable_draws_stay_few(self):
        """Work guard: sample_region's optimized draws at seed 0, 8 per class, stay under a fixed count.

        Both closed-form ceilings close most of these states at level 0, and
        the batch takes 24,867 sphere points; a search that loses that
        closure takes about 32,000.  The ceiling is about 10 % above 24,867.
        """
        _, points = counted_points(
            lambda: [sample_region(c, 8, 0, "optimized") for c in ("1-23", "2-13", "fully-separable")]
        )
        assert points <= 27_350

    def test_level_zero_batch_beyond_one_block_matches_its_halves(self):
        """More than VERTEX_BLOCK // 12 problems run in chunks of that many, bit for bit.

        Qubit 2 is in a product with the rest, so on axes 1 and 3 the
        Frobenius ceiling and on axis 2 the leading term's closes each
        problem at level 0, on its 12 points.  342 problems make two chunks
        and 684 make three; no evaluation sees more than one chunk's
        problems or more than VERTEX_BLOCK points.
        """
        for n, axes in ((VERTEX_BLOCK // 12 + 1, (1,)), (228, (1, 2, 3))):
            self._check_chunks_match_halves(n, axes)

    @staticmethod
    def _check_chunks_match_halves(n, axes):
        states = [random_in_class("2-13", 1, seed, pure_factors=True) for seed in range(n)]
        rows, sizes = [], []
        values = opt._sphere_values

        def recorded(alpha, q, owner, s):
            rows.append(len(alpha))
            sizes.append(len(s))
            return values(alpha, q, owner, s)

        with mock.patch.object(opt, "_sphere_values", recorded):
            whole = seesaw_max_abs_d_many(states, axes)
        assert sum(sizes) == 12 * n * len(axes) > VERTEX_BLOCK >= max(sizes)
        assert max(rows) == VERTEX_BLOCK // 12
        parts = (states[:n // 2], states[n // 2:])
        halves = [seesaw_max_abs_d_many(part, axes) for part in parts]
        # results are axis-major, so the halves join axis by axis
        joined = [res for j in range(len(axes)) for half, part in zip(halves, parts)
                  for res in half[j * len(part):(j + 1) * len(part)]]
        for one, other in zip(whole, joined, strict=True):
            assert_same_result(one, other)

    @SEARCH
    @given(
        kind=hst.sampled_from(["pure", "mixed"]),
        seed=hst.integers(0, 2**32),
        i=hst.integers(1, 3),
        p=hst.floats(0.05, 0.95),
    )
    def test_white_noise_scales_the_bracket(self, kind, seed, i, p):
        """Noise scales alpha and Q by p, so m_i and both bracket ends scale by p."""
        rho = random_state(kind, seed)
        clean = seesaw_max_abs_d(rho, i)
        noisy = seesaw_max_abs_d(with_white_noise(rho, p), i)
        assert noisy.value == pytest.approx(p * clean.value, abs=1e-8)
        assert noisy.upper == pytest.approx(p * clean.upper, abs=1e-8)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(
        family=hst.sampled_from(("product", "ghz") + PARTITIONS),
        # angles next to pi/4 give T^T T three nearly equal eigenvalues
        x=hst.floats(0.0, np.pi / 2) | hst.floats(-1e-3, 1e-3).map(lambda d: np.pi / 4 + d),
        seed=hst.integers(0, 2**32),
        i=hst.integers(1, 3),
    )
    def test_vertex_values_never_undershoot(self, family, x, seed, i):
        """sigma_1^2 + sigma_2^2 of a rank-deficient T(s) never falls below the SVD's by 1e-12.

        Checked at 64 random directions s per state.
        """
        q = np.moveaxis(decompose(rank_deficient_state(family, x, seed)).Q, i - 1, 0)
        s = np.random.default_rng(seed).standard_normal((64, 3))
        t = np.einsum("nk,klm->nlm", s / np.linalg.norm(s, axis=1, keepdims=True), q)
        sigma = np.linalg.svd(t, compute_uv=False)
        assert np.all(_pair_power(t) >= sigma[:, 0] ** 2 + sigma[:, 1] ** 2 - 1e-12)

    def test_brackets_of_locally_rotated_states_overlap(self):
        """m_i is invariant under local unitaries, so the two brackets of U rho U^dagger and rho meet.

        Where both searches converged, both ends agree to twice the search tolerance.
        """
        rng = np.random.default_rng(2024)
        states = [random_pure(seed) for seed in range(12)]
        states += [canonical_biseparable(p, 0.6) for p in PARTITIONS] + [ghz(), w_state()]
        rotated = [apply_local_unitaries(psi, random_local_unitaries(rng)) for psi in states]
        pairs = zip(seesaw_max_abs_d_many(states, (1, 2, 3)), seesaw_max_abs_d_many(rotated, (1, 2, 3)))
        for k, (one, other) in enumerate(pairs):
            assert one.value <= other.upper + 1e-12, k
            assert other.value <= one.upper + 1e-12, k
            if one.converged and other.converged:
                assert abs(one.value - other.value) <= 2 * SPHERE_TOL, k
                assert abs(one.upper - other.upper) <= 2 * SPHERE_TOL, k


class TestTieRule:
    def test_first_start_within_tolerance_gives_the_settings(self, monkeypatch):
        """A start that beats an earlier one only at rounding level does not take over."""
        rho = to_density(ghz())
        first, second = random_settings(1), random_settings(2)
        vecs = np.stack([np.stack([m.a, m.b]) for m in (first, second)])
        obj = np.array([omega(rho, first), omega(rho, first) + 1e-13])
        assert _best_row(obj) == 0
        ascent = (obj, vecs, np.array([3, 7]), np.array([True, False]))
        monkeypatch.setattr(opt, "_newton_ascent", lambda *args: ascent)
        res = maximize_omega(rho)
        assert res.value == obj[1]
        assert res.per_start_values == tuple(obj)
        np.testing.assert_array_equal(res.settings.a, first.a)
        assert (res.sweeps_used, res.converged) == (3, True)


class TestMaximizeOmega:
    @pytest.mark.parametrize("cfg", [{"n_starts": 4}, {}, 4, "cfg"])
    def test_bad_config_rejected(self, cfg):
        with pytest.raises(ValidationError, match="cfg must be an OptimizerConfig"):
            maximize_omega(to_density(ghz()), cfg)

    def test_product_corner_saturates_three(self):
        """For product states every coordinate is capped at 1, so omega <= 3."""
        res = maximize_omega(ket000(), CFG)
        assert res.value == pytest.approx(3.0, abs=1e-6)

    def test_maximally_mixed_is_zero(self):
        """omega vanishes identically, so every start is certified at its first iteration."""
        res = maximize_omega(maximally_mixed(), CFG)
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.converged
        assert res.sweeps_used == 1

    @pytest.mark.parametrize(
        "make_state, target, tol",
        [
            # draws 5 and 11 have lower local maxima that an ascent can stop on
            pytest.param(lambda: drawn_1_23(5), 3.2006, None, id="1-23-draw-5"),
            pytest.param(lambda: drawn_1_23(6), 3.06, None, id="1-23-draw-6"),
            pytest.param(lambda: drawn_1_23(11), 0.59934, None, id="1-23-draw-11"),
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

    @pytest.mark.parametrize(
        "make_state, capped_value",
        [
            pytest.param(trapped_1_23, 3.335243051074, id="trapped"),
            pytest.param(lambda: drawn_1_23(2), 3.334887813825, id="1-23-draw-2"),
        ],
    )
    def test_polish_certifies_where_coordinate_ascent_is_capped(self, make_state, capped_value):
        """Block-coordinate ascent stopped these at the 500-sweep cap, at the values given."""
        res = maximize_omega(make_state(), CFG)
        assert res.converged
        assert res.sweeps_used < CFG.max_sweeps
        assert res.value >= capped_value

    def test_negative_curvature_tail_certifies_every_start(self):
        """Every default start on 1-23 draw 6 is certified within 60 iterations.

        Its best start ends where lambda_max(H_R) is about -1.9e-5, so a curvature
        floor far above CERT_CURV would damp the steps there and stall starts
        at the iteration cap.
        """
        ascents = []
        original = opt._newton_ascent

        def spy(*args):
            out = original(*args)
            ascents.append(out)
            return out

        with mock.patch.object(opt, "_newton_ascent", spy):
            maximize_omega(drawn_1_23(6), CFG)
        (_, _, used, certified), = ascents
        assert len(certified) == CFG.n_starts
        assert certified.all()
        assert used.max() <= 60

    def test_separable_states_respect_the_ball(self):
        """Mixtures of products stay in the radius-sqrt(3) ball even optimized."""
        for seed in range(4):
            rho = random_in_class(None, 3, seed)
            assert maximize_omega(rho, FAST_CFG).value <= 3.0 + 1e-9


def as_rows(m):
    """Settings as one row (1, 2, 3, 3) of a/b vectors."""
    return np.stack([m.a, m.b])[None]


def multiaffine(rho):
    return multiaffine_form(decompose(rho))


def pullback_gradient(form, vecs, basis, step):
    """Gradient in ``step`` (12,) of omega at the retraction of ``vecs`` along it.

    Each vector moves to y = (v + E xi)/|v + E xi|, whose derivative is
    (I - y y^T) E / |v + E xi|, and (I - y y^T) grad omega is the Riemannian
    gradient at y.  The retraction is second order, so the Hessian of this
    pullback at 0 is the Riemannian Hessian.
    """
    moved = _retract(vecs, basis, step[None])
    grad_r, _, moved_basis = _omega_model(form, moved)
    ambient = np.einsum("ma,mac->mc", grad_r[0].reshape(6, 2), moved_basis[0])
    v = np.swapaxes(vecs[0], 0, 1).reshape(6, 3)
    size = np.linalg.norm(v + np.einsum("ma,mac->mc", step.reshape(6, 2), basis[0]), axis=1)
    return np.einsum("mac,mc->ma", basis[0], ambient / size[:, None]).reshape(12)


class TestOmegaNewton:
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_form_reproduces_the_dense_path(self, kind):
        for seed in range(3):
            rho = random_state(kind, seed)
            form = multiaffine(rho)
            for k in range(4):
                m = random_settings(10 * seed + k)
                assert _omega_values(form, as_rows(m))[0] == pytest.approx(omega(rho, m), abs=1e-12)
                for i in (1, 2, 3):
                    square = _omega_values(form[i - 1:i], as_rows(m))[0]
                    assert square == pytest.approx(expectation_bell(rho, m, i) ** 2, abs=1e-12)

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_hessian_matches_gradient_differences(self, kind, i):
        """The exact Riemannian Hessian of <D_i>^2 against central differences of its gradient."""
        form = multiaffine(random_state(kind, 7 + i))[i - 1:i]
        vecs = as_rows(random_settings(i))
        grad_r, hess_r, basis = _omega_model(form, vecs)
        np.testing.assert_allclose(
            pullback_gradient(form, vecs, basis, np.zeros(12)), grad_r[0], atol=1e-12
        )
        h = 1e-5
        diffs = np.stack([
            (pullback_gradient(form, vecs, basis, h * e) - pullback_gradient(form, vecs, basis, -h * e))
            / (2.0 * h)
            for e in np.eye(12)
        ], axis=1)
        np.testing.assert_allclose(hess_r[0], diffs, atol=1e-6)

    @settings(derandomize=True, database=None, max_examples=12, deadline=None)
    @given(kind=hst.sampled_from(["pure", "mixed"]), seed=hst.integers(0, 2**32))
    def test_certificate_holds_at_the_returned_omega(self, kind, seed):
        """Where the Newton ascent certified the reported start, its settings are a local maximum."""
        rho = random_state(kind, seed)
        polished = []
        original = opt._newton_ascent

        def spy(*args):
            out = original(*args)
            polished.append(out)
            return out

        with mock.patch.object(opt, "_newton_ascent", spy), mock.patch.object(OptimizerConfig, "max_sweeps", 40):
            res = maximize_omega(rho, OptimizerConfig(n_starts=4))
        vecs = as_rows(res.settings)
        assume(any(
            np.array_equal(row, vecs[0]) for _, rows, _, certified in polished for row in rows[certified]
        ))
        grad_r, hess_r, _ = _omega_model(multiaffine(rho), vecs)
        assert np.linalg.norm(grad_r) <= 1e-8
        assert np.linalg.eigvalsh(hess_r[0])[-1] <= 1e-6


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
    def test_grid_reaches_ghz_optimum(self):
        """The 16-angle grid contains the exact GHZ maximizer."""
        value = planar_grid_max(to_density(ghz()), 1)
        assert value == pytest.approx(SQ2, abs=1e-12)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_grid_never_beats_seesaw_on_ghz(self, i):
        rho = to_density(ghz())
        grid = planar_grid_max(rho, i)
        best = seesaw_max_abs_d(rho, i).value
        assert grid <= best + 1e-6

    @pytest.mark.parametrize("partition", ["1-23", "2-13", "12-3"])
    def test_grid_never_beats_seesaw_on_canonical_biseparable(self, partition):
        for alpha in (np.pi / 4, np.pi / 8):
            rho = to_density(canonical_biseparable(partition, alpha))
            for i in (1, 2, 3):
                grid = planar_grid_max(rho, i)
                best = seesaw_max_abs_d(rho, i).value
                assert grid <= best + 1e-6
