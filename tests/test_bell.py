"""Bell operator construction and the two expectation paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from tribell.bell import (
    MeasurementSettings,
    affine_coefficients,
    bell_operator,
    expectation_bell,
    expectation_bell_fast,
    observable,
    omega,
    random_settings,
    wwzb_pair,
)
from tribell.core import I2, SX, SY, SZ, ValidationError, is_hermitian
from tribell.pauli import decompose
from tribell.states import ghz, maximally_mixed, random_in_class, random_pure, to_density

SQ2 = np.sqrt(2.0)
X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])


def k3(a, b, c):
    return np.kron(np.kron(a, b), c)


def ghz_sqrt2_settings():
    """Settings where the first operator reaches sqrt(2) on the GHZ state."""
    a = np.array([X_HAT, X_HAT, (X_HAT - Y_HAT) / SQ2])
    b = np.array([X_HAT, Y_HAT, (X_HAT + Y_HAT) / SQ2])
    return MeasurementSettings(a, b)


class TestObservable:
    def test_z(self):
        np.testing.assert_array_equal(observable(Z_HAT), SZ)

    def test_x(self):
        np.testing.assert_array_equal(observable(X_HAT), SX)

    def test_tilted_has_unit_eigenvalues(self):
        obs = observable(np.array([1.0, 1.0, 0.0]) / SQ2)
        np.testing.assert_allclose(obs, (SX + SY) / SQ2, atol=1e-15)
        np.testing.assert_allclose(np.linalg.eigvalsh(obs), [-1.0, 1.0], atol=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(ValidationError, match="unit"):
            observable(np.array([1.0, 1.0, 0.0]))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError, match="unit"):
            observable(np.array([np.nan, 0.0, 0.0]))


class TestWwzbPair:
    def test_chsh_combination_collapses(self):
        """A1=X, B1=Y with the diagonal pair gives (XX - YY)/sqrt(2)."""
        a = np.array([X_HAT, Z_HAT, (X_HAT - Y_HAT) / SQ2])
        b = np.array([Y_HAT, Z_HAT, (X_HAT + Y_HAT) / SQ2])
        m = MeasurementSettings(a, b)
        expected = (np.kron(SX, SX) - np.kron(SY, SY)) / SQ2
        np.testing.assert_allclose(wwzb_pair(m, excluded=2), expected, atol=1e-14)

    def test_equal_settings_collapse_to_product(self):
        m = MeasurementSettings.aligned(Z_HAT)
        np.testing.assert_allclose(wwzb_pair(m, excluded=1), np.kron(SZ, SZ), atol=1e-15)

    def test_operator_norm_bounded(self):
        """Pair operator norm never exceeds sqrt(2) (Tsirelson)."""
        for seed in range(40):
            m = random_settings(seed)
            for excl in (1, 2, 3):
                norms = np.linalg.norm(np.linalg.eigvalsh(wwzb_pair(m, excl)), np.inf)
                assert norms <= SQ2 + 1e-9


class TestBellOperator:
    def test_aligned_z_collapses_to_zzz(self):
        m = MeasurementSettings.aligned(Z_HAT)
        for i in (1, 2, 3):
            np.testing.assert_allclose(bell_operator(m, i), k3(SZ, SZ, SZ), atol=1e-15)

    def test_aligned_x_collapses_to_xxx(self):
        m = MeasurementSettings.aligned(X_HAT)
        for i in (1, 2, 3):
            np.testing.assert_allclose(bell_operator(m, i), k3(SX, SX, SX), atol=1e-15)

    def test_matches_explicit_middle_index_expansion(self):
        """Entrywise agreement with the fully expanded middle-index operator."""
        for seed in range(100):
            m = random_settings(seed)
            A = [observable(m.a[j]) for j in range(3)]
            B = [observable(m.b[j]) for j in range(3)]
            explicit = 0.25 * (
                k3(A[0], A[1] + B[1], A[2])
                + k3(A[0], A[1] + B[1], B[2])
                + k3(B[0], A[1] + B[1], A[2])
                - k3(B[0], A[1] + B[1], B[2])
            ) + k3(I2, (A[1] - B[1]) / 2.0, I2)
            np.testing.assert_allclose(bell_operator(m, 2), explicit, atol=1e-13)

    def test_hermitian_for_random_settings(self):
        for seed in range(25):
            m = random_settings(seed)
            for i in (1, 2, 3):
                assert is_hermitian(bell_operator(m, i), 1e-12)

    def test_bad_index_rejected(self):
        for i in (0, 2.0, True):
            with pytest.raises(ValidationError, match="index"):
                bell_operator(MeasurementSettings.aligned(Z_HAT), i)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_random_settings_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            random_settings(seed)


class TestExpectation:
    def test_ghz_aligned_x(self):
        rho = to_density(ghz())
        assert expectation_bell(rho, MeasurementSettings.aligned(X_HAT), 1) == pytest.approx(1.0)

    def test_ghz_reaches_sqrt2(self):
        """Hand value: <X(XX - YY)>/sqrt(2) on GHZ = (1 - (-1))/sqrt(2)."""
        rho = to_density(ghz())
        value = expectation_bell(rho, ghz_sqrt2_settings(), 1)
        assert value == pytest.approx(SQ2, abs=1e-12)

    def test_product_state_aligned_z(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        from tribell.states import PureState

        rho = to_density(PureState(amp))
        for i in (1, 2, 3):
            assert expectation_bell(rho, MeasurementSettings.aligned(Z_HAT), i) == pytest.approx(1.0)

    def test_universal_sqrt2_bound_sampled(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            rho = to_density(random_pure(int(rng.integers(2**63))))
            m = random_settings(int(rng.integers(2**63)))
            i = int(rng.integers(1, 4))
            assert abs(expectation_bell(rho, m, i)) <= SQ2 + 1e-9


class TestFastPath:
    def test_agrees_with_matrix_path(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            rho = to_density(random_pure(int(rng.integers(2**63))))
            m = random_settings(int(rng.integers(2**63)))
            i = int(rng.integers(1, 4))
            slow = expectation_bell(rho, m, i)
            fast = expectation_bell_fast(decompose(rho), m, i)
            assert slow == pytest.approx(fast, abs=1e-12)

    def test_maximally_mixed_vanishes(self):
        d = decompose(maximally_mixed())
        m = random_settings(5)
        for i in (1, 2, 3):
            assert expectation_bell_fast(d, m, i) == pytest.approx(0.0, abs=1e-15)

    def test_ghz_aligned_x_contracts_to_q111(self):
        d = decompose(ghz())
        m = MeasurementSettings.aligned(X_HAT)
        assert expectation_bell_fast(d, m, 1) == pytest.approx(1.0, abs=1e-12)

    def test_swapping_one_pair_negates_local_term_only(self):
        """a_i <-> b_i flips t_i (the local contribution) and fixes s_i."""
        rng = np.random.default_rng(81)
        for i in (1, 2, 3):
            m = random_settings(int(rng.integers(2**63)))
            rho = to_density(random_pure(int(rng.integers(2**63))))
            d = decompose(rho)
            a2, b2 = m.a.copy(), m.b.copy()
            a2[i - 1], b2[i - 1] = m.b[i - 1], m.a[i - 1]
            swapped = MeasurementSettings(a2, b2)
            t_i = (m.a[i - 1] - m.b[i - 1]) / 2.0
            local = (d.alpha, d.beta, d.gamma)[i - 1]
            delta = expectation_bell_fast(d, swapped, i) - expectation_bell_fast(d, m, i)
            assert delta == pytest.approx(-2.0 * float(t_i @ local), abs=1e-12)


def local_vectors(d):
    return np.stack([d.alpha, d.beta, d.gamma])


def draw_state(kind, seed):
    if kind == "pure":
        return to_density(random_pure(seed))
    return random_in_class(kind, 1 + seed % 3, seed)


UNIT_VECTORS = (
    hst.lists(hst.floats(-1.0, 1.0), min_size=3, max_size=3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: v / np.linalg.norm(v))
)


class TestAffineCoefficients:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        kind=hst.sampled_from(["pure", "fully-separable", "1-23", "2-13", "12-3"]),
        state_seed=hst.integers(0, 2**32 - 1),
        settings_seed=hst.integers(0, 2**32 - 1),
        i=hst.sampled_from((1, 2, 3)),
        j=hst.sampled_from((1, 2, 3)),
        u=UNIT_VECTORS,
        w=UNIT_VECTORS,
    )
    def test_affine_form_matches_matrix_path(self, kind, state_seed, settings_seed, i, j, u, w):
        """g_a . u + g_b . w + c0 is <D_i> with u, w substituted for a_j and b_j at once."""
        rho = draw_state(kind, state_seed)
        m = random_settings(settings_seed)
        d = decompose(rho)
        g_a, g_b, c0 = affine_coefficients(local_vectors(d), d.Q, m.a, m.b, i, j)
        a, b = m.a.copy(), m.b.copy()
        a[j - 1], b[j - 1] = u, w
        dense = expectation_bell(rho, MeasurementSettings(a, b), i)
        assert abs(float(g_a @ u + g_b @ w + c0) - dense) <= 1e-10

    def test_leading_axes_broadcast(self):
        """One state against stacked settings and per-row states both match row by row."""
        rng = np.random.default_rng(17)
        decs = [decompose(to_density(random_pure(int(rng.integers(2**63))))) for _ in range(4)]
        ms = [random_settings(int(rng.integers(2**63))) for _ in range(4)]
        a = np.stack([m.a for m in ms])
        b = np.stack([m.b for m in ms])
        local = np.stack([local_vectors(d) for d in decs])
        q = np.stack([d.Q for d in decs])
        for i, j in [(1, 1), (2, 3), (3, 1)]:
            rows = affine_coefficients(local, q, a, b, i, j)
            one = affine_coefficients(local[0], q[0], a, b, i, j)
            for form in (rows, one):
                assert [x.shape for x in form] == [(4, 3), (4, 3), (4,)]
            for n, (d, m) in enumerate(zip(decs, ms)):
                own = affine_coefficients(local_vectors(d), d.Q, m.a, m.b, i, j)
                first = affine_coefficients(local[0], q[0], m.a, m.b, i, j)
                for x_rows, x, x_one, x0 in zip(rows, own, one, first):
                    np.testing.assert_allclose(x_rows[n], x, atol=1e-15)
                    np.testing.assert_allclose(x_one[n], x0, atol=1e-15)

    def test_bad_indices_rejected(self):
        d = decompose(to_density(ghz()))
        m = random_settings(3)
        for bad in (0, 4, 2.0, True):
            with pytest.raises(ValidationError):
                affine_coefficients(local_vectors(d), d.Q, m.a, m.b, bad, 1)
            with pytest.raises(ValidationError):
                affine_coefficients(local_vectors(d), d.Q, m.a, m.b, 1, bad)


class TestOmega:
    def test_ghz_aligned_x_saturates(self):
        assert omega(to_density(ghz()), MeasurementSettings.aligned(X_HAT)) == pytest.approx(3.0)

    def test_cube_corner(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        from tribell.states import PureState

        rho = to_density(PureState(amp))
        assert omega(rho, MeasurementSettings.aligned(Z_HAT)) == pytest.approx(3.0)

    def test_maximally_mixed_vanishes(self):
        assert omega(maximally_mixed(), random_settings(9)) == pytest.approx(0.0, abs=1e-15)

    def test_random_pairs_stay_modest(self):
        """Random (state, settings) pairs do not approach the tuned maxima."""
        rng = np.random.default_rng(91)
        for _ in range(200):
            rho = to_density(random_pure(int(rng.integers(2**63))))
            m = random_settings(int(rng.integers(2**63)))
            assert omega(rho, m) <= 3.0 + 1e-9
