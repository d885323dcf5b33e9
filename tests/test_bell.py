"""Bell operator construction and the two expectation paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from tribell.bell import (
    MeasurementSettings,
    _bell_operators,
    _homogeneous,
    bell_operator,
    expectation_bell,
    expectation_bell_fast,
    multiaffine_form,
    observable,
    omega,
    random_settings,
    wwzb_pair,
)
from tribell.core import I2, SX, SY, SZ, ValidationError, _expectations, is_hermitian
from tribell.optimize import planar_grid_max
from tribell.pauli import decompose
from tribell.states import ghz, maximally_mixed, random_in_class, random_pure, reduced_qubit, to_density

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
        with pytest.raises(ValidationError, match="Bloch vector must be finite"):
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
        """Entrywise agreement with the fully expanded operator, for every index.

        D_1 and D_3 pin the interleaving that aligned settings cannot see: the
        (A_i +/- B_i) factors sit on slot i and the pair keeps its slot order.
        """
        for seed in range(100):
            m = random_settings(seed)
            A = [observable(m.a[j]) for j in range(3)]
            B = [observable(m.b[j]) for j in range(3)]
            explicit = {
                1: 0.25 * (
                    k3(A[0] + B[0], A[1], A[2])
                    + k3(A[0] + B[0], A[1], B[2])
                    + k3(A[0] + B[0], B[1], A[2])
                    - k3(A[0] + B[0], B[1], B[2])
                ) + k3((A[0] - B[0]) / 2.0, I2, I2),
                2: 0.25 * (
                    k3(A[0], A[1] + B[1], A[2])
                    + k3(A[0], A[1] + B[1], B[2])
                    + k3(B[0], A[1] + B[1], A[2])
                    - k3(B[0], A[1] + B[1], B[2])
                ) + k3(I2, (A[1] - B[1]) / 2.0, I2),
                3: 0.25 * (
                    k3(A[0], A[1], A[2] + B[2])
                    + k3(A[0], B[1], A[2] + B[2])
                    + k3(B[0], A[1], A[2] + B[2])
                    - k3(B[0], B[1], A[2] + B[2])
                ) + k3(I2, I2, (A[2] - B[2]) / 2.0),
            }
            for i, want in explicit.items():
                np.testing.assert_allclose(bell_operator(m, i), want, atol=1e-13)

    def test_hermitian_for_random_settings(self):
        for seed in range(25):
            m = random_settings(seed)
            for i in (1, 2, 3):
                assert is_hermitian(bell_operator(m, i), 1e-12)

    def test_stacked_builder_matches_each_row(self):
        """D_i built from stacked setting rows is bit-identical to each row's bell_operator."""
        ms = [random_settings(seed) for seed in range(40)]
        a, b = np.stack([m.a for m in ms]), np.stack([m.b for m in ms])
        for i in (1, 2, 3):
            stack = _bell_operators(a, b, i)
            assert stack.shape == (40, 8, 8)
            for op, m in zip(stack, ms):
                assert op.tobytes() == bell_operator(m, i).tobytes()
            grid = _bell_operators(a.reshape(4, 10, 3, 3), b.reshape(4, 10, 3, 3), i)
            assert grid.reshape(40, 8, 8).tobytes() == stack.tobytes()

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

    def test_stacked_states_match_single_calls(self):
        """A list of states at one shared setting, or at one setting each, traces row by row."""
        rhos = [to_density(random_pure(k)) for k in range(6)] + [random_in_class("1-23", 2, 6)]
        ms = [random_settings(k) for k in range(7)]
        for i in (1, 2, 3):
            shared = expectation_bell(rhos, ms[0], i)
            own = expectation_bell(tuple(rhos), ms, i)
            assert shared.shape == own.shape == (7,)
            for k, rho in enumerate(rhos):
                assert shared[k] == expectation_bell(rho, ms[0], i)
                assert own[k] == expectation_bell(rho, ms[k], i)
        assert expectation_bell([], ms[0], 1).shape == (0,)
        assert expectation_bell([ghz()], [ms[0]], 2)[0] == expectation_bell(ghz(), ms[0], 2)

    def test_stacked_call_checks_its_inputs(self):
        rhos = [to_density(random_pure(k)) for k in range(3)]
        m = random_settings(1)
        with pytest.raises(ValidationError, match="3 states but 2 settings"):
            expectation_bell(rhos, [m, m], 1)
        with pytest.raises(ValidationError, match="MeasurementSettings"):
            expectation_bell(rhos[0], [m], 1)
        with pytest.raises(ValidationError, match="PureState or DensityMatrix"):
            expectation_bell([rhos[0], rhos[1].matrix], m, 1)
        with pytest.raises(ValidationError, match="index"):
            expectation_bell(rhos, m, 4)

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


def draw_state(kind, seed):
    if kind == "pure":
        return to_density(random_pure(seed))
    return random_in_class(kind, 1 + seed % 3, seed)


# arbitrary real setting rows: the form is multi-affine, so unit length is not needed
SETTING_ROWS = hst.lists(hst.floats(-2.0, 2.0), min_size=9, max_size=9).map(
    lambda v: np.array(v).reshape(3, 3)
)


def form_value(form, a, b):
    """C[X_1, X_2, X_3] at X_j = (1, a_j, b_j); leading axes of a, b broadcast."""
    x = _homogeneous(a, b)
    return np.einsum("klm,...k,...l,...m->...", form, x[..., 0, :], x[..., 1, :], x[..., 2, :])


class TestMultiaffineForm:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        kind=hst.sampled_from(["pure", "fully-separable", "1-23", "2-13", "12-3"]),
        state_seed=hst.integers(0, 2**32 - 1),
        a=SETTING_ROWS,
        b=SETTING_ROWS,
    )
    def test_form_matches_dense_builder(self, kind, state_seed, a, b):
        """C_i at any real rows a, b is the dense trace of D_i built from the same rows.

        Arbitrary rows make every one of the 343 coefficients of each C_i
        count, so this pins the whole term table against the dense builder.
        """
        rho = draw_state(kind, state_seed)
        form = multiaffine_form(decompose(rho))
        for i in (1, 2, 3):
            dense = _expectations(_bell_operators(a, b, i), rho.matrix)
            assert abs(form_value(form[i - 1], a, b) - dense) <= 1e-10

    def test_one_form_serves_a_stack_of_settings(self):
        """One state's form against stacked setting rows matches the dense stack row by row."""
        rng = np.random.default_rng(17)
        rho = to_density(random_pure(int(rng.integers(2**63))))
        form = multiaffine_form(decompose(rho))
        a, b = rng.standard_normal((2, 5, 3, 3))
        for i in (1, 2, 3):
            stacked = form_value(form[i - 1], a, b)
            assert stacked.shape == (5,)
            dense = _expectations(_bell_operators(a, b, i), rho.matrix)
            np.testing.assert_allclose(stacked, dense, atol=1e-12)

    def test_bad_indices_rejected(self):
        d = decompose(to_density(ghz()))
        m = random_settings(3)
        for bad in (0, 4, 2.0, True):
            with pytest.raises(ValidationError, match="operator index"):
                expectation_bell_fast(d, m, bad)
            with pytest.raises(ValidationError, match="operator index"):
                planar_grid_max(to_density(ghz()), bad)

    def test_wrong_argument_types_rejected(self):
        """A state in place of its decomposition, or no settings, is a ValidationError."""
        rho = to_density(ghz())
        with pytest.raises(ValidationError, match="PauliDecomposition"):
            multiaffine_form(rho)
        with pytest.raises(ValidationError, match="PauliDecomposition"):
            expectation_bell_fast(rho, random_settings(1), 1)
        for bad in (None, {"a": X_HAT}):
            with pytest.raises(ValidationError, match="MeasurementSettings"):
                expectation_bell_fast(decompose(rho), bad, 1)

    @pytest.mark.parametrize("k, partition", [(1, "1-23"), (2, "2-13"), (3, "12-3")])
    def test_cut_qubit_enters_through_two_projections(self, k, partition):
        """On a product across cut k, <D_i> sees a_k, b_k only through a_k . n and b_k . n.

        n is qubit k's Bloch vector: slot k of the form reads (1, a_k . n,
        b_k . n).  Rotating a_k and b_k about n by different angles keeps
        both projections, so the dense path must give the same three values.
        """
        rng = np.random.default_rng(40 + k)
        for seed in range(3):
            rho = random_in_class(partition, 1, seed)  # one product (qubit k) (x) (pair)
            n = np.array([np.trace(reduced_qubit(rho, k) @ p).real for p in (SX, SY, SZ)])
            m = random_settings(int(rng.integers(2**63)))
            a, b = m.a.copy(), m.b.copy()
            a[k - 1], b[k - 1] = rotate_about(m.a[k - 1], n, 0.7), rotate_about(m.b[k - 1], n, -2.1)
            moved = MeasurementSettings(a, b)
            assert np.abs(a[k - 1] - m.a[k - 1]).max() > 1e-3
            for i in (1, 2, 3):
                before = expectation_bell(rho, m, i)
                assert expectation_bell(rho, moved, i) == pytest.approx(before, abs=1e-12)


def rotate_about(v, axis, angle):
    """Rodrigues rotation of v about ``axis`` by ``angle``; keeps v . axis."""
    u = axis / np.linalg.norm(axis)
    return v * np.cos(angle) + np.cross(u, v) * np.sin(angle) + u * (u @ v) * (1.0 - np.cos(angle))


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
