"""Pauli decomposition, reconstruction round trips, local-unitary invariants."""

import dataclasses

import numpy as np
import pytest
from test_states import identity_grid

from tribell.core import I2, SX, SY, SZ, ValidationError
from tribell.pauli import (
    PauliDecomposition,
    decompose,
    invariant_norms,
    q_norm,
    reconstruct,
    reconstruct_state,
)
from tribell.states import (
    DensityMatrix,
    PureState,
    apply_local_unitaries,
    ghz,
    maximally_mixed,
    random_local_unitaries,
    random_pure,
    to_density,
    w_state,
)

PAULIS = [I2, SX, SY, SZ]


def naive_decompose(rho):
    """Independent oracle: 64 explicit traces over freshly built Kronecker strings."""
    c = np.zeros((4, 4, 4))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                string = np.kron(np.kron(PAULIS[i], PAULIS[j]), PAULIS[k])
                c[i, j, k] = np.trace(rho @ string).real
    return c


def assert_matches_naive(state):
    d = decompose(state)
    c = naive_decompose(to_density(state).matrix if isinstance(state, PureState) else state.matrix)
    assert d.grid[0, 0, 0] == 1.0
    np.testing.assert_allclose(d.grid, c, atol=1e-12)
    np.testing.assert_allclose(d.alpha, c[1:, 0, 0], atol=1e-12)
    np.testing.assert_allclose(d.beta, c[0, 1:, 0], atol=1e-12)
    np.testing.assert_allclose(d.gamma, c[0, 0, 1:], atol=1e-12)
    np.testing.assert_allclose(d.R, c[1:, 1:, 0], atol=1e-12)
    np.testing.assert_allclose(d.S, c[1:, 0, 1:], atol=1e-12)
    np.testing.assert_allclose(d.T, c[0, 1:, 1:], atol=1e-12)
    np.testing.assert_allclose(d.Q, c[1:, 1:, 1:], atol=1e-12)


class TestDecompose:
    def test_maximally_mixed_vanishes(self):
        d = decompose(maximally_mixed())
        for block in (d.alpha, d.beta, d.gamma, d.R, d.S, d.T, d.Q):
            np.testing.assert_allclose(block, 0.0, atol=1e-14)

    def test_ghz_components(self):
        """Three-body tensor: one +1 along xxx, three -1 on the xyy permutations."""
        d = decompose(ghz())
        expected_q = np.zeros((3, 3, 3))
        expected_q[0, 0, 0] = 1.0
        expected_q[0, 1, 1] = expected_q[1, 0, 1] = expected_q[1, 1, 0] = -1.0
        np.testing.assert_allclose(d.Q, expected_q, atol=1e-12)
        for two_body in (d.R, d.S, d.T):
            expected = np.zeros((3, 3))
            expected[2, 2] = 1.0
            np.testing.assert_allclose(two_body, expected, atol=1e-12)
        for local in (d.alpha, d.beta, d.gamma):
            np.testing.assert_allclose(local, 0.0, atol=1e-12)

    def test_product_state_000(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        d = decompose(PureState(amp))
        np.testing.assert_allclose(d.alpha, [0, 0, 1], atol=1e-14)
        np.testing.assert_allclose(d.beta, [0, 0, 1], atol=1e-14)
        np.testing.assert_allclose(d.gamma, [0, 0, 1], atol=1e-14)
        assert d.R[2, 2] == pytest.approx(1.0)
        assert d.S[2, 2] == pytest.approx(1.0)
        assert d.T[2, 2] == pytest.approx(1.0)
        assert d.Q[2, 2, 2] == pytest.approx(1.0)
        assert np.sum(np.abs(d.Q)) == pytest.approx(1.0)

    def test_against_naive_oracle(self):
        assert_matches_naive(ghz())
        assert_matches_naive(w_state())
        for seed in range(4):
            assert_matches_naive(random_pure(seed))


class TestGrid:
    """The (4, 4, 4) grid is the one stored form; the seven blocks are views of it."""

    def test_grid_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(PauliDecomposition)] == ["grid"]

    @pytest.mark.parametrize("trace", [0.0, 1.0 + 2**-52, 8.0])
    def test_identity_entry_must_be_one(self, trace):
        grid = identity_grid()
        grid[0, 0, 0] = trace
        with pytest.raises(ValidationError, match=r"^Pauli coefficients must have \[0, 0, 0\] = 1"):
            PauliDecomposition(grid)

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "R", "S", "T", "Q"])
    def test_blocks_are_read_only_views(self, name):
        d = decompose(random_pure(7))
        block = getattr(d, name)
        assert np.shares_memory(block, d.grid)
        assert not block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block[0] = 0.0


class TestReconstruct:
    def test_zero_coefficients_give_maximally_mixed(self):
        d = PauliDecomposition(identity_grid())
        np.testing.assert_allclose(reconstruct(d), np.eye(8) / 8, atol=0)

    def test_round_trip_state_space(self):
        for state in (ghz(), w_state(), random_pure(13)):
            rho = to_density(state)
            np.testing.assert_allclose(reconstruct(decompose(rho)), rho.matrix, atol=1e-12)

    def test_round_trip_coefficient_space(self):
        d = PauliDecomposition(random_grid(17))
        back = decompose_raw(reconstruct(d))
        for name in ("alpha", "beta", "gamma", "R", "S", "T", "Q"):
            np.testing.assert_allclose(getattr(back, name), getattr(d, name), atol=1e-12)

    def test_reconstruction_is_exactly_hermitian_unit_trace(self):
        d = PauliDecomposition(random_grid(23))
        m = reconstruct(d)
        np.testing.assert_array_equal(m, m.conj().T)  # conjugate pairs round identically
        assert m.trace().real == pytest.approx(1.0, abs=1e-15)  # 1 ulp of addition order
        assert m.trace().imag == 0.0

    def test_unphysical_coefficients_flagged(self):
        grid = identity_grid()
        grid[1, 1, 1] = 5.0  # Q[0, 0, 0], far outside the physical range
        d = PauliDecomposition(grid)
        with pytest.raises(ValidationError, match="positive semidefinite"):
            reconstruct_state(d)

    def test_valid_state_reconstructs_validated(self):
        rho = to_density(ghz())
        out = reconstruct_state(decompose(rho))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)


def decompose_raw(matrix):
    """Decompose an arbitrary 8x8 Hermitian matrix without state validation."""
    from tribell import pauli as _p

    grid = np.einsum("ijkab,ba->ijk", _p._STRINGS, matrix).real
    grid[0, 0, 0] = 1.0
    return PauliDecomposition(grid)


def random_grid(seed):
    """Coefficients uniform in [-1, 1], with the identity's [0, 0, 0] = 1."""
    grid = np.random.default_rng(seed).uniform(-1, 1, (4, 4, 4))
    grid[0, 0, 0] = 1.0
    return grid


class TestInvariants:
    def test_pure_state_norm_relations(self):
        """Every pure state: two-body norms sum to 3, Q plus locals to 4."""
        for seed in range(50):
            two_body, q_local = invariant_norms(decompose(random_pure(seed)))
            assert two_body == pytest.approx(3.0, abs=1e-10)
            assert q_local == pytest.approx(4.0, abs=1e-10)

    def test_maximally_mixed_norms_vanish(self):
        assert invariant_norms(decompose(maximally_mixed())) == (0.0, 0.0)

    def test_ghz_norm_split(self):
        d = decompose(ghz())
        two_body, q_local = invariant_norms(d)
        assert two_body == pytest.approx(3.0, abs=1e-12)
        assert q_local == pytest.approx(4.0, abs=1e-12)
        assert np.sum(d.Q**2) == pytest.approx(4.0, abs=1e-12)

    def test_w_state_norms(self):
        two_body, q_local = invariant_norms(decompose(w_state()))
        assert two_body == pytest.approx(3.0, abs=1e-10)
        assert q_local == pytest.approx(4.0, abs=1e-10)

    def test_q_norm_extremes(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        assert q_norm(decompose(PureState(amp))) == pytest.approx(1.0, abs=1e-12)
        assert q_norm(decompose(ghz())) == pytest.approx(2.0, abs=1e-12)

    def test_q_norm_range_random(self):
        for seed in range(60):
            qn = q_norm(decompose(random_pure(seed)))
            assert 1.0 - 1e-9 <= qn <= 2.0 + 1e-9

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(31)
        for seed in range(10):
            psi = random_pure(seed)
            rotated = apply_local_unitaries(psi, random_local_unitaries(rng))
            n1 = invariant_norms(decompose(psi))
            n2 = invariant_norms(decompose(rotated))
            assert n1[0] == pytest.approx(n2[0], abs=1e-10)
            assert n1[1] == pytest.approx(n2[1], abs=1e-10)
            assert q_norm(decompose(psi)) == pytest.approx(q_norm(decompose(rotated)), abs=1e-10)

    def test_mixed_state_norms_stay_below_pure_values(self):
        """Sanity sweep: Ginibre mixtures never exceed the pure-state norms."""
        rng = np.random.default_rng(41)
        for _ in range(60):
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            m = g @ g.conj().T
            rho = DensityMatrix(m / m.trace().real)
            two_body, q_local = invariant_norms(decompose(rho))
            assert two_body <= 3.0 + 1e-9
            assert q_local <= 4.0 + 1e-9

    def test_acin_states_hit_the_same_invariant_values(self):
        """Random Acin-form states share the pure-state norm relations."""
        rng = np.random.default_rng(53)
        from tribell.states import AcinParameters, acin_state

        for _ in range(25):
            lam = rng.uniform(0, 1, 5)
            lam /= np.linalg.norm(lam)
            p = AcinParameters(lam, rng.uniform(0, np.pi))
            two_body, q_local = invariant_norms(decompose(acin_state(p)))
            assert two_body == pytest.approx(3.0, abs=1e-10)
            assert q_local == pytest.approx(4.0, abs=1e-10)
