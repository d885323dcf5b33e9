"""Tensor algebra: Kronecker products, slot embeddings, trace expectations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from tribell.core import (
    I2,
    SX,
    SY,
    SZ,
    ConsistencyError,
    ValidationError,
    embed_pair,
    embed_single,
    expectation_matrix,
    kron,
)
from tribell.states import ghz, maximally_mixed, random_pure, to_density


def k3(a, b, c):
    return np.kron(np.kron(a, b), c)


# real and imaginary parts: exact and negative zeros, or finite values whose
# products cannot overflow
_PARTS = hst.one_of(hst.sampled_from([0.0, -0.0]), hst.floats(-1e6, 1e6))


def _complex_matrix(dim):
    entries = hst.builds(complex, _PARTS, _PARTS)
    return hst.lists(entries, min_size=dim * dim, max_size=dim * dim).map(
        lambda xs: np.array(xs, dtype=complex).reshape(dim, dim)
    )


class TestKron:
    def test_identity_case(self):
        np.testing.assert_array_equal(kron(I2, I2), np.eye(4))

    def test_xx_antidiagonal(self):
        """sigma_x (x) sigma_x is the 4x4 anti-diagonal of ones."""
        expected = np.zeros((4, 4))
        expected[[0, 1, 2, 3], [3, 2, 1, 0]] = 1.0
        np.testing.assert_allclose(kron(SX, SX), expected, atol=0)

    def test_zz_diagonal(self):
        np.testing.assert_allclose(kron(SZ, SZ), np.diag([1.0, -1.0, -1.0, 1.0]), atol=0)

    def test_dimension_overflow_rejected(self):
        with pytest.raises(ValidationError, match="exceeds 8"):
            kron(np.eye(4), np.eye(4))

    def test_associativity_on_random_pauli_strings(self):
        rng = np.random.default_rng(11)
        paulis = [I2, SX, SY, SZ]
        for _ in range(50):
            a, b, c = (paulis[k] for k in rng.integers(0, 4, size=3))
            left = kron(kron(a, b), c)
            right = kron(a, kron(b, c))
            np.testing.assert_allclose(left, right, atol=1e-14)

    def test_nonfinite_rejected(self):
        bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValidationError, match="non-finite"):
            kron(bad, I2)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        pair=hst.sampled_from([(2, 2), (2, 4), (4, 2)]).flatmap(
            lambda dims: hst.tuples(_complex_matrix(dims[0]), _complex_matrix(dims[1]))
        )
    )
    def test_bit_identical_to_numpy(self, pair):
        """Every byte of the product, signed zeros included, matches numpy's kron."""
        a, b = pair
        got, expected = kron(a, b), np.kron(a, b)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestEmbed:
    def test_slot1_is_leftmost(self):
        np.testing.assert_array_equal(embed_single(SZ, 1), k3(SZ, I2, I2))

    def test_identity_embeds_to_identity(self):
        np.testing.assert_array_equal(embed_single(I2, 2), np.eye(8))

    def test_slot3_is_rightmost(self):
        np.testing.assert_array_equal(embed_single(SX, 3), k3(I2, I2, SX))

    def test_bad_slot_rejected(self):
        for slot in (4, 2.0, True):
            with pytest.raises(ValidationError, match="slot"):
                embed_single(SX, slot)

    def test_disjoint_slots_commute(self):
        paulis = [I2, SX, SY, SZ]
        for p in paulis:
            for q in paulis:
                lhs = embed_single(p, 1) @ embed_single(q, 2)
                rhs = embed_single(q, 2) @ embed_single(p, 1)
                np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_pair_interleaving_around_slot2(self):
        """Excluding slot 2 maps the pair's factors to slots 1 and 3."""
        np.testing.assert_allclose(
            embed_pair(np.kron(SX, SY), excluded=2), k3(SX, I2, SY), atol=0
        )

    def test_pair_identity(self):
        np.testing.assert_array_equal(embed_pair(np.eye(4), excluded=1), np.eye(8))

    def test_pair_excluding_slot3(self):
        np.testing.assert_allclose(
            embed_pair(np.kron(SZ, SZ), excluded=3), k3(SZ, SZ, I2), atol=0
        )

    def test_pair_excluding_slot1(self):
        np.testing.assert_allclose(
            embed_pair(np.kron(SX, SZ), excluded=1), k3(I2, SX, SZ), atol=0
        )

    def test_single_pair_composition_spans_products(self):
        """Random product pairs pin the interleaving on a spanning set.

        compose_single_pair is linear in the pair factor and products u (x) v
        span the full 4x4 space, so agreement here implies agreement for
        every pair operator.
        """
        from tribell.core import compose_single_pair

        rng = np.random.default_rng(13)
        for _ in range(25):
            s, u, v = (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(3)
            )
            expected = {
                1: k3(s, u, v),
                2: k3(u, s, v),
                3: k3(u, v, s),
            }
            for slot, want in expected.items():
                got = compose_single_pair(s, np.kron(u, v), slot)
                np.testing.assert_allclose(got, want, atol=1e-14)


class TestExpectation:
    def test_unit_trace(self):
        assert expectation_matrix(np.eye(8), maximally_mixed()) == pytest.approx(1.0)

    def test_zzz_eigenstate(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        rho000 = np.outer(amp, amp.conj())
        assert expectation_matrix(k3(SZ, SZ, SZ), rho000) == pytest.approx(1.0)

    def test_xxx_on_ghz(self):
        """XXX swaps |000> and |111>, so the GHZ cross terms add to 1."""
        rho = to_density(ghz())
        direct = np.trace(rho.matrix @ k3(SX, SX, SX)).real
        value = expectation_matrix(k3(SX, SX, SX), rho)
        assert direct == pytest.approx(1.0, abs=1e-12)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_non_hermitian_rejected(self):
        obs = np.zeros((8, 8), dtype=complex)
        obs[0, 1] = 1.0
        with pytest.raises(ValidationError, match="Hermitian"):
            expectation_matrix(obs, maximally_mixed())

    def test_imaginary_residue_raises_consistency(self):
        # a Hermitian observable against a deliberately non-Hermitian "rho"
        bad_rho = np.zeros((8, 8), dtype=complex)
        bad_rho[0, 1] = 1.0j
        with pytest.raises(ConsistencyError, match="imaginary"):
            expectation_matrix(_xx_like(), bad_rho)

    def test_linearity_in_rho(self):
        rng = np.random.default_rng(3)
        rho1 = to_density(random_pure(1))
        rho2 = to_density(random_pure(2))
        obs = k3(SX, SY, SZ)
        for lam in rng.uniform(0, 1, size=5):
            mixed = lam * rho1.matrix + (1 - lam) * rho2.matrix
            lhs = expectation_matrix(obs, mixed)
            rhs = lam * expectation_matrix(obs, rho1) + (1 - lam) * expectation_matrix(obs, rho2)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def _xx_like():
    m = np.zeros((8, 8), dtype=complex)
    m[0, 1] = m[1, 0] = 1.0
    return m
