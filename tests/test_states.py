"""State generators: canonical families, random sampling, mixtures."""

import numpy as np
import pytest

from tribell.bell import MeasurementSettings
from tribell.classify import SOURCE_CLASSES, _draw_state
from tribell.core import ValidationError
from tribell.pauli import PauliDecomposition
from tribell.states import (
    AcinParameters,
    DensityMatrix,
    PARTITIONS,
    PureState,
    acin_state,
    apply_local_unitaries,
    canonical_biseparable,
    generalized_ghz,
    ghz,
    maximally_mixed,
    mix,
    phi_plus_otimes_zero,
    random_in_class,
    random_local_unitaries,
    random_pure,
    reduced_qubit,
    to_density,
    w_state,
)

SQ2 = 1.0 / np.sqrt(2.0)


def identity_grid():
    """The Pauli coefficient grid of I/8: zero but for the identity's [0, 0, 0] = 1."""
    grid = np.zeros((4, 4, 4))
    grid[0, 0, 0] = 1.0
    return grid


class TestCanonicalStates:
    def test_ghz_amplitudes(self):
        amp = ghz().amplitudes
        assert amp[0b000] == pytest.approx(SQ2)
        assert amp[0b111] == pytest.approx(SQ2)
        assert np.sum(np.abs(amp) ** 2) == pytest.approx(1.0)

    def test_generalized_ghz_equal_weights_is_ghz(self):
        np.testing.assert_allclose(
            generalized_ghz(np.pi / 4).amplitudes, ghz().amplitudes, atol=1e-15
        )

    def test_generalized_ghz_product_limit(self):
        amp = generalized_ghz(0.0).amplitudes
        assert amp[0] == pytest.approx(1.0)
        assert np.all(amp[1:] == 0)

    def test_generalized_ghz_normalized(self):
        amp = generalized_ghz(np.pi / 6).amplitudes
        assert np.sum(np.abs(amp) ** 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan, True, "0.3", None])
    def test_generalized_ghz_bad_angle_rejected(self, alpha):
        """Rejected before any trigonometry, so a non-finite angle raises no numpy warning."""
        with pytest.raises(ValidationError, match="angle must be a finite number"):
            generalized_ghz(alpha)

    def test_w_state(self):
        amp = w_state().amplitudes
        assert np.sum(np.abs(amp) ** 2) == pytest.approx(1.0)
        assert amp[0b111] == 0
        for idx in (0b001, 0b010, 0b100):
            assert amp[idx] == pytest.approx(1 / np.sqrt(3))

    def test_phi_plus_otimes_zero(self):
        amp = phi_plus_otimes_zero().amplitudes
        assert amp[0b000] == pytest.approx(SQ2)
        assert amp[0b110] == pytest.approx(SQ2)


class TestAcin:
    def test_ghz_is_an_acin_point(self):
        p = AcinParameters(np.array([SQ2, 0, 0, 0, SQ2]), 0.0)
        np.testing.assert_allclose(acin_state(p).amplitudes, ghz().amplitudes, atol=1e-15)

    def test_product_point(self):
        p = AcinParameters(np.array([1.0, 0, 0, 0, 0]), 0.0)
        amp = acin_state(p).amplitudes
        assert amp[0] == pytest.approx(1.0)

    def test_phase_lands_on_100(self):
        lam = np.full(5, 1 / np.sqrt(5))
        amp = acin_state(AcinParameters(lam, np.pi / 2)).amplitudes
        assert np.sum(np.abs(amp) ** 2) == pytest.approx(1.0)
        assert amp[0b100] == pytest.approx(1j / np.sqrt(5))

    def test_normalization_enforced(self):
        with pytest.raises(ValidationError, match="normalization"):
            AcinParameters(np.array([1.0, 1.0, 0, 0, 0]), 0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            AcinParameters(np.array([-1.0, 0, 0, 0, 0]), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, bad):
        with pytest.raises(ValidationError, match="lambda values must be finite"):
            AcinParameters(np.array([bad, 0, 0, 0, 0]), 0.0)

    def test_phase_range_enforced(self):
        with pytest.raises(ValidationError, match="phi"):
            AcinParameters(np.array([1.0, 0, 0, 0, 0]), 4.0)

    @pytest.mark.parametrize("phi", [True, "x", 1j, np.nan, None])
    def test_phase_must_be_a_finite_number(self, phi):
        with pytest.raises(ValidationError, match="phi must be a finite number"):
            AcinParameters(np.array([1.0, 0, 0, 0, 0]), phi)

    def test_phase_is_stored_as_a_float(self):
        p = AcinParameters(np.array([1.0, 0, 0, 0, 0]), np.int64(1))
        assert type(p.phi) is float and p.phi == 1.0


class TestCanonicalBiseparable:
    def test_pair_on_12(self):
        amp = canonical_biseparable("12-3", np.pi / 4).amplitudes
        assert amp[0b010] == pytest.approx(SQ2)
        assert amp[0b100] == pytest.approx(-SQ2)

    def test_alpha_zero_factorizes(self):
        amp = canonical_biseparable("12-3", 0.0).amplitudes
        assert amp[0b010] == pytest.approx(1.0)

    def test_pair_on_23_by_slot_permutation(self):
        amp = canonical_biseparable("1-23", np.pi / 4).amplitudes
        assert amp[0b001] == pytest.approx(SQ2)
        assert amp[0b010] == pytest.approx(-SQ2)

    @pytest.mark.parametrize("alpha", [np.inf, -np.inf, np.nan, True, "0.3", 1j])
    def test_bad_angle_rejected(self, alpha):
        """Rejected before any trigonometry: no numpy warning, no float16 cosine of a bool."""
        with pytest.raises(ValidationError, match="canonical-biseparable angle must be a finite number"):
            canonical_biseparable("1-23", alpha)

    def test_unknown_partition_rejected(self):
        with pytest.raises(ValidationError, match="bipartition"):
            canonical_biseparable("3-12", 0.1)

    @pytest.mark.parametrize("partition,slot", [("1-23", 1), ("2-13", 2), ("12-3", 3)])
    def test_separated_qubit_is_pure(self, partition, slot):
        """The split-off qubit carries no entanglement across the cut."""
        rng = np.random.default_rng(5)
        for alpha in rng.uniform(0, np.pi, size=5):
            rho = to_density(canonical_biseparable(partition, alpha))
            red = reduced_qubit(rho, slot)
            purity = np.trace(red @ red).real
            assert purity == pytest.approx(1.0, abs=1e-10)


class TestRandomStates:
    def test_random_pure_normalized(self):
        for seed in range(5):
            amp = random_pure(seed).amplitudes
            assert abs(np.sum(np.abs(amp) ** 2) - 1.0) < 1e-12

    def test_random_pure_reproducible(self):
        np.testing.assert_array_equal(random_pure(7).amplitudes, random_pure(7).amplitudes)

    def test_random_pure_seeds_differ(self):
        assert not np.allclose(random_pure(1).amplitudes, random_pure(2).amplitudes)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_random_pure_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            random_pure(seed)

    @pytest.mark.parametrize("partition", list(PARTITIONS) + [None])
    def test_random_in_class_valid(self, partition):
        rho = random_in_class(partition, 3, 99)
        assert isinstance(rho, DensityMatrix)  # constructor enforces PSD/trace

    def test_random_in_class_pure_factors(self):
        rho = random_in_class("12-3", 1, 4, pure_factors=True)
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-10)

    def test_random_in_class_reproducible(self):
        a = random_in_class("2-13", 2, 11).matrix
        b = random_in_class("2-13", 2, 11).matrix
        np.testing.assert_array_equal(a, b)

    def test_n_mix_validated(self):
        with pytest.raises(ValidationError, match="n_mix"):
            random_in_class(None, 0, 1)

    @pytest.mark.parametrize(
        "n_mix, seed, name",
        [(2.5, 1, "n_mix"), (True, 1, "n_mix"), (2, 1.5, "seed"), (2, -1, "seed"), (2, True, "seed")],
    )
    def test_random_in_class_bad_count_or_seed_rejected(self, n_mix, seed, name):
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            random_in_class("1-23", n_mix, seed)


class TestDensityOps:
    def test_to_density_product(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        rho = to_density(PureState(amp)).matrix
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(rho, expected)

    def test_to_density_ghz_corners(self):
        rho = to_density(ghz()).matrix
        for r, c in [(0, 0), (0, 7), (7, 0), (7, 7)]:
            assert rho[r, c] == pytest.approx(0.5)
        assert np.sum(np.abs(rho)) == pytest.approx(2.0)

    def test_purity_of_pure_states(self):
        for seed in range(3):
            rho = to_density(random_pure(seed)).matrix
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)

    def test_mix_single(self):
        rho = to_density(ghz())
        np.testing.assert_allclose(mix([rho], [1.0]).matrix, rho.matrix, atol=0)

    def test_mix_two_corners(self):
        a = np.zeros(8, dtype=complex)
        a[0] = 1.0
        b = np.zeros(8, dtype=complex)
        b[7] = 1.0
        mixed = mix([to_density(PureState(a)), to_density(PureState(b))], [0.5, 0.5])
        np.testing.assert_allclose(
            mixed.matrix, np.diag([0.5, 0, 0, 0, 0, 0, 0, 0.5]).astype(complex), atol=0
        )

    def test_mix_weight_validation(self):
        rho = maximally_mixed()
        with pytest.raises(ValidationError, match="sum to 1"):
            mix([rho, rho], [0.5, 0.6])
        with pytest.raises(ValidationError, match="non-negative"):
            mix([rho, rho], [1.5, -0.5])
        with pytest.raises(ValidationError, match="weights"):
            mix([rho], [0.5, 0.5])
        # one weight per state, as a 1-D array: no scalar, no nesting
        for weights in (1.0, [[0.5, 0.5]], [[0.5], [0.5]]):
            with pytest.raises(ValidationError, match="mixture weights must have shape"):
                mix([rho, rho], weights)
        with pytest.raises(ValidationError, match="mixture weights must have shape"):
            mix([rho], [[1.0]])
        for weights in ("ab", ["x", 1.0], [[0.5], [0.5, 0.0]]):
            with pytest.raises(ValidationError, match="must be numbers"):
                mix([rho, rho], weights)

    @pytest.mark.parametrize("weights", [[np.nan], [np.inf, -np.inf]])
    def test_mix_non_finite_weights_rejected(self, weights):
        rho = to_density(ghz())
        with pytest.raises(ValidationError, match="mixture weights must be finite"):
            mix([rho] * len(weights), weights)

    def test_loose_states_flow_through_mix_and_rotation(self):
        """States validated at the file tolerance stay usable downstream."""
        amp = np.zeros(8)
        amp[0] = amp[7] = float(f"{1 / np.sqrt(2):.9g}")  # norm off by ~5e-10
        loose = PureState(amp.astype(complex), tol=1e-8)
        rho = to_density(loose)
        assert rho.tol == pytest.approx(1e-8)
        mixed = mix([loose, maximally_mixed()], [0.5, 0.5])
        assert abs(mixed.matrix.trace().real - 1.0) < 1e-8
        rng = np.random.default_rng(2)
        rotated = apply_local_unitaries(loose, random_local_unitaries(rng))
        assert rotated.tol == pytest.approx(1e-8)

    def test_mix_expectation_is_weighted_average(self):
        from tribell.core import SX, SY, SZ, expectation_matrix

        obs = np.kron(np.kron(SX, SY), SZ)
        rho1, rho2 = to_density(random_pure(21)), to_density(random_pure(22))
        mixed = mix([rho1, rho2], [0.3, 0.7])
        lhs = expectation_matrix(obs, mixed)
        rhs = 0.3 * expectation_matrix(obs, rho1) + 0.7 * expectation_matrix(obs, rho2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestValidation:
    def test_pure_norm_invariant(self):
        with pytest.raises(ValidationError, match="norm"):
            PureState(np.full(8, 0.1, dtype=complex))

    def test_density_trace_invariant(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.eye(8, dtype=complex))

    def test_density_psd_invariant(self):
        m = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
        with pytest.raises(ValidationError, match="positive semidefinite"):
            DensityMatrix(m)

    def test_draws_skipping_the_psd_test_are_psd(self):
        """Draws built PSD skip the eigvalsh check; 300 of them, all six classes, are PSD."""
        rng = np.random.default_rng(23)
        for k in range(300):
            source = SOURCE_CLASSES[k % len(SOURCE_CLASSES)]
            rho = _draw_state(source, rng)
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12, (k, source)

    def test_psd_by_construction_keeps_the_other_checks(self):
        """The constructor for draws built PSD still refuses a bad trace, shape or symmetry."""
        herm = np.eye(8, dtype=complex) / 8
        herm[0, 1] = 0.5
        for m, match in ((np.eye(8, dtype=complex), "trace"), (herm, "Hermiticity"),
                         (np.full((8, 8), np.nan), "non-finite"), (np.eye(4) / 4, "shape")):
            with pytest.raises(ValidationError, match=match):
                DensityMatrix._from_psd(m)

    def test_density_hermitian_invariant(self):
        m = np.eye(8, dtype=complex) / 8
        m[0, 1] = 0.5
        with pytest.raises(ValidationError, match="Hermiticity"):
            DensityMatrix(m)

    def test_eigenvector_column_is_a_pure_state(self):
        """A strided column of eigh's eigenvectors validates like a contiguous copy."""
        vectors = np.linalg.eigh(random_in_class("1-23", 2, 3).matrix)[1]
        column = vectors[:, -1]
        np.testing.assert_array_equal(PureState(column).amplitudes, column)
        bad = vectors.copy()
        bad[0, -1] = np.inf
        with pytest.raises(ValidationError, match="non-finite"):
            PureState(bad[:, -1])

    def test_transposed_density_matrix_validates(self):
        """rho.T is a valid (Fortran-ordered) density matrix, not a numpy layout error."""
        rho = random_in_class("1-23", 2, 3).matrix
        np.testing.assert_array_equal(DensityMatrix(rho.T).matrix, rho.T)
        bad = rho.copy()
        bad[0, 1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix(bad.T)

    @pytest.mark.parametrize(
        "build, construct, attr",
        [
            (lambda: np.eye(8, dtype=complex)[0], PureState, "amplitudes"),
            (lambda: np.eye(8, dtype=complex)[[0]], PureState, "amplitudes"),
            (lambda: np.eye(8, dtype=complex) / 8, DensityMatrix, "matrix"),
            (lambda: np.eye(3), lambda a: MeasurementSettings(a, a), "a"),
            (lambda: np.eye(3), lambda b: MeasurementSettings(np.eye(3), b), "b"),
            (lambda: np.eye(5)[0], lambda lam: AcinParameters(lam, 0.0), "lambdas"),
            (identity_grid, PauliDecomposition, "grid"),
            # a writable view of one block in the caller's grid, which is its .base
            (lambda: identity_grid()[1:, 1:, 1:], lambda q: PauliDecomposition(q.base), "Q"),
            (lambda: identity_grid()[1:, 0, 0], lambda alpha: PauliDecomposition(alpha.base), "alpha"),
        ],
        ids=["pure", "pure-2d", "density", "settings-a", "settings-b", "acin", "pauli-grid", "pauli-Q",
             "pauli-alpha"],
    )
    def test_state_owns_its_array(self, build, construct, attr):
        """The caller's array stays writable, and editing it afterwards does not reach the object."""
        given = build()
        state = construct(given)
        before = getattr(state, attr).copy()
        assert given.flags.writeable
        given.flat[0] = 5.0
        np.testing.assert_array_equal(getattr(state, attr), before)
        assert not getattr(state, attr).flags.writeable

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9, True, "1e-3", 1e-3j, None])
    @pytest.mark.parametrize(
        "build",
        [
            lambda tol: PureState(np.ones(8), tol=tol),
            lambda tol: DensityMatrix(2 * np.eye(8) / 8, tol=tol),
            lambda tol: MeasurementSettings(2 * np.eye(3), 2 * np.eye(3), tol=tol),
        ],
        ids=["pure", "density", "settings"],
    )
    def test_bad_tol_rejected(self, build, tol):
        """A NaN or infinite tolerance would accept any input; a negative one none.

        A bool or a non-real value is no tolerance: ``True`` would act as 1.
        """
        with pytest.raises(ValidationError, match="tol must be"):
            build(tol)


class TestLocalUnitaries:
    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            us = random_local_unitaries(rng)
            for u in us:
                np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_stacked_qr_matches_one_qr_per_matrix(self):
        """Same draws, same bits as three separate QR factorizations; the RNG ends in step."""

        def one_at_a_time(rng):
            out = []
            for _ in range(3):
                z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2.0)
                q, r = np.linalg.qr(z)
                d = np.diagonal(r)
                out.append(q * (d / np.abs(d)))
            return np.stack(out)

        for seed in range(50):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert random_local_unitaries(rng).tobytes() == one_at_a_time(ref).tobytes()
            assert rng.random() == ref.random()

    @pytest.mark.parametrize(
        "us",
        [
            np.stack([np.eye(3)] * 3),  # (3, 3, 3)
            np.stack([np.eye(2)] * 2),  # two matrices
            np.stack([np.eye(2)] * 4),  # four matrices
            np.eye(2),
            np.array([[[np.nan, 0], [0, 1]], np.eye(2), np.eye(2)]),
        ],
    )
    def test_apply_rejects_a_malformed_stack(self, us):
        with pytest.raises(ValidationError, match="local unitaries"):
            apply_local_unitaries(random_pure(3), us)

    def test_apply_takes_a_pure_state_only(self):
        us = random_local_unitaries(np.random.default_rng(0))
        with pytest.raises(ValidationError, match="expected PureState, got DensityMatrix"):
            apply_local_unitaries(maximally_mixed(), us)

    @pytest.mark.parametrize("rng", [5, None, np.random.RandomState(5)], ids=["int", "none", "legacy"])
    def test_draw_takes_a_generator_only(self, rng):
        with pytest.raises(ValidationError, match="rng must be a numpy Generator"):
            random_local_unitaries(rng)

    def test_apply_preserves_norm(self):
        rng = np.random.default_rng(1)
        psi = random_pure(3)
        rotated = apply_local_unitaries(psi, random_local_unitaries(rng))
        assert np.sum(np.abs(rotated.amplitudes) ** 2) == pytest.approx(1.0)
