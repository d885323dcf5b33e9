"""Tensor algebra: Kronecker products, slot placement, trace expectations; the intake."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from test_states import identity_grid

from tribell.core import (
    I2,
    SX,
    SY,
    SZ,
    ConsistencyError,
    ValidationError,
    _kron,
    _expectations,
    _place,
    expectation_matrix,
)
from tribell.bell import MeasurementSettings, bell_operator, observable, wwzb_pair
from tribell.classify import figure_projection
from tribell.optimize import omega_planar_oracle, planar_case_settings
from tribell.pauli import PauliDecomposition
from tribell.states import (
    AcinParameters,
    DensityMatrix,
    PureState,
    ghz,
    maximally_mixed,
    mix,
    random_pure,
    to_density,
)


def k3(a, b, c):
    return np.kron(np.kron(a, b), c)


I4 = np.eye(4, dtype=complex)


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
        np.testing.assert_array_equal(_kron(I2, I2), np.eye(4))

    def test_xx_antidiagonal(self):
        """sigma_x (x) sigma_x is the 4x4 anti-diagonal of ones."""
        expected = np.zeros((4, 4))
        expected[[0, 1, 2, 3], [3, 2, 1, 0]] = 1.0
        np.testing.assert_allclose(_kron(SX, SX), expected, atol=0)

    def test_zz_diagonal(self):
        np.testing.assert_allclose(_kron(SZ, SZ), np.diag([1.0, -1.0, -1.0, 1.0]), atol=0)

    def test_associativity_on_random_pauli_strings(self):
        rng = np.random.default_rng(11)
        paulis = [I2, SX, SY, SZ]
        for _ in range(50):
            a, b, c = (paulis[k] for k in rng.integers(0, 4, size=3))
            left = _kron(_kron(a, b), c)
            right = _kron(a, _kron(b, c))
            np.testing.assert_allclose(left, right, atol=1e-14)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        pair=hst.sampled_from([(2, 2), (2, 4), (4, 2)]).flatmap(
            lambda dims: hst.tuples(_complex_matrix(dims[0]), _complex_matrix(dims[1]))
        ),
        stacked=hst.sampled_from([(False, False), (True, False), (False, True), (True, True)]),
    )
    def test_bit_identical_to_numpy(self, pair, stacked):
        """Every byte of the product, signed zeros included, matches numpy's kron.

        Either factor may carry a leading stack axis (its rows are exact sign
        and conjugation variants of the drawn matrix); each row of the
        broadcast product then matches numpy's kron of its own pair, and for
        8x8 products each row of the stacked ``_place`` matches the 2-D one.
        """
        a, b = pair
        if stacked[0]:
            a = np.stack([a, -a, a.conj()])
        if stacked[1]:
            b = np.stack([b, b.conj(), -b])
        got = _kron(a, b)
        if not any(stacked):
            expected = np.kron(a, b)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            return
        rows = [(a[r] if stacked[0] else a, b[r] if stacked[1] else b) for r in range(3)]
        assert got.shape == (3,) + np.kron(*rows[0]).shape
        for row, (x, y) in zip(got, rows):
            assert row.tobytes() == np.kron(x, y).tobytes()
        if got.shape[-1] == 8:
            for slot in (1, 2, 3):
                placed = _place(got, slot)
                assert placed.shape == got.shape
                for k in range(3):
                    assert placed[k].tobytes() == _place(got[k], slot).tobytes()


def place(single, pair, slot):
    """``single`` at ``slot`` and the 4x4 ``pair`` on the other two slots in ascending order."""
    return _place(_kron(single, pair), slot)


class TestEmbed:
    """Placement through _place of a factor-order product.

    (op, I4, s) puts op at slot s; (I2, op, s) puts op on the other two
    slots in ascending order.
    """

    def test_slot1_is_leftmost(self):
        np.testing.assert_array_equal(place(SZ, I4, 1), k3(SZ, I2, I2))

    def test_identity_embeds_to_identity(self):
        np.testing.assert_array_equal(place(I2, I4, 2), np.eye(8))

    def test_slot3_is_rightmost(self):
        np.testing.assert_array_equal(place(SX, I4, 3), k3(I2, I2, SX))

    def test_disjoint_slots_commute(self):
        paulis = [I2, SX, SY, SZ]
        for p in paulis:
            for q in paulis:
                lhs = place(p, I4, 1) @ place(q, I4, 2)
                rhs = place(q, I4, 2) @ place(p, I4, 1)
                np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_pair_interleaving_around_slot2(self):
        """Excluding slot 2 maps the pair's factors to slots 1 and 3."""
        np.testing.assert_allclose(
            place(I2, np.kron(SX, SY), 2), k3(SX, I2, SY), atol=0
        )

    def test_pair_identity(self):
        np.testing.assert_array_equal(place(I2, np.eye(4), 1), np.eye(8))

    def test_pair_excluding_slot3(self):
        np.testing.assert_allclose(
            place(I2, np.kron(SZ, SZ), 3), k3(SZ, SZ, I2), atol=0
        )

    def test_pair_excluding_slot1(self):
        np.testing.assert_allclose(
            place(I2, np.kron(SX, SZ), 1), k3(I2, SX, SZ), atol=0
        )

    def test_single_pair_composition_spans_products(self):
        """Random product pairs pin the interleaving on a spanning set.

        place is linear in the pair factor and products u (x) v
        span the full 4x4 space, so agreement here implies agreement for
        every pair operator.
        """
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
                got = place(s, np.kron(u, v), slot)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_nonfinite_raw_state_rejected(self, bad):
        with pytest.raises(ValidationError, match="state contains non-finite"):
            expectation_matrix(np.eye(8), np.full((8, 8), bad, dtype=complex))

    def test_strided_operands_accepted(self):
        """Transposed (Fortran-ordered) operands validate like contiguous ones."""
        rho = to_density(random_pure(4)).matrix
        obs = k3(SX, SY, SZ)
        contiguous = expectation_matrix(obs.T.copy(), rho.T.copy())
        assert expectation_matrix(obs.T, rho.T) == contiguous
        bad = np.eye(8, dtype=complex)
        bad[0, 1] = np.nan
        with pytest.raises(ValidationError, match="state contains non-finite"):
            expectation_matrix(obs, bad.T)

    def test_imaginary_residue_raises_consistency(self):
        # a Hermitian observable against a deliberately non-Hermitian "rho"
        bad_rho = np.zeros((8, 8), dtype=complex)
        bad_rho[0, 1] = 1.0j
        with pytest.raises(ConsistencyError, match="imaginary"):
            expectation_matrix(_xx_like(), bad_rho)

    def test_stack_matches_single_traces(self):
        """One operator against a stack of states, and one operator per state, trace row by row."""
        rhos = np.stack([to_density(random_pure(k)).matrix for k in range(5)])
        ops = np.stack([k3(p, q, r) for p, q, r in [(SX, SY, SZ), (SZ, SZ, I2), (SY, SX, SX),
                                                    (I2, SZ, SX), (SX, SX, SX)]])
        shared = _expectations(ops[0], rhos)
        per_row = _expectations(ops, rhos)
        assert shared.shape == per_row.shape == (5,)
        for k in range(5):
            assert shared[k] == expectation_matrix(ops[0], rhos[k])
            assert per_row[k] == expectation_matrix(ops[k], rhos[k])

    def test_imaginary_residue_in_one_row_raises_consistency(self):
        """The stacked form of the residue check: one bad row fails the whole stack."""
        rhos = np.stack([np.eye(8, dtype=complex) / 8] * 4)
        rhos[2, 0, 1] = 1.0j
        with pytest.raises(ConsistencyError, match=r"imaginary residue .* at stack index \(2,\)"):
            _expectations(_xx_like(), rhos)
        with pytest.raises(ConsistencyError, match="imaginary"):
            _expectations(np.stack([_xx_like()] * 4), rhos)

    def test_non_hermitian_row_of_a_stack_rejected(self):
        ops = np.stack([_xx_like(), _xx_like(), _xx_like()])
        ops[1, 0, 1] = 2.0
        with pytest.raises(ValidationError, match="Hermitian"):
            _expectations(ops, np.stack([np.eye(8, dtype=complex) / 8] * 3))

    def test_non_finite_row_of_a_stack_rejected(self):
        rhos = np.stack([np.eye(8, dtype=complex) / 8] * 3)
        rhos[1, 2, 2] = np.nan
        with pytest.raises(ValidationError, match="state contains non-finite"):
            _expectations(_xx_like(), rhos)

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


#: where each Pauli block sits in the (4, 4, 4) coefficient grid
_BLOCK_AT = {"alpha": np.s_[1:, 0, 0], "beta": np.s_[0, 1:, 0], "gamma": np.s_[0, 0, 1:],
             "R": np.s_[1:, 1:, 0], "S": np.s_[1:, 0, 1:], "T": np.s_[0, 1:, 1:], "Q": np.s_[1:, 1:, 1:]}


def _grid_with(name, block):
    """The identity grid with ``block`` in the place of Pauli block ``name``.

    An array block gives the whole grid its dtype; a nest (ragged, or with a
    bool inside) leaves a nest, so a spoiled block spoils the grid alike.
    """
    if isinstance(block, np.ndarray):
        grid = identity_grid().astype(block.dtype)
        grid[_BLOCK_AT[name]] = block
        return grid
    grid = identity_grid().astype(object)
    grid[_BLOCK_AT[name]] = np.array(block, dtype=object)
    return grid.tolist()


# (name in the message, constructor of one input, a valid input to spoil)
_INTAKES = {
    "pure": ("pure state amplitudes", PureState, np.eye(8)[0]),
    "density": ("density matrix", DensityMatrix, np.eye(8) / 8),
    "settings-a": ("a", lambda x: MeasurementSettings(x, np.eye(3)), np.eye(3)),
    "settings-b": ("b", lambda x: MeasurementSettings(np.eye(3), x), np.eye(3)),
    "settings-aligned": ("aligned vector", MeasurementSettings.aligned, np.array([0.0, 0.0, 1.0])),
    "observable": ("Bloch vector", observable, np.array([0.0, 0.0, 1.0])),
    "acin": ("lambda values", lambda x: AcinParameters(x, 0.0), np.eye(5)[0]),
    "pauli-grid": ("Pauli coefficients", PauliDecomposition, identity_grid()),
    **{
        f"pauli-{name}": ("Pauli coefficients", lambda x, name=name: PauliDecomposition(_grid_with(name, x)),
                          np.zeros(identity_grid()[index].shape))
        for name, index in _BLOCK_AT.items()
    },
    "mix-weights": ("mixture weights", lambda x: mix([maximally_mixed()] * 2, x), np.array([0.5, 0.5])),
}


def _ragged(valid):
    rows = valid.reshape(len(valid), -1).tolist()
    return rows[:-1] + [rows[-1] + [0.0]]


def _with_nan(valid):
    spoiled = valid.astype(float)
    spoiled.flat[-1] = np.nan
    return spoiled


def _mixed_bool(valid):
    nest = valid.tolist()
    row = nest
    while isinstance(row[0], list):
        row = row[0]
    row[0] = True  # numpy alone would read the list as numbers, with True as 1
    return nest


_SPOILERS = {
    "string": (lambda v: v.astype(str), "must be numbers, got dtype <U"),
    "bool": (lambda v: v.astype(bool), "must be numbers, got dtype bool"),
    "ragged": (_ragged, "must be numbers, got a ragged nest"),
    "nan": (_with_nan, "must be finite numbers"),
    "complex": (lambda v: v + 0j, "must be real numbers"),
    "mixed-bool": (_mixed_bool, "must be numbers, got a bool"),
}
# amplitudes and density matrices are complex, so a complex entry is no fault there
_CASES = [
    (intake, spoiler)
    for intake in _INTAKES
    for spoiler in _SPOILERS
    if not (spoiler == "complex" and intake in ("pure", "density"))
]


class TestIntake:
    """Every array from outside goes through one intake with one set of refusals.

    numpy alone would parse strings, read bools as 0 and 1, drop imaginary
    parts with a warning, and raise its own error on ragged nesting.  A bool
    inside a list is refused too, though numpy would upcast it.  The Pauli
    grid is one intake; a fault in any of its seven blocks is refused by it.
    """

    @pytest.mark.parametrize("intake, spoiler", _CASES, ids=[f"{i}-{s}" for i, s in _CASES])
    def test_malformed_array_rejected_by_name(self, intake, spoiler):
        name, build, valid = _INTAKES[intake]
        spoil, message = _SPOILERS[spoiler]
        build(valid)  # the unspoiled input is accepted
        with pytest.raises(ValidationError, match=f"^{re.escape(name)} {message}"):
            build(spoil(valid))

    @pytest.mark.parametrize("spoil", [lambda m: m.astype(str), lambda m: m.astype(bool)],
                             ids=["string", "bool"])
    def test_dense_path_refuses_the_same_dtypes(self, spoil):
        """Operators and states on the dense path are refused the same way, though not copied."""
        obs = k3(SZ, SZ, SZ).real
        with pytest.raises(ValidationError, match="^observable must be numbers"):
            expectation_matrix(spoil(obs), maximally_mixed())
        with pytest.raises(ValidationError, match="^state must be numbers"):
            expectation_matrix(obs, spoil(np.eye(8)))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: bell_operator("x", 1), "expected MeasurementSettings, got str"),
            (lambda: wwzb_pair("x", 1), "expected MeasurementSettings, got str"),
            (lambda: planar_case_settings(float("inf"), 0, 0), "theta1 must be a finite number"),
            (lambda: omega_planar_oracle("a", 0, 0), "theta1 must be a finite number"),
            (lambda: mix(maximally_mixed(), [1.0]), "states must be a list or tuple"),
            (lambda: figure_projection([(0.1, 0.2, 0.3, "x")]), "expected RegionPoint, got tuple"),
        ],
        ids=["bell-operator", "wwzb-pair", "planar-settings", "planar-oracle", "mix-states", "projection"],
    )
    def test_wrong_argument_type_rejected(self, call, message):
        """An argument of the wrong type is refused by name, before numpy or an attribute lookup fails."""
        with pytest.raises(ValidationError, match=f"^{message}"):
            call()
