"""Construction and sampling of 3-qubit pure and mixed states.

Pure states are 8 complex amplitudes in the basis order of :mod:`tribell.core`
(|000>, |001>, ..., |111>, qubit 1 most significant).  All sampling routines
take an explicit integer seed and are reproducible bit-for-bit; the generator
is numpy's PCG64 via ``default_rng``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ValidationError, _as_operator, _check_integer, _check_real, _check_slot
from .core import _frozen_array, _kron, _place, is_hermitian

__all__ = [
    "PureState",
    "DensityMatrix",
    "AcinParameters",
    "PARTITIONS",
    "FULLY_SEPARABLE",
    "ghz",
    "generalized_ghz",
    "acin_state",
    "canonical_biseparable",
    "w_state",
    "phi_plus_otimes_zero",
    "random_pure",
    "random_in_class",
    "to_density",
    "as_density",
    "mix",
    "maximally_mixed",
    "reduced_qubit",
    "random_local_unitaries",
    "apply_local_unitaries",
]

PURE_NORM_TOL = 1e-9
DM_HERMITIAN_TOL = 1e-10
DM_TRACE_TOL = 1e-10
DM_EIG_TOL = 1e-10

#: Bipartition labels: the qubit before the dash is separated from the pair.
PARTITIONS = ("1-23", "2-13", "12-3")
FULLY_SEPARABLE = "fully-separable"

_SEPARATED = {"1-23": 1, "2-13": 2, "12-3": 3}
_PAIR_KETS = {
    # (index of |01>_pair (x) |0>_sep, index of |10>_pair (x) |0>_sep)
    "12-3": (0b010, 0b100),
    "1-23": (0b001, 0b010),
    "2-13": (0b001, 0b100),
}


def _check_partition(partition: str) -> str:
    if partition not in PARTITIONS:
        raise ValidationError(f"unknown bipartition label {partition!r}; expected one of {PARTITIONS}")
    return partition


@dataclass(frozen=True, eq=False)
class PureState:
    """A 3-qubit pure state; normalized 8-vector of amplitudes."""

    amplitudes: np.ndarray
    tol: float = field(default=PURE_NORM_TOL, repr=False, compare=False)

    def __post_init__(self):
        _check_real("tol", self.tol, 0)
        amp = _frozen_array(self.amplitudes, "pure state amplitudes", 8, complex)
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if abs(norm_sq - 1.0) > self.tol:
            raise ValidationError(
                f"pure state norm invariant violated: sum |amp|^2 = {norm_sq!r} "
                f"differs from 1 by more than {self.tol:g}"
            )
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A 3-qubit density matrix: 8x8, Hermitian, unit trace, PSD."""

    matrix: np.ndarray
    tol: float = field(default=DM_TRACE_TOL, repr=False, compare=False)

    def __post_init__(self):
        _check_real("tol", self.tol, 0)
        m = _frozen_array(self.matrix, "density matrix", (8, 8), complex)
        herm_tol = max(DM_HERMITIAN_TOL, self.tol)
        if not is_hermitian(m, herm_tol):
            raise ValidationError(
                f"density matrix Hermiticity invariant violated (tolerance {herm_tol:g})"
            )
        tr = float(m.trace().real)
        if abs(tr - 1.0) > max(DM_TRACE_TOL, self.tol):
            raise ValidationError(
                f"density matrix trace invariant violated: trace = {tr!r}"
            )
        min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())
        if min_eig < -max(DM_EIG_TOL, self.tol):
            raise ValidationError(
                f"density matrix is not positive semidefinite: min eigenvalue {min_eig:.3g}"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class AcinParameters:
    """Five non-negative amplitudes and one phase of the canonical pure-state form."""

    lambdas: np.ndarray
    phi: float

    def __post_init__(self):
        lam = _frozen_array(self.lambdas, "lambda values", 5)
        if np.any(lam < 0):
            raise ValidationError("lambda values must be non-negative")
        total = float(np.sum(lam**2))
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(
                f"lambda normalization invariant violated: sum lambda^2 = {total!r}"
            )
        phi = _check_real("phi", self.phi)
        if not 0.0 <= phi <= np.pi:
            raise ValidationError(f"phi must lie in [0, pi], got {self.phi!r}")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "phi", phi)


def ghz() -> PureState:
    """(|000> + |111>)/sqrt(2)."""
    amp = np.zeros(8, dtype=complex)
    amp[0b000] = amp[0b111] = 1.0 / np.sqrt(2.0)
    return PureState(amp)


def generalized_ghz(alpha: float) -> PureState:
    """cos(alpha)|000> + sin(alpha)|111>; ``alpha`` must be a finite number."""
    alpha = _check_real("generalized-ghz angle", alpha)
    amp = np.zeros(8, dtype=complex)
    amp[0b000] = np.cos(alpha)
    amp[0b111] = np.sin(alpha)
    return PureState(amp)


def acin_state(p: AcinParameters) -> PureState:
    """Pure state l0|000> + l1 e^{i phi}|100> + l2|101> + l3|110> + l4|111>."""
    lam = p.lambdas
    amp = np.zeros(8, dtype=complex)
    amp[0b000] = lam[0]
    amp[0b100] = lam[1] * np.exp(1j * p.phi)
    amp[0b101] = lam[2]
    amp[0b110] = lam[3]
    amp[0b111] = lam[4]
    return PureState(amp)


def canonical_biseparable(partition: str, alpha: float) -> PureState:
    """cos(alpha)|01> - sin(alpha)|10> on the joined pair, |0> on the separated qubit.

    The pair state occupies the two joined slots in ascending order; the
    split-off qubit of ``partition`` is left in |0>.
    """
    idx01, idx10 = _PAIR_KETS[_check_partition(partition)]
    alpha = _check_real("canonical-biseparable angle", alpha)
    amp = np.zeros(8, dtype=complex)
    amp[idx01] = np.cos(alpha)
    amp[idx10] = -np.sin(alpha)
    return PureState(amp)


def w_state() -> PureState:
    """(|001> + |010> + |100>)/sqrt(3)."""
    amp = np.zeros(8, dtype=complex)
    amp[[0b001, 0b010, 0b100]] = 1.0 / np.sqrt(3.0)
    return PureState(amp)


def phi_plus_otimes_zero() -> PureState:
    """(|00> + |11>)/sqrt(2) on qubits 1,2 with qubit 3 in |0>."""
    amp = np.zeros(8, dtype=complex)
    amp[0b000] = amp[0b110] = 1.0 / np.sqrt(2.0)
    return PureState(amp)


def random_pure(seed: int) -> PureState:
    """Haar-random pure state: 8 standard complex Gaussians, normalized."""
    rng = np.random.default_rng(_check_integer("seed", seed, 0))
    return PureState(_haar_ket(8, rng))


def _haar_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amp / np.linalg.norm(amp)


def _ginibre_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix G G^dagger / tr(G G^dagger)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def _random_factor(dim: int, rng: np.random.Generator, pure: bool) -> np.ndarray:
    if pure:
        ket = _haar_ket(dim, rng)
        return np.outer(ket, ket.conj())
    return _ginibre_density(dim, rng)


def _simplex_weights(k: int, rng: np.random.Generator) -> np.ndarray:
    # normalized exponentials = uniform on the probability simplex
    w = rng.exponential(size=k)
    return w / w.sum()


def random_in_class(
    partition: str | None,
    n_mix: int,
    seed: int,
    pure_factors: bool = False,
) -> DensityMatrix:
    """Random state inside a separability class.

    Draws ``n_mix`` independent product states and mixes them with weights
    uniform on the simplex.  For a bipartition label the products are
    (single-qubit state) (x) (two-qubit state) placed per the partition; for
    ``partition in (None, "fully-separable")`` they are triple products of
    single-qubit states.  ``pure_factors=True`` uses Haar-random pure factors
    instead of full-rank Ginibre ones.
    """
    _check_integer("n_mix", n_mix, 1)
    fully_sep = partition is None or partition == FULLY_SEPARABLE
    if not fully_sep:
        _check_partition(partition)
    rng = np.random.default_rng(_check_integer("seed", seed, 0))
    weights = _simplex_weights(n_mix, rng)
    total = np.zeros((8, 8), dtype=complex)
    for w in weights:
        if fully_sep:
            prod = _kron(
                _kron(_random_factor(2, rng, pure_factors), _random_factor(2, rng, pure_factors)),
                _random_factor(2, rng, pure_factors),
            )
        else:
            single = _random_factor(2, rng, pure_factors)
            pair = _random_factor(4, rng, pure_factors)
            prod = _place(_kron(single, pair), _SEPARATED[partition])
        total += w * prod
    return DensityMatrix(total)


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi|.

    A norm deviation of eps in the pure state shows up as a trace deviation
    of eps here, so the state's validation tolerance carries over.
    """
    return DensityMatrix(
        np.outer(psi.amplitudes, psi.amplitudes.conj()),
        tol=max(DM_TRACE_TOL, psi.tol),
    )


def as_density(state) -> DensityMatrix:
    """Coerce a PureState or DensityMatrix to a DensityMatrix."""
    if isinstance(state, DensityMatrix):
        return state
    if isinstance(state, PureState):
        return to_density(state)
    raise ValidationError(f"expected PureState or DensityMatrix, got {type(state).__name__}")


def mix(states, weights) -> DensityMatrix:
    """Convex combination of density matrices.

    The loosest validation tolerance among the inputs carries over (a convex
    mixture cannot exceed the worst input's trace deviation).
    """
    if not isinstance(states, (list, tuple)):
        raise ValidationError(f"states must be a list or tuple, got {type(states).__name__}")
    weights = _frozen_array(weights, "mixture weights", (len(states),))
    if np.any(weights < 0):
        raise ValidationError("mixture weights must be non-negative")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValidationError(
            f"mixture weights must sum to 1, got {weights.sum()!r}"
        )
    total = np.zeros((8, 8), dtype=complex)
    tol = DM_TRACE_TOL
    for w, rho in zip(weights, states):
        rho = as_density(rho)
        tol = max(tol, rho.tol)
        total += w * rho.matrix
    # a weight sum off by delta shifts the trace by delta on top of input slack
    return DensityMatrix(total, tol=tol + abs(float(weights.sum()) - 1.0))


def maximally_mixed() -> DensityMatrix:
    """I/8."""
    return DensityMatrix(np.eye(8, dtype=complex) / 8.0)


def reduced_qubit(rho, slot: int) -> np.ndarray:
    """2x2 reduced density matrix of one qubit (the other two traced out)."""
    slot = _check_slot(slot)
    t = as_density(rho).matrix.reshape(2, 2, 2, 2, 2, 2)
    pattern = {1: "ajkbjk->ab", 2: "jakjbk->ab", 3: "jkajkb->ab"}[slot]
    return np.einsum(pattern, t)


def random_local_unitaries(rng: np.random.Generator) -> np.ndarray:
    """Stack of three independent Haar-random 2x2 unitaries, one per qubit.

    One stacked QR of three complex Ginibre matrices, drawn in turn (real
    then imaginary part of each); the phases of R's diagonal move into Q.
    """
    if not isinstance(rng, np.random.Generator):
        raise ValidationError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    z = np.stack([
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)
    ]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def apply_local_unitaries(psi: PureState, us) -> PureState:
    """(U1 (x) U2 (x) U3)|psi> for a finite (3, 2, 2) stack ``us``; norm and its slack are kept."""
    if not isinstance(psi, PureState):
        raise ValidationError(f"expected PureState, got {type(psi).__name__}")
    us = _as_operator(us, "local unitaries", stacked=True)
    if us.shape != (3, 2, 2):
        raise ValidationError(f"local unitaries must be a (3, 2, 2) stack, got shape {us.shape}")
    full = _kron(_kron(us[0], us[1]), us[2])
    return PureState(full @ psi.amplitudes, tol=psi.tol)
