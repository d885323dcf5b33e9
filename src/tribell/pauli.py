"""Pauli-basis decomposition of 3-qubit states and its local-unitary invariants.

Any 8x8 density matrix expands as

    rho = (1/8) (I + a_i s_i^1 + b_i s_i^2 + c_i s_i^3
                 + R_ij s_i^1 s_j^2 + S_ij s_i^1 s_j^3 + T_ij s_i^2 s_j^3
                 + Q_ijk s_i^1 s_j^2 s_k^3)

with s_i^j the i-th Pauli matrix on qubit j and all coefficients real.  The
squared norms of these coefficient blocks are invariant under local unitaries;
for every pure state the two-body norms sum to 3 and |Q|^2 + |a|^2 + |b|^2
+ |c|^2 = 4, which pins |Q| between 1 (product states) and 2 (GHZ).  All 64
coefficients are kept as one (4, 4, 4) grid indexed like the Pauli strings
(0 = identity), so a = grid[1:, 0, 0] and Q = grid[1:, 1:, 1:]; its [0, 0, 0]
entry, the trace, is exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PAULIS, ValidationError, _frozen_array
from .states import DensityMatrix, as_density

__all__ = [
    "PauliDecomposition",
    "decompose",
    "reconstruct",
    "reconstruct_state",
    "invariant_norms",
    "q_norm",
]

# All 64 products s_i (x) s_j (x) s_k, indexed [i, j, k] with 0 = identity.
_STRINGS = np.einsum("iab,jcd,kef->ijkacebdf", PAULIS, PAULIS, PAULIS).reshape(
    4, 4, 4, 8, 8
)
_STRINGS.setflags(write=False)


@dataclass(frozen=True, eq=False)
class PauliDecomposition:
    """3-qubit Pauli coefficients ``grid[i, j, k]`` = tr(rho s_i (x) s_j (x) s_k), 0 = identity.

    ``grid`` is a private read-only copy of finite floats whose [0, 0, 0]
    entry, the trace, must be exactly 1; the seven blocks are views of it.
    """

    grid: np.ndarray

    def __post_init__(self):
        grid = _frozen_array(self.grid, "Pauli coefficients", (4, 4, 4))
        if grid[0, 0, 0] != 1.0:  # the identity's coefficient, the trace
            raise ValidationError(f"Pauli coefficients must have [0, 0, 0] = 1, got {grid.flat[0]}")
        object.__setattr__(self, "grid", grid)

    alpha = property(lambda self: self.grid[1:, 0, 0], doc="(3,) single-qubit terms, qubit 1")
    beta = property(lambda self: self.grid[0, 1:, 0], doc="(3,) single-qubit terms, qubit 2")
    gamma = property(lambda self: self.grid[0, 0, 1:], doc="(3,) single-qubit terms, qubit 3")
    R = property(lambda self: self.grid[1:, 1:, 0], doc="(3, 3) two-body terms, qubits 1, 2")
    S = property(lambda self: self.grid[1:, 0, 1:], doc="(3, 3) two-body terms, qubits 1, 3")
    T = property(lambda self: self.grid[0, 1:, 1:], doc="(3, 3) two-body terms, qubits 2, 3")
    Q = property(lambda self: self.grid[1:, 1:, 1:], doc="(3, 3, 3) full three-body tensor")


def _check_decomposition(d) -> PauliDecomposition:
    """``d`` itself if it is a PauliDecomposition."""
    if not isinstance(d, PauliDecomposition):
        raise ValidationError(f"expected PauliDecomposition, got {type(d).__name__}")
    return d


def decompose(state) -> PauliDecomposition:
    """Coefficients tr(rho P) for every Pauli string P, identity included.

    Accepts a PureState or a DensityMatrix.
    """
    grid = np.einsum("ijkab,ba->ijk", _STRINGS, as_density(state).matrix).real
    grid[0, 0, 0] = 1.0  # tr(rho) is 1 within tolerance; the expansion takes it exact
    return PauliDecomposition(grid)


def reconstruct(d: PauliDecomposition) -> np.ndarray:
    """The 8x8 matrix (1/8)(I + sum of coefficient * Pauli string).

    Arbitrary coefficient sets are allowed; the result is always Hermitian
    with unit trace but need not be positive semidefinite.
    """
    return np.einsum("ijk,ijkab->ab", _check_decomposition(d).grid, _STRINGS) / 8.0


def reconstruct_state(d: PauliDecomposition) -> DensityMatrix:
    """Like :func:`reconstruct` but validated as a physical state.

    Raises ValidationError if the coefficients do not describe a positive
    semidefinite matrix.
    """
    return DensityMatrix(reconstruct(d))


def invariant_norms(d: PauliDecomposition) -> tuple[float, float]:
    """(|R|^2 + |S|^2 + |T|^2,  |Q|^2 + |alpha|^2 + |beta|^2 + |gamma|^2).

    Both are invariant under local unitaries; for pure states they equal
    (3, 4).  For mixed states they are informational only.
    """
    d = _check_decomposition(d)
    two_body = float(np.sum(d.R**2) + np.sum(d.S**2) + np.sum(d.T**2))
    q_local = float(
        np.sum(d.Q**2) + np.sum(d.alpha**2) + np.sum(d.beta**2) + np.sum(d.gamma**2)
    )
    return two_body, q_local


def q_norm(d: PauliDecomposition) -> float:
    """Euclidean norm of the three-body tensor; in [1, 2] for pure states."""
    return float(np.sqrt(np.sum(_check_decomposition(d).Q**2)))
