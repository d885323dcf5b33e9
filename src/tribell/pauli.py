"""Pauli-basis decomposition of 3-qubit states and its local-unitary invariants.

Any 8x8 density matrix expands as

    rho = (1/8) (I + a_i s_i^1 + b_i s_i^2 + c_i s_i^3
                 + R_ij s_i^1 s_j^2 + S_ij s_i^1 s_j^3 + T_ij s_i^2 s_j^3
                 + Q_ijk s_i^1 s_j^2 s_k^3)

with s_i^j the i-th Pauli matrix on qubit j and all coefficients real.  The
squared norms of these coefficient blocks are invariant under local unitaries;
for every pure state the two-body norms sum to 3 and |Q|^2 + |a|^2 + |b|^2
+ |c|^2 = 4, which pins |Q| between 1 (product states) and 2 (GHZ).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PAULIS, ValidationError, _as_numbers, _frozen_array
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

#: where each block sits in the (4, 4, 4) grid of all coefficients, indexed like _STRINGS
_BLOCKS = {"alpha": np.s_[1:, 0, 0], "beta": np.s_[0, 1:, 0], "gamma": np.s_[0, 0, 1:],
           "R": np.s_[1:, 1:, 0], "S": np.s_[1:, 0, 1:], "T": np.s_[0, 1:, 1:], "Q": np.s_[1:, 1:, 1:]}


@dataclass(frozen=True, eq=False)
class PauliDecomposition:
    """Real coefficient blocks of the 3-qubit Pauli expansion.

    Each block is a read-only view into one private (4, 4, 4) grid ``_grid``: finite
    floats copied from the arguments, indexed like the Pauli strings, [0, 0, 0] = 1.
    """

    alpha: np.ndarray  # (3,)   single-qubit terms, qubit 1
    beta: np.ndarray   # (3,)   qubit 2
    gamma: np.ndarray  # (3,)   qubit 3
    R: np.ndarray      # (3,3)  qubits 1,2
    S: np.ndarray      # (3,3)  qubits 1,3
    T: np.ndarray      # (3,3)  qubits 2,3
    Q: np.ndarray      # (3,3,3) full three-body tensor

    def __post_init__(self):
        grid = np.empty((4, 4, 4))
        grid[0, 0, 0] = 1.0  # the blocks fill the other 63 entries
        for name, index in _BLOCKS.items():
            block, part = _as_numbers(getattr(self, name), name), grid[index]
            if block.shape != part.shape:
                raise ValidationError(f"{name} must have shape {part.shape}, got {block.shape}")
            part[...] = block
        grid = _frozen_array(grid, "Pauli coefficients", (4, 4, 4))  # one check, not seven
        object.__setattr__(self, "_grid", grid)
        for name, index in _BLOCKS.items():
            object.__setattr__(self, name, grid[index])


def decompose(state) -> PauliDecomposition:
    """Coefficients tr(rho P) for every non-identity Pauli string P.

    Accepts a PureState or a DensityMatrix.
    """
    rho = as_density(state).matrix
    coeffs = np.einsum("ijkab,ba->ijk", _STRINGS, rho).real
    return PauliDecomposition(
        alpha=coeffs[1:, 0, 0],
        beta=coeffs[0, 1:, 0],
        gamma=coeffs[0, 0, 1:],
        R=coeffs[1:, 1:, 0],
        S=coeffs[1:, 0, 1:],
        T=coeffs[0, 1:, 1:],
        Q=coeffs[1:, 1:, 1:],
    )


def reconstruct(d: PauliDecomposition) -> np.ndarray:
    """The 8x8 matrix (1/8)(I + sum of coefficient * Pauli string).

    Arbitrary coefficient sets are allowed; the result is always Hermitian
    with unit trace but need not be positive semidefinite.
    """
    return np.einsum("ijk,ijkab->ab", d._grid, _STRINGS) / 8.0


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
    two_body = float(np.sum(d.R**2) + np.sum(d.S**2) + np.sum(d.T**2))
    q_local = float(
        np.sum(d.Q**2) + np.sum(d.alpha**2) + np.sum(d.beta**2) + np.sum(d.gamma**2)
    )
    return two_body, q_local


def q_norm(d: PauliDecomposition) -> float:
    """Euclidean norm of the three-body tensor; in [1, 2] for pure states."""
    return float(np.sqrt(np.sum(d.Q**2)))
