"""Dense complex linear algebra for 2-, 4- and 8-dimensional qubit operators.

Conventions used throughout the package:

* Qubit slots are numbered 1, 2, 3.  Slot 1 is the *leftmost* (most
  significant) tensor factor, so the computational basis is ordered
  |000>, |001>, ..., |111> with qubit 3 as the least significant bit.
* Operators are plain complex ndarrays of shape (2,2), (4,4) or (8,8).
  Nothing larger is ever constructed.

This module owns those conventions for the whole package: every tensor
product goes through :func:`_kron`, every slot or operator index through
:func:`_check_slot`, and every count or seed through :func:`_check_integer`.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "ValidationError",
    "ConsistencyError",
    "I2",
    "SX",
    "SY",
    "SZ",
    "PAULIS",
    "HERMITICITY_TOL",
    "IMAG_RESIDUE_TOL",
    "kron",
    "embed_single",
    "embed_pair",
    "compose_single_pair",
    "expectation_matrix",
    "is_hermitian",
]


class ValidationError(ValueError):
    """An input violated a documented invariant (bad norm, shape, range...)."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: sigma_0..sigma_3 stacked; index 0 is the identity.
PAULIS = np.stack([I2, SX, SY, SZ])
for _p in (I2, SX, SY, SZ, PAULIS):
    _p.setflags(write=False)

HERMITICITY_TOL = 1e-10
IMAG_RESIDUE_TOL = 1e-10

_VALID_DIMS = (2, 4, 8)


def _as_operator(m, name: str = "operator") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[0] not in _VALID_DIMS:
        raise ValidationError(f"{name} dimension must be one of {_VALID_DIMS}, got {m.shape[0]}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """True if max |m - m^dagger| entry deviation is within ``tol``."""
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unchecked Kronecker product: one broadcast multiply, bit-identical to numpy's kron."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def kron(a, b) -> np.ndarray:
    """Kronecker product, restricted to results of dimension <= 8."""
    a = _as_operator(a, "kron left factor")
    b = _as_operator(b, "kron right factor")
    if a.shape[0] * b.shape[0] > 8:
        raise ValidationError(
            f"kron result dimension {a.shape[0] * b.shape[0]} exceeds 8"
        )
    return _kron(a, b)


def _check_slot(value, name: str = "qubit slot") -> int:
    """``value`` as a plain int if it is the integer 1, 2 or 3 (not a bool or float)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value not in (1, 2, 3):
        raise ValidationError(f"{name} must be 1, 2 or 3, got {value!r}")
    return int(value)


def _check_integer(name: str, value, minimum: int) -> int:
    """``value`` as a plain int if it is an integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def embed_single(op, slot: int) -> np.ndarray:
    """Place a single-qubit operator at tensor slot ``slot``, identity elsewhere.

    Slot 1 is the leftmost factor: embed_single(op, 1) == op (x) I (x) I.
    """
    op = _as_operator(op, "single-qubit operator")
    if op.shape[0] != 2:
        raise ValidationError(f"embed_single expects a 2x2 operator, got {op.shape}")
    slot = _check_slot(slot)
    factors = [I2, I2, I2]
    factors[slot - 1] = op
    return _kron(_kron(factors[0], factors[1]), factors[2])


def compose_single_pair(single, pair, single_slot: int) -> np.ndarray:
    """Tensor a 2x2 operator at ``single_slot`` with a 4x4 operator on the other slots.

    The 4x4 operator's first factor lands on the lower-numbered remaining
    slot, its second factor on the higher one, so e.g. single_slot=2 maps
    pair = P (x) Q to P (x) single (x) Q.
    """
    single = _as_operator(single, "single-qubit factor")
    pair = _as_operator(pair, "two-qubit factor")
    if single.shape[0] != 2 or pair.shape[0] != 4:
        raise ValidationError(
            f"compose_single_pair expects (2x2, 4x4), got {single.shape}, {pair.shape}"
        )
    slot = _check_slot(single_slot)
    full = _kron(single, pair)
    # current factor order is (single, pair_lo, pair_hi); permute to slot order
    perm = {1: (0, 1, 2), 2: (1, 0, 2), 3: (1, 2, 0)}[slot]
    t = full.reshape(2, 2, 2, 2, 2, 2)
    t = t.transpose(perm[0], perm[1], perm[2], perm[0] + 3, perm[1] + 3, perm[2] + 3)
    return np.ascontiguousarray(t.reshape(8, 8))


def embed_pair(op, excluded: int) -> np.ndarray:
    """Place a two-qubit operator on the slots other than ``excluded``.

    The interleaving is exact: for excluded=2 the operator's first factor
    acts on slot 1 and its second on slot 3.
    """
    return compose_single_pair(I2, op, excluded)


def expectation_matrix(obs, rho) -> float:
    """Re tr(rho . obs) for a Hermitian observable.

    ``rho`` may be a DensityMatrix, a PureState, or a raw 8x8 ndarray.
    Rejects non-Hermitian observables; raises ConsistencyError if the trace
    picks up an imaginary part beyond tolerance (cannot happen for valid
    Hermitian inputs).
    """
    obs = _as_operator(obs, "observable")
    if not is_hermitian(obs, HERMITICITY_TOL):
        raise ValidationError(
            "observable is not Hermitian within tolerance "
            f"{HERMITICITY_TOL:g} (max deviation {np.max(np.abs(obs - obs.conj().T)):.3g})"
        )
    mat = getattr(rho, "matrix", None)
    if mat is None:
        state = getattr(rho, "amplitudes", None)
        if state is not None:
            mat = np.outer(state, state.conj())
        else:
            mat = np.asarray(rho, dtype=complex)
    if mat.shape != obs.shape:
        raise ValidationError(
            f"state dimension {mat.shape} does not match observable {obs.shape}"
        )
    value = np.einsum("ab,ba->", mat, obs)
    if abs(value.imag) >= IMAG_RESIDUE_TOL:
        raise ConsistencyError(
            f"expectation value has imaginary residue {value.imag:.3g}"
        )
    return float(value.real)
