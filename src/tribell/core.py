"""Dense complex linear algebra for 2-, 4- and 8-dimensional qubit operators.

Conventions used throughout the package:

* Qubit slots are numbered 1, 2, 3.  Slot 1 is the *leftmost* (most
  significant) tensor factor, so the computational basis is ordered
  |000>, |001>, ..., |111> with qubit 3 as the least significant bit.
* Operators are plain complex ndarrays of shape (2,2), (4,4) or (8,8),
  or stacks of them along leading axes, (..., 8, 8).  No single operator
  is larger than 8x8.

This module owns those conventions for the whole package, and the intake of
outside values: every tensor product goes through :func:`_kron` and into
slot order through :func:`_place`, every slot or operator index through
:func:`_check_slot`, every count or seed through :func:`_check_integer`,
every other number through :func:`_check_real`, and every array through
:func:`_frozen_array` (a private read-only copy) or, uncopied, through
:func:`_as_operator`; both refuse strings, bools, objects, ragged nests and
complex entries where real ones are due.  :func:`_kron` and :func:`_place`
broadcast over leading axes, and one helper, :func:`_expectations`, takes
every dense trace: Re tr(rho . obs) for a whole stack of states against one
operator or one operator per state, with the non-finite, Hermiticity and
imaginary-residue checks done once per stack.  :func:`expectation_matrix`
is its single-operator, single-state case.
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


def _as_operator(m, name: str = "operator", stacked: bool = False) -> np.ndarray:
    """``m`` as a finite complex square matrix, or a stack (..., d, d) if ``stacked``; uncopied."""
    m = _as_numbers(m, name, complex)
    if (m.ndim < 2 if stacked else m.ndim != 2) or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[-1] not in _VALID_DIMS:
        raise ValidationError(f"{name} dimension must be one of {_VALID_DIMS}, got {m.shape[-1]}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def _hermitian_deviation(m: np.ndarray) -> float:
    """Largest entry of |m - m^dagger| over the last two axes of a matrix or a stack."""
    return float(np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), initial=0.0))


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """True if max |m - m^dagger| entry deviation is within ``tol``."""
    return _hermitian_deviation(np.asarray(m)) <= tol


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unchecked Kronecker product of the last two axes; leading axes broadcast.

    One broadcast multiply, bit-identical to numpy's kron for each pair of
    matrices.
    """
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (m * p, n * q))


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


def _check_real(name: str, value, minimum=None, strict: bool = False) -> float:
    """``value`` as a float if it is a finite real number, not a bool, >= ``minimum`` (> if ``strict``)."""
    low = -np.inf if minimum is None else minimum
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        (low < value if strict or minimum is None else low <= value) and value < np.inf
    ):
        bound = "" if minimum is None else f" {'>' if strict else '>='} {minimum}"
        raise ValidationError(f"{name} must be a finite number{bound}, got {value!r}")
    return float(value)


def _as_numbers(value, name: str, dtype=float) -> np.ndarray:
    """``value`` as an ndarray of ``dtype``, uncopied where numpy allows.

    Refuses what numpy would parse, count or drop: strings, bools, objects,
    ragged nests, and complex entries for a real ``dtype``.  A list or tuple
    is also scanned for bools, which numpy would upcast; an ndarray's dtype tells.
    """
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise ValidationError(f"{name} must be numbers, got a ragged nest") from exc
    if arr.dtype.kind not in "iufc":
        raise ValidationError(f"{name} must be numbers, got dtype {arr.dtype}")
    if isinstance(value, (list, tuple)) and any(
        np.asarray(x).dtype == bool for x in np.asarray(value, dtype=object).flat
    ):
        raise ValidationError(f"{name} must be numbers, got a bool")
    if arr.dtype.kind == "c" and np.dtype(dtype).kind != "c":
        raise ValidationError(f"{name} must be real numbers, got complex entries")
    return arr.astype(dtype, copy=False)


def _frozen_array(value, name: str, shape, dtype=float) -> np.ndarray:
    """A private, read-only copy of ``value``: finite numbers of ``dtype`` in ``shape``.

    An int ``shape`` n takes any shape of n entries and returns them flat.
    """
    arr = _as_numbers(value, name, dtype)
    flat = isinstance(shape, int)
    if arr.size != shape if flat else arr.shape != shape:
        want = f"{shape} entries" if flat else f"shape {shape}"
        raise ValidationError(f"{name} must have {want}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite numbers, got non-finite entries")
    arr = np.array(arr.reshape(-1) if flat else arr)
    arr.setflags(write=False)
    return arr


def _place(full: np.ndarray, slot: int) -> np.ndarray:
    """Unchecked: 8x8 operators in factor order (slot, lower other, higher other) to slot order.

    Leading axes of ``full`` (..., 8, 8) are kept; only entries move.
    """
    perm = {1: (0, 1, 2), 2: (1, 0, 2), 3: (1, 2, 0)}[slot]
    lead = full.shape[:-2]
    k = len(lead)
    t = full.reshape(lead + (2,) * 6)
    t = t.transpose(tuple(range(k)) + tuple(k + p for p in perm) + tuple(k + 3 + p for p in perm))
    return np.ascontiguousarray(t.reshape(lead + (8, 8)))


def _expectations(obs, mats) -> np.ndarray:
    """Re tr(mats . obs) over broadcast leading axes: the one dense trace.

    ``obs`` (..., d, d) is one operator or a stack; ``mats`` (..., d, d) is
    one state matrix or a stack.  Both must be finite and every operator
    Hermitian, checked once per call, so a shared operator is validated once
    for the whole stack of states.  Raises ConsistencyError if any trace
    picks up an imaginary part beyond tolerance (cannot happen for valid
    Hermitian inputs).  Each trace is bit-identical to the one of a single
    state and operator.
    """
    obs = _as_operator(obs, "observable", stacked=True)
    deviation = _hermitian_deviation(obs)
    if not deviation <= HERMITICITY_TOL:
        raise ValidationError(
            "observable is not Hermitian within tolerance "
            f"{HERMITICITY_TOL:g} (max deviation {deviation:.3g})"
        )
    mats = _as_operator(mats, "state", stacked=True)
    if mats.shape[-1] != obs.shape[-1]:
        raise ValidationError(
            f"state dimension {mats.shape[-2:]} does not match observable {obs.shape[-2:]}"
        )
    values = np.einsum("...ab,...ba->...", mats, obs)
    residue = np.abs(values.imag)
    if np.any(residue >= IMAG_RESIDUE_TOL):
        worst = np.unravel_index(np.argmax(residue), residue.shape)
        where = f" at stack index {tuple(map(int, worst))}" if worst else ""
        raise ConsistencyError(
            f"expectation value has imaginary residue {values.imag[worst]:.3g}{where}"
        )
    return values.real


def expectation_matrix(obs, rho) -> float:
    """Re tr(rho . obs) for a Hermitian observable.

    ``rho`` may be a DensityMatrix, a PureState, or a raw 8x8 ndarray.
    Rejects non-Hermitian observables and non-finite raw arrays; raises
    ConsistencyError if the trace picks up an imaginary part beyond
    tolerance (cannot happen for valid Hermitian inputs).
    """
    obs = _as_operator(obs, "observable")
    mat = getattr(rho, "matrix", None)
    if mat is None:
        state = getattr(rho, "amplitudes", None)
        mat = np.outer(state, state.conj()) if state is not None else _as_operator(rho, "state")
    return float(_expectations(obs, mat))
