"""Three-qubit Bell operators with two dichotomic observables per qubit.

Each observer j measures A_j = a_j . sigma or B_j = b_j . sigma for unit
Bloch vectors a_j, b_j.  For each distinguished qubit i the operator

    D_i = W_i (x) (A_i + B_i)/2 + (A_i - B_i)/2

is built from the two-qubit CHSH-type combination on the remaining pair

    W_i = (A_p A_q + A_p B_q + B_p A_q - B_p B_q) / 2,   p < q,  p, q != i,

with strict slot interleaving (the (A_i +/- B_i) factors act on slot i).
|<D_i>| is at most 1 on fully separable states, at most sqrt(2) universally,
and for states separable across the cut i-(rest) only axis i can exceed 1
(up to sqrt(2)).  The sum of the three squared expectations at one shared
setting (omega) reaches 3 on product states at aligned settings and on the
maximally entangled state.  Fully separable states never exceed 3, but
biseparable ones can (omega about 3.564 has been found on a 1-23 state), and
finely tuned settings on strongly entangled states push it further (to about
3.947 for the maximally entangled state), so omega is a diagnostic quantity,
not a certified bound.

Expectations come in two independently implemented flavors, both taking the
same settings (a, b): a dense matrix-trace path and a fast contraction of the
state's Pauli coefficients.  The fast path is the multi-affine form
(:func:`multiaffine_form`) <D_i> = C_i[X_1, X_2, X_3], X_j = (1, a_j, b_j):
every term of D_i puts one of I, A_j or B_j on each qubit j, so each entry of
C_i is one Pauli coefficient tr(rho s_k s_l s_m) (index 0 is the identity)
times a term weight, by the factors on slots (i, p, q):

    A I I: +1/2,  B I I: -1/2                          from (A_i - B_i)/2 (x) I
    A or B on i, then AA, AB or BA: +1/4, or BB: -1/4  from (A_i + B_i)/2 (x) W_i

and 0 otherwise.  The two paths are cross-checked in the test suite.

The dense path is the independent oracle and never reads Pauli
coefficients.  One builder, :func:`_bell_operators`, makes D_i from
(..., 3, 3) rows of a and b, so a stack of settings gives a stack of
operators; :func:`bell_operator` is its one-row case.
:func:`expectation_bell` also takes a list of states, with one shared
setting (D_i built and validated once) or one setting per state, and traces
the whole stack in one call of :func:`tribell.core._expectations`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .core import SX, SY, SZ, ValidationError, _check_integer, _check_real, _check_slot
from .core import _expectations, _frozen_array, _kron, _place
from .pauli import PauliDecomposition, _check_decomposition
from .states import as_density

__all__ = [
    "UNIT_TOL",
    "DUAL_PATH_TOL",
    "MeasurementSettings",
    "observable",
    "wwzb_pair",
    "bell_operator",
    "expectation_bell",
    "multiaffine_form",
    "expectation_bell_fast",
    "omega",
    "random_settings",
]

UNIT_TOL = 1e-9
#: largest allowed gap between a fast-path or optimizer value and the dense-path value
DUAL_PATH_TOL = 1e-10
_I4 = np.eye(4, dtype=complex)


def _check_unit_rows(rows, name: str, tol: float = UNIT_TOL, lead: tuple = ()) -> np.ndarray:
    """A read-only copy of ``rows`` (*lead, 3, 3) whose rows are unit vectors within ``tol``.

    A stack takes one copy, one flag and one test, and its (3, 3) entries
    are read-only views.
    """
    rows = _frozen_array(rows, name, lead + (3, 3))
    norms_sq = np.sum(rows**2, axis=-1)
    if np.any(np.abs(norms_sq - 1.0) > tol):
        worst = float(np.max(np.abs(norms_sq - 1.0)))
        raise ValidationError(
            f"{name} rows must be unit vectors within {tol:g} (worst norm-square deviation {worst:.3g})"
        )
    return rows


@dataclass(frozen=True, eq=False)
class MeasurementSettings:
    """Six unit Bloch vectors: rows a[j-1], b[j-1] define A_j, B_j for qubit j."""

    a: np.ndarray
    b: np.ndarray
    tol: InitVar[float] = UNIT_TOL

    def __post_init__(self, tol):
        _check_real("tol", tol, 0)
        object.__setattr__(self, "a", _check_unit_rows(self.a, "a", tol))
        object.__setattr__(self, "b", _check_unit_rows(self.b, "b", tol))

    @classmethod
    def _from_checked(cls, a, b) -> "MeasurementSettings":
        """Settings around rows (3, 3) that :func:`_check_unit_rows` already checked and froze."""
        settings = object.__new__(cls)
        object.__setattr__(settings, "a", a)
        object.__setattr__(settings, "b", b)
        return settings

    @classmethod
    def aligned(cls, v) -> "MeasurementSettings":
        """All six vectors equal to v (so A_j = B_j for every qubit)."""
        rows = np.tile(_frozen_array(v, "aligned vector", 3), (3, 1))
        return cls(rows, rows)


def _obs_unchecked(v) -> np.ndarray:
    # internal: accepts non-unit vectors (the expectation is linear in each);
    # a (..., 3) stack of vectors gives a (..., 2, 2) stack of observables
    v = np.asarray(v, dtype=float)[..., None, None]
    return v[..., 0, :, :] * SX + v[..., 1, :, :] * SY + v[..., 2, :, :] * SZ


def observable(v) -> np.ndarray:
    """The dichotomic observable v . sigma for a unit Bloch vector v."""
    v = _frozen_array(v, "Bloch vector", 3)
    norm_sq = float(np.sum(v**2))
    if abs(norm_sq - 1.0) > UNIT_TOL:
        raise ValidationError(
            f"Bloch vector must be unit length within {UNIT_TOL:g}, got |v|^2 = {norm_sq!r}"
        )
    return _obs_unchecked(v)


def _pair_indices(excluded: int) -> tuple[int, int]:
    excluded = _check_slot(excluded, "qubit index")
    return tuple(j for j in (1, 2, 3) if j != excluded)


def _pair_operator(obs_a: np.ndarray, obs_b: np.ndarray, p: int, q: int) -> np.ndarray:
    """(A_p A_q + A_p B_q + B_p A_q - B_p B_q)/2 from the stacked observables A_j, B_j.

    ``obs_a`` and ``obs_b`` are (..., 3, 2, 2); leading axes broadcast.
    """
    ap, bp = obs_a[..., p - 1, :, :], obs_b[..., p - 1, :, :]
    aq, bq = obs_a[..., q - 1, :, :], obs_b[..., q - 1, :, :]
    return (_kron(ap, aq) + _kron(ap, bq) + _kron(bp, aq) - _kron(bp, bq)) / 2.0


def _check_settings(m) -> MeasurementSettings:
    if not isinstance(m, MeasurementSettings):
        raise ValidationError(f"expected MeasurementSettings, got {type(m).__name__}")
    return m


def wwzb_pair(m: MeasurementSettings, excluded: int) -> np.ndarray:
    """CHSH-type pair operator on the two qubits other than ``excluded``.

    With (p, q) the remaining indices in ascending order, returns
    (A_p A_q + A_p B_q + B_p A_q - B_p B_q)/2 as a 4x4 matrix whose first
    tensor factor is qubit p.  Operator norm is at most sqrt(2).
    """
    m = _check_settings(m)
    p, q = _pair_indices(excluded)
    return _pair_operator(_obs_unchecked(m.a), _obs_unchecked(m.b), p, q)


def _bell_operators(a, b, i: int) -> np.ndarray:
    """D_i for slot-major setting rows ``a``, ``b`` (..., 3, 3): shape (..., 8, 8).

    Built in factor order (i, p, q) and placed once; leading axes broadcast,
    and each operator is bit-identical to the one built from its own row.
    """
    p, q = _pair_indices(i)  # validates i
    obs_a, obs_b = _obs_unchecked(a), _obs_unchecked(b)
    ai, bi = obs_a[..., i - 1, :, :], obs_b[..., i - 1, :, :]
    ci = (ai + bi) / 2.0
    ei = (ai - bi) / 2.0
    return _place(_kron(ci, _pair_operator(obs_a, obs_b, p, q)) + _kron(ei, _I4), i)


def bell_operator(m: MeasurementSettings, i: int) -> np.ndarray:
    """The 8x8 Hermitian operator D_i at settings ``m``."""
    m = _check_settings(m)
    return _bell_operators(m.a, m.b, i)


def expectation_bell(rho, m, i: int):
    """<D_i> via the dense matrix-trace path; always within [-sqrt(2), sqrt(2)].

    ``rho`` is one state (PureState or DensityMatrix) and ``m`` one
    MeasurementSettings, and the result is a float.  ``rho`` may also be a
    list or tuple of states; ``m`` is then one MeasurementSettings shared by
    all of them, or a list or tuple of one per state, and the result is an (n,)
    array.  A shared D_i is built and validated once for the whole stack,
    per-state operators are built in one stacked call, and every trace is
    bit-identical to the single-state one::

        expectation_bell([rho1, rho2], m, 1)          # shared setting
        expectation_bell([rho1, rho2], [m1, m2], 1)   # one setting per state
    """
    if not isinstance(rho, (list, tuple)):
        return float(_expectations(bell_operator(m, i), as_density(rho).matrix))
    if isinstance(m, MeasurementSettings):
        a, b = m.a, m.b
    else:
        if not isinstance(m, (list, tuple)):
            raise ValidationError(
                f"expected MeasurementSettings or a list or tuple of them, got {type(m).__name__}"
            )
        m = [_check_settings(x) for x in m]
        if len(m) != len(rho):
            raise ValidationError(f"got {len(rho)} states but {len(m)} settings")
        # np.array of a list of equal-shape arrays stacks them; reshape keeps [] at (0, 3, 3)
        a = np.array([x.a for x in m]).reshape(-1, 3, 3)
        b = np.array([x.b for x in m]).reshape(-1, 3, 3)
    mats = np.array([as_density(r).matrix for r in rho], dtype=complex).reshape(-1, 8, 8)
    return _expectations(_bell_operators(a, b, i), mats)


# kind (0 = I, 1 = A_j, 2 = B_j) and Pauli index of each entry of X_j = (1, a_j, b_j)
_KIND = [0, 1, 1, 1, 2, 2, 2]
_PAULI = [0, 1, 2, 3, 1, 2, 3]
# D_i = (A_i + B_i)/2 (x) W_i + (A_i - B_i)/2 (x) I: _W and _ID weigh W_i and the
# identity by the kinds of slots (p, q), and _BY_KIND weighs D_i by the kinds of (i, p, q)
_W = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, -0.5]])
_ID = np.diag([1.0, 0.0, 0.0])
_BY_KIND = np.array([0.0 * _W, (_W + _ID) / 2, (_W - _ID) / 2])
#: those weights in slot order for each entry of X_1, X_2, X_3, shape (3, 7, 7, 7)
_TERMS = np.stack([np.moveaxis(_BY_KIND, 0, i) for i in range(3)])[np.ix_(range(3), _KIND, _KIND, _KIND)]
_TERMS.setflags(write=False)


def multiaffine_form(d: PauliDecomposition) -> np.ndarray:
    """C (3, 7, 7, 7) with <D_i> = C[i - 1][X_1, X_2, X_3] for X_j = (1, a_j, b_j).

    Each entry is a fixed term weight of D_i times one Pauli coefficient of
    the state (see the module docstring).  The settings need not be unit.
    """
    return _TERMS * _check_decomposition(d).grid[np.ix_(_PAULI, _PAULI, _PAULI)]


def _homogeneous(a, b) -> np.ndarray:
    """X_j = (1, a_j, b_j) along the last axis: rows (..., 3, 3) give X (..., 3, 7)."""
    return np.concatenate([np.ones(np.shape(a)[:-1] + (1,)), a, b], axis=-1)


def expectation_bell_fast(d: PauliDecomposition, m: MeasurementSettings, i: int) -> float:
    """<D_i> via the Pauli-coefficient contraction path.

    Evaluates the multi-affine form (:func:`multiaffine_form`) at
    X_j = (1, a_j, b_j).  Agrees with :func:`expectation_bell` to machine
    precision for valid inputs.
    """
    i = _check_slot(i, "operator index")
    m = _check_settings(m)
    return float(np.einsum("klm,k,l,m->", multiaffine_form(d)[i - 1], *_homogeneous(m.a, m.b)))


def omega(rho, m: MeasurementSettings) -> float:
    """Sum of the three squared expectations at one shared setting.

    Equals 3 at cube corners (product states, aligned settings) and for the
    maximally entangled state at aligned settings.  Fully separable states
    never exceed 3; biseparable and strongly entangled states can, at finely
    tuned settings.
    """
    return float(sum(expectation_bell(rho, m, i) ** 2 for i in (1, 2, 3)))


def random_settings(seed: int) -> MeasurementSettings:
    """Six independent uniformly random unit vectors."""
    rng = np.random.default_rng(_check_integer("seed", seed, 0))
    vecs = rng.standard_normal((2, 3, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    return MeasurementSettings(vecs[0], vecs[1])
