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
maximally entangled state; finely tuned settings on strongly entangled
states can push it above 3 (to about 3.947 for the maximally entangled
state), so omega is a diagnostic quantity, not a certified bound.

Expectations come in two independently implemented flavors, both taking the
same settings (a, b): a dense matrix-trace path and a fast contraction of the
state's Pauli coefficients.  Inside the contraction the settings enter
through the half-sum and half-difference vectors s_j = (a_j + b_j)/2 and
t_j = (a_j - b_j)/2, which satisfy |s_j|^2 + |t_j|^2 = 1 and s_j . t_j = 0
for unit a_j, b_j.  The two paths are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SX, SY, SZ, ValidationError, _check_integer, _check_slot, _kron
from .core import compose_single_pair, embed_single, expectation_matrix
from .pauli import PauliDecomposition
from .states import as_density

__all__ = [
    "UNIT_TOL",
    "DUAL_PATH_TOL",
    "MeasurementSettings",
    "observable",
    "wwzb_pair",
    "bell_operator",
    "expectation_bell",
    "affine_coefficients",
    "expectation_bell_fast",
    "omega",
    "random_settings",
]

UNIT_TOL = 1e-9
#: largest allowed gap between a fast-path or optimizer value and the dense-path value
DUAL_PATH_TOL = 1e-10


def _check_unit_rows(rows: np.ndarray, name: str, tol: float = UNIT_TOL) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.shape != (3, 3):
        raise ValidationError(f"{name} must be three 3-vectors, got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValidationError(f"{name} contains non-finite entries")
    norms_sq = np.sum(rows**2, axis=1)
    if np.any(np.abs(norms_sq - 1.0) > tol):
        worst = float(np.max(np.abs(norms_sq - 1.0)))
        raise ValidationError(
            f"{name} rows must be unit vectors within {tol:g} (worst norm-square deviation {worst:.3g})"
        )
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True, eq=False)
class MeasurementSettings:
    """Six unit Bloch vectors: rows a[j-1], b[j-1] define A_j, B_j for qubit j."""

    a: np.ndarray
    b: np.ndarray
    tol: float = field(default=UNIT_TOL, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", _check_unit_rows(self.a, "a", self.tol))
        object.__setattr__(self, "b", _check_unit_rows(self.b, "b", self.tol))

    @classmethod
    def aligned(cls, v) -> "MeasurementSettings":
        """All six vectors equal to v (so A_j = B_j for every qubit)."""
        rows = np.tile(np.asarray(v, dtype=float), (3, 1))
        return cls(rows, rows.copy())


def _obs_unchecked(v) -> np.ndarray:
    # internal: accepts non-unit vectors (the expectation is linear in each)
    v = np.asarray(v, dtype=float)
    return v[0] * SX + v[1] * SY + v[2] * SZ


def observable(v) -> np.ndarray:
    """The dichotomic observable v . sigma for a unit Bloch vector v."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise ValidationError(f"Bloch vector must have 3 components, got {v.shape}")
    if not abs(np.sum(v**2) - 1.0) <= UNIT_TOL:  # NaN fails this comparison too
        raise ValidationError(
            f"Bloch vector must be unit length within {UNIT_TOL:g}, got |v|^2 = {np.sum(v**2)!r}"
        )
    return _obs_unchecked(v)


def _pair_indices(excluded: int) -> tuple[int, int]:
    excluded = _check_slot(excluded, "qubit index")
    return tuple(j for j in (1, 2, 3) if j != excluded)


def wwzb_pair(m: MeasurementSettings, excluded: int) -> np.ndarray:
    """CHSH-type pair operator on the two qubits other than ``excluded``.

    With (p, q) the remaining indices in ascending order, returns
    (A_p A_q + A_p B_q + B_p A_q - B_p B_q)/2 as a 4x4 matrix whose first
    tensor factor is qubit p.  Operator norm is at most sqrt(2).
    """
    p, q = _pair_indices(excluded)
    ap, bp = _obs_unchecked(m.a[p - 1]), _obs_unchecked(m.b[p - 1])
    aq, bq = _obs_unchecked(m.a[q - 1]), _obs_unchecked(m.b[q - 1])
    return (
        _kron(ap, aq) + _kron(ap, bq) + _kron(bp, aq) - _kron(bp, bq)
    ) / 2.0


def bell_operator(m: MeasurementSettings, i: int) -> np.ndarray:
    """The 8x8 Hermitian operator D_i at the given settings."""
    p, q = _pair_indices(i)  # validates i
    ai, bi = _obs_unchecked(m.a[i - 1]), _obs_unchecked(m.b[i - 1])
    ci = (ai + bi) / 2.0
    di = (ai - bi) / 2.0
    pair_part = compose_single_pair(ci, wwzb_pair(m, i), i)
    return pair_part + embed_single(di, i)


def expectation_bell(rho, m: MeasurementSettings, i: int) -> float:
    """<D_i> via the dense matrix-trace path; always within [-sqrt(2), sqrt(2)]."""
    return expectation_matrix(bell_operator(m, i), as_density(rho))


# einsum subscripts contracting Q on the two slots other than the free one
_FREE_SLOT = {1: "...ijk,...j,...k->...i", 2: "...ijk,...i,...k->...j", 3: "...ijk,...i,...j->...k"}


def _contract(q, free: int, vectors: dict) -> np.ndarray:
    """Q contracted with ``vectors[k]`` on both slots k != ``free``; the free slot remains."""
    x, y = (vectors[k] for k in (1, 2, 3) if k != free)
    return np.einsum(_FREE_SLOT[free], q, x, y)


def affine_coefficients(local, q, a, b, i: int, j: int):
    """Coefficients (g_a, g_b, c0) of <D_i> = g_a . a_j + g_b . b_j + c0 in slot pair j.

    ``local`` (..., 3, 3) stacks the single-qubit Bloch vectors alpha, beta,
    gamma; ``q`` (..., 3, 3, 3) is the three-body tensor; ``a`` and ``b``
    (..., 3, 3) are slot-major setting vectors, which need not be unit.
    Leading axes broadcast, so one state's coefficients serve a whole stack
    of settings and per-row coefficients serve per-row settings.  Returns
    g_a and g_b with a trailing axis of 3 and c0 with the leading shape of
    the slot; the current a_j and b_j are not used.

    Every term of D_i acts on qubit j with exactly one of A_j, B_j or the
    identity, so <D_i> is affine in (a_j, b_j) jointly, with no a_j . b_j
    term.  With s = (a+b)/2, t = (a-b)/2 and (p, r) the other slots of i,
    <D_i> = s_i . M_i + t_i . alpha_i where M_i = Q(.; s_p, a_r) + Q(.; t_p, b_r).
    So on slot i itself g_a, g_b = (M_i +/- alpha_i)/2 and c0 = 0.  On a pair
    slot j, with k the third slot, g_a = Q(s_i; ., s_k), g_b = Q(s_i; ., t_k)
    and c0 = t_i . alpha_i.
    """
    p, r = _pair_indices(i)  # validates i
    j = _check_slot(j)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = (a + b) * 0.5
    t = (a - b) * 0.5
    slot = lambda x, k: x[..., k - 1, :]
    alpha = slot(np.asarray(local, dtype=float), i)
    if j == i:
        m = _contract(q, i, {p: slot(s, p), r: slot(a, r)})
        m = m + _contract(q, i, {p: slot(t, p), r: slot(b, r)})
        g_a, g_b = (m + alpha) * 0.5, (m - alpha) * 0.5
        return g_a, g_b, np.zeros(g_a.shape[:-1])
    k = 6 - i - j
    g_a = _contract(q, j, {i: slot(s, i), k: slot(s, k)})
    g_b = _contract(q, j, {i: slot(s, i), k: slot(t, k)})
    return g_a, g_b, np.sum(slot(t, i) * alpha, axis=-1)


def _local_vectors(d: PauliDecomposition) -> np.ndarray:
    """alpha, beta, gamma stacked slot-major, shape (3, 3)."""
    return np.stack([d.alpha, d.beta, d.gamma])


def expectation_bell_fast(d: PauliDecomposition, m: MeasurementSettings, i: int) -> float:
    """<D_i> via the Pauli-coefficient contraction path.

    Agrees with :func:`expectation_bell` to machine precision for valid
    inputs; :func:`affine_coefficients`, whose slot-i form it evaluates at
    (a_i, b_i), is the contraction used inside optimization loops.
    """
    g_a, g_b, c0 = affine_coefficients(_local_vectors(d), d.Q, m.a, m.b, i, i)
    c = np.sum(m.b[i - 1] * g_b, axis=-1) + c0
    return float(c + g_a @ m.a[i - 1])


def omega(rho, m: MeasurementSettings) -> float:
    """Sum of the three squared expectations at one shared setting.

    Equals 3 at cube corners (product states, aligned settings) and for the
    maximally entangled state at aligned settings.  Separable states never
    exceed 3; strongly entangled states can, at finely tuned settings.
    """
    return float(sum(expectation_bell(rho, m, i) ** 2 for i in (1, 2, 3)))


def random_settings(seed: int) -> MeasurementSettings:
    """Six independent uniformly random unit vectors."""
    rng = np.random.default_rng(_check_integer("seed", seed, 0))
    vecs = rng.standard_normal((2, 3, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    return MeasurementSettings(vecs[0], vecs[1])
