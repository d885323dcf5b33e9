"""Independent reference values for the benchmark's correctness checks.

Nothing here calls ``tribell.optimize`` or ``tribell.bell``: the Pauli
coefficients are read straight off the 8x8 matrix, and the maximum of
|<D_i>| over settings comes from the sphere reduction

    m_i^2 = max_{|s|=1}  sigma_1^2 + sigma_2^2 of T(s)  +  |alpha_i|^2 - (alpha_i . s)^2

where T(s) = sum_k s_k Q^(i)_k is the three-body tensor contracted along
slot i and alpha_i is the Bloch vector of qubit i (Horodecki et al., Phys.
Lett. A 200, 340 (1995), applied to the pair term of D_i).

* lower bound: the formula evaluated on a Fibonacci grid of S^2, then
  polished by a shrinking pattern search around the best grid points.  Any
  unit s gives a value that settings attain, so this never overestimates.
* upper bound: sigma_1^2 + sigma_2^2 <= |T(s)|_F^2 = s^T K s with
  K = Q_(i) Q_(i)^T, so m_i <= sqrt(lambda_max(K + |alpha|^2 I - alpha alpha^T)).
"""

from __future__ import annotations

import numpy as np

SQRT2 = float(np.sqrt(2.0))

_I2 = np.eye(2, dtype=complex)
_PAULI = np.array(
    [_I2, [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
# tr(rho P_ijk) = sum_ab P_ijk[a, b] rho[b, a]; P_ijk = s_i (x) s_j (x) s_k
_STRINGS = np.array(
    [[[np.kron(np.kron(_PAULI[i], _PAULI[j]), _PAULI[k]) for k in range(4)]
      for j in range(4)] for i in range(4)]
)
# axes (slot i, partner p, partner q) with p < q, for i = 1, 2, 3
_SLOT_AXES = {1: (0, 1, 2), 2: (1, 0, 2), 3: (2, 0, 1)}

GRID_POINTS = 300
POLISH_SEEDS = 3
POLISH_STEP = 0.15
POLISH_ROUNDS = 40


def pauli_coefficients(rhos) -> np.ndarray:
    """(n, 4, 4, 4) real coefficients tr(rho s_i s_j s_k) for a stack of 8x8 matrices."""
    rhos = np.asarray(rhos, dtype=complex).reshape(-1, 8, 8)
    return np.einsum("ijkab,nba->nijk", _STRINGS, rhos).real


def slot_blocks(coeffs, i: int):
    """(alpha_i, Q^(i)) per state: Bloch vector of qubit i, Q with slot i first."""
    alpha = {1: coeffs[:, 1:, 0, 0], 2: coeffs[:, 0, 1:, 0], 3: coeffs[:, 0, 0, 1:]}[i]
    q = coeffs[:, 1:, 1:, 1:].transpose((0,) + tuple(1 + ax for ax in _SLOT_AXES[i]))
    return alpha, q


def fibonacci_sphere(n: int) -> np.ndarray:
    """n nearly uniform unit vectors (Gonzalez, Math. Geosci. 42 (2010))."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    r = np.sqrt(1.0 - z * z)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * k
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def _pair_value(t):
    """sigma_1^2 + sigma_2^2 of 3x3 matrices t (..., 3, 3), to about 1e-8.

    That is |t|_F^2 - lambda_min(t^T t), with lambda_min the smallest root of
    the characteristic cubic (trigonometric form).  Its coefficients come
    from t directly: squared norm, squared 2x2 minors, squared determinant.
    """
    a, b, c = t[..., :, 0], t[..., :, 1], t[..., :, 2]
    ab, bc, ca = np.cross(a, b), np.cross(b, c), np.cross(c, a)
    c2 = np.sum(t * t, axis=(-2, -1))
    c1 = np.sum(ab * ab + bc * bc + ca * ca, axis=-1)
    c0 = np.sum(a * bc, axis=-1) ** 2
    spread = np.maximum(c2 * c2 / 9.0 - c1 / 3.0, 0.0)
    radius = np.sqrt(spread)
    skew = c2 ** 3 / 27.0 - c2 * c1 / 6.0 + c0 / 2.0
    cosine = np.clip(skew / np.where(radius > 0.0, radius ** 3, 1.0), -1.0, 1.0)
    low = c2 / 3.0 + 2.0 * radius * np.cos(np.arccos(cosine) / 3.0 + 2.0 * np.pi / 3.0)
    return c2 - np.clip(low, 0.0, c2 / 3.0)


def _sphere_value(alpha, q, s):
    """f(s) for s of shape (n, g, 3); alpha (n, 3), q (n, 3, 3, 3)."""
    n, g = s.shape[:2]
    t = np.matmul(s, q.reshape(n, 3, 9)).reshape(n, g, 3, 3)
    pair = _pair_value(t)
    along = np.einsum("ngk,nk->ng", s, alpha)
    return pair + np.sum(alpha * alpha, axis=-1)[:, None] - along * along


def _tangent_moves(s):
    """(..., 4, 3): the four unit steps +-u, +-v in the tangent plane at s."""
    helper = np.where(np.abs(s[..., :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    u = np.cross(s, helper)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    v = np.cross(s, u)
    return np.stack([u, -u, v, -v], axis=-2)


def sphere_lower_bound(alpha, q) -> np.ndarray:
    """Sphere formula at the best direction found: a lower bound on m_i.

    f(s) = f(-s), so the grid covers one hemisphere.  A pattern search with
    a halving step polishes the best grid points, and the winner is scored
    once more through an SVD, so the bound is attained to rounding.
    """
    n = alpha.shape[0]
    grid = fibonacci_sphere(2 * GRID_POINTS)
    grid = grid[grid[:, 2] > 0.0]
    vals = _sphere_value(alpha, q, np.broadcast_to(grid, (n,) + grid.shape))
    top = np.argsort(vals, axis=1)[:, -POLISH_SEEDS:]
    s = grid[top]
    best = np.take_along_axis(vals, top, axis=1)
    step = np.full(best.shape, POLISH_STEP)
    for _ in range(POLISH_ROUNDS):
        cand = s[..., None, :] + step[..., None, None] * _tangent_moves(s)
        cand /= np.linalg.norm(cand, axis=-1, keepdims=True)
        cv = _sphere_value(alpha, q, cand.reshape(n, -1, 3)).reshape(cand.shape[:-1])
        k = np.argmax(cv, axis=-1)
        cbest = np.take_along_axis(cv, k[..., None], axis=-1)[..., 0]
        up = cbest > best
        moved = np.take_along_axis(cand, k[..., None, None], axis=-2)[..., 0, :]
        s = np.where(up[..., None], moved, s)
        best = np.where(up, cbest, best)
        step = np.where(up, step, step * 0.5)
    s = s[np.arange(n), np.argmax(best, axis=1)]
    sv = np.linalg.svd(np.einsum("nk,nklm->nlm", s, q), compute_uv=False)
    along = np.einsum("nk,nk->n", s, alpha)
    value = sv[:, 0] ** 2 + sv[:, 1] ** 2 + np.sum(alpha * alpha, axis=-1) - along * along
    return np.sqrt(np.maximum(value, 0.0))


def sphere_upper_bound(alpha, q) -> np.ndarray:
    """sqrt(lambda_max(Q_(i) Q_(i)^T + |alpha|^2 I - alpha alpha^T)) per state."""
    k = np.einsum("nklm,njlm->nkj", q, q)
    k += np.sum(alpha * alpha, axis=-1)[:, None, None] * np.eye(3)
    k -= alpha[:, :, None] * alpha[:, None, :]
    return np.sqrt(np.maximum(np.linalg.eigvalsh(k)[:, -1], 0.0))


def m_bounds(rhos) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper), each (n, 3): brackets on m_1, m_2, m_3 for every state."""
    coeffs = pauli_coefficients(rhos)
    lower = np.stack([sphere_lower_bound(*slot_blocks(coeffs, i)) for i in (1, 2, 3)], axis=1)
    return lower, _upper(coeffs)


def m_upper(rhos) -> np.ndarray:
    """(n, 3) upper bounds on m_1, m_2, m_3 alone; cheap, no search."""
    return _upper(pauli_coefficients(rhos))


def _upper(coeffs) -> np.ndarray:
    return np.stack([sphere_upper_bound(*slot_blocks(coeffs, i)) for i in (1, 2, 3)], axis=1)


def d_values(rhos, a, b) -> np.ndarray:
    """(n, 3) expectations <D_1>, <D_2>, <D_3> at settings a, b (rows per qubit).

    D_i = S_i (x) (A_p S_q + B_p T_q) + T_i with S = (A+B)/2, T = (A-B)/2, so
    <D_i> = Q^(i)[s_i, a_p, s_q] + Q^(i)[s_i, b_p, t_q] + t_i . alpha_i.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s, t = (a + b) / 2.0, (a - b) / 2.0
    coeffs = pauli_coefficients(rhos)
    out = np.empty((coeffs.shape[0], 3))
    for i in (1, 2, 3):
        p, r = (j for j in (1, 2, 3) if j != i)
        alpha, q = slot_blocks(coeffs, i)
        pair = np.einsum("nklm,k,l,m->n", q, s[i - 1], a[p - 1], s[r - 1])
        pair += np.einsum("nklm,k,l,m->n", q, s[i - 1], b[p - 1], t[r - 1])
        out[:, i - 1] = pair + alpha @ t[i - 1]
    return out
