"""Maximization of Bell-operator expectations over measurement settings.

Two optimizers, both multi-start and deterministic in the configured seed,
share one block-coordinate ascent driver.  Each expectation <D_i> is affine
in every individual setting vector, <D_i> = c + g . v, and
:func:`tribell.bell.affine_coefficients` contracts the Pauli coefficients
directly into (c, g).  Sweeps cycle j = 1..3 over a_j then b_j and replace
the active vector by a per-coordinate step:

* :func:`seesaw_max_abs_d` - the exact maximizer v = +/- g/|g| of |<D_i>|
  for one index i.  The objective never decreases.
* :func:`maximize_omega` - the sum of the three squared expectations at one
  shared setting.  Per coordinate the objective |G v + c|^2 is a quadratic
  on the unit sphere, and the step is its exact global maximizer: the
  solution of a 3-D trust-region subproblem, including the hard case where
  G^T c is orthogonal to the top eigenvector of G^T G.  A row keeps its
  vector unless the step strictly improves it (monotone by construction).

Every start draws its six initial unit vectors from an independent RNG
stream derived from (seed, start index), and all starts of all states
advance in lockstep as one batched computation.
:func:`seesaw_max_abs_d_many` runs a whole list of states that way, which is
how the Monte Carlo bound sweeps stay fast; each row's updates are the same
as the single-state entry point's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import (
    MeasurementSettings,
    _local_vectors,
    affine_coefficients,
    expectation_bell,
    omega as omega_matrix,
)
from .core import ConsistencyError, ValidationError
from .pauli import decompose
from .states import as_density, ghz, to_density

__all__ = [
    "OptimizerConfig",
    "OptimizationResult",
    "seesaw_max_abs_d",
    "seesaw_max_abs_d_many",
    "maximize_omega",
    "omega_planar_oracle",
    "planar_case_settings",
    "planar_grid_max",
]

GRAD_FLOOR = 1e-14
_MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start see-saw parameters."""

    n_starts: int = 32
    max_sweeps: int = 500
    abs_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValidationError(f"n_starts must be >= 1, got {self.n_starts}")
        if self.max_sweeps < 1:
            raise ValidationError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if not self.abs_tol > 0:
            raise ValidationError(f"abs_tol must be > 0, got {self.abs_tol}")
        if self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best value found, the settings achieving it, and per-start telemetry."""

    value: float
    settings: MeasurementSettings
    sweeps_used: int
    converged: bool
    per_start_values: tuple
    degenerate_updates: int = 0


def _initial_vectors(cfg: OptimizerConfig) -> np.ndarray:
    """(n_starts, 2, 3, 3) array of unit vectors; axis 1 is a/b."""
    vecs = np.empty((cfg.n_starts, 2, 3, 3))
    for k in range(cfg.n_starts):
        rng = np.random.default_rng([cfg.seed, k])
        v = rng.standard_normal((2, 3, 3))
        vecs[k] = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return vecs


def _coefficients(local, q, vecs, ops, j: int, ab: int):
    """(c, g) of every operator in ``ops`` in the vector a_j (ab=0) or b_j (ab=1).

    Shapes (rows, len(ops)) and (rows, len(ops), 3).
    """
    pairs = [affine_coefficients(local, q, vecs[:, 0], vecs[:, 1], i, j, ab) for i in ops]
    return np.stack([c for c, _ in pairs], axis=1), np.stack([g for _, g in pairs], axis=1)


def _at(g, c, v):
    """Operator values c + g . v per row, shape (rows, len(ops))."""
    return c + np.einsum("noc,nc->no", g, v)


def _result_for_rows(rho, obj, vecs, sweeps_done, converged, degenerate_total, objective, recheck_tol=1e-10):
    best = int(np.argmax(obj))
    settings = MeasurementSettings(vecs[best, 0].copy(), vecs[best, 1].copy())
    value = float(obj[best])
    check = objective(rho, settings)
    if abs(check - value) > recheck_tol:
        raise ConsistencyError(
            f"optimizer value {value!r} disagrees with matrix-path recomputation {check!r}"
        )
    return OptimizationResult(
        value=value,
        settings=settings,
        sweeps_used=int(sweeps_done[best]),
        converged=bool(converged[best]),
        per_start_values=tuple(float(x) for x in obj),
        degenerate_updates=int(degenerate_total),
    )


def _ascend(states, ops, step, objective, dense_objective, cfg):
    """Lockstep multi-start block-coordinate ascent; one result per state.

    Rows are (state, start) pairs, all starting from the configured start
    vectors.  For each active vector the rows' coefficients (c, g) of the
    operators in ``ops`` give the new vector ``step(g, c, v)`` together
    with a per-row count of degenerate updates, and ``objective`` maps the
    operator values c + g . v to each row's objective, which must not
    decrease.  A row stops after the first sweep that gains less than
    ``cfg.abs_tol``.  Each state's best row is rechecked on the dense path
    by ``dense_objective``.
    """
    cfg = cfg or OptimizerConfig()
    states = [as_density(s) for s in states]
    if not states:
        return []
    k = cfg.n_starts
    decs = [decompose(rho) for rho in states]
    local = np.repeat(np.stack([_local_vectors(d) for d in decs]), k, axis=0)
    q = np.repeat(np.stack([d.Q for d in decs]), k, axis=0)
    vecs = np.tile(_initial_vectors(cfg), (len(states), 1, 1, 1))
    n = vecs.shape[0]

    c, g = _coefficients(local, q, vecs, ops, 1, 0)
    obj = objective(_at(g, c, vecs[:, 0, 0]))
    active = np.ones(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    sweeps_done = np.full(n, cfg.max_sweeps, dtype=int)
    degenerate = np.zeros(n, dtype=int)

    for sweep in range(1, cfg.max_sweeps + 1):
        rows = np.nonzero(active)[0]
        if rows.size == 0:
            break
        sub, sub_local, sub_q, sub_obj = vecs[rows], local[rows], q[rows], obj[rows]
        for j in (1, 2, 3):
            for ab in (0, 1):
                c, g = _coefficients(sub_local, sub_q, sub, ops, j, ab)
                new, n_degenerate = step(g, c, sub[:, ab, j - 1])
                new_obj = objective(_at(g, c, new))
                if np.any(new_obj < sub_obj - _MONOTONE_SLACK):
                    raise ConsistencyError("objective decreased during a coordinate update")
                sub[:, ab, j - 1] = new
                sub_obj = new_obj
                degenerate[rows] += n_degenerate
        gain = sub_obj - obj[rows]
        vecs[rows] = sub
        obj[rows] = sub_obj
        done = rows[gain < cfg.abs_tol]
        sweeps_done[done] = sweep
        converged[done] = True
        active[done] = False

    results = []
    for s, rho in enumerate(states):
        sl = slice(s * k, (s + 1) * k)
        results.append(
            _result_for_rows(
                rho, obj[sl], vecs[sl], sweeps_done[sl], converged[sl],
                int(degenerate[sl].sum()), dense_objective,
            )
        )
    return results


def _align(g, c, v):
    """Exact maximizer +/- g/|g| of |c + g . v| on the unit sphere (one operator).

    The sign follows c; a vanishing g keeps v and counts as degenerate.
    """
    g, c = g[:, 0], c[:, 0]
    gnorm = np.linalg.norm(g, axis=1)
    ok = gnorm > GRAD_FLOOR
    sign = np.where(c >= 0.0, 1.0, -1.0)
    new = np.where(ok[:, None], sign[:, None] * g / np.maximum(gnorm, GRAD_FLOOR)[:, None], v)
    return new, (~ok).astype(int)


def seesaw_max_abs_d_many(states, i: int, cfg: OptimizerConfig | None = None):
    """Batched :func:`seesaw_max_abs_d` over a list of states (one result each).

    All states share the configured start vectors and advance in lockstep;
    each row's update sequence is identical to the single-state driver's.
    """
    if i not in (1, 2, 3):
        raise ValidationError(f"operator index must be 1, 2 or 3, got {i!r}")
    return _ascend(
        states, (i,), _align, lambda d: np.abs(d[:, 0]),
        lambda r, m: abs(expectation_bell(r, m, i)), cfg,
    )


def seesaw_max_abs_d(rho, i: int, cfg: OptimizerConfig | None = None) -> OptimizationResult:
    """Largest |<D_i>| over measurement settings for a fixed state.

    Sweeps cycle j = 1..3 over a_j then b_j; each update replaces the active
    vector by the exact argmax +/- g/|g| of the affine expectation, with the
    sign chosen to maximize the absolute value.  Vanishing gradients keep
    the previous vector and are counted in ``degenerate_updates``.
    """
    return seesaw_max_abs_d_many([rho], i, cfg)[0]


def _sum_squares(d):
    """Per-row omega sum_o d_o^2 of the operator values d, shape (rows, ops)."""
    return np.sum(d * d, axis=1)


def _maximize_sphere_quadratic(g, c, v0):
    """Exact maximizer of |G v + c|^2 over unit v: a 3-D trust-region subproblem.

    With A = G^T G = Q diag(mu) Q^T (mu ascending) and b = G^T c, the global
    maximizer solves (lam I - A) v = b with lam >= mu_max, and lam is the
    largest real eigenvalue of [[A, I], [b b^T, A]] (Adachi, Iwata,
    Nakatsukasa & Takeda, SIAM J. Optim. 27 (2017)).  In the eigenbasis the
    lower coordinates are beta_k / (lam - mu_k) with beta = Q^T b, and the top
    one is filled from |v| = 1.  That fill also covers the hard case
    (More & Sorensen, SIAM J. Sci. Stat. Comput. 4 (1983)): b orthogonal to
    the top eigenvector, lam = mu_max, where the top coordinate takes the
    sign nearer v0.  Rows with G = 0 keep v0 and count as degenerate, and
    every row keeps v0 unless the candidate's objective is strictly higher.
    Returns (v, n_degenerate).
    """
    n = v0.shape[0]
    a = np.einsum("noc,nod->ncd", g, g)
    b = np.einsum("noc,no->nc", g, c)
    mu, q = np.linalg.eigh(a)
    beta = np.einsum("ncd,nc->nd", q, b)
    pencil = np.zeros((n, 6, 6))
    pencil[:, :3, :3] = pencil[:, 3:, 3:] = a
    pencil[:, :3, 3:] = np.eye(3)
    pencil[:, 3:, :3] = b[:, :, None] * b[:, None, :]
    lam = np.maximum(np.linalg.eigvals(pencil).real.max(axis=1), mu[:, 2])
    # lam - mu_k >= |beta_k| holds at the root; the floor keeps rounding from
    # dividing by a vanishing gap
    gap = np.maximum(lam[:, None] - mu[:, :2], np.maximum(np.abs(beta[:, :2]), GRAD_FLOOR))
    low = beta[:, :2] / gap
    side = np.where(beta[:, 2] != 0.0, beta[:, 2], np.einsum("nc,nc->n", q[:, :, 2], v0))
    fill = np.sqrt(np.maximum(1.0 - np.sum(low * low, axis=1), 0.0))
    top = np.where(side < 0.0, -fill, fill)
    cand = np.einsum("ncd,nd->nc", q, np.concatenate([low, top[:, None]], axis=1))
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    degenerate = np.linalg.norm(g, axis=(1, 2)) <= GRAD_FLOOR
    better = ~degenerate & (_sum_squares(_at(g, c, cand)) > _sum_squares(_at(g, c, v0)))
    return np.where(better[:, None], cand, v0), degenerate.astype(int)


def maximize_omega(rho, cfg: OptimizerConfig | None = None) -> OptimizationResult:
    """Largest omega (sum of three squared expectations) found over shared settings.

    Block-coordinate ascent: each update replaces one setting vector by the
    exact maximizer of omega in that vector alone, a trust-region step on the
    unit sphere (see :func:`_maximize_sphere_quadratic`).  Coordinates where
    omega does not depend on the vector keep it and are counted in
    ``degenerate_updates``.  Best across the configured starts; the joint
    landscape has genuine local optima for generic entangled states, so raise
    ``n_starts`` when a certified-quality maximum matters.
    """
    return _ascend(
        [rho], (1, 2, 3), _maximize_sphere_quadratic, _sum_squares, omega_matrix, cfg,
    )[0]


def planar_case_settings(theta1: float, theta2: float, theta3: float) -> MeasurementSettings:
    """Settings with s_i = (cos t_i, sin t_i, 0)/sqrt2, t_i = (-sin t_i, cos t_i, 0)/sqrt2.

    Equivalently a_i and b_i are planar unit vectors at angles t_i + pi/4 and
    t_i - pi/4.
    """
    thetas = np.array([theta1, theta2, theta3], dtype=float)
    a = np.stack(
        [np.cos(thetas + np.pi / 4), np.sin(thetas + np.pi / 4), np.zeros(3)], axis=1
    )
    b = np.stack(
        [np.cos(thetas - np.pi / 4), np.sin(thetas - np.pi / 4), np.zeros(3)], axis=1
    )
    return MeasurementSettings(a, b)


def omega_planar_oracle(theta1: float, theta2: float, theta3: float) -> float:
    """Closed-form omega of the GHZ state at the planar orthogonal-pair settings.

    Evaluates (3/2) (cos T - sin T)^2 with T = theta1 + theta2 + theta3 and
    cross-checks it against the matrix-path omega at the corresponding
    settings before returning.
    """
    total = theta1 + theta2 + theta3
    closed = 1.5 * (np.cos(total) - np.sin(total)) ** 2
    settings = planar_case_settings(theta1, theta2, theta3)
    direct = omega_matrix(to_density(ghz()), settings)
    if abs(direct - closed) > 1e-10:
        raise ConsistencyError(
            f"planar omega mismatch: closed form {closed!r} vs matrix path {direct!r}"
        )
    return float(closed)


def planar_grid_max(state, i: int, n_angles: int = 16) -> float:
    """Brute-force lower bound on max |<D_i>| from an exhaustive planar grid.

    All six vectors are confined to the x-y plane.  The distinguished qubit i
    uses an aligned pair a_i = b_i at angle theta_i; each remaining qubit uses
    an orthogonal pair at angles theta +/- pi/4, the geometry that contains
    the known optimum for the GHZ state.  The three base angles each range
    over ``n_angles`` equally spaced values and every combination is
    evaluated through the fast contraction path.
    """
    if i not in (1, 2, 3):
        raise ValidationError(f"operator index must be 1, 2 or 3, got {i!r}")
    d = decompose(as_density(state))
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    grids = np.meshgrid(angles, angles, angles, indexing="ij")
    a = np.zeros(grids[0].shape + (3, 3))
    b = np.zeros_like(a)
    others = [j for j in (1, 2, 3) if j != i]
    for slot, grid in zip([i] + others, grids):
        shift = 0.0 if slot == i else np.pi / 4
        a[..., slot - 1, :2] = np.stack([np.cos(grid + shift), np.sin(grid + shift)], axis=-1)
        b[..., slot - 1, :2] = np.stack([np.cos(grid - shift), np.sin(grid - shift)], axis=-1)
    c, g = affine_coefficients(_local_vectors(d), d.Q, a, b, i, i, False)
    vals = c + np.sum(g * a[..., i - 1, :], axis=-1)
    return float(np.max(np.abs(vals)))
