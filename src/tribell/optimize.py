"""Maximization of Bell-operator expectations over measurement settings.

* :func:`seesaw_max_abs_d` - m_i = max |<D_i>| for one index i.  A
  certified branch and bound over the unit sphere (:func:`_sphere_search`)
  brackets m_i through the reduction
  m_i^2 = max over unit s of sigma_1^2 + sigma_2^2 of T(s) + |alpha_i x s|^2
  (Horodecki et al., Phys. Lett. A 200, 340 (1995)), with T(s) the
  three-body tensor contracted along slot i.  Two closed-form global
  ceilings can end the search early: a Frobenius bound, exact when another
  qubit is in a product with the rest, and one from the leading singular
  term of the 3x9 unfolding Q_(i), exact on states that are products across
  cut i.  Both ceilings' top eigenvectors are points of the first level, so
  on such states the search ends there.  The reported value is the
  search's lower end, and its best direction becomes explicit settings in
  closed form (:func:`_sphere_settings`), which the dense path rechecks.
* :func:`maximize_omega` - the sum of the three squared expectations at one
  shared setting.  Each expectation is multi-affine in the slots:
  <D_i> = C_i[X_1, X_2, X_3] with X_j = (1, a_j, b_j), and
  :func:`tribell.bell.multiaffine_form` builds C in closed form from the
  state's Pauli coefficients.  Every start draws its six initial unit
  vectors from an independent RNG stream derived from (seed, start index),
  and all starts run one batched Riemannian Newton ascent on the six unit
  spheres with the exact gradient and Hessian of omega from C, for at most
  500 iterations.  A start that reaches a vanishing gradient with no
  positive curvature is certified as a local maximum.

:func:`seesaw_max_abs_d_many` batches the (state, axis) problems of a list
of states and a tuple of indices: one ``decompose`` per state, one sphere
search over the stacked problems, one unit-row intake of the stacked
settings and one stacked dense recheck per axis.  That is how the Monte
Carlo bound sweeps and ``classify`` get all three m_i of a state.  The
search runs over consecutive chunks of at most ``VERTEX_BLOCK // 12``
problems, so its memory does not grow with the batch; every result is the
single-state entry point's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import ClassVar

import numpy as np

from .bell import (
    DUAL_PATH_TOL,
    MeasurementSettings,
    _check_unit_rows,
    _homogeneous,
    _pair_indices,
    expectation_bell,
    multiaffine_form,
    omega as omega_matrix,
)
from .core import ConsistencyError, ValidationError, _check_integer, _check_real, _check_slot
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
#: the first start within this of the best value gives the reported settings,
#: so ties at rounding level do not decide them
TIE_TOL = 1e-12
#: certified gap of the sphere search: triangles whose bound is within this
#: of the best value found are pruned
SPHERE_TOL = 1e-9
#: live triangles one state may keep after pruning; a state with more stops
#: refining and keeps its bracket, whose gap then usually exceeds SPHERE_TOL
MAX_LIVE = 1024
#: points per evaluation and children per block of the split loop.  The search
#: runs on chunks of VERTEX_BLOCK // 12 problems, whose level 0 takes 12 points
#: each, and splits VERTEX_BLOCK // 4 triangles at a time, which add at most
#: 3 * VERTEX_BLOCK // 4 midpoints; bounds the memory of a search whatever the batch size
VERTEX_BLOCK = 4096
# the cubic's smallest root is recomputed by eigvalsh where its arccos argument
# is within _EDGE_COS of +-1 or its roots lie within _COLLAPSE * trace of each other
_EDGE_COS = 1e-3
_COLLAPSE = 0.1
# children of a triangle split at its edge midpoints, as indices into
# (v0, v1, v2, m01, m12, m20)
_CHILDREN = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]])
#: an omega start is certified when its Riemannian gradient norm is at most
#: CERT_GRAD and its Riemannian Hessian has no eigenvalue above CERT_CURV
CERT_GRAD = 1e-9
CERT_CURV = 1e-6
# the Newton step clamps Hessian eigenvalues above -max(|grad_R|, CERT_CURV) there,
# so it ascends and its clamped part is at most about a radian long; a step is
# halved up to _HALVINGS times
_HALVINGS = 3
# base angles per slot of planar_grid_max; the grid holds the GHZ maximizer
_GRID_ANGLES = 16


@dataclass(frozen=True)
class OptimizerConfig:
    """Parameters of the omega ascent: its starts and their seed.

    ``max_sweeps``, a constant and not a field, caps every start's Newton
    iterations; the name is kept from the coordinate sweeps they replaced.
    The |<D_i>| search runs no ascent and takes none of these.
    """

    max_sweeps: ClassVar[int] = 500
    n_starts: int = 32
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n_starts", 1), ("seed", 0)):
            _check_integer(name, getattr(self, name), minimum)


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best value found, the settings achieving it, and per-start telemetry.

    For m_i, ``value`` and ``upper`` are the certified bracket
    [value, upper] of the sphere search, which runs no sweeps and has one
    "start"; ``converged`` means a certified gap upper - value <=
    ``SPHERE_TOL`` (1e-9) to the global maximum.  For omega ``upper`` is
    inf, since it has no certificate, and ``converged`` only means that the
    reported start passed the local-maximum certificate of the Newton ascent,
    which says nothing about other maxima; ``sweeps_used`` counts its Newton
    iterations.  ``degenerate_updates`` is a constant 0, not a field, kept
    for the CLI JSON and the bench tracer.
    """

    degenerate_updates: ClassVar[int] = 0
    value: float
    settings: MeasurementSettings
    sweeps_used: int
    converged: bool
    per_start_values: tuple
    upper: float = np.inf


def _initial_vectors(cfg: OptimizerConfig) -> np.ndarray:
    """(n_starts, 2, 3, 3) array of unit vectors; axis 1 is a/b."""
    vecs = np.empty((cfg.n_starts, 2, 3, 3))
    for k in range(cfg.n_starts):
        rng = np.random.default_rng([cfg.seed, k])
        v = rng.standard_normal((2, 3, 3))
        vecs[k] = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return vecs


def _best_row(obj) -> int:
    """The first row within ``TIE_TOL`` of the best, so rounding-level ties do not pick it."""
    return int(np.flatnonzero(obj >= obj.max() - TIE_TOL)[0])


def _rechecked(value: float, check: float, upper: float = np.inf) -> float:
    """``value`` if within ``DUAL_PATH_TOL`` of the dense ``check`` and below ``upper``, else an error."""
    if abs(check - value) > DUAL_PATH_TOL:
        raise ConsistencyError(
            f"optimizer value {value!r} disagrees with matrix-path recomputation {check!r}"
        )
    if value > upper + DUAL_PATH_TOL:
        raise ConsistencyError(f"optimizer value {value!r} exceeds its certified bound {upper!r}")
    return value


def _pair_power(t):
    """sigma_1^2 + sigma_2^2 of 3x3 matrices t (n, 3, 3): |t|_F^2 - lambda_min(t^T t).

    lambda_min is the smallest root of the characteristic cubic of t^T t in
    trigonometric form, whose coefficients come from t directly: squared
    norm, squared 2x2 minors, squared determinant.  Next to a double root
    (arccos argument near +-1) or where the three roots nearly coincide the
    cubic loses up to 1e-5 and would undershoot, which the sphere bound
    cannot allow, so those rows take lambda_min from eigvalsh; elsewhere the
    cubic agrees with the SVD to about 1e-13 at a third of eigvalsh's cost.
    """
    a, b, c = t[:, :, 0], t[:, :, 1], t[:, :, 2]
    ab, bc, ca = np.cross(a, b), np.cross(b, c), np.cross(c, a)
    c2 = np.sum(t * t, axis=(1, 2))
    c1 = np.sum(ab * ab + bc * bc + ca * ca, axis=1)
    c0 = np.sum(a * bc, axis=1) ** 2
    radius = np.sqrt(np.maximum(c2 * c2 / 9.0 - c1 / 3.0, 0.0))
    cube = radius**3
    skew = c2**3 / 27.0 - c2 * c1 / 6.0 + c0 / 2.0
    cosine = np.clip(skew / np.where(cube > 0.0, cube, 1.0), -1.0, 1.0)
    low = c2 / 3.0 + 2.0 * radius * np.cos(np.arccos(cosine) / 3.0 + 2.0 * np.pi / 3.0)
    risky = (1.0 - np.abs(cosine) < _EDGE_COS) | (radius <= _COLLAPSE * c2)
    if risky.any():
        tr = t[risky]
        low[risky] = np.linalg.eigvalsh(np.swapaxes(tr, 1, 2) @ tr)[:, 0]
    return c2 - np.clip(low, 0.0, c2 / 3.0)


def _sphere_values(alpha, q, owner, s):
    """m(s) = sqrt(f(s)) at unit directions s (points, 3) of the states ``owner``.

    f(s) = sigma_1^2 + sigma_2^2 of T(s) + |alpha|^2 - (alpha . s)^2, with
    T(s) = sum_k s_k q[owner, k].
    """
    al = alpha[owner]
    t = np.matmul(s[:, None, :], q[owner].reshape(-1, 3, 9)).reshape(-1, 3, 3)
    along = np.sum(s * al, axis=1)
    f = _pair_power(t) + np.sum(al * al, axis=1) - along * along
    return np.sqrt(np.maximum(f, 0.0))


@cache
def _half_icosahedron() -> tuple[np.ndarray, np.ndarray]:
    """The icosahedron faces on one side of a generic plane: (10, 3) unit vertices, (10, 3) faces.

    Opposite faces are antipodal, so these and their antipodes tile the
    sphere; f(s) = f(-s) makes the other ten redundant.  The ten faces use
    ten distinct vertices, numbered by first appearance in face order, so
    ``vertices[faces]`` is the (10, 3, 3) array of the faces' corners.  Built
    once, and read-only because every call shares it.
    """
    g = (1.0 + 5.0**0.5) / 2.0
    v = np.array([[0.0, x, y * g] for x in (-1, 1) for y in (-1, 1)])
    v = np.concatenate([v, np.roll(v, 1, axis=1), np.roll(v, 2, axis=1)])
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    near = v @ v.T > 0.4  # neighbours are at cos = 1/sqrt(5), the rest at -1/sqrt(5), -1
    faces = np.array([f for f in combinations(range(12), 3) if near[np.ix_(f, f)].sum() == 9])
    faces = faces[v[faces].sum(axis=1) @ np.array([1.0, 2.0, 4.0]) > 0.0]
    used = np.array(list(dict.fromkeys(faces.flat)))  # vertex numbers in first-appearance order
    vertices, faces = v[used], np.argmax(faces[..., None] == used, axis=-1)
    for table in (vertices, faces):
        table.setflags(write=False)
    return vertices, faces


def _heights(tri):
    """Distance from the origin to the plane of each flat triangle (n, 3, 3)."""
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    return np.abs(np.sum(normal * tri[:, 0], axis=1)) / np.linalg.norm(normal, axis=1)


def _sphere_search(alpha, q):
    """Certified branch and bound for m = max over unit s of sqrt(f(s)), per state.

    ``alpha`` (n, 3) and ``q`` (n, 3, 3, 3) hold alpha_i and Q with slot i
    first.  Extended to R^3, m(x) is a maximum of norms of linear maps of x,
    so it is convex and 1-homogeneous; on a spherical triangle with unit
    vertices v_k, m <= max_k m(v_k) / h, with h the distance from the origin
    to the flat triangle's plane (a convex function on a polytope peaks at a
    vertex: Rockafellar, Convex Analysis, Cor. 32.3.2).  The search starts
    from ten icosahedron faces and splits each live triangle 1 -> 4 at its
    normalized edge midpoints, ``VERTEX_BLOCK`` children at a time.  The best
    point is the lower end; a triangle whose bound is within ``SPHERE_TOL``
    of it is pruned, and a state stops when its global ceiling is that close.
    Each block's children are pruned before the next block is split, and the
    whole level once more at its final lower ends, so that no state's result
    depends on the other states of its batch.
    The ceiling is the smaller of two closed forms, with
    O = |alpha|^2 I - alpha alpha^T:

    * Frobenius: m^2 <= lambda_max(Q_(i) Q_(i)^T + O), since
      sigma_1^2 + sigma_2^2 <= |T(s)|_F^2.  It is exact where T(s) has rank
      at most 2 at its top eigenvector: then f there is |T(s)|_F^2 + |alpha|^2
      - (alpha . s)^2, the quadratic form whose lambda_max it is.  That holds
      for every s when a qubit other than i is in a product with the rest,
      or in a mixture of at most two such products across its cut, and for
      a flat f such as |000>'s.
    * Leading term: with the SVD Q_(i) = sum_r sigma_r u_r (x) T_r of the
      3x9 unfolding, |T_r|_F = 1, P = sigma_1^2 + sigma_2^2 of T_1 and
      e = sigma_2(Q_(i)), m^2 <= lambda_max(sigma_1^2 P u_1 u_1^T + O)
      + 2 e sigma_1 sqrt(P) + e^2.  sqrt(sigma_1^2 + sigma_2^2) is a
      unitarily invariant norm, so on T(s) it is at most sigma_1 |u_1 . s|
      sqrt(P) plus the Frobenius norm e of the rest.  It is exact when e = 0,
      that is when qubit i is in a product with the other two; the triangle
      bound alone certifies such flat maxima only on triangles about 5e-5
      wide, and often stops at ``MAX_LIVE`` first.

    More than ``VERTEX_BLOCK // 12`` states run as consecutive chunks of at
    most that many, whose results are concatenated; since no state's result
    depends on its batch, that changes no value.  Level 0 of a chunk is one
    evaluation of at most ``VERTEX_BLOCK`` points: each of the ten face
    vertices once, then the leading term's and the Frobenius ceiling's top
    eigenvectors, in that order so that ties keep a vertex, and before any
    pruning; where either ceiling is exact it closes the bracket before any
    split.  A state left with more than ``MAX_LIVE`` triangles stops with its
    live bounds.  Returns the best direction (n, 3), the lower end (n,),
    which is the value there, and the certified upper end (n,).
    """
    n = len(alpha)
    vertices, faces = _half_icosahedron()
    chunk = VERTEX_BLOCK // (len(vertices) + 2)  # a level 0 of at most VERTEX_BLOCK points
    if n > chunk:
        parts = [_sphere_search(alpha[lo:lo + chunk], q[lo:lo + chunk]) for lo in range(0, n, chunk)]
        return tuple(np.concatenate(x) for x in zip(*parts))
    orth = np.sum(alpha * alpha, axis=1)[:, None, None] * np.eye(3)
    orth -= alpha[:, :, None] * alpha[:, None, :]
    frob_val, frob_vec = np.linalg.eigh(np.einsum("nklm,njlm->nkj", q, q) + orth)
    u, sigma, vt = np.linalg.svd(q.reshape(n, 3, 9), full_matrices=False)
    lead = sigma[:, 0] ** 2 * _pair_power(vt[:, 0].reshape(n, 3, 3))
    top_val, top_vec = np.linalg.eigh(lead[:, None, None] * u[:, :, :1] * u[:, None, :, 0] + orth)
    rest = sigma[:, 1] * (2.0 * np.sqrt(lead) + sigma[:, 1])
    ceiling = np.sqrt(np.maximum(np.minimum(frob_val[:, -1], top_val[:, -1] + rest), 0.0))
    lower = np.full(n, -np.inf)
    best = np.zeros((n, 3))
    live_bound = np.full(n, -np.inf)

    def evaluate(points, owner):
        """Values at points (rows, k, 3) of the states ``owner``; raises lower ends."""
        rows, width = points.shape[:2]
        who, at = np.repeat(owner, width), points.reshape(-1, 3)
        vals = _sphere_values(alpha, q, who, at)
        order = np.lexsort((-vals, who))  # per state, its best point first
        first = order[np.r_[True, who[order][1:] != who[order][:-1]]]
        up = first[vals[first] > lower[who[first]]]
        lower[who[up]] = vals[up]
        best[who[up]] = at[up]
        return vals.reshape(rows, width)

    def survivors(tri, vals, owner, bound):
        """Triangles whose ``bound`` still exceeds their state's lower end by the tolerance."""
        keep = (bound > lower[owner] + SPHERE_TOL) & (ceiling[owner] > lower[owner] + SPHERE_TOL)
        return tri[keep], vals[keep], owner[keep], bound[keep]

    # level 0: each vertex once, then both ceilings' top eigenvectors, so ties keep a vertex
    eigen = np.stack([top_vec[:, :, -1], frob_vec[:, :, -1]], axis=1)
    points = np.concatenate([np.broadcast_to(vertices, (n,) + vertices.shape), eigen], axis=1)
    vals = evaluate(points, np.arange(n))[:, faces].reshape(-1, 3)
    tri = np.tile(vertices[faces], (n, 1, 1))
    bound = vals.max(axis=1) / _heights(tri)
    tri, vals, owner, bound = survivors(tri, vals, np.repeat(np.arange(n), len(faces)), bound)
    while True:
        stop = (np.bincount(owner, minlength=n) > MAX_LIVE)[owner]
        if stop.any():
            np.maximum.at(live_bound, owner[stop], bound[stop])
            tri, vals, owner = tri[~stop], vals[~stop], owner[~stop]
        if not owner.size:
            break
        # the children of one block are pruned before the next block is split
        kept = []
        for lo in range(0, len(owner), VERTEX_BLOCK // 4):
            t, v, o = (x[lo:lo + VERTEX_BLOCK // 4] for x in (tri, vals, owner))
            mids = t + np.roll(t, -1, axis=1)
            mids /= np.linalg.norm(mids, axis=2, keepdims=True)
            points = np.concatenate([t, mids], axis=1)
            point_vals = np.concatenate([v, evaluate(mids, o)], axis=1)
            children = points[:, _CHILDREN].reshape(-1, 3, 3)
            child_vals = point_vals[:, _CHILDREN].reshape(-1, 3)
            bound = child_vals.max(axis=1) / _heights(children)
            kept.append(survivors(children, child_vals, np.repeat(o, 4), bound))
        # again at the final lower ends, which a state's later blocks may have raised
        tri, vals, owner, bound = survivors(*(np.concatenate(x) for x in zip(*kept)))
    upper = np.minimum(ceiling, np.maximum(live_bound, lower + SPHERE_TOL))
    return best, lower, upper


def _perpendicular(v):
    """A unit vector orthogonal to each unit vector v (..., 3)."""
    w = np.cross(v, np.eye(3)[np.argmin(np.abs(v), axis=-1)])
    return w / np.linalg.norm(w, axis=-1, keepdims=True)


def _sphere_settings(s, alpha, q, i: int) -> np.ndarray:
    """Settings (n, 2, 3, 3) with |<D_i>| = sqrt(f(s)) at unit directions s (n, 3).

    With T(s) = U diag(sigma) V^T, slot p (the lower other slot) takes
    a_p = u1, b_p = u2 and slot r takes s_r = cos phi v1, t_r = sin phi v2,
    tan phi = sigma_2 / sigma_1, which gives s . M_i = sqrt(sigma_1^2 +
    sigma_2^2).  Slot i takes s_i = cos theta s and t_i = sin theta t along
    alpha's part orthogonal to s, tan theta = |alpha x s| / sqrt(sigma_1^2 +
    sigma_2^2).  Then a = s + t and b = s - t in each slot.
    """
    p, r = _pair_indices(i)
    u, sigma, vt = np.linalg.svd(np.einsum("nk,nklm->nlm", s, q))
    phi = np.arctan2(sigma[:, 1], sigma[:, 0])[:, None]
    ortho = alpha - np.sum(alpha * s, axis=1, keepdims=True) * s
    size = np.linalg.norm(ortho, axis=1, keepdims=True)
    # any unit vector orthogonal to s serves where alpha has no such part
    t_dir = np.where(size > GRAD_FLOOR, ortho / np.maximum(size, GRAD_FLOOR), _perpendicular(s))
    theta = np.arctan2(size, np.hypot(sigma[:, :1], sigma[:, 1:2]))
    vecs = np.empty((len(s), 2, 3, 3))
    for ab, sign in ((0, 1.0), (1, -1.0)):
        vecs[:, ab, i - 1] = np.cos(theta) * s + sign * np.sin(theta) * t_dir
        vecs[:, ab, p - 1] = u[:, :, ab]
        vecs[:, ab, r - 1] = np.cos(phi) * vt[:, 0] + sign * np.sin(phi) * vt[:, 1]
    return vecs


def seesaw_max_abs_d_many(states, axes):
    """Batched :func:`seesaw_max_abs_d` over a list of states and a list or tuple of indices.

    Returns one flat, axis-major list of ``len(axes) * len(states)``
    results: the j-th index's result for state k sits at
    ``j * len(states) + k``.  Each state is decomposed once, and all the
    (state, axis) problems run one sphere search, in chunks of at most
    ``VERTEX_BLOCK // 12`` problems, so a call's memory is bounded whatever
    the batch size.  Their settings pass one stacked unit-row intake, and one
    stacked dense call per axis rechecks them.  Every result is bit for bit
    the single-state entry point's.
    """
    if not isinstance(axes, (list, tuple)):
        raise ValidationError(
            f"axes must be a list or tuple of operator indices, got {type(axes).__name__}"
        )
    axes = [_check_slot(i, "operator index") for i in axes]
    states = [as_density(s) for s in states]
    n = len(states)
    if not n or not axes:
        return []
    grid = np.stack([decompose(rho).grid for rho in states])
    moved = [np.moveaxis(grid, i, 1) for i in axes]  # slot i first
    # C order keeps the search's row gathers fast and gives every batch the same sums
    alpha = np.ascontiguousarray(np.concatenate([g[:, 1:, 0, 0] for g in moved]))
    q = np.ascontiguousarray(np.concatenate([g[:, 1:, 1:, 1:] for g in moved]))
    direction, lower, upper = _sphere_search(alpha, q)
    # certified to within the tolerance, up to the rounding of lower + SPHERE_TOL
    converged = upper - lower <= SPHERE_TOL + _MONOTONE_SLACK
    blocks = [(slice(k * n, (k + 1) * n), i) for k, i in enumerate(axes)]
    rows = np.concatenate([_sphere_settings(direction[at], alpha[at], q[at], i) for at, i in blocks])
    # one intake for the whole stack; each result's settings are read-only views of it
    a = _check_unit_rows(rows[:, 0], "a", lead=(len(rows),))
    b = _check_unit_rows(rows[:, 1], "b", lead=(len(rows),))
    settings = list(map(MeasurementSettings._from_checked, a, b))
    dense = np.concatenate([np.abs(expectation_bell(states, settings[at], i)) for at, i in blocks])
    return [
        OptimizationResult(value=_rechecked(value, check, bound), settings=setting, sweeps_used=0,
                           converged=ok, per_start_values=(value,), upper=bound)
        for value, check, bound, ok, setting
        in zip(lower.tolist(), dense.tolist(), upper.tolist(), converged.tolist(), settings)
    ]


def seesaw_max_abs_d(rho, i: int) -> OptimizationResult:
    """Largest |<D_i>| over measurement settings for a fixed state, with a certified bracket.

    A branch and bound over the unit sphere (:func:`_sphere_search`) finds
    the direction of s_i that maximizes the reduced objective and brackets
    the maximum by [``value``, ``upper``]: ``value`` is the best point found,
    ``upper`` the smallest of its live triangle bounds and two closed-form
    ceilings.  The Frobenius ceiling is exact when one of the other two
    qubits is a product with the rest, and the second, from the leading
    singular term of Q_(i), when qubit i is; both top eigenvectors are
    searched points, so such states close before the first split.  The best
    direction becomes explicit settings in closed form
    (:func:`_sphere_settings`), and the dense path rechecks ``value`` at
    them.  ``converged`` means upper - value <= ``SPHERE_TOL``.  No
    sweeps run: ``sweeps_used`` is 0, ``degenerate_updates`` is the
    result's constant 0 and ``per_start_values`` holds ``value`` alone.  The
    name is kept from the see-saw ascent this search replaced.  This is the
    one-state, one-index case of :func:`seesaw_max_abs_d_many`.
    """
    return seesaw_max_abs_d_many([rho], (i,))[0]


def _omega_values(form, vecs):
    """omega per row from the multi-affine form."""
    x1, x2, x3 = np.moveaxis(_homogeneous(vecs[:, 0], vecs[:, 1]), 1, 0)
    d = np.einsum("iklm,nk,nl,nm->ni", form, x1, x2, x3)
    return np.sum(d * d, axis=1)


def _omega_model(form, vecs):
    """Riemannian gradient (rows, 12) and Hessian (rows, 12, 12) of omega on (S^2)^6.

    The six vectors run a_1, b_1, a_2, b_2, a_3, b_3, each with the tangent
    basis (rows, 6, 2, 3) that is also returned.  Within a slot every d_i
    is affine, so its Euclidean Hessian has only cross-slot blocks, the form
    contracted with the third X; omega = sum_i d_i^2 then has gradient
    2 sum_i d_i grad d_i and Hessian 2 sum_i (grad d_i grad d_i^T + d_i hess d_i).
    On the spheres the Hessian is E^T H E - diag(v_m . grad_m omega) (Absil,
    Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008,
    ch. 5-6), with E the tangent bases.
    """
    n = len(vecs)
    x1, x2, x3 = np.moveaxis(_homogeneous(vecs[:, 0], vecs[:, 1]), 1, 0)
    p12 = np.einsum("iklm,nm->nikl", form, x3)
    p13 = np.einsum("iklm,nl->nikm", form, x2)
    p23 = np.einsum("iklm,nk->nilm", form, x1)
    d = np.einsum("nikl,nk,nl->ni", p12, x1, x2)
    jac = np.stack([
        np.einsum("nikl,nl->nik", p12, x2),
        np.einsum("nikl,nk->nil", p12, x1),
        np.einsum("nikm,nk->nim", p13, x1),
    ], axis=2)[..., 1:].reshape(n, -1, 18)
    grad = 2.0 * np.einsum("ni,nik->nk", d, jac).reshape(n, 6, 3)
    hess = 2.0 * np.einsum("nik,nil->nkl", jac, jac)
    for (j, k), p in (((0, 1), p12), ((0, 2), p13), ((1, 2), p23)):
        cross = 2.0 * np.einsum("ni,nikl->nkl", d, p[..., 1:, 1:])
        hess[:, 6 * j:6 * j + 6, 6 * k:6 * k + 6] += cross
        hess[:, 6 * k:6 * k + 6, 6 * j:6 * j + 6] += np.swapaxes(cross, 1, 2)
    hess = hess.reshape(n, 6, 3, 6, 3)
    v = np.swapaxes(vecs, 1, 2).reshape(n, 6, 3)
    u1 = _perpendicular(v)
    basis = np.stack([u1, np.cross(v, u1)], axis=2)
    grad_r = np.einsum("nmac,nmc->nma", basis, grad).reshape(n, 12)
    hess_r = np.einsum("nmac,nmcpd,npbd->nmapb", basis, hess, basis).reshape(n, 12, 12)
    hess_r -= np.repeat(np.sum(v * grad, axis=2), 2, axis=1)[:, :, None] * np.eye(12)
    return grad_r, hess_r, basis


def _retract(vecs, basis, step):
    """Move each vector along its tangent step (rows, 12) and renormalize."""
    n = len(vecs)
    v = np.swapaxes(vecs, 1, 2).reshape(n, 6, 3)
    v = v + np.einsum("nma,nmac->nmc", step.reshape(n, 6, 2), basis)
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    return np.swapaxes(v.reshape(n, 3, 2, 3), 1, 2)


def _newton_ascent(form, vecs, iters: int):
    """Batched Riemannian Newton ascent of omega from rows ``vecs`` (rows, 2, 3, 3).

    Each iteration evaluates the exact gradient and Hessian
    (:func:`_omega_model`).  A row with |grad_R| <= ``CERT_GRAD`` and
    lambda_max(H_R) <= ``CERT_CURV`` is certified and stops.  The others
    take a Newton step with the Hessian's eigenvalues clamped at
    -max(|grad_R|, ``CERT_CURV``), so the step ascends.  It is halved up to
    ``_HALVINGS`` times until omega does not fall by more than the rounding
    slack ``_MONOTONE_SLACK``; a row whose step still lowers omega stops
    uncertified.  Returns per-row (omega, vectors, iterations used,
    certified); rows neither certified nor stopped use all ``iters``.
    """
    vecs = np.array(vecs, dtype=float)
    n = len(vecs)
    obj = _omega_values(form, vecs)
    used = np.full(n, iters)
    certified = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for it in range(1, iters + 1):
        grad_r, hess_r, basis = _omega_model(form, vecs[active])
        lam, eig = np.linalg.eigh(hess_r)
        size = np.linalg.norm(grad_r, axis=1)
        ok = (size <= CERT_GRAD) & (lam[:, -1] <= CERT_CURV)
        certified[active[ok]] = True
        floor = np.maximum(size, CERT_CURV)[:, None]
        coef = np.einsum("nkl,nk->nl", eig, grad_r) / np.maximum(-lam, floor)
        step = np.einsum("nkl,nl->nk", eig, coef)
        moved = ok.copy()
        for halving in range(_HALVINGS + 1):
            todo = np.flatnonzero(~moved)
            if not todo.size:
                break
            trial = _retract(vecs[active[todo]], basis[todo], step[todo] * 0.5**halving)
            trial_obj = _omega_values(form, trial)
            up = trial_obj >= obj[active[todo]] - _MONOTONE_SLACK
            vecs[active[todo[up]]] = trial[up]
            obj[active[todo[up]]] = trial_obj[up]
            moved[todo[up]] = True
        used[active[~moved | ok]] = it
        active = active[moved & ~ok]
        if not active.size:
            break
    return obj, vecs, used, certified


def maximize_omega(rho, cfg: OptimizerConfig | None = None) -> OptimizationResult:
    """Largest omega (sum of three squared expectations) found over shared settings.

    The multi-affine form of the three expectations
    (:func:`tribell.bell.multiaffine_form`) is built once, and every start
    runs the batched Riemannian Newton ascent over the six unit vectors
    (:func:`_newton_ascent`), capped at ``OptimizerConfig.max_sweeps`` = 500.
    Stop rule: a start whose Riemannian gradient is at most ``CERT_GRAD``
    and whose Riemannian Hessian has no eigenvalue above ``CERT_CURV`` is
    certified as a local maximum; a start whose step is rejected stops
    uncertified.  ``sweeps_used`` counts the reported start's iterations.

    ``converged`` means the reported start was certified; a start stopped by
    a rejected step or at the iteration cap reports False.  Best across the
    configured starts; the joint landscape has genuine local optima for
    generic entangled states, so raise ``n_starts`` when a better maximum
    matters.  The settings are those of the first start within ``TIE_TOL``
    of the best.
    """
    if not isinstance(cfg, (OptimizerConfig, type(None))):
        raise ValidationError(f"cfg must be an OptimizerConfig, got {type(cfg).__name__}")
    cfg = cfg or OptimizerConfig()
    rho = as_density(rho)
    form = multiaffine_form(decompose(rho))
    obj, vecs, sweeps, converged = _newton_ascent(form, _initial_vectors(cfg), cfg.max_sweeps)
    best = _best_row(obj)
    settings = MeasurementSettings(*vecs[best])
    value = _rechecked(float(obj.max()), omega_matrix(rho, settings))
    return OptimizationResult(value=value, settings=settings, sweeps_used=int(sweeps[best]),
                              converged=bool(converged[best]), per_start_values=tuple(obj.tolist()))


def _planar(angles) -> np.ndarray:
    """Unit vectors (cos, sin, 0) at ``angles`` (n,), shape (n, 3)."""
    return np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=-1)


def planar_case_settings(theta1: float, theta2: float, theta3: float) -> MeasurementSettings:
    """Settings with s_i = (cos t_i, sin t_i, 0)/sqrt2, t_i = (-sin t_i, cos t_i, 0)/sqrt2.

    Equivalently a_i and b_i are planar unit vectors at angles t_i + pi/4 and
    t_i - pi/4.
    """
    thetas = (theta1, theta2, theta3)
    thetas = np.array([_check_real(f"theta{k}", t) for k, t in enumerate(thetas, start=1)])
    return MeasurementSettings(_planar(thetas + np.pi / 4), _planar(thetas - np.pi / 4))


def omega_planar_oracle(theta1: float, theta2: float, theta3: float) -> float:
    """Closed-form omega of the GHZ state at the planar orthogonal-pair settings.

    Evaluates (3/2) (cos T - sin T)^2 with T = theta1 + theta2 + theta3 and
    cross-checks it against the matrix-path omega at the corresponding
    settings before returning.
    """
    settings = planar_case_settings(theta1, theta2, theta3)  # checks the angles
    total = theta1 + theta2 + theta3
    closed = float(1.5 * (np.cos(total) - np.sin(total)) ** 2)
    direct = omega_matrix(to_density(ghz()), settings)
    if abs(direct - closed) > DUAL_PATH_TOL:
        raise ConsistencyError(
            f"planar omega mismatch: closed form {closed!r} vs matrix path {direct!r}"
        )
    return closed


def planar_grid_max(state, i: int) -> float:
    """Brute-force lower bound on max |<D_i>| from an exhaustive planar grid.

    All six vectors are confined to the x-y plane.  The distinguished qubit i
    uses an aligned pair a_i = b_i at angle theta_i; each remaining qubit uses
    an orthogonal pair at angles theta +/- pi/4, the geometry that contains
    the known optimum for the GHZ state.  The three base angles each range
    over ``_GRID_ANGLES`` (16) equally spaced values, and one contraction of
    the multi-affine form (:func:`tribell.bell.multiaffine_form`) with each
    slot's (16, 7) grid of X_j = (1, a_j, b_j) evaluates them all.
    """
    i = _check_slot(i, "operator index")
    form = multiaffine_form(decompose(as_density(state)))[i - 1]
    angles = 2.0 * np.pi * np.arange(_GRID_ANGLES) / _GRID_ANGLES
    shifts = [0.0 if slot == i else np.pi / 4 for slot in (1, 2, 3)]
    x = [_homogeneous(_planar(angles + s), _planar(angles - s)) for s in shifts]
    vals = np.einsum("klm,ak,bl,cm->abc", form, *x, optimize=True)
    return float(np.max(np.abs(vals)))
