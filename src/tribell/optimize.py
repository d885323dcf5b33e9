"""Maximization of Bell-operator expectations over measurement settings.

* :func:`seesaw_max_abs_d` - m_i = max |<D_i>| for one index i.  A
  certified branch and bound over the unit sphere (:func:`_sphere_search`)
  brackets m_i through the reduction
  m_i^2 = max over unit s of sigma_1^2 + sigma_2^2 of T(s) + |alpha_i x s|^2
  (Horodecki et al., Phys. Lett. A 200, 340 (1995)), with T(s) the
  three-body tensor contracted along slot i.  Its unit of work is the live
  triangle: its three edge midpoints take one (3 x 3)(3 x 9) product with
  its state's tensor (:func:`_sphere_values`), and of its four children
  only those that survive pruning are copied.  Each triangle is bounded by
  the smaller of its corner bound and its chord bound, the norm of the
  linear function through its three corner values (:func:`_bound`).  Two
  closed-form global ceilings can end the search early: a Frobenius bound,
  exact when another qubit is in a product with the rest, and one from the
  leading singular term of the 3x9 unfolding Q_(i), exact on states that are
  products across cut i.  Both ceilings' top eigenvectors are points of the
  first level, so on such states the search ends there.  The reported value
  is the search's lower end, and its best direction becomes explicit
  settings in closed form (:func:`_sphere_settings`), which the dense path
  rechecks.
* :func:`maximize_omega` - the sum of the three squared expectations at one
  shared setting.  Each expectation is multi-affine in the slots:
  <D_i> = C_i[X_1, X_2, X_3] with X_j = (1, a_j, b_j), and
  :func:`tribell.bell.multiaffine_form` builds C in closed form from the
  state's Pauli coefficients.  Every start draws its six initial unit
  vectors from an independent RNG stream derived from (seed, start index),
  and all starts run one batched Riemannian Newton ascent on the six unit
  spheres with the exact gradient and Hessian of omega from C, for at most
  500 iterations.  A start that reaches a vanishing gradient with no
  positive curvature is certified as a local maximum.  The ascent takes any
  sum of squared multi-affine forms F.  Its gradient, Hessian and step go
  through one block-diagonal (18, 12) tangent map per row
  (:func:`_sum_of_squares_model`) of closed-form orthonormal frames (Duff et
  al., JCGT 6(1), 2017), and F meets each X_j through one of its three (7, 49k)
  slot matrices in a product per row, so a start's bits do not depend on how
  many starts run beside it.

:func:`seesaw_max_abs_d_many` batches the (state, axis) problems of a list
of states and a tuple of indices: one ``decompose`` per state, one sphere
search over the stacked problems, one settings pass over the stacked
problems, one unit-row intake of the stacked settings and one stacked dense
recheck per axis.  That is how the Monte Carlo bound sweeps and
``classify`` get all three m_i of a state.  The search runs over
consecutive chunks of at most ``VERTEX_BLOCK // 12`` problems, so its
memory does not grow with the batch; every result is the single-state
entry point's, bit for bit.
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
# _pair_power takes lambda_min from eigvalsh where the shifted cubic's arccos
# argument is within _EDGE_COS of +1, next to a double smallest root
_EDGE_COS = 1e-3
# assumed relative error of a sphere-search value against the SVD's, about 20
# times the worst error that _pair_power's docstring reports; _bound widens its
# chord bound by what that error can move it
_VALUE_ERROR = 1e-13
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
    iterations; its sweep name remains only because ``bench/tracer.py``
    reads it.  The |<D_i>| search runs no ascent and takes none of these.
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
    iterations (the CLI's ``newton_iterations``).  ``degenerate_updates``, a
    constant 0, and m_i's ``sweeps_used`` and ``per_start_values`` are not
    printed: they remain only because ``bench/tracer.py`` reads them.
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
        vecs[k] = np.random.default_rng([cfg.seed, k]).standard_normal((2, 3, 3))
    return vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)


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


def _cross(u, v):
    """The three components of u x v for component-first vectors (3, ...), in numpy's order.

    Each component is u_1 v_2 - u_2 v_1 and its cyclic shifts, as numpy's
    own cross product forms them, so the values match it bit for bit
    without its axis moves and broadcasting.  The caller stacks the
    components in the layout it needs.
    """
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


def _pair_power(t):
    """sigma_1^2 + sigma_2^2 of 3x3 matrices t (n, 3, 3): |t|_F^2 - lambda_min(t^T t).

    lambda_min is the smallest root of G = t^T t in Smith's shifted
    trigonometric form (O. K. Smith, Commun. ACM 4(4), 168 (1961)).  With
    g_kl the Gram entries of t's columns, each a written-out three-term sum
    per row, c2 = tr G and B = G - (c2 / 3) I:
    p = (b_00^2 + b_11^2 + b_22^2) / 6 + (g_01^2 + g_02^2 + g_12^2) / 3,
    q = det B / 2, r = sqrt(p), cos theta = q / r^3 (clipped to [-1, 1]) and
    lambda_min = c2 / 3 + 2 r cos(theta / 3 + 2 pi / 3).  The shift keeps
    the digits the unshifted cubic in G's invariants cancels away where the
    three roots cluster: B's entries are as small as the roots' spread, so
    the error of lambda_min scales with that spread and not with c2.  Next
    to a double smallest root (cos theta within ``_EDGE_COS`` of +1) the
    arccos magnifies q's rounding to its square root and the root would
    undershoot, which the sphere bound cannot allow, so those rows take
    lambda_min from eigvalsh; a double root above it (cos theta near -1)
    leaves lambda_min well conditioned.  Against the SVD the result's worst
    relative error was 1.5e-15 over every point of a 64-state Haar sample's
    search and 5.4e-15 over 800 1-23, 2-13 and fully separable states'.
    """
    x = t.reshape(-1, 9).T  # entry 3k + j of each row is t_kj
    a, b, c = x[0::3], x[1::3], x[2::3]  # t's columns, each (3, n)
    g00 = a[0] * a[0] + a[1] * a[1] + a[2] * a[2]
    g11 = b[0] * b[0] + b[1] * b[1] + b[2] * b[2]
    g22 = c[0] * c[0] + c[1] * c[1] + c[2] * c[2]
    g01 = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    g02 = a[0] * c[0] + a[1] * c[1] + a[2] * c[2]
    g12 = b[0] * c[0] + b[1] * c[1] + b[2] * c[2]
    c2 = g00 + g11 + g22
    mean = c2 / 3.0
    b00, b11, b22 = g00 - mean, g11 - mean, g22 - mean
    p = (b00 * b00 + b11 * b11 + b22 * b22) / 6.0 + (g01 * g01 + g02 * g02 + g12 * g12) / 3.0
    q = (b00 * (b11 * b22 - g12 * g12) - g01 * (g01 * b22 - g12 * g02)
         + g02 * (g01 * g12 - b11 * g02)) / 2.0
    radius = np.sqrt(p)
    cube = p * radius
    cosine = np.clip(q / np.where(cube > 0.0, cube, 1.0), -1.0, 1.0)
    low = mean + 2.0 * radius * np.cos(np.arccos(cosine) / 3.0 + 2.0 * np.pi / 3.0)
    risky = cosine > 1.0 - _EDGE_COS
    if risky.any():
        tr = t[risky]
        low[risky] = np.linalg.eigvalsh(np.swapaxes(tr, 1, 2) @ tr)[:, 0]
    return c2 - np.clip(low, 0.0, mean)


def _sphere_values(alpha, q, owner, s):
    """m(s) = sqrt(f(s)) at unit directions s (rows, width, 3), row k's of the state ``owner[k]``.

    f(s) = sigma_1^2 + sigma_2^2 of T(s) + |alpha|^2 - (alpha . s)^2, with
    T(s) = sum_k s_k q[owner, k].  A row is one live triangle's three
    midpoints or one state's first-level points, so q is gathered once per
    row and T(s) is one (width x 3)(3 x 9) product per row; with ``s``
    C-contiguous every row takes the same matmul path, so a row's bits do
    not depend on the rows beside it.  |alpha|^2 is taken once per state and
    alpha . s component-first, its terms summed left to right as
    ``np.sum(axis=1)`` would.  Returns (rows, width).
    """
    rows, width = s.shape[:2]
    t = np.matmul(s, q[owner].reshape(rows, 3, 9)).reshape(-1, 3, 3)
    al, x = alpha[owner].T[:, :, None], s.transpose(2, 0, 1)
    along = x[0] * al[0] + x[1] * al[1] + x[2] * al[2]
    f = _pair_power(t).reshape(rows, width) + np.sum(alpha * alpha, axis=1)[owner, None] - along * along
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


def _midpoints(tri):
    """Normalized edge midpoints (m01, m12, m20) of spherical triangles (n, 3, 3).

    Each norm sums its squares left to right, as ``np.linalg.norm(axis=2)`` would.
    """
    mids = tri + tri[:, [1, 2, 0]]
    square = mids * mids
    return mids / np.sqrt(square[:, :, 0] + square[:, :, 1] + square[:, :, 2])[:, :, None]


def _first_maxima(vals, who):
    """Index of each owner's first largest value, for owners ``who`` in non-decreasing order.

    Each owner's values form one run, so one linear pass finds every run's
    maximum and then its first index, the one that a stable sort by (owner,
    -value) would put first.
    """
    start = np.flatnonzero(np.concatenate(([True], who[1:] != who[:-1])))
    peak = np.maximum.reduceat(vals, start)
    hit = np.flatnonzero(vals == np.repeat(peak, np.diff(start, append=len(vals))))
    return hit[np.concatenate(([True], who[hit[1:]] != who[hit[:-1]]))]


def _bound(v, m):
    """A certified bound on m over spherical triangles, from their corners and corner values.

    The corners come component-first, v[k, c] (3, 3, n) being component c of
    corner k of every triangle, and their values as m[k] (3, n), so each
    term below is one flat array over the triangles.  It is the smaller of
    two bounds, both from the convexity of m on the flat triangle with
    corners v_k.  Take e1 = v1 - v0, e2 = v2 - v0, the
    normal n = e1 x e2, det = n . v0 and h = |det| / |n|, the distance from
    the origin to the triangle's plane:

    * the corner bound max_k m_k / h, as if every corner held the largest
      value;
    * the chord bound |w| / |det|, with w = m0 n + (m1 - m0)(e2 x v0)
      + (m2 - m0)(v0 x e1) = m0 n + v0 x g, g = (m2 - m0) e1 - (m1 - m0) e2,
      the vector with w . v_k = det m_k.  A unit s in the triangle is x / |x|
      for some x = sum_k l_k v_k on the flat triangle, l_k >= 0 summing to 1,
      and convexity gives m(x) <= sum_k l_k m_k = (w / det) . x, so by
      homogeneity m(s) <= (w / det) . s <= |w| / |det|.  It equals the
      corner bound when the three values agree.  Near a maximum, where m's
      slope across the triangle is small against m times the edge, it is
      the smaller one, and there the search spends most of its points; far
      from one, w leans out of the triangle and the corner bound wins.

    The slack.  The corner values carry :func:`_pair_power`'s error, which
    ``_VALUE_ERROR`` (1e-13 relative) covers with room to spare, so
    |m_k - m(v_k)| <= d = ``_VALUE_ERROR`` max_k m_k.
    The chord bound's difference form magnifies that error: w moves by
    d0 n + v0 x ((d2 - d0) e1 - (d1 - d0) e2), at most d (|n| + 2 |e1|
    + 2 |e2|) for unit v0, and |e1| + |e2| <= sqrt(2 (|e1|^2 + |e2|^2)).
    So |w| is raised by d (|n| + sqrt(8 (|e1|^2 + |e2|^2))) before the
    division by |det| ~ |n|.  That slack grows like 1 / edge, to a few
    times 1e-8 of m on edges of 1e-5 rad, where the corner bound is the
    smaller one.  The rounding of w, det and the norms is a few ulps of
    the same terms, about a hundredth of the slack.  The corner bound has
    no such magnification and takes none.  Its sums run left to right, so
    it is ``max_k m_k / h`` bit for bit as ``np.cross``, ``np.sum`` and
    ``np.linalg.norm`` would give it.
    """
    (v0, v1, v2), (m0, m1, m2) = v, m
    e1, e2 = v1 - v0, v2 - v0
    n0, n1, n2 = _cross(e1, e2)
    c0, c1, c2 = _cross(v0, (m2 - m0) * e1 - (m1 - m0) * e2)
    w0, w1, w2 = m0 * n0 + c0, m0 * n1 + c1, m0 * n2 + c2
    det = np.abs(n0 * v0[0] + n1 * v0[1] + n2 * v0[2])
    top = np.maximum(np.maximum(m0, m1), m2)
    n_len = np.sqrt(n0 * n0 + n1 * n1 + n2 * n2)
    sq = e1 * e1 + e2 * e2
    slack = _VALUE_ERROR * top * (n_len + np.sqrt(8.0 * (sq[0] + sq[1] + sq[2])))
    return np.minimum(top / (det / n_len), (np.sqrt(w0 * w0 + w1 * w1 + w2 * w2) + slack) / det)


def _sphere_search(alpha, q):
    """Certified branch and bound for m = max over unit s of sqrt(f(s)), per state.

    ``alpha`` (n, 3) and ``q`` (n, 3, 3, 3) hold alpha_i and Q with slot i
    first.  Extended to R^3, m(x) is a maximum of norms of linear maps of x,
    so it is convex and 1-homogeneous.  On a spherical triangle with unit
    vertices v_k it is bounded by :func:`_bound`, the smaller of the corner
    bound max_k m(v_k) / h, with h the distance from the origin to the flat
    triangle's plane (a convex function on a polytope peaks at a vertex:
    Rockafellar, Convex Analysis, Cor. 32.3.2), and the chord bound |w| /
    |det|: convexity puts m on the flat triangle below the linear function
    w . x / det that takes the corner values m(v_k), and a unit s in the
    triangle gives w . s / det <= |w| / |det|.  The chord bound's difference
    form magnifies the corner values' rounding by a factor that grows like
    1 / edge, so it carries a slack derived from the error of
    :func:`_pair_power`'s shifted closed form, which evaluates every point
    (see :func:`_bound`).  The search starts
    from ten icosahedron faces and splits each live triangle 1 -> 4 at its
    normalized edge midpoints, ``VERTEX_BLOCK`` children at a time.  The best
    point is the lower end; a triangle whose bound is within ``SPHERE_TOL``
    of it is pruned, and a state stops when its global ceiling is that close.
    Each block's children are pruned before the next block is split, and,
    when a level took more than one block, the whole level once more at its
    final lower ends, so that no state's result depends on the other states
    of its batch; a single block was already pruned at them.  The unit of
    work is the live triangle: one evaluation row holds its three midpoints
    (:func:`_sphere_values`), its four children are bounded from
    component-first corners gathered out of its six points against one
    pruning threshold, and only the surviving children are gathered as
    triangles.  Every block reuses one scratch of ``18 * VERTEX_BLOCK``
    floats for its points, their values and its children's corners.
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
    eigenvectors, in that order so that ties keep a vertex, one row per
    state, and before any pruning; where either ceiling is exact it closes
    the bracket before any split.  A state left with more than ``MAX_LIVE``
    triangles stops with its live bounds.  Returns the best direction (n, 3),
    the lower end (n,), which is the value there, and the certified upper end
    (n,).
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
    # one scratch per search, in one allocation, that every block reuses for its six
    # points and their values and its children's component-first corners and values;
    # allocating these per block made the C allocator return their pages to the system
    # and fault them back in on every level
    scratch = np.empty(18 * VERTEX_BLOCK)
    gathered, block = scratch[:12 * VERTEX_BLOCK], scratch[12 * VERTEX_BLOCK:]

    def evaluate(points, owner):
        """Values (rows, width) at points (rows, width, 3), row k's of ``owner[k]``; raises lower ends."""
        vals = _sphere_values(alpha, q, owner, points)
        # owners arrive in non-decreasing order, which the pick of each state's best
        # point relies on: level 0 is arange, every filter keeps order, and children
        # repeat their parent's owner in place, in blocks joined in order.  The pick is
        # the first largest value of the first row that holds the state's largest value
        peak = vals.max(axis=1)
        first = _first_maxima(peak, owner)
        up = first[peak[first] > lower[owner[first]]]
        at = (up, np.argmax(vals[up], axis=1))
        lower[owner[up]] = vals[at]
        best[owner[up]] = points[at]
        return vals

    def live(bound, owner):
        """Which children's ``bound`` (rows, c) still exceed their state's lower end by the tolerance."""
        floor = lower[owner] + SPHERE_TOL
        return (bound > floor[:, None]) & (ceiling[owner] > floor)[:, None]

    def children(points, vals, owner, table):
        """The live children of each row: corners (m, 3, 3), values (m, 3), owners and bounds.

        Child j of a row has the corners ``table[j]`` among the row's points
        (k, width, 3) with values (k, width).  The bound reads component-first
        corners gathered straight from the points, and only the children that
        survive it are gathered as triangles, in row then child order.
        """
        k, width = vals.shape
        at = width * np.arange(k)[:, None] + table.T[:, None, :]  # (corner, row, child)
        # components then values of the corners, (4, corner, row, child); mode "clip" writes
        # straight into the scratch, as every index is in range, where "raise" would buffer
        corners = gathered[:4 * at.size].reshape((4,) + at.shape)
        points.reshape(-1, 3).T.take(at, axis=1, out=corners[:3], mode="clip")
        vals.reshape(-1).take(at, out=corners[3], mode="clip")
        v = np.moveaxis(corners[:3], 1, 0).reshape(3, 3, -1)
        bound = _bound(v, corners[3].reshape(3, -1)).reshape(k, -1)
        row, child = np.nonzero(live(bound, owner))
        at = width * row[:, None] + table[child]
        tri = points.reshape(-1, 3).take(at, axis=0)
        return tri, vals.reshape(-1).take(at), owner[row], bound[row, child]

    # level 0: each vertex once, then both ceilings' top eigenvectors, so ties keep a vertex
    eigen = np.stack([top_vec[:, :, -1], frob_vec[:, :, -1]], axis=1)
    points = np.concatenate([np.broadcast_to(vertices, (n,) + vertices.shape), eigen], axis=1)
    tri, vals, owner, bound = children(points, evaluate(points, np.arange(n)), np.arange(n), faces)
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
            mids, k = _midpoints(t), len(o)
            points = np.concatenate([t, mids], axis=1, out=block[:18 * k].reshape(k, 6, 3))
            v = np.concatenate([v, evaluate(mids, o)], axis=1, out=block[18 * k:24 * k].reshape(k, 6))
            kept.append(children(points, v, o, _CHILDREN))
        tri, vals, owner, bound = kept[0]
        if len(kept) > 1:
            # again at the final lower ends, which a state's later blocks may have raised;
            # a single block was pruned at them already
            tri, vals, owner, bound = (np.concatenate(x) for x in zip(*kept))
            keep = live(bound[:, None], owner)[:, 0]
            tri, vals, owner, bound = tri[keep], vals[keep], owner[keep], bound[keep]
    upper = np.minimum(ceiling, np.maximum(live_bound, lower + SPHERE_TOL))
    return best, lower, upper


def _tangent_bases(v):
    """Orthonormal tangent frames (..., 3, 2) at unit vectors v (..., 3), as columns e_1, e_2.

    Duff, Burgess, Christensen, Hery, Kensler, Liani & Villemin, "Building an
    Orthonormal Basis, Revisited", JCGT 6(1), 2017: with (x, y, z) = v,
    sign = copysign(1, z), a = -1 / (sign + z) and b = x y a, e_1 = (1 +
    sign x^2 a, sign b, -sign x) and e_2 = (b, sign + y^2 a, -y).  |sign + z|
    >= 1, so no division needs a branch; (e_1, e_2, v) is right-handed.
    """
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    sign = np.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    columns = [1.0 + sign * x * x * a, b, sign * b, sign + y * y * a, -sign * x, -y]
    return np.stack(columns, axis=-1).reshape(v.shape + (2,))


def _sphere_settings(s, alpha, q, slots) -> np.ndarray:
    """Settings (n, 2, 3, 3) with |<D_i>| = sqrt(f(s)) at unit directions s (n, 3).

    Row k's problem is on axis i = ``slots[k, 0]`` with the other two slots
    p < r in ``slots[k, 1:]``, all 0-based, so one call serves problems on
    any mix of axes.  With T(s) = U diag(sigma) V^T, slot p takes a_p = u1,
    b_p = u2 and slot r takes s_r = cos phi v1, t_r = sin phi v2,
    tan phi = sigma_2 / sigma_1, which gives s . M_i = sqrt(sigma_1^2 +
    sigma_2^2).  Slot i takes s_i = cos theta s and t_i = sin theta t along
    alpha's part orthogonal to s, tan theta = |alpha x s| / sqrt(sigma_1^2 +
    sigma_2^2).  Then a = s + t and b = s - t in each slot.
    """
    u, sigma, vt = np.linalg.svd(np.einsum("nk,nklm->nlm", s, q))
    phi = np.arctan2(sigma[:, 1], sigma[:, 0])[:, None]
    ortho = alpha - np.sum(alpha * s, axis=1, keepdims=True) * s
    size = np.linalg.norm(ortho, axis=1, keepdims=True)
    # any unit vector orthogonal to s serves where alpha has no such part
    t_dir = np.where(size > GRAD_FLOOR, ortho / np.maximum(size, GRAD_FLOOR),
                     _tangent_bases(s)[:, :, 0])
    theta = np.arctan2(size, np.hypot(sigma[:, :1], sigma[:, 1:2]))
    rows, (i, p, r) = np.arange(len(s)), slots.T
    vecs = np.empty((len(s), 2, 3, 3))
    for ab, sign in ((0, 1.0), (1, -1.0)):
        vecs[rows, ab, i] = np.cos(theta) * s + sign * np.sin(theta) * t_dir
        vecs[rows, ab, p] = u[:, :, ab]
        vecs[rows, ab, r] = np.cos(phi) * vt[:, 0] + sign * np.sin(phi) * vt[:, 1]
    return vecs


def seesaw_max_abs_d_many(states, axes):
    """Batched :func:`seesaw_max_abs_d` over a list of states and a list or tuple of indices.

    Returns one flat, axis-major list of ``len(axes) * len(states)``
    results: the j-th index's result for state k sits at
    ``j * len(states) + k``.  Each state is decomposed once, and all the
    (state, axis) problems run one sphere search, in chunks of at most
    ``VERTEX_BLOCK // 12`` problems, so a call's memory is bounded whatever
    the batch size.  One settings pass over the stacked problems gives their
    settings, which pass one stacked unit-row intake, and one stacked dense
    call per axis rechecks them.  Every result is bit for bit the
    single-state entry point's.
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
    # each problem's axis and its pair, 0-based, for one settings pass over the stack
    slots = np.repeat([(i - 1, *(j - 1 for j in _pair_indices(i))) for i in axes], n, axis=0)
    rows = _sphere_settings(direction, alpha, q, slots)
    # one intake for the whole stack; each result's settings are read-only views of it
    a = _check_unit_rows(rows[:, 0], "a", lead=(len(rows),))
    b = _check_unit_rows(rows[:, 1], "b", lead=(len(rows),))
    settings = list(map(MeasurementSettings._from_checked, a, b))
    blocks = [(slice(k * n, (k + 1) * n), i) for k, i in enumerate(axes)]
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
    result's constant 0 and ``per_start_values`` holds ``value`` alone; the
    CLI prints none of them.  They and the see-saw name remain only because
    ``bench/tracer.py`` reads them.  This is the one-state, one-index case
    of :func:`seesaw_max_abs_d_many`.
    """
    return seesaw_max_abs_d_many([rho], (i,))[0]


def _slot_pair(form, x, slot: int):
    """X (rows, 7) into slot ``slot`` of F: (rows, k, 7, 7), per row one product with F's slot matrix."""
    return (x[:, None, :] @ np.moveaxis(form, slot, 0).reshape(7, -1)).reshape(len(x), len(form), 7, 7)


def _first_slot(form, x1, x2, x3):
    """p12 = X_3.F (rows, k, 7, 7), dd/dX_1 = p12.X_2 (rows, k, 7) and d = (dd/dX_1).X_1 (rows, k)."""
    p12 = _slot_pair(form, x3, 3)
    g1 = (p12 @ x2[:, None, :, None])[..., 0]
    return p12, g1, (g1 @ x1[:, :, None])[..., 0]


def _sum_of_squares(form, vecs):
    """sum_i F_i[X_1, X_2, X_3]^2 per row (rows, 2, 3, 3) of a/b unit vectors, X_j = (1, a_j, b_j)."""
    d = _first_slot(form, *np.moveaxis(_homogeneous(vecs[:, 0], vecs[:, 1]), 1, 0))[2]
    return np.sum(d * d, axis=1)


def _sum_of_squares_model(form, vecs):
    """Riemannian gradient (rows, 12), Hessian (rows, 12, 12) and tangent map (rows, 18, 12).

    They are those of s = sum_i d_i^2, d_i = F_i[X_1, X_2, X_3] for a
    multi-affine form F (k, 7, 7, 7), on (S^2)^6.  The six vectors v_m run
    a_1, b_1, a_2, b_2, a_3, b_3, three ambient coordinates each.  The
    tangent map P is block diagonal with blocks E_m, the (3, 2) closed-form
    orthonormal frame at v_m (Duff et al. 2017, :func:`_tangent_bases`), so
    a tangent step xi (12,) moves the vectors by P xi.  With J (k, 18)
    the Euclidean Jacobian of d and J_r = J P, the gradient is 2 J_r^T d and
    the Hessian 2 (J_r^T J_r + P^T C P) - diag(v_m . grad_m) (Absil, Mahony
    & Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008, ch.
    5-6), with grad = 2 J^T d.  C = sum_i d_i hess d_i has only cross-slot
    blocks, the form contracted with the third X, as each d_i is affine
    within a slot.  Every contraction with an X_j is a per-row matmul with
    a slot matrix of F (:func:`_slot_pair`), and d = ((X_3.F).X_2).X_1 as in
    the objective.  One 2-D product over all rows is faster, but there a
    row's bits can depend on how many rows run beside it.
    """
    n = len(vecs)
    x1, x2, x3 = np.moveaxis(_homogeneous(vecs[:, 0], vecs[:, 1]), 1, 0)
    p12, g1, d = _first_slot(form, x1, x2, x3)
    p13, p23 = _slot_pair(form, x2, 2), _slot_pair(form, x1, 1)
    g2, g3 = (p23 @ x3[:, None, :, None])[..., 0], (x1[:, None, None, :] @ p13)[..., 0, :]
    jac = np.concatenate([g1[..., 1:], g2[..., 1:], g3[..., 1:]], axis=2)
    v = np.swapaxes(vecs, 1, 2).reshape(n, 6, 3)
    # P[n, 3m + c, 2p + a] = E[n, m, c, a] delta_mp
    frames, tangent = _tangent_bases(v), np.zeros((n, 18, 12))
    for m in range(6):
        tangent[:, 3 * m:3 * m + 3, 2 * m:2 * m + 2] = frames[:, m]
    jac_r = jac @ tangent
    curve = np.zeros((n, 18, 18))
    for (j, k), p in (((0, 1), p12), ((0, 2), p13), ((1, 2), p23)):
        block = (d[:, None] @ p.reshape(n, -1, 49)).reshape(n, 7, 7)
        curve[:, 6 * j:6 * j + 6, 6 * k:6 * k + 6] = block[:, 1:, 1:]
    curve = curve + np.swapaxes(curve, 1, 2)
    grad_r = 2.0 * (d[:, None] @ jac_r)[:, 0]
    hess_r = 2.0 * (np.swapaxes(jac_r, 1, 2) @ jac_r + np.swapaxes(tangent, 1, 2) @ curve @ tangent)
    grad = 2.0 * (d[:, None] @ jac).reshape(n, 6, 3)
    diagonal = np.arange(12)
    hess_r[:, diagonal, diagonal] -= np.repeat(np.sum(v * grad, axis=2), 2, axis=1)
    return grad_r, hess_r, tangent


def _retract(vecs, tangent, step):
    """Move each row's vectors by its tangent map times its step (rows, 12), then renormalize."""
    n = len(vecs)
    v = np.swapaxes(vecs, 1, 2).reshape(n, 6, 3) + (tangent @ step[:, :, None]).reshape(n, 6, 3)
    v /= np.linalg.norm(v, axis=2, keepdims=True)
    return np.swapaxes(v.reshape(n, 3, 2, 3), 1, 2)


def _sum_of_squares_ascent(form, vecs, iters: int):
    """Batched Riemannian Newton ascent of s = sum_i F_i[X_1, X_2, X_3]^2 from ``vecs`` (rows, 2, 3, 3).

    F (k, 7, 7, 7) is any multi-affine form; omega is the case of the three
    Bell operators' form.  Each iteration evaluates the exact gradient and
    Hessian (:func:`_sum_of_squares_model`).  A row with |grad_R| <=
    ``CERT_GRAD`` and lambda_max(H_R) <= ``CERT_CURV`` is certified and
    stops.  The others take a Newton step with the Hessian's eigenvalues
    clamped at -max(|grad_R|, ``CERT_CURV``), so the step ascends.  It is halved up to
    ``_HALVINGS`` times until s does not fall by more than the rounding
    slack ``_MONOTONE_SLACK``; a row whose step still lowers s stops
    uncertified.  Returns per-row (s, vectors, iterations used,
    certified); rows neither certified nor stopped use all ``iters``.
    """
    vecs = np.array(vecs, dtype=float)
    n = len(vecs)
    obj = _sum_of_squares(form, vecs)
    used = np.full(n, iters)
    certified = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for it in range(1, iters + 1):
        grad_r, hess_r, tangent = _sum_of_squares_model(form, vecs[active])
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
            trial = _retract(vecs[active[todo]], tangent[todo], step[todo] * 0.5**halving)
            trial_obj = _sum_of_squares(form, trial)
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
    (:func:`_sum_of_squares_ascent`), capped at ``OptimizerConfig.max_sweeps`` = 500.
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
    obj, vecs, sweeps, converged = _sum_of_squares_ascent(form, _initial_vectors(cfg), cfg.max_sweeps)
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
