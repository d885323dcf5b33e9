"""Separability-class exclusion and Monte Carlo sampling of the bound geometry.

Treating the three optimized expectations (m1, m2, m3) as coordinates, fully
separable states live in the closed cube [-1, 1]^3 and states separable
across the cut i-(rest) live in a cuboid stretched to sqrt(2) along axis i
only.  At one shared setting the simultaneous expectations of separable
states stay inside the ball of radius sqrt(3) circumscribing the cube;
strongly entangled states can leave that ball at finely tuned settings, so
the quadratic maximum decides no class and :func:`classify` does not compute
it; :func:`tribell.optimize.maximize_omega` does.

The verdicts here are necessary conditions only: exceeding a bound *excludes*
classes, but staying inside every bound certifies nothing.  Each bi-separable
class is the convex hull of products over one fixed bipartition; mixtures
across different bipartitions fall outside all three classes and may satisfy
all the inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .bell import expectation_bell, random_settings
from .core import ValidationError, _check_integer, _check_real
# maximize_omega and seesaw_max_abs_d are unused here; the benchmark's tracer rebinds them by
# this module's name
from .optimize import maximize_omega, seesaw_max_abs_d, seesaw_max_abs_d_many
from .states import (
    FULLY_SEPARABLE,
    PARTITIONS,
    apply_local_unitaries,
    as_density,
    canonical_biseparable,
    generalized_ghz,
    random_in_class,
    random_local_unitaries,
    random_pure,
    to_density,
)

__all__ = [
    "ClassificationReport",
    "RegionPoint",
    "SOURCE_CLASSES",
    "CLASS_LABELS",
    "GENUINE_FLAG",
    "CLASSIFICATION_NOTE",
    "excluded_classes",
    "classify",
    "sample_region",
    "figure_projection",
    "region_label",
]

#: All four convex classes the bounds can exclude, in canonical order.
CLASS_LABELS = (FULLY_SEPARABLE,) + PARTITIONS

#: Source classes available to :func:`sample_region`.
SOURCE_CLASSES = CLASS_LABELS + ("haar-pure", "ghz-family")

GENUINE_FLAG = "genuine tripartite entanglement indicated (pure-partition convex classes)"

CLASSIFICATION_NOTE = (
    "exclusions are necessary conditions only: a state excluded from no class "
    "is not certified separable; mixtures across different bipartitions lie "
    "outside all three bi-separable classes"
)

# Axis i exceeding 1 is compatible only with the class whose separated qubit is i.
_EXCLUDED_BY_AXIS = {
    axis: tuple(label for label in CLASS_LABELS if label != partition)
    for axis, partition in enumerate(PARTITIONS, start=1)
}


@dataclass(frozen=True)
class ClassificationReport:
    """Optimized maxima and the exclusion verdicts they give.

    ``genuine_indicated`` is True when all four classes are excluded, which
    means only that no single-cut class contains the state.  It does not
    certify genuine tripartite entanglement: the biseparable equal mixture of
    |0><0|_k (x) |Phi+><Phi+|_rest over the three cuts has every m_i =
    sqrt(10)/3 > 1 and sets it.

    ``converged`` holds the flags of the three searches (m1, m2, m3), so
    non-convergence is visible without blocking the verdict; True means a
    certified gap of at most 1e-9 to the global maximum.  ``note`` is a
    constant, not a field.
    """

    note: ClassVar[str] = CLASSIFICATION_NOTE
    m: tuple
    excluded: tuple
    margin: float
    genuine_indicated: bool
    converged: tuple


@dataclass(frozen=True)
class RegionPoint:
    """One sampled state's coordinates in the (D1, D2, D3) expectation space."""

    d1: float
    d2: float
    d3: float
    source_class: str


def excluded_classes(m, margin: float) -> tuple:
    """Classes ruled out by optimized maxima ``m`` (three finite numbers) at threshold 1 + margin."""
    values = list(m) if isinstance(m, (tuple, list, np.ndarray)) else ()
    if len(values) != 3:
        raise ValidationError(f"maxima must be three finite numbers (m1, m2, m3), got {m!r}")
    values = [_check_real(f"m{axis}", value) for axis, value in enumerate(values, start=1)]
    _check_real("margin", margin, 0, strict=True)
    out: set = set()
    for axis, value in enumerate(values, start=1):
        if value > 1.0 + margin:
            out.update(_EXCLUDED_BY_AXIS[axis])
    return tuple(label for label in CLASS_LABELS if label in out)


def classify(rho, margin: float = 1e-6) -> ClassificationReport:
    """Maximize all three |<D_i>| and report which classes are excluded.

    Excluding all four classes sets ``genuine_indicated``, which does not
    certify genuine tripartite entanglement (see :class:`ClassificationReport`).

    The search takes no parameters: one call of
    :func:`tribell.optimize.seesaw_max_abs_d_many` with the indices (1, 2, 3)
    runs all three as one search, each bit for bit the per-axis call's.
    omega is not computed here; :func:`tribell.optimize.maximize_omega` is
    its one entry point.
    """
    margin = _check_real("margin", margin, 0, strict=True)
    results = seesaw_max_abs_d_many([as_density(rho)], (1, 2, 3))
    m = tuple(r.value for r in results)
    excluded = excluded_classes(m, margin)
    return ClassificationReport(
        m=m,
        excluded=excluded,
        margin=margin,
        genuine_indicated=len(excluded) == len(CLASS_LABELS),
        converged=tuple(r.converged for r in results),
    )


def _draw_state(source_class: str, rng: np.random.Generator):
    child = int(rng.integers(0, 2**63))
    if source_class == FULLY_SEPARABLE:
        n_mix = int(rng.integers(1, 5))
        pure = bool(rng.random() < 0.5)
        return random_in_class(None, n_mix, child, pure_factors=pure)
    if source_class in PARTITIONS:
        if rng.random() < 0.5:
            # canonical pure pair state, randomly rotated within the class
            alpha = rng.uniform(0.0, np.pi / 2)
            psi = canonical_biseparable(source_class, alpha)
            psi = apply_local_unitaries(psi, random_local_unitaries(rng))
            return to_density(psi)
        n_mix = int(rng.integers(1, 5))
        return random_in_class(source_class, n_mix, child)
    if source_class == "haar-pure":
        return to_density(random_pure(child))
    if source_class == "ghz-family":
        return to_density(generalized_ghz(rng.uniform(0.0, np.pi / 2)))
    raise ValidationError(
        f"unknown source class {source_class!r}; expected one of {SOURCE_CLASSES}"
    )


def sample_region(
    source_class: str,
    n: int,
    seed: int,
    mode: str = "fixed-settings",
) -> list[RegionPoint]:
    """Coordinates of ``n`` random states from one source class.

    In ``fixed-settings`` mode all states share a single random setting drawn
    from the seed and the coordinates are the three simultaneous expectations
    at that setting.  In ``optimized`` mode coordinate i is
    m_i = max |<D_i>| >= 0, the lower end of the certified sphere search,
    rechecked on the dense path at its settings, which exposes the
    cube/cuboid boundaries instead.  One call of
    :func:`tribell.optimize.seesaw_max_abs_d_many` with the indices
    (1, 2, 3) runs all three coordinates of every state as one search.
    """
    if source_class not in SOURCE_CLASSES:
        raise ValidationError(
            f"unknown source class {source_class!r}; expected one of {SOURCE_CLASSES}"
        )
    _check_integer("n", n, 1)
    _check_integer("seed", seed, 0)
    if mode not in ("fixed-settings", "optimized"):
        raise ValidationError(f"mode must be 'fixed-settings' or 'optimized', got {mode!r}")
    rng = np.random.default_rng(seed)
    shared = random_settings(int(rng.integers(0, 2**63)))
    states = [_draw_state(source_class, rng) for _ in range(n)]
    if mode == "fixed-settings":
        # each D_i is built and validated once, then traced against all states
        columns = [expectation_bell(states, shared, i).tolist() for i in (1, 2, 3)]
    else:
        values = [res.value for res in seesaw_max_abs_d_many(states, (1, 2, 3))]
        columns = [values[k * n:(k + 1) * n] for k in range(3)]
    return [RegionPoint(d1, d2, d3, source_class) for d1, d2, d3 in zip(*columns)]


#: closed-region membership slack; points saturating a bound numerically
#: (1.0 +- a few ulp) must not spill into the outer regions
REGION_TOL = 1e-9


def region_label(u: float, v: float) -> str:
    """Figure region of a projected point: I, II, III or corner.

    I is the unit square (local bound respected in both retained axes), II
    has only |u| > 1, III only |v| > 1, corner both.  Membership of the
    closed square carries a 1e-9 slack so saturating points stay on the
    boundary they belong to.  ``u`` and ``v`` must be finite numbers.
    """
    u_in = abs(_check_real("u", u)) <= 1.0 + REGION_TOL
    v_in = abs(_check_real("v", v)) <= 1.0 + REGION_TOL
    if u_in and v_in:
        return "I"
    if not u_in and v_in:
        return "II"
    if not v_in and u_in:
        return "III"
    return "corner"


_PLANES = {"12": (0, 1), "13": (0, 2), "23": (1, 2)}


def figure_projection(points, plane="12") -> list[tuple]:
    """Project region points onto a coordinate plane with region annotations.

    ``plane`` selects the two retained axes ("12", "13" or "23"); the third
    coordinate is dropped.  Returns rows (u, v, region, source_class).
    """
    if not isinstance(points, (list, tuple)):
        raise ValidationError(f"points must be a list or tuple of RegionPoint, got {type(points).__name__}")
    key = str(plane)
    if key not in _PLANES:
        raise ValidationError(f"plane must be one of {tuple(_PLANES)}, got {plane!r}")
    iu, iv = _PLANES[key]
    rows = []
    for pt in points:
        if not isinstance(pt, RegionPoint):
            raise ValidationError(f"expected RegionPoint, got {type(pt).__name__}")
        coords = (pt.d1, pt.d2, pt.d3)
        u, v = coords[iu], coords[iv]
        rows.append((u, v, region_label(u, v), pt.source_class))
    return rows
