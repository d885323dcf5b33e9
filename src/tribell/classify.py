"""Separability-class exclusion and Monte Carlo sampling of the bound geometry.

Treating the three optimized expectations (m1, m2, m3) as coordinates, fully
separable states live in the closed cube [-1, 1]^3 and states separable
across the cut i-(rest) live in a cuboid stretched to sqrt(2) along axis i
only.  At one shared setting the simultaneous expectations of separable
states stay inside the ball of radius sqrt(3) circumscribing the cube;
strongly entangled states can leave that ball at finely tuned settings, so
the quadratic maximum is reported as a diagnostic, not used for exclusion.

The verdicts here are necessary conditions only: exceeding a bound *excludes*
classes, but staying inside every bound certifies nothing.  Each bi-separable
class is the convex hull of products over one fixed bipartition; mixtures
across different bipartitions fall outside all three classes and may satisfy
all the inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bell import expectation_bell, random_settings
from .core import ValidationError
from .optimize import OptimizerConfig, maximize_omega, seesaw_max_abs_d, seesaw_max_abs_d_many
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
    1: (FULLY_SEPARABLE, "2-13", "12-3"),
    2: (FULLY_SEPARABLE, "1-23", "12-3"),
    3: (FULLY_SEPARABLE, "1-23", "2-13"),
}


@dataclass(frozen=True)
class ClassificationReport:
    """Optimized maxima, exclusion verdicts and the quadratic-bound maximum.

    ``converged`` holds the convergence flags of the four optimizations
    (m1, m2, m3, omega) so non-convergence is visible without blocking the
    verdict.
    """

    m: tuple
    omega_max: float
    excluded: tuple
    margin: float
    genuine_indicated: bool
    converged: tuple
    note: str = CLASSIFICATION_NOTE


@dataclass(frozen=True)
class RegionPoint:
    """One sampled state's coordinates in the (D1, D2, D3) expectation space."""

    d1: float
    d2: float
    d3: float
    source_class: str


def _check_margin(margin: float) -> None:
    if not np.isfinite(margin) or margin <= 0:
        raise ValidationError(f"margin must be a finite number > 0, got {margin}")


def excluded_classes(m, margin: float) -> tuple:
    """Classes ruled out by optimized maxima ``m`` at threshold 1 + margin."""
    _check_margin(margin)
    out: set = set()
    for axis, value in enumerate(m, start=1):
        if value > 1.0 + margin:
            out.update(_EXCLUDED_BY_AXIS[axis])
    return tuple(label for label in CLASS_LABELS if label in out)


def classify(rho, cfg: OptimizerConfig | None = None, margin: float = 1e-6) -> ClassificationReport:
    """Optimize all three |<D_i>| plus omega and report which classes are excluded."""
    _check_margin(margin)
    cfg = cfg or OptimizerConfig()
    rho = as_density(rho)
    results = [seesaw_max_abs_d(rho, i, cfg) for i in (1, 2, 3)]
    omega_res = maximize_omega(rho, cfg)
    m = tuple(r.value for r in results)
    excluded = excluded_classes(m, margin)
    return ClassificationReport(
        m=m,
        omega_max=omega_res.value,
        excluded=excluded,
        margin=float(margin),
        genuine_indicated=len(excluded) == len(CLASS_LABELS),
        converged=tuple(r.converged for r in results) + (omega_res.converged,),
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
    cfg: OptimizerConfig | None = None,
) -> list[RegionPoint]:
    """Coordinates of ``n`` random states from one source class.

    In ``fixed-settings`` mode all states share a single random setting drawn
    from the seed and the coordinates are the three simultaneous expectations
    at that setting.  In ``optimized`` mode each coordinate is the signed
    expectation at that index's own optimized settings, which exposes the
    cube/cuboid boundaries instead.
    """
    if source_class not in SOURCE_CLASSES:
        raise ValidationError(
            f"unknown source class {source_class!r}; expected one of {SOURCE_CLASSES}"
        )
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    if mode not in ("fixed-settings", "optimized"):
        raise ValidationError(f"mode must be 'fixed-settings' or 'optimized', got {mode!r}")
    rng = np.random.default_rng(seed)
    shared = random_settings(int(rng.integers(0, 2**63)))
    states = [_draw_state(source_class, rng) for _ in range(n)]
    if mode == "fixed-settings":
        coords = [
            [expectation_bell(rho, shared, i) for i in (1, 2, 3)] for rho in states
        ]
    else:
        base = cfg or OptimizerConfig(seed=int(rng.integers(0, 2**31)))
        coords = [[0.0, 0.0, 0.0] for _ in range(n)]
        for i in (1, 2, 3):
            for k, res in enumerate(seesaw_max_abs_d_many(states, i, base)):
                coords[k][i - 1] = expectation_bell(states[k], res.settings, i)
    return [
        RegionPoint(c[0], c[1], c[2], source_class) for c in coords
    ]


#: closed-region membership slack; points saturating a bound numerically
#: (1.0 +- a few ulp) must not spill into the outer regions
REGION_TOL = 1e-9


def region_label(u: float, v: float) -> str:
    """Figure region of a projected point: I, II, III or corner.

    I is the unit square (local bound respected in both retained axes), II
    has only |u| > 1, III only |v| > 1, corner both.  Membership of the
    closed square carries a 1e-9 slack so saturating points stay on the
    boundary they belong to.
    """
    u_in = abs(u) <= 1.0 + REGION_TOL
    v_in = abs(v) <= 1.0 + REGION_TOL
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
    key = str(plane)
    if key not in _PLANES:
        raise ValidationError(f"plane must be one of {tuple(_PLANES)}, got {plane!r}")
    iu, iv = _PLANES[key]
    rows = []
    for pt in points:
        coords = (pt.d1, pt.d2, pt.d3)
        u, v = coords[iu], coords[iv]
        rows.append((u, v, region_label(u, v), pt.source_class))
    return rows
