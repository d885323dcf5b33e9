"""Exclusion logic, region sampling, and the projection table."""

import importlib

import numpy as np
import pytest

from tribell.bell import expectation_bell
from tribell.classify import (
    CLASS_LABELS,
    CLASSIFICATION_NOTE,
    SOURCE_CLASSES,
    RegionPoint,
    _draw_state,
    classify,
    excluded_classes,
    figure_projection,
    region_label,
    sample_region,
)
from tribell.core import ValidationError
from tribell.optimize import seesaw_max_abs_d, seesaw_max_abs_d_many
from tribell.states import (
    PureState,
    ghz,
    maximally_mixed,
    mix,
    phi_plus_otimes_zero,
    random_in_class,
    to_density,
    w_state,
)

SQ2 = np.sqrt(2.0)


def trapped_1_23():
    """9th of five fully separable then five 1-23 draws from default_rng(5).

    A random see-saw start stalls on this 1-23 state at the degenerate
    fixed point s_1 = 0, where every pair gradient vanishes, and reports
    m1 = 1; the sphere reduction gives 1.16262.
    """
    rng = np.random.default_rng(5)
    return [_draw_state(c, rng) for c in ["fully-separable"] * 5 + ["1-23"] * 5][8]


def open_1_23():
    """Draw 125 (0-based) of ``_draw_state("1-23", default_rng(7))``.

    On axis 1 its live triangles pass ``MAX_LIVE``, so the m_i search stops
    with the open bracket [0.8591490706, 0.8592035181]; a 4096 budget closes
    it at 0.8591491825.
    """
    rng = np.random.default_rng(7)
    return [_draw_state("1-23", rng) for _ in range(126)][125]


def cross_cut_mixture():
    """rho_x = (1/3) sum_k |0><0|_k (x) |Phi+><Phi+|_rest: biseparable by construction.

    Each term lies in the class of cut k, yet every m_i is sqrt(10)/3 > 1, so
    the m_i exclude all four classes of this mixture across the cuts.
    """
    terms = []
    for pair in (0b011, 0b101, 0b110):  # |Phi+> on slots (2, 3), (1, 3) and (1, 2)
        amp = np.zeros(8, dtype=complex)
        amp[0] = amp[pair] = 1 / SQ2
        terms.append(to_density(PureState(amp)))
    return mix(terms, [1 / 3] * 3)


class TestExclusionRules:
    def test_all_inside_cube_excludes_nothing(self):
        assert excluded_classes((0.9, 0.8, 1.0), 1e-6) == ()

    def test_axis1_violation(self):
        assert excluded_classes((1.2, 0.5, 0.5), 1e-6) == ("fully-separable", "2-13", "12-3")

    def test_axis2_violation(self):
        assert excluded_classes((0.5, 1.2, 0.5), 1e-6) == ("fully-separable", "1-23", "12-3")

    def test_axis3_violation(self):
        assert excluded_classes((0.5, 0.5, 1.2), 1e-6) == ("fully-separable", "1-23", "2-13")

    def test_two_axes_exclude_everything(self):
        assert excluded_classes((1.2, 1.2, 0.5), 1e-6) == CLASS_LABELS

    def test_margin_suppresses_borderline(self):
        assert excluded_classes((1.0 + 5e-7, 0.0, 0.0), 1e-6) == ()
        assert excluded_classes((1.0 + 5e-7, 0.0, 0.0), 1e-7) != ()

    @pytest.mark.parametrize(
        "m",
        [
            (0.5, 0.5, 0.5, 2.0),
            (0.5, 1.2),
            (float("nan"), 1.2, 0.0),
            (0.5, float("inf"), 0.0),
            "abc",
            (True, 0.5, 0.5),
            (0.5, "1.2", 0.5),
            (10**400, 0.0, 0.0),
            1.2,
            None,
        ],
    )
    def test_malformed_maxima_rejected(self, m):
        with pytest.raises(ValidationError, match="finite number"):
            excluded_classes(m, 1e-6)

    def test_maxima_may_be_an_array_or_list(self):
        expected = ("fully-separable", "2-13", "12-3")
        assert excluded_classes(np.array([1.2, 0.5, 0.5]), 1e-6) == expected
        assert excluded_classes([1.2, 0.5, 0.5], 1e-6) == expected

    def test_monotone_in_each_axis(self):
        """Raising any coordinate never un-excludes a class."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.uniform(0, SQ2, size=3)
            base = set(excluded_classes(tuple(m), 1e-6))
            axis = int(rng.integers(0, 3))
            m2 = m.copy()
            m2[axis] += rng.uniform(0, 0.3)
            assert base <= set(excluded_classes(tuple(m2), 1e-6))

    def test_exclusions_only_shrink_as_the_margin_grows(self):
        rng = np.random.default_rng(8)
        margins = np.sort(rng.uniform(1e-9, 0.5, size=12))
        for _ in range(60):
            m = tuple(rng.uniform(0.8, SQ2, size=3))
            verdicts = [set(excluded_classes(m, margin)) for margin in margins]
            assert all(later <= earlier for earlier, later in zip(verdicts, verdicts[1:]))

    def test_margin_must_be_positive(self):
        with pytest.raises(ValidationError, match="margin"):
            excluded_classes((1.0, 1.0, 1.0), 0.0)

    @pytest.mark.parametrize(
        "margin",
        [
            0.0, -1e-6, float("nan"), float("inf"), True, np.True_, "1e-6", 1e-6j, None,
            pytest.param(10**400, id="huge-int"),
        ],
    )
    def test_bad_margin_rejected_before_optimizing(self, margin, monkeypatch):
        """Bools and non-real values too, as ValidationError and never numpy's TypeError."""
        # the package's ``classify`` attribute is the function, not this module
        classify_mod = importlib.import_module("tribell.classify")

        def unexpected(*args, **kwargs):
            pytest.fail("classify optimized before checking the margin")

        for name in ("maximize_omega", "seesaw_max_abs_d_many"):
            monkeypatch.setattr(classify_mod, name, unexpected)
        with pytest.raises(ValidationError, match="margin"):
            classify(to_density(ghz()), margin=margin)
        with pytest.raises(ValidationError, match="margin"):
            excluded_classes((1.2, 0.5, 0.5), margin)


class TestClassify:
    def test_ghz_excludes_all_four(self):
        report = classify(to_density(ghz()))
        assert report.excluded == CLASS_LABELS
        assert report.genuine_indicated
        for value in report.m:
            assert value == pytest.approx(SQ2, abs=1e-6)

    def test_pair_state_excludes_three(self):
        report = classify(to_density(phi_plus_otimes_zero()))
        assert report.m[2] == pytest.approx(SQ2, abs=1e-6)
        assert report.m[0] <= 1.0 + 1e-6
        assert report.m[1] <= 1.0 + 1e-6
        assert report.excluded == ("fully-separable", "1-23", "2-13")
        assert not report.genuine_indicated

    def test_trapped_state_excludes_three(self):
        report = classify(trapped_1_23())
        assert report.m[0] == pytest.approx(1.16262, abs=1e-5)
        assert report.excluded == ("fully-separable", "2-13", "12-3")

    def test_cross_cut_mixture_m_pinned(self):
        """The biseparable rho_x has three certified m_i = sqrt(10)/3, which exclude all four classes.

        So excluding all four classes does not certify genuine tripartite entanglement.
        """
        results = [seesaw_max_abs_d(cross_cut_mixture(), i) for i in (1, 2, 3)]
        for res in results:
            assert res.converged
            assert res.value == pytest.approx(np.sqrt(10) / 3, abs=1e-9)
            assert res.upper == pytest.approx(np.sqrt(10) / 3, abs=1e-9)
        assert excluded_classes([res.value for res in results], 1e-6) == CLASS_LABELS

    @pytest.mark.parametrize("state", [to_density(ghz()), to_density(w_state()), trapped_1_23()],
                             ids=["ghz", "w", "trapped-1-23"])
    def test_one_search_gives_the_per_axis_maxima(self, state, monkeypatch):
        """One classify runs one sphere search for all three m_i, each the per-axis call's exactly.

        It runs no omega ascent, so its flags are the three certified m_i flags.
        """
        opt = importlib.import_module("tribell.optimize")
        search, searches = opt._sphere_search, []

        def no_ascent(*args):
            pytest.fail("classify ran the omega ascent")

        with monkeypatch.context() as patch:
            patch.setattr(opt, "_sphere_search", lambda *args: searches.append(1) or search(*args))
            patch.setattr(opt, "_sum_of_squares_ascent", no_ascent)
            report = classify(state)
        assert len(searches) == 1
        per_axis = [seesaw_max_abs_d(state, i) for i in (1, 2, 3)]
        assert report.m == tuple(res.value for res in per_axis)
        assert report.converged == tuple(res.converged for res in per_axis)

    def test_ghz_noise_excludes_only_where_no_class_holds_it(self):
        """rho_p = p GHZ + (1 - p) I/8 lies in all four classes for p <= 1/5 and in none for p > 1/sqrt(2).

        For GHZ-diagonal states a positive partial transpose across a cut is
        separability across it (Dur, Cirac & Tarrach, PRL 83, 3562 (1999)), so
        at p = 1/5 nothing may be excluded; at p = 3/4 every m_i = p sqrt(2) > 1.
        """
        def noisy_ghz(p):
            return mix([to_density(ghz()), maximally_mixed()], [p, 1.0 - p])

        rho = noisy_ghz(0.2).matrix.reshape((2,) * 6)
        for k in range(3):
            transposed = np.swapaxes(rho, k, k + 3).reshape(8, 8)
            assert np.linalg.eigvalsh(transposed).min() >= -1e-12
        assert classify(noisy_ghz(0.2)).excluded == ()
        assert classify(noisy_ghz(0.75)).excluded == CLASS_LABELS

    def test_product_state_excludes_nothing(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        report = classify(to_density(PureState(amp)))
        assert report.excluded == ()
        assert not report.genuine_indicated

    def test_report_wording_never_claims_separability(self):
        report = classify(random_in_class(None, 2, 3))
        assert "not certified separable" in report.note

    def test_note_is_a_constant(self):
        """The note is the module's one wording; neither ``classify`` nor the report takes another."""
        report = classify(to_density(ghz()))
        assert report.note == CLASSIFICATION_NOTE
        with pytest.raises(TypeError):
            type(report)(report.m, report.excluded, report.margin, report.genuine_indicated,
                         report.converged, note="other")


def capture_draws(monkeypatch):
    """Record the states and the shared setting that ``sample_region`` draws, in order."""
    classify_mod = importlib.import_module("tribell.classify")
    drawn, shared = [], []
    draw, settings = classify_mod._draw_state, classify_mod.random_settings
    monkeypatch.setattr(
        classify_mod, "_draw_state", lambda c, rng: drawn.append(draw(c, rng)) or drawn[-1]
    )
    monkeypatch.setattr(
        classify_mod, "random_settings", lambda seed: shared.append(settings(seed)) or shared[-1]
    )
    return drawn, shared


class TestSampleRegion:
    def test_fully_separable_fixed_settings_stay_in_cube(self):
        points = sample_region("fully-separable", 100, seed=2)
        for pt in points:
            assert max(abs(pt.d1), abs(pt.d2), abs(pt.d3)) <= 1.0 + 1e-9

    def test_haar_pure_fixed_settings_stay_in_ball(self):
        points = sample_region("haar-pure", 200, seed=3)
        for pt in points:
            assert pt.d1**2 + pt.d2**2 + pt.d3**2 <= 3.0 + 1e-9

    def test_biseparable_optimized_respects_cuboid(self):
        points = sample_region("1-23", 25, seed=4, mode="optimized")
        for pt in points:
            assert abs(pt.d1) <= SQ2 + 1e-6
            assert abs(pt.d2) <= 1.0 + 1e-6
            assert abs(pt.d3) <= 1.0 + 1e-6

    def test_biseparable_optimized_populates_violations(self):
        """The canonical pair states push the distinguished axis beyond 1."""
        points = sample_region("2-13", 30, seed=5, mode="optimized")
        assert any(abs(pt.d2) > 1.0 + 1e-6 for pt in points)

    def test_optimized_coordinates_are_the_certified_maxima(self):
        """Optimized coordinates are the optimizer's m_i, not a signed re-trace."""
        points = sample_region("1-23", 12, seed=10, mode="optimized")
        rng = np.random.default_rng(10)
        rng.integers(0, 2**63)  # the shared fixed-settings draw
        states = [_draw_state("1-23", rng) for _ in range(12)]
        results = seesaw_max_abs_d_many(states, (1, 2, 3))
        assert len(results) == 3 * len(points)
        for k, res in enumerate(results):
            pt = points[k % len(states)]
            coord = (pt.d1, pt.d2, pt.d3)[k // len(states)]
            assert coord >= 0.0
            assert coord == res.value

    @pytest.mark.parametrize("source", SOURCE_CLASSES)
    def test_fixed_settings_coordinates_are_the_per_state_traces(self, source, monkeypatch):
        """Each coordinate equals the single-state dense trace at the shared setting."""
        drawn, shared = capture_draws(monkeypatch)
        points = sample_region(source, 15, seed=8)
        (m,) = shared
        assert len(drawn) == len(points) == 15
        for pt, rho in zip(points, drawn):
            assert (pt.d1, pt.d2, pt.d3) == tuple(expectation_bell(rho, m, i) for i in (1, 2, 3))
            assert all(type(x) is float for x in (pt.d1, pt.d2, pt.d3))

    def test_deterministic_in_seed(self):
        p1 = sample_region("ghz-family", 10, seed=6)
        p2 = sample_region("ghz-family", 10, seed=6)
        assert p1 == p2

    def test_source_class_recorded(self):
        points = sample_region("12-3", 3, seed=7)
        assert all(pt.source_class == "12-3" for pt in points)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValidationError, match="source class"):
            sample_region("separable-ish", 5, seed=1)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError, match="mode"):
            sample_region("haar-pure", 5, seed=1, mode="both")

    def test_bad_count_rejected(self):
        with pytest.raises(ValidationError, match=">= 1"):
            sample_region("haar-pure", 0, seed=1)

    @pytest.mark.parametrize(
        "n, seed, name", [(2.5, 1, "n"), (True, 1, "n"), (2, 1.5, "seed"), (2, True, "seed")]
    )
    def test_non_integer_count_or_seed_rejected(self, n, seed, name):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
            sample_region("1-23", n, seed)


class TestFigureProjection:
    def test_unit_square_boundary_is_region_one(self):
        assert region_label(1.0, 1.0) == "I"

    def test_horizontal_violation_is_region_two(self):
        assert region_label(SQ2, 0.5) == "II"

    def test_vertical_violation_is_region_three(self):
        assert region_label(0.2, 1.3) == "III"

    def test_double_violation_is_corner(self):
        assert region_label(1.2, 1.2) == "corner"

    def test_plane_selection(self):
        pt = RegionPoint(0.1, 0.2, 1.3, "x")
        assert figure_projection([pt], "12") == [(0.1, 0.2, "I", "x")]
        assert figure_projection([pt], "13") == [(0.1, 1.3, "III", "x")]
        assert figure_projection([pt], "23") == [(0.2, 1.3, "III", "x")]

    def test_bad_plane_rejected(self):
        with pytest.raises(ValidationError, match="plane"):
            figure_projection([], "21")

    @pytest.mark.parametrize(
        "u, v, name",
        [
            (np.nan, 0.0, "u"),
            (0.0, np.inf, "v"),
            (-np.inf, 0.5, "u"),
            pytest.param(10**400, 0.0, "u", id="huge-int"),
            (True, 0.5, "u"),
            (0.5, "1", "v"),
        ],
    )
    def test_non_finite_coordinate_rejected(self, u, v, name):
        """NaN fails every comparison, so it used to land in region II."""
        with pytest.raises(ValidationError, match=f"^{name} must be a finite number"):
            region_label(u, v)

    def test_non_finite_point_rejected_by_projection(self):
        with pytest.raises(ValidationError, match="^u must be a finite number"):
            figure_projection([RegionPoint(np.nan, 0.0, 0.0, "x")])
