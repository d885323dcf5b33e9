"""Exclusion logic, region sampling, and the projection table."""

import importlib

import numpy as np
import pytest

from tribell.classify import (
    CLASS_LABELS,
    RegionPoint,
    classify,
    excluded_classes,
    figure_projection,
    region_label,
    sample_region,
)
from tribell.core import ValidationError
from tribell.optimize import OptimizerConfig
from tribell.states import (
    PureState,
    ghz,
    phi_plus_otimes_zero,
    random_in_class,
    to_density,
)

SQ2 = np.sqrt(2.0)
CFG = OptimizerConfig()


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

    def test_margin_must_be_positive(self):
        with pytest.raises(ValidationError, match="margin"):
            excluded_classes((1.0, 1.0, 1.0), 0.0)

    @pytest.mark.parametrize("margin", [0.0, -1e-6, float("nan"), float("inf")])
    def test_bad_margin_rejected_before_optimizing(self, margin, monkeypatch):
        # the package's ``classify`` attribute is the function, not this module
        classify_mod = importlib.import_module("tribell.classify")

        def unexpected(*args, **kwargs):
            pytest.fail("classify optimized before checking the margin")

        monkeypatch.setattr(classify_mod, "seesaw_max_abs_d", unexpected)
        with pytest.raises(ValidationError, match="margin"):
            classify(to_density(ghz()), CFG, margin=margin)


class TestClassify:
    def test_ghz_excludes_all_four(self):
        report = classify(to_density(ghz()), CFG)
        assert report.excluded == CLASS_LABELS
        assert report.genuine_indicated
        for value in report.m:
            assert value == pytest.approx(SQ2, abs=1e-6)

    def test_pair_state_excludes_three(self):
        report = classify(to_density(phi_plus_otimes_zero()), CFG)
        assert report.m[2] == pytest.approx(SQ2, abs=1e-6)
        assert report.m[0] <= 1.0 + 1e-6
        assert report.m[1] <= 1.0 + 1e-6
        assert report.excluded == ("fully-separable", "1-23", "2-13")
        assert not report.genuine_indicated

    def test_product_state_excludes_nothing(self):
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        report = classify(to_density(PureState(amp)), CFG)
        assert report.excluded == ()
        assert not report.genuine_indicated

    def test_report_wording_never_claims_separability(self):
        report = classify(random_in_class(None, 2, 3), CFG)
        assert "not certified separable" in report.note


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
