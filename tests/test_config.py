"""Tests for repro.config."""

import pytest

from repro.config import (
    PipelineConfig,
    QueryConfig,
    RegionConfig,
    SBDConfig,
    SceneTreeConfig,
)
from repro.errors import DimensionError, QueryError


class TestRegionConfig:
    def test_defaults_match_paper(self):
        config = RegionConfig()
        assert config.width_fraction == 0.1
        assert config.snap_to_size_set is True

    def test_estimated_strip_width_is_tenth_of_frame(self):
        assert RegionConfig().estimated_strip_width(160) == 16

    def test_estimated_strip_width_floors(self):
        assert RegionConfig().estimated_strip_width(155) == 15

    def test_estimated_strip_width_at_least_one(self):
        assert RegionConfig().estimated_strip_width(5) == 1

    @pytest.mark.parametrize("fraction", [0.0, 0.5, -0.1, 1.0])
    def test_rejects_bad_fraction(self, fraction):
        with pytest.raises(DimensionError):
            RegionConfig(width_fraction=fraction)


class TestSBDConfig:
    def test_defaults(self):
        config = SBDConfig()
        assert config.sign_tolerance == 0.10
        assert config.min_shot_frames == 3

    def test_threshold_conversion_to_channel_units(self):
        config = SBDConfig(sign_tolerance=0.10)
        assert config.sign_threshold_255 == pytest.approx(25.6)
        assert config.pixel_match_threshold_255 == pytest.approx(25.6)

    @pytest.mark.parametrize(
        "field", ["sign_tolerance", "signature_tolerance",
                  "pixel_match_tolerance", "min_match_run_fraction"]
    )
    def test_rejects_out_of_range_tolerances(self, field):
        with pytest.raises(QueryError):
            SBDConfig(**{field: 0.0})
        with pytest.raises(QueryError):
            SBDConfig(**{field: 1.5})

    def test_rejects_zero_min_shot_frames(self):
        with pytest.raises(QueryError):
            SBDConfig(min_shot_frames=0)


class TestSceneTreeConfig:
    def test_defaults_match_paper(self):
        config = SceneTreeConfig()
        assert config.relationship_tolerance == 0.10
        assert config.compare_with_previous_fallback is True
        assert config.max_frames_compared is None

    def test_rejects_bad_tolerance(self):
        with pytest.raises(QueryError):
            SceneTreeConfig(relationship_tolerance=0.0)

    def test_rejects_bad_cap(self):
        with pytest.raises(QueryError):
            SceneTreeConfig(max_frames_compared=0)


class TestQueryConfig:
    def test_paper_defaults_alpha_beta_one(self):
        config = QueryConfig()
        assert config.alpha == 1.0
        assert config.beta == 1.0

    def test_rejects_negative(self):
        with pytest.raises(QueryError):
            QueryConfig(alpha=-0.5)

    def test_rejects_nan(self):
        with pytest.raises(QueryError):
            QueryConfig(alpha=float("nan"))
        with pytest.raises(QueryError):
            QueryConfig(beta=float("nan"))


class TestPipelineConfig:
    def test_bundles_defaults(self):
        config = PipelineConfig()
        assert config.query.alpha == 1.0
        assert config.sbd.min_shot_frames == 3

    def test_with_overrides_replaces_section(self):
        config = PipelineConfig().with_overrides(query=QueryConfig(alpha=2.0))
        assert config.query.alpha == 2.0
        assert config.sbd.min_shot_frames == 3  # untouched

    def test_configs_are_frozen(self):
        with pytest.raises(AttributeError):
            PipelineConfig().query.alpha = 3.0  # type: ignore[misc]
