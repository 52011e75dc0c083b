"""Unit tests for Algorithm 1 (correlation levels)."""

import numpy as np
import pytest

from repro.core.config import DBCatcherConfig
from repro.core.levels import (
    LEVEL_CORRELATED,
    LEVEL_EXTREME_DEVIATION,
    LEVEL_SLIGHT_DEVIATION,
    CorrelationLevels,
    calculate_levels,
    score_to_level,
)
from repro.core.matrices import build_correlation_matrices
from tests.oracles import aggregate_peer_scores


class TestScoreToLevel:
    def test_above_alpha_is_level3(self):
        assert score_to_level(0.85, alpha=0.7, theta=0.2) == LEVEL_CORRELATED

    def test_exactly_alpha_is_level3(self):
        assert score_to_level(0.7, alpha=0.7, theta=0.2) == LEVEL_CORRELATED

    def test_tolerance_band_is_level2(self):
        assert score_to_level(0.6, alpha=0.7, theta=0.2) == LEVEL_SLIGHT_DEVIATION

    def test_band_lower_edge_is_level2(self):
        assert score_to_level(0.5, alpha=0.7, theta=0.2) == LEVEL_SLIGHT_DEVIATION

    def test_below_band_is_level1(self):
        assert score_to_level(0.49, alpha=0.7, theta=0.2) == LEVEL_EXTREME_DEVIATION

    def test_negative_score_is_level1(self):
        assert score_to_level(-0.9, alpha=0.7, theta=0.2) == LEVEL_EXTREME_DEVIATION


class TestAggregation:
    def test_max(self):
        assert aggregate_peer_scores(np.array([0.2, 0.9, 0.5]), "max") == 0.9

    def test_median(self):
        assert aggregate_peer_scores(np.array([0.2, 0.9, 0.5]), "median") == 0.5

    def test_mean(self):
        assert aggregate_peer_scores(np.array([0.0, 1.0]), "mean") == 0.5

    def test_empty_scores_one(self):
        assert aggregate_peer_scores(np.array([]), "max") == 1.0

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            aggregate_peer_scores(np.array([0.5]), "mode")


def _config(**overrides):
    defaults = dict(kpi_names=("cpu", "rps"), initial_window=8, max_window=24)
    defaults.update(overrides)
    return DBCatcherConfig(**defaults)


class TestCalculateLevels:
    def test_correlated_unit_all_level3(self, correlated_window):
        config = _config()
        matrices = build_correlation_matrices(
            correlated_window, config.kpi_names, max_delay=5
        )
        levels = calculate_levels(matrices, config)
        assert np.all(levels.levels == LEVEL_CORRELATED)

    def test_deviating_database_flagged(self, deviating_window):
        config = _config()
        matrices = build_correlation_matrices(
            deviating_window, config.kpi_names, max_delay=5
        )
        levels = calculate_levels(matrices, config)
        assert levels.levels[2].min() < LEVEL_CORRELATED
        for db in (0, 1, 3):
            assert np.all(levels.levels[db] == LEVEL_CORRELATED)

    def test_inactive_database_gets_level3(self, deviating_window):
        config = _config()
        matrices = build_correlation_matrices(
            deviating_window, config.kpi_names, max_delay=5,
            active=np.array([True, True, False, True]),
        )
        levels = calculate_levels(
            matrices, config, active=np.array([True, True, False, True])
        )
        assert np.all(levels.levels[2] == LEVEL_CORRELATED)

    def test_rr_only_kpi_skips_primary(self, deviating_window):
        # Make database 0 the primary and declare "cpu" R-R-only: then even
        # though db0 might decorrelate there, it is never judged on it.
        window = deviating_window.copy()
        window[0, 0, :] = np.cumsum(np.ones(40))  # primary off on cpu
        config = _config(primary_index=0, rr_only_kpis=("cpu",))
        matrices = build_correlation_matrices(window, config.kpi_names, max_delay=5)
        levels = calculate_levels(matrices, config)
        assert levels.levels[0, 0] == LEVEL_CORRELATED

    def test_matrix_count_mismatch_rejected(self, correlated_window):
        config = _config()
        matrices = build_correlation_matrices(
            correlated_window, config.kpi_names, max_delay=5
        )
        with pytest.raises(ValueError):
            calculate_levels(matrices[:1], config)

    def test_for_database_mapping(self, correlated_window):
        config = _config()
        matrices = build_correlation_matrices(
            correlated_window, config.kpi_names, max_delay=5
        )
        levels = calculate_levels(matrices, config)
        mapping = levels.for_database(0)
        assert set(mapping) == {"cpu", "rps"}
        assert mapping["cpu"] == LEVEL_CORRELATED

    def test_count(self):
        levels = CorrelationLevels(
            kpi_names=("a", "b", "c"),
            levels=np.array([[1, 2, 3], [3, 3, 3]]),
            scores=np.zeros((2, 3)),
        )
        assert levels.count(0, 1) == 1
        assert levels.count(0, 2) == 1
        assert levels.count(1, 3) == 3

    def test_invalid_level_values_rejected(self):
        with pytest.raises(ValueError):
            CorrelationLevels(
                kpi_names=("a",),
                levels=np.array([[0]]),
                scores=np.zeros((1, 1)),
            )
