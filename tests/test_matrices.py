"""Unit tests for correlation matrices (Eq. 5)."""

import numpy as np
import pytest

from repro.core.kcd import kcd_matrix
from repro.core.matrices import CorrelationMatrix, build_correlation_matrices
from tests.oracles import peer_scores


@pytest.fixture
def dense():
    matrix = np.eye(4)
    values = iter([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
    for i in range(4):
        for j in range(i + 1, 4):
            matrix[i, j] = matrix[j, i] = next(values)
    return matrix


class TestCorrelationMatrix:
    def test_roundtrip_dense(self, dense):
        cm = CorrelationMatrix.from_dense("cpu", dense)
        assert np.allclose(cm.to_dense(), dense)

    def test_triangle_size(self, dense):
        cm = CorrelationMatrix.from_dense("cpu", dense)
        assert cm.triangle.shape == (6,)

    def test_score_lookup_both_orders(self, dense):
        cm = CorrelationMatrix.from_dense("cpu", dense)
        assert cm.score(0, 1) == pytest.approx(dense[0, 1])
        assert cm.score(1, 0) == pytest.approx(dense[0, 1])
        assert cm.score(2, 3) == pytest.approx(dense[2, 3])

    def test_diagonal_is_one(self, dense):
        cm = CorrelationMatrix.from_dense("cpu", dense)
        assert cm.score(2, 2) == 1.0

    def test_scores_for_returns_all_peers(self, dense):
        cm = CorrelationMatrix.from_dense("cpu", dense)
        scores = peer_scores(cm, 1)
        assert scores.shape == (3,)
        assert scores[0] == pytest.approx(dense[1, 0])

    def test_scores_for_respects_active_mask(self, dense):
        cm = CorrelationMatrix.from_dense("cpu", dense)
        scores = peer_scores(cm, 0, active=np.array([True, False, True, True]))
        assert scores.shape == (2,)
        assert scores[0] == pytest.approx(dense[0, 2])

    def test_out_of_range_rejected(self, dense):
        cm = CorrelationMatrix.from_dense("cpu", dense)
        with pytest.raises(IndexError):
            cm.score(0, 4)
        with pytest.raises(IndexError):
            peer_scores(cm, 7)

    def test_wrong_triangle_length_rejected(self):
        with pytest.raises(ValueError):
            CorrelationMatrix(kpi="x", n_databases=4, triangle=np.zeros(5))

    def test_single_database_rejected(self):
        with pytest.raises(ValueError):
            CorrelationMatrix(kpi="x", n_databases=1, triangle=np.zeros(0))

    def test_from_window(self, correlated_window):
        cm = CorrelationMatrix.from_dense(
            "cpu", kcd_matrix(correlated_window[:, 0, :])
        )
        assert cm.n_databases == 4
        assert cm.score(0, 1) > 0.9

    def test_equality_is_elementwise_and_nan_tolerant(self):
        # Detection results carry matrices, so == must work (the default
        # dataclass eq would truth-test an array comparison) and treat
        # bit-identical NaN cells as equal.
        tri = np.array([0.9, np.nan, 0.8])
        a = CorrelationMatrix(kpi="cpu", n_databases=3, triangle=tri)
        b = CorrelationMatrix(kpi="cpu", n_databases=3, triangle=tri.copy())
        assert a == b
        assert a != CorrelationMatrix(
            kpi="cpu", n_databases=3, triangle=np.array([0.9, np.nan, 0.7])
        )
        assert a != CorrelationMatrix(kpi="rps", n_databases=3, triangle=tri)
        assert a.__eq__(object()) is NotImplemented


class TestBuildMatrices:
    def test_one_matrix_per_kpi(self, correlated_window):
        matrices = build_correlation_matrices(correlated_window, ["cpu", "rps"])
        assert [m.kpi for m in matrices] == ["cpu", "rps"]

    def test_kpi_count_mismatch_rejected(self, correlated_window):
        with pytest.raises(ValueError):
            build_correlation_matrices(correlated_window, ["cpu"])

    def test_rejects_2d_window(self):
        with pytest.raises(ValueError):
            build_correlation_matrices(np.zeros((4, 10)), ["cpu"])

    def test_deviation_shows_in_right_kpi(self, deviating_window):
        matrices = build_correlation_matrices(
            deviating_window, ["cpu", "rps"], max_delay=5
        )
        cpu_scores = peer_scores(matrices[0], 2)
        assert cpu_scores.max() < 0.8
