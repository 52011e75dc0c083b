"""Attribution math: deficits, masking, ranking and round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DBCatcherConfig
from repro.core.detector import DBCatcher, UnitDetectionResult
from repro.core.matrices import CorrelationMatrix
from repro.core.records import DatabaseState, JudgementRecord
from repro.rca.attribution import Attribution, Attributor, attribute_result
from tests.oracles import attribute_loop


def _config(**overrides):
    defaults = dict(
        kpi_names=("cpu", "rps"),
        alphas=(0.6, 0.6),
        initial_window=10,
        max_window=20,
    )
    defaults.update(overrides)
    return DBCatcherConfig(**defaults)


def _result(matrices, active=None, abnormal=(1,), start=0, end=20):
    n = matrices[0].n_databases
    records = {
        db: JudgementRecord(
            database=db,
            window_start=start,
            window_end=end,
            state=(
                DatabaseState.ABNORMAL
                if db in abnormal
                else DatabaseState.HEALTHY
            ),
            kpi_levels={},
        )
        for db in range(n)
    }
    return UnitDetectionResult(
        start=start,
        end=end,
        records=records,
        matrices=tuple(matrices),
        active=tuple(active) if active is not None else (True,) * n,
    )


def _dense(n, value):
    dense = np.full((n, n), float(value))
    np.fill_diagonal(dense, 1.0)
    return dense


class TestAttributeResult:
    def test_culprit_database_dominates_the_ranking(self):
        # Database 1 decorrelates from everyone; the others stay tight.
        dense = _dense(4, 0.9)
        dense[1, :] = dense[:, 1] = 0.1
        dense[1, 1] = 1.0
        matrices = [
            CorrelationMatrix.from_dense("cpu", dense),
            CorrelationMatrix.from_dense("rps", dense),
        ]
        attribution = attribute_result("u", _result(matrices), _config())
        assert attribution.top_database == 1
        scores = dict(attribution.database_scores)
        assert scores[1] > 2 * max(scores[db] for db in (0, 2, 3))

    def test_healthy_matrix_has_zero_strength_and_flat_shares(self):
        matrices = [
            CorrelationMatrix.from_dense("cpu", _dense(3, 0.95)),
            CorrelationMatrix.from_dense("rps", _dense(3, 0.95)),
        ]
        attribution = attribute_result(
            "u", _result(matrices, abnormal=()), _config()
        )
        assert attribution.strength == 0.0
        assert all(score == 0.0 for _, score in attribution.database_scores)
        assert attribution.pair_scores == ()

    def test_kpi_shares_single_out_the_deficient_dimension(self):
        bad = _dense(3, 0.2)
        good = _dense(3, 0.95)
        matrices = [
            CorrelationMatrix.from_dense("cpu", bad),
            CorrelationMatrix.from_dense("rps", good),
        ]
        attribution = attribute_result("u", _result(matrices), _config())
        assert attribution.top_kpi == "cpu"
        assert dict(attribution.kpi_scores)["cpu"] == pytest.approx(1.0)

    def test_shares_normalize_to_one(self):
        dense = _dense(4, 0.3)
        matrices = [
            CorrelationMatrix.from_dense("cpu", dense),
            CorrelationMatrix.from_dense("rps", dense),
        ]
        attribution = attribute_result("u", _result(matrices), _config())
        assert sum(s for _, s in attribution.database_scores) == pytest.approx(1.0)
        assert sum(s for _, s in attribution.kpi_scores) == pytest.approx(1.0)

    def test_strength_is_mean_deficit_per_evaluated_cell(self):
        # All six pairs of one KPI at 0.1 against alpha 0.6, the other KPI
        # perfectly healthy: total deficit 6*0.5 over 12 cells.
        matrices = [
            CorrelationMatrix.from_dense("cpu", _dense(4, 0.1)),
            CorrelationMatrix.from_dense("rps", _dense(4, 0.9)),
        ]
        attribution = attribute_result("u", _result(matrices), _config())
        assert attribution.strength == pytest.approx(6 * 0.5 / 12)

    def test_inactive_databases_are_excluded_entirely(self):
        dense = _dense(4, 0.9)
        dense[2, :] = dense[:, 2] = 0.0  # would dominate if counted
        dense[2, 2] = 1.0
        matrices = [
            CorrelationMatrix.from_dense("cpu", dense),
            CorrelationMatrix.from_dense("rps", dense),
        ]
        attribution = attribute_result(
            "u",
            _result(matrices, active=(True, True, False, True)),
            _config(),
        )
        assert all(db != 2 for db, _ in attribution.database_scores)
        assert attribution.strength == pytest.approx(0.0)

    def test_rr_only_kpis_mask_the_primary(self):
        # The primary (db 0) legitimately decorrelates on an R-R KPI;
        # that must not read as evidence of fault.
        dense = _dense(3, 0.9)
        dense[0, :] = dense[:, 0] = 0.0
        dense[0, 0] = 1.0
        matrices = [
            CorrelationMatrix.from_dense("cpu", dense),
            CorrelationMatrix.from_dense("rps", _dense(3, 0.9)),
        ]
        masked = attribute_result(
            "u",
            _result(matrices),
            _config(rr_only_kpis=("cpu",), primary_index=0),
        )
        unmasked = attribute_result("u", _result(matrices), _config())
        assert masked.strength == pytest.approx(0.0)
        assert unmasked.top_database == 0

    def test_non_finite_scores_are_skipped_not_counted(self):
        dense = _dense(3, 0.9)
        dense[0, 1] = dense[1, 0] = np.nan
        matrices = [
            CorrelationMatrix.from_dense("cpu", dense),
            CorrelationMatrix.from_dense("rps", _dense(3, 0.9)),
        ]
        attribution = attribute_result("u", _result(matrices), _config())
        assert math.isfinite(attribution.strength)
        assert attribution.strength == pytest.approx(0.0)

    def test_rounds_without_matrices_attribute_to_none(self):
        result = UnitDetectionResult(start=0, end=20, records={})
        assert attribute_result("u", result, _config()) is None

    def test_round_trip_through_dict(self):
        dense = _dense(3, 0.2)
        matrices = [
            CorrelationMatrix.from_dense("cpu", dense),
            CorrelationMatrix.from_dense("rps", dense),
        ]
        attribution = attribute_result("u", _result(matrices), _config())
        rebuilt = Attribution.from_dict(attribution.to_dict())
        assert rebuilt == attribution


class TestAttributor:
    def test_per_unit_configs_resolve(self):
        dense = _dense(3, 0.2)
        matrices = [
            CorrelationMatrix.from_dense("cpu", dense),
            CorrelationMatrix.from_dense("rps", dense),
        ]
        strict = _config(alphas=(0.9, 0.9))
        lax = _config(alphas=(0.1, 0.1))
        attributor = Attributor({"a": strict, "b": lax})
        strong = attributor.attribute("a", _result(matrices))
        weak = attributor.attribute("b", _result(matrices))
        assert strong.strength > weak.strength
        assert weak.strength == pytest.approx(0.0)

    def test_attribute_all_skips_normal_rounds(self):
        dense = _dense(3, 0.2)
        matrices = [
            CorrelationMatrix.from_dense("cpu", dense),
            CorrelationMatrix.from_dense("rps", dense),
        ]
        attributor = Attributor(_config())
        results = [
            _result(matrices, abnormal=()),
            _result(matrices, abnormal=(1,), start=20, end=40),
        ]
        attributions = attributor.attribute_all("u", results)
        assert len(attributions) == 1
        assert attributions[0].start == 20


class TestDetectorCarriesMatrices:
    def test_completed_rounds_expose_final_window_evidence(self):
        config = _config(initial_window=10, max_window=20)
        catcher = DBCatcher(config, n_databases=3)
        trend = np.sin(np.linspace(0, 6, 40)) + 2.0
        block = np.stack(
            [
                np.stack([trend * (1 + 0.01 * d)] * 2)
                for d in range(3)
            ]
        )
        results = catcher.process(block, time_axis=-1)
        assert results
        for result in results:
            assert result.matrices is not None
            assert len(result.matrices) == 2
            assert result.matrices[0].kpi == "cpu"
            assert result.active == (True, True, True)


def _assert_same_attribution(fast, slow):
    """Identical rankings; scores equal within 1e-12."""
    assert fast.ranked_databases() == slow.ranked_databases()
    assert [kpi for kpi, _ in fast.kpi_scores] == [kpi for kpi, _ in slow.kpi_scores]
    assert [(i, j) for i, j, _ in fast.pair_scores] == [
        (i, j) for i, j, _ in slow.pair_scores
    ]
    for ranked_fast, ranked_slow in (
        (fast.database_scores, slow.database_scores),
        (fast.kpi_scores, slow.kpi_scores),
        (fast.pair_scores, slow.pair_scores),
    ):
        np.testing.assert_allclose(
            [entry[-1] for entry in ranked_fast],
            [entry[-1] for entry in ranked_slow],
            rtol=0.0,
            atol=1e-12,
        )
    assert fast.strength == pytest.approx(slow.strength, rel=0.0, abs=1e-12)


@st.composite
def _attribution_cases(draw):
    """A round with distinct random scores (NaN allowed) and a config.

    Scores and thresholds are distinct so no two totals tie exactly: the
    one-pass and per-KPI sums add in different orders, and a tie could
    then rank either way.
    """
    n_dbs = draw(st.integers(min_value=2, max_value=9))
    n_kpis = draw(st.integers(min_value=1, max_value=5))
    kpi_names = tuple(f"k{index}" for index in range(n_kpis))
    n_cells = n_kpis * n_dbs * (n_dbs - 1) // 2
    values = draw(
        st.lists(
            st.floats(-1.0, 1.0), min_size=n_cells, max_size=n_cells, unique=True
        )
    )
    table = np.array(values).reshape(n_kpis, -1)
    nan_cells = draw(st.lists(st.booleans(), min_size=n_cells, max_size=n_cells))
    if draw(st.booleans()):
        table[np.array(nan_cells).reshape(table.shape)] = np.nan
    primary = draw(st.one_of(st.none(), st.integers(0, n_dbs)))
    rr_only = ()
    if primary is not None:
        rr_only = tuple(draw(st.lists(st.sampled_from(kpi_names), unique=True)))
    config = _config(
        kpi_names=kpi_names,
        alphas=tuple(
            draw(
                st.lists(
                    st.floats(-1.0, 1.0), min_size=n_kpis, max_size=n_kpis,
                    unique=True,
                )
            )
        ),
        primary_index=primary,
        rr_only_kpis=rr_only,
    )
    active = draw(st.lists(st.booleans(), min_size=n_dbs, max_size=n_dbs))
    matrices = [
        CorrelationMatrix(kpi=kpi, n_databases=n_dbs, triangle=row)
        for kpi, row in zip(kpi_names, table)
    ]
    return _result(matrices, active=active), config


class TestRoundArrayAttribution:
    """The one-pass attribution against the per-KPI ``np.add.at`` loop."""

    @settings(max_examples=200, deadline=None)
    @given(_attribution_cases())
    def test_matches_per_kpi_loop(self, case):
        result, config = case
        _assert_same_attribution(
            attribute_result("u", result, config),
            attribute_loop("u", result, config),
        )

    def test_matches_per_kpi_loop_on_detected_rounds(self):
        from repro.datasets import build_unit_series
        from repro.presets import default_config

        config = default_config()
        unit = build_unit_series(
            profile="tencent", n_databases=5, n_ticks=600, seed=31,
            abnormal_ratio=0.1,
        )
        detector = DBCatcher(config, n_databases=unit.n_databases)
        results = detector.process(unit.values, time_axis=-1)
        abnormal = [r for r in results if r.abnormal_databases]
        assert abnormal, "the unit must produce abnormal rounds"
        for result in abnormal:
            _assert_same_attribution(
                attribute_result("u", result, config),
                attribute_loop("u", result, config),
            )
