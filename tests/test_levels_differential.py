"""Differential oracle: vectorized Algorithm 1 versus the per-database loop.

:func:`repro.core.levels.calculate_levels` scores a whole round array in
one masked pass; :func:`tests.oracles.levels_loop` walks one database and
one KPI at a time through the ``Search`` step.  Hypothesis drives both
over every peer aggregation rule, R-R-only KPIs with and without a
primary (including a primary index past the unit), random active masks
down to peerless and fewer-than-two-active units, and NaN scores, and
demands *exact* equality of levels and scores.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DBCatcherConfig
from repro.core.levels import calculate_levels
from repro.core.matrices import matrices_from_round
from tests.oracles import levels_loop

#: Scores drawn from a coarse grid tie often; free floats and NaN cover
#: the rest.
_GRID = st.sampled_from([-1.0, -0.25, 0.0, 0.4, 0.55, 0.7, 0.85, 1.0])
_SCORE = st.one_of(
    _GRID,
    st.floats(min_value=-1.0, max_value=1.0),
    st.just(float("nan")),
)


@st.composite
def rounds(draw):
    """A round array, a config over its KPIs and an optional active mask."""
    n_dbs = draw(st.integers(min_value=2, max_value=12))
    n_kpis = draw(st.integers(min_value=1, max_value=5))
    kpi_names = tuple(f"k{index}" for index in range(n_kpis))
    n_pairs = n_dbs * (n_dbs - 1) // 2
    table = np.array(
        draw(st.lists(_SCORE, min_size=n_kpis * n_pairs, max_size=n_kpis * n_pairs)),
        dtype=np.float64,
    ).reshape(n_kpis, n_pairs)
    primary = draw(st.one_of(st.none(), st.integers(0, n_dbs + 1)))
    rr_only = ()
    if primary is not None:
        rr_only = tuple(draw(st.lists(st.sampled_from(kpi_names), unique=True)))
    config = DBCatcherConfig(
        kpi_names=kpi_names,
        alphas=tuple(
            draw(st.lists(st.floats(-1.0, 1.0), min_size=n_kpis, max_size=n_kpis))
        ),
        theta=draw(st.floats(0.0, 2.0)),
        peer_aggregation=draw(st.sampled_from(["max", "median", "mean"])),
        primary_index=primary,
        rr_only_kpis=rr_only,
    )
    active = draw(
        st.one_of(
            st.none(),
            st.lists(st.booleans(), min_size=n_dbs, max_size=n_dbs).map(
                lambda flags: np.array(flags, dtype=bool)
            ),
        )
    )
    return table, config, active


@settings(max_examples=300, deadline=None)
@given(rounds())
def test_vectorized_levels_match_per_database_loop(case):
    table, config, active = case
    fast = calculate_levels(table, config, active=active)
    slow = levels_loop(
        matrices_from_round(config.kpi_names, table), config, active=active
    )
    np.testing.assert_array_equal(fast.levels, slow.levels)
    np.testing.assert_array_equal(fast.scores, slow.scores)


@pytest.mark.parametrize(
    ("how", "expected"),
    [("max", 0.9), ("median", 0.5), ("mean", (0.9 + 0.5 + 0.1) / 3)],
)
def test_peer_aggregation_rules(how, expected):
    """Database 0's peers score 0.9, 0.5 and 0.1 on the only KPI."""
    n_dbs = 4
    table = np.array([[0.9, 0.5, 0.1, 0.95, 0.95, 0.95]])
    config = DBCatcherConfig(
        kpi_names=("cpu",), alphas=(0.6,), theta=0.2, peer_aggregation=how
    )
    levels = calculate_levels(table, config)
    assert levels.n_databases == n_dbs
    assert levels.scores[0, 0] == pytest.approx(expected, abs=0.0)
    band = 3 if expected >= 0.6 else 2 if expected >= 0.4 else 1
    assert levels.levels[0, 0] == band


def test_lone_active_database_scores_one():
    """A database with no active peer carries no evidence against it."""
    config = DBCatcherConfig(kpi_names=("cpu",), alphas=(0.9,))
    levels = calculate_levels(
        np.array([[-1.0, -1.0, -1.0]]),
        config,
        active=np.array([True, False, False]),
    )
    np.testing.assert_array_equal(levels.scores, np.ones((3, 1)))
    np.testing.assert_array_equal(levels.levels, np.full((3, 1), 3))


def test_round_array_shape_is_validated():
    config = DBCatcherConfig(kpi_names=("cpu",), alphas=(0.9,))
    with pytest.raises(ValueError):
        calculate_levels(np.zeros((1, 4)), config)  # 4 is no pair count
    with pytest.raises(ValueError):
        calculate_levels(np.zeros((2, 3)), config)  # one KPI, two rows
