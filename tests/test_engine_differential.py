"""Differential oracle: the batched engine versus ``kcd_matrix``.

The batched engine stacks every (database, KPI) row into one FFT pass and
reuses cached prefix sums across window expansions; ``kcd_matrix`` is the
audited per-KPI path.  These tests drive both over hypothesis-generated
windows — fleet sizes 2..8, every window size and ``max_delay`` regime,
flat KPI columns, NaN-degraded inactive databases — and demand
elementwise agreement within 1e-9, including along the cache's
expand-in-place and invalidation paths the one-shot comparison never
exercises.

Values come from the same coarse-grid-then-scale construction as
``test_kcd_differential``: on a grid, non-constant segments keep their
variance far above the flatness threshold, so the two implementations can
never disagree on a borderline flat classification, and powers-of-ten
scaling exercises magnitude extremes without manufacturing inputs the
min-max-normalizing entry point could never see.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kcd import kcd_matrix
from repro.core.matrices import triangle_indices
from repro.engine import BatchedEngine, ReferenceEngine, make_engine

TOLERANCE = 1e-9

SCALES = (1.0, -1.0, 1e-6, 1e6, -1e6)


def _reference_matrices(window, max_delay, active):
    """Dense per-KPI oracle matrices straight from ``kcd_matrix``."""
    return [
        kcd_matrix(window[:, k, :], max_delay=max_delay, active=active)
        for k in range(window.shape[1])
    ]


def _assert_engine_matches(engine, window, kpi_names, max_delay, active,
                           window_start=None):
    scores = engine.matrices(
        window, kpi_names, max_delay=max_delay, active=active,
        window_start=window_start,
    )
    expected = _reference_matrices(window, max_delay, active)
    rows, cols = triangle_indices(window.shape[0])
    assert scores.shape == (len(kpi_names), rows.size)
    for k in range(len(kpi_names)):
        np.testing.assert_allclose(
            scores[k], expected[k][rows, cols], rtol=0.0, atol=TOLERANCE,
            err_msg=f"kpi {k} max_delay={max_delay}",
        )


@st.composite
def windows(draw):
    """One unit window plus a legal delay bound and an active mask.

    Rows mix free grid series, exactly flat rows, and flat-tail rows (the
    cache-extension hazard: a row whose extremes stop moving).  An
    optional inactive database is degraded to NaN, as the detector's
    finite-data guard produces.
    """
    n_dbs = draw(st.integers(min_value=2, max_value=8))
    n_kpis = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=2, max_value=48))
    rows = []
    for _ in range(n_dbs * n_kpis):
        kind = draw(st.sampled_from(["free", "free", "constant", "tail"]))
        values = np.array(
            draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n)),
            dtype=np.float64,
        )
        if kind == "constant":
            values[:] = values[0]
        elif kind == "tail":
            cut = draw(st.integers(min_value=0, max_value=n - 1))
            values[cut:] = values[cut]
        rows.append(values * draw(st.sampled_from(SCALES)))
    window = np.stack(rows).reshape(n_dbs, n_kpis, n)
    m = draw(st.integers(min_value=0, max_value=n - 1))
    active = np.ones(n_dbs, dtype=bool)
    if n_dbs > 2 and draw(st.booleans()):
        victim = draw(st.integers(min_value=0, max_value=n_dbs - 1))
        active[victim] = False
        if draw(st.booleans()):
            window[victim] = np.nan  # inactive rows may carry garbage
    return window, m, active


@settings(max_examples=200, deadline=None)
@given(windows())
def test_batched_matches_kcd_matrix_elementwise(case):
    window, m, active = case
    kpi_names = [f"k{i}" for i in range(window.shape[1])]
    _assert_engine_matches(
        BatchedEngine(), window, kpi_names, m, active, window_start=0
    )


@settings(max_examples=50, deadline=None)
@given(windows())
def test_reference_engine_matches_kcd_matrix(case):
    window, m, active = case
    kpi_names = [f"k{i}" for i in range(window.shape[1])]
    _assert_engine_matches(ReferenceEngine(), window, kpi_names, m, active)


@settings(max_examples=75, deadline=None)
@given(windows(), st.data())
def test_cache_extension_path_matches(case, data):
    """Expand-in-place: every growth step agrees with a fresh oracle."""
    window, _, active = case
    n = window.shape[2]
    engine = BatchedEngine()
    kpi_names = [f"k{i}" for i in range(window.shape[1])]
    sizes = sorted({data.draw(st.integers(min_value=2, max_value=n), label="size")
                    for _ in range(3)} | {n})
    for size in sizes:
        sub = window[:, :, :size]
        _assert_engine_matches(
            engine, sub, kpi_names, size // 2, active, window_start=17
        )
    stats = engine.cache_stats
    assert stats.hits == len(sizes) - 1
    assert stats.misses == 1


@settings(max_examples=40, deadline=None)
@given(windows())
def test_cache_invalidation_on_slide_and_membership_change(case):
    """A slid window or changed active mask must not reuse stale sums."""
    window, m, active = case
    n_dbs, n_kpis, n = window.shape
    kpi_names = [f"k{i}" for i in range(n_kpis)]
    engine = BatchedEngine()
    _assert_engine_matches(engine, window, kpi_names, m, active, window_start=0)
    # Same start, different data would be a caller bug; a *different*
    # start with different data is the round-boundary slide.
    shifted = np.roll(window, 1, axis=2)
    _assert_engine_matches(engine, shifted, kpi_names, m, active, window_start=5)
    assert engine.cache_stats.invalidations >= 1
    if n_dbs > 2:
        flipped = active.copy()
        flipped[int(np.argmax(flipped))] = False
        if flipped.sum() >= 2:
            _assert_engine_matches(
                engine, shifted, kpi_names, m, flipped, window_start=5
            )
            assert engine.cache_stats.invalidations >= 2


def test_uncached_calls_match_cached_calls():
    """window_start=None bypasses the cache but not the math."""
    rng = np.random.default_rng(7)
    window = rng.normal(size=(5, 14, 60))
    kpi_names = [f"k{i}" for i in range(14)]
    cached = BatchedEngine()
    uncached = BatchedEngine()
    a = cached.matrices(window, kpi_names, window_start=0)
    b = uncached.matrices(window, kpi_names, window_start=None)
    np.testing.assert_array_equal(a, b)


def test_growing_detector_window_sequence_matches_reference():
    """The detector's actual pattern: W, W+step, ... W_M at one start."""
    rng = np.random.default_rng(11)
    base = np.cumsum(rng.normal(size=(4, 3, 90)), axis=2)
    base[1, 2, :] = 3.25  # one flat KPI row
    kpi_names = ["a", "b", "c"]
    engine = make_engine("batched")
    for size in (20, 30, 40, 60, 90):
        sub = base[:, :, :size]
        _assert_engine_matches(
            engine, sub, kpi_names, size // 2, np.ones(4, dtype=bool),
            window_start=42,
        )


def test_engine_validation_matches_kcd_matrix_errors():
    """Both backends reject bad input the way ``kcd_matrix`` does."""
    window = np.zeros((3, 2, 10))
    names = ["a", "b"]
    for engine in (BatchedEngine(), ReferenceEngine()):
        with pytest.raises(ValueError):
            engine.matrices(np.zeros((3, 10)), names)
        with pytest.raises(ValueError):
            engine.matrices(window, ["a"])
        with pytest.raises(ValueError):
            engine.matrices(np.zeros((1, 2, 10)), names)
        with pytest.raises(ValueError):
            engine.matrices(window, names, max_delay=10)
        with pytest.raises(ValueError):
            engine.matrices(window, names, active=np.ones(2, dtype=bool))
