"""Batched KCD engine throughput versus the per-lag reference backend.

The correlation-measurement module dominates DBCatcher's detection time
(~70 % in the paper's §IV-D4 breakdown), so the batched engine earns its
default-backend status here: on the paper's unit shape — 5 databases,
the 14 Table II KPIs — it must clear the reference per-lag loop by at
least 3x per round at window sizes >= 60.  In practice the gap is one to
two orders of magnitude; the 3x gate is the regression floor, not the
expectation.

A second measurement times the flexible-window expansion pattern (same
start, growing end) where the incremental cache reuses normalized rows
and running sums, and reports the cache counters alongside.

A third pins Algorithm 1's levels pass over the engine's round array
against the per-database oracle loop kept in ``tests/oracles.py``, both
timed in the same run.
"""

import time

import numpy as np

from repro.core.levels import calculate_levels
from repro.core.matrices import matrices_from_round
from repro.engine import BatchedEngine, ReferenceEngine
from repro.presets import default_config
from tests.oracles import levels_loop

from _shared import BENCH_TRIALS, record_bench_result, scale_note

N_DATABASES = 5
N_KPIS = 14
WINDOW = 60
ROUNDS = 3
SPEEDUP_FLOOR = 3.0
#: In-run floor for the vectorized levels pass over the per-database
#: oracle loop (measured ~20x on the paper's unit shape).
LEVELS_SPEEDUP_FLOOR = 3.0
LEVELS_REPEATS = 50
KPI_NAMES = [f"kpi_{i:02d}" for i in range(N_KPIS)]


def _unit_series(n_ticks: int, seed: int = 0) -> np.ndarray:
    """Correlated per-database series with mild per-database jitter."""
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(size=(1, N_KPIS, n_ticks)), axis=2)
    jitter = 0.05 * rng.normal(size=(N_DATABASES, N_KPIS, n_ticks))
    return base + jitter


def _time_rounds(engine, windows, trials: int) -> float:
    """Best-of-``trials`` seconds to score every window once."""
    best = float("inf")
    for _ in range(max(1, trials)):
        engine.reset()
        started = time.perf_counter()
        for start, window, max_delay in windows:
            engine.matrices(
                window, KPI_NAMES, max_delay=max_delay, window_start=start
            )
        best = min(best, time.perf_counter() - started)
    return best


def test_engine_batched_speedup():
    series = _unit_series(WINDOW * ROUNDS)
    windows = [
        (start, series[:, :, start:start + WINDOW], WINDOW // 2)
        for start in range(0, WINDOW * ROUNDS, WINDOW)
    ]

    batched = BatchedEngine()
    reference = ReferenceEngine()

    # Numerical parity first: a fast-but-wrong engine must not "win".
    for start, window, max_delay in windows:
        fast = batched.matrices(window, KPI_NAMES, max_delay=max_delay,
                                window_start=start)
        slow = reference.matrices(window, KPI_NAMES, max_delay=max_delay)
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-9)

    batched_seconds = _time_rounds(batched, windows, BENCH_TRIALS)
    reference_seconds = _time_rounds(reference, windows, BENCH_TRIALS)
    speedup = reference_seconds / batched_seconds

    # The detector's expansion pattern: one start, window growing to 2W.
    expanding = [
        (0, series[:, :, :size], size // 2)
        for size in range(WINDOW, 2 * WINDOW + 1, 10)
    ]
    expanding_engine = BatchedEngine()
    expanding_seconds = _time_rounds(expanding_engine, expanding, BENCH_TRIALS)
    stats = expanding_engine.cache_stats.as_dict()

    per_round_ms = 1e3 * batched_seconds / len(windows)
    reference_ms = 1e3 * reference_seconds / len(windows)
    print()
    print(scale_note())
    print(f"unit {N_DATABASES} databases x {N_KPIS} KPIs, window {WINDOW}, "
          f"{len(windows)} rounds")
    print(f"  batched:   {per_round_ms:8.3f} ms/round")
    print(f"  reference: {reference_ms:8.3f} ms/round")
    print(f"  speedup:   {speedup:8.1f}x (floor {SPEEDUP_FLOOR}x)")
    print(f"  expansion sweep ({len(expanding)} growing windows): "
          f"{1e3 * expanding_seconds:.3f} ms, cache {stats}")

    record_bench_result(
        "engine_batched",
        speedup=round(speedup, 2),
        batched_ms_per_round=round(per_round_ms, 4),
        reference_ms_per_round=round(reference_ms, 4),
        window=WINDOW,
        n_databases=N_DATABASES,
        n_kpis=N_KPIS,
        expansion_ms=round(1e3 * expanding_seconds, 4),
        cache_hits=stats["hits"],
        cache_misses=stats["misses"],
        cache_invalidations=stats["invalidations"],
        cache_rows_renormalized=stats["rows_renormalized"],
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"batched engine only {speedup:.2f}x faster than reference "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    # The expansion sweep must actually exercise the cache.
    assert stats["hits"] >= len(expanding) - 1


def _time_levels(levels_fn, rounds, config, trials: int) -> float:
    """Best-of-``trials`` seconds to level every round once."""
    best = float("inf")
    for _ in range(max(1, trials)):
        started = time.perf_counter()
        for scores in rounds:
            levels_fn(scores, config)
        best = min(best, time.perf_counter() - started)
    return best


def test_levels_vectorized_speedup():
    """Algorithm 1 as one masked pass vs the per-database oracle loop.

    Both level the same round arrays, timed in the same run; the
    vectorized pass must agree exactly and clear ``LEVELS_SPEEDUP_FLOOR``.
    """
    config = default_config()
    engine = BatchedEngine()
    series = _unit_series(WINDOW * ROUNDS)
    rounds = [
        engine.matrices(series[:, :, start:start + WINDOW], config.kpi_names,
                        max_delay=WINDOW // 2)
        for start in range(0, WINDOW * ROUNDS, WINDOW)
    ]
    as_matrices = [matrices_from_round(config.kpi_names, r) for r in rounds]
    for scores, matrices in zip(rounds, as_matrices):
        fast = calculate_levels(scores, config)
        slow = levels_loop(matrices, config)
        np.testing.assert_array_equal(fast.levels, slow.levels)
        np.testing.assert_array_equal(fast.scores, slow.scores)

    # Each timed sample levels every round LEVELS_REPEATS times, so one
    # sample is milliseconds long rather than tens of microseconds.
    trials = max(BENCH_TRIALS, 3)
    vectorized = _time_levels(
        calculate_levels, rounds * LEVELS_REPEATS, config, trials
    ) / LEVELS_REPEATS
    loop = _time_levels(
        levels_loop, as_matrices * LEVELS_REPEATS, config, trials
    ) / LEVELS_REPEATS
    speedup = loop / vectorized

    print()
    print(scale_note())
    print(f"levels, {N_DATABASES} databases x {N_KPIS} KPIs, {len(rounds)} rounds")
    print(f"  vectorized: {1e3 * vectorized / len(rounds):8.3f} ms/round")
    print(f"  loop:       {1e3 * loop / len(rounds):8.3f} ms/round")
    print(f"  speedup:    {speedup:8.1f}x (floor {LEVELS_SPEEDUP_FLOOR}x)")

    record_bench_result(
        "levels_vectorized",
        speedup=round(speedup, 2),
        vectorized_ms_per_round=round(1e3 * vectorized / len(rounds), 4),
        loop_ms_per_round=round(1e3 * loop / len(rounds), 4),
        n_databases=N_DATABASES,
        n_kpis=N_KPIS,
    )

    assert speedup >= LEVELS_SPEEDUP_FLOOR, (
        f"vectorized levels only {speedup:.2f}x faster than the loop "
        f"(floor {LEVELS_SPEEDUP_FLOOR}x)"
    )
