"""Batched KCD engine: every pair and every KPI in one vectorized pass.

The correlation-measurement module dominates DBCatcher's per-round cost
(the paper measures it at ~70 % of detection time).  The per-KPI fast
path already batches a KPI's database pairs; this engine goes one level
further and stacks *all* ``n_databases * n_kpis`` normalized window rows
into a single matrix, computes every lagged cross-correlation profile of
the round — all pairs x all KPIs — with one batched FFT, and applies the
shared flat-sentinel rules elementwise.  For a 5-database, 14-KPI unit
that folds 14 per-KPI passes into one, and the incremental
:class:`~repro.engine.cache.WindowCache` additionally reuses normalized
rows and running sums as the flexible window expands in place.

Numerical contract: profiles come from the same
:func:`repro.core.kcd._pair_profiles_from_stats` kernel the per-KPI fast
path uses, so batched output matches :func:`repro.core.kcd.kcd_matrix`
elementwise (the differential suite demands 1e-9; in practice fresh
windows are bit-identical and cache-extended windows differ only by
prefix-sum rounding).  The result is the round array of
:mod:`repro.core.matrices`, filled straight from the kernel.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.kcd import _lagged_raw_dots, _pair_profiles_from_stats
from repro.core.matrices import triangle_indices
from repro.engine.base import validate_window
from repro.engine.cache import CacheStats, WindowCache
from repro.obs import runtime as obs

__all__ = ["BatchedEngine"]


@lru_cache(maxsize=256)
def _stacked_pairs(
    n_dbs: int, n_kpis: int, active_key: bytes
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Live-pair mask plus the stacked-row index of every live cell.

    Row ``d * n_kpis + k`` holds database ``d``'s KPI ``k``; cells run
    KPI-major, so the kernel's output reshapes to ``(n_kpis, n_live)``.
    """
    active = np.frombuffer(active_key, dtype=bool)
    pair_i, pair_j = triangle_indices(n_dbs)
    live = active[pair_i] & active[pair_j]
    kpi_offsets = np.arange(n_kpis)[:, None]
    rows_i = (kpi_offsets + pair_i[live][None, :] * n_kpis).ravel()
    rows_j = (kpi_offsets + pair_j[live][None, :] * n_kpis).ravel()
    for shared in (live, rows_i, rows_j):  # every caller gets these arrays
        shared.setflags(write=False)
    return live, rows_i, rows_j


class BatchedEngine:
    """Vectorized all-pairs, all-KPIs KCD backend with window caching."""

    backend = "batched"

    def __init__(self) -> None:
        self._cache = WindowCache()

    def reset(self) -> None:
        self._cache.invalidate()

    @property
    def cache_stats(self) -> CacheStats:
        """Live cache counters (also mirrored to ``engine.cache.*`` obs)."""
        return self._cache.stats

    def matrices(
        self,
        window: np.ndarray,
        kpi_names: Sequence[str],
        max_delay: Optional[int] = None,
        active: Optional[np.ndarray] = None,
        window_start: Optional[int] = None,
    ) -> np.ndarray:
        data, active_mask, m = validate_window(window, kpi_names, max_delay, active)
        n_dbs, n_kpis, n_points = data.shape
        raw_rows = np.ascontiguousarray(data.reshape(n_dbs * n_kpis, n_points))
        active_key = active_mask.tobytes()

        enabled = obs.is_enabled()
        before = self._cache.stats.as_dict() if enabled else {}
        rows, prefix, prefix_sq = self._cache.rows_and_sums(
            raw_rows, window_start, active_key
        )
        if enabled:
            after = self._cache.stats.as_dict()
            for key, value in after.items():
                delta = value - before[key]
                if delta:
                    obs.counter(f"engine.cache.{key}").increment(delta)
            obs.counter("engine.batched_rounds").increment()

        live, rows_i, rows_j = _stacked_pairs(n_dbs, n_kpis, active_key)
        # Inactive pairs hold 0.0, as an unscored off-diagonal cell does.
        scores = np.zeros((n_kpis, live.size), dtype=np.float64)
        n_live = int(np.count_nonzero(live))
        if n_live:
            with obs.span("engine.batched_profiles"):
                dots = _lagged_raw_dots(rows, rows_i, rows_j, m)
                profiles = _pair_profiles_from_stats(
                    dots, prefix, prefix_sq, rows_i, rows_j, m, n_points
                )
            if enabled:
                obs.counter("engine.pairs_scored").increment(n_live * n_kpis)
            scores[:, live] = profiles.max(axis=1).reshape(n_kpis, n_live)
        return scores
