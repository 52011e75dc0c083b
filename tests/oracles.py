"""Slow per-element oracles for the vectorized round-array passes.

The detector computes Algorithm 1's levels and RCA's threshold deficits
as single passes over a ``(n_kpis, n_pairs)`` round array.  The loops
below are the straightforward per-database / per-KPI formulations those
passes replaced; differential tests (and the engine benchmark's in-run
floor) hold the vectorized code to them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.config import DBCatcherConfig
from repro.core.detector import UnitDetectionResult
from repro.core.levels import (
    LEVEL_CORRELATED,
    CorrelationLevels,
    score_to_level,
)
from repro.core.matrices import CorrelationMatrix
from repro.rca.attribution import Attribution


def aggregate_peer_scores(scores: np.ndarray, how: str) -> float:
    """Collapse a database's per-peer KCD list into a single score.

    An empty score list (single active database) aggregates to ``1.0`` —
    with no peers there is no correlation evidence against the database.
    """
    values = np.asarray(scores, dtype=np.float64)
    if values.size == 0:
        return 1.0
    if how == "max":
        return float(values.max())
    if how == "median":
        return float(np.median(values))
    if how == "mean":
        return float(values.mean())
    raise ValueError(f"unknown aggregation {how!r}")


def peer_scores(
    matrix: CorrelationMatrix, database: int, active: np.ndarray | None = None
) -> np.ndarray:
    """All KCDs of one database against its active peers (the ``Search`` step).

    Scores come in peer-index order; inactive peers are left out.
    """
    n = matrix.n_databases
    if not 0 <= database < n:
        raise IndexError(f"database index out of range for N={n}")
    peers = [p for p in range(n) if p != database]
    if active is not None:
        mask = np.asarray(active, dtype=bool)
        if mask.shape != (n,):
            raise ValueError("active mask must have one entry per database")
        peers = [p for p in peers if mask[p]]
    return np.array([matrix.score(database, p) for p in peers], dtype=np.float64)


def levels_loop(
    matrices: Sequence[CorrelationMatrix],
    config: DBCatcherConfig,
    active: np.ndarray | None = None,
) -> CorrelationLevels:
    """Algorithm 1 one database and one KPI at a time."""
    n_dbs = matrices[0].n_databases
    if active is None:
        active_mask = np.ones(n_dbs, dtype=bool)
    else:
        active_mask = np.asarray(active, dtype=bool)
    rr_only = set(config.rr_only_kpis)
    primary = config.primary_index
    levels = np.full((n_dbs, config.n_kpis), LEVEL_CORRELATED, dtype=np.int64)
    scores = np.ones((n_dbs, config.n_kpis), dtype=np.float64)
    for kpi_index, matrix in enumerate(matrices):
        alpha = config.alphas[kpi_index]
        kpi_mask = active_mask
        if config.kpi_names[kpi_index] in rr_only and primary is not None:
            kpi_mask = active_mask.copy()
            if primary < n_dbs:
                kpi_mask[primary] = False
        for db in range(n_dbs):
            if not kpi_mask[db]:
                continue
            peers = peer_scores(matrix, db, active=kpi_mask)
            aggregated = aggregate_peer_scores(peers, config.peer_aggregation)
            scores[db, kpi_index] = aggregated
            levels[db, kpi_index] = score_to_level(aggregated, alpha, config.theta)
    return CorrelationLevels(
        kpi_names=config.kpi_names, levels=levels, scores=scores
    )


def attribute_loop(
    unit: str,
    result: UnitDetectionResult,
    config: DBCatcherConfig,
) -> Optional[Attribution]:
    """RCA attribution one KPI at a time, accumulating with ``np.add.at``."""
    matrices = result.matrices
    if matrices is None:
        return None
    n_dbs = matrices[0].n_databases
    if result.active is not None:
        active = np.asarray(result.active, dtype=bool)
    else:
        active = np.ones(n_dbs, dtype=bool)
    rows, cols = np.triu_indices(n_dbs, k=1)
    rr_only = set(config.rr_only_kpis)
    primary = config.primary_index

    db_totals = np.zeros(n_dbs, dtype=np.float64)
    pair_totals = np.zeros(rows.size, dtype=np.float64)
    kpi_totals: Dict[str, float] = {}
    cells_evaluated = 0
    total_deficit = 0.0
    for kpi_index, matrix in enumerate(matrices):
        alpha = float(config.alphas[kpi_index])
        kpi_mask = active
        if matrix.kpi in rr_only and primary is not None and primary < n_dbs:
            kpi_mask = active.copy()
            kpi_mask[primary] = False
        triangle = np.asarray(matrix.triangle, dtype=np.float64)
        usable = kpi_mask[rows] & kpi_mask[cols] & np.isfinite(triangle)
        deficits = np.where(usable, np.clip(alpha - triangle, 0.0, None), 0.0)
        kpi_totals[matrix.kpi] = float(deficits.sum())
        pair_totals += deficits
        np.add.at(db_totals, rows, deficits)
        np.add.at(db_totals, cols, deficits)
        cells_evaluated += int(usable.sum())
        total_deficit += float(deficits.sum())

    strength = total_deficit / cells_evaluated if cells_evaluated else 0.0
    db_norm = db_totals.sum()
    database_scores = tuple(
        (int(db), float(db_totals[db] / db_norm) if db_norm > 0 else 0.0)
        for db in sorted(
            (db for db in range(n_dbs) if active[db]),
            key=lambda db: (-db_totals[db], db),
        )
    )
    kpi_norm = sum(kpi_totals.values())
    kpi_order = {kpi: index for index, kpi in enumerate(config.kpi_names)}
    kpi_scores = tuple(
        (kpi, float(kpi_totals[kpi] / kpi_norm) if kpi_norm > 0 else 0.0)
        for kpi in sorted(
            kpi_totals, key=lambda kpi: (-kpi_totals[kpi], kpi_order[kpi])
        )
    )
    pair_scores = tuple(
        (int(rows[p]), int(cols[p]), float(pair_totals[p]))
        for p in sorted(
            np.nonzero(pair_totals > 0)[0],
            key=lambda p: (-pair_totals[p], rows[p], cols[p]),
        )
    )
    return Attribution(
        unit=unit,
        start=result.start,
        end=result.end,
        database_scores=database_scores,
        kpi_scores=kpi_scores,
        pair_scores=pair_scores,
        strength=strength,
        abnormal_databases=result.abnormal_databases,
    )
