"""Correlation levels (Algorithm 1) and the ScoreToLevel mapping.

Every (database, KPI) pair gets a *correlation level* derived from the
database's KCD scores against its unit peers:

* **level-1** — extreme deviation: the database no longer tracks any peer;
* **level-2** — slight deviation: correlation dipped into the tolerance
  band ``[alpha - theta, alpha)``;
* **level-3** — correlated: the database tracks its peers normally.

The paper's prose for ``ScoreToLevel`` is ambiguous (it says both
"less than alpha" and "between alpha and alpha - theta" map somewhere);
we use the only internally consistent reading: scores below
``alpha - theta`` are level-1, scores in ``[alpha - theta, alpha)`` are
level-2, and scores at or above ``alpha`` are level-3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro.core.config import DBCatcherConfig
from repro.core.matrices import (
    CorrelationMatrix,
    databases_for_pairs,
    triangle_indices,
)

__all__ = [
    "LEVEL_EXTREME_DEVIATION",
    "LEVEL_SLIGHT_DEVIATION",
    "LEVEL_CORRELATED",
    "score_to_level",
    "CorrelationLevels",
    "calculate_levels",
]

LEVEL_EXTREME_DEVIATION = 1
LEVEL_SLIGHT_DEVIATION = 2
LEVEL_CORRELATED = 3


def _scores_to_levels(scores, alphas, theta: float) -> np.ndarray:
    """Vectorized ScoreToLevel (NaN scores compare false: level-1)."""
    band = scores >= alphas - theta
    deviated = np.where(band, LEVEL_SLIGHT_DEVIATION, LEVEL_EXTREME_DEVIATION)
    return np.where(scores >= alphas, LEVEL_CORRELATED, deviated)


def score_to_level(score: float, alpha: float, theta: float) -> int:
    """Map one KCD score to a correlation level.

    Parameters
    ----------
    score:
        Aggregated KCD of a database against its peers, in ``[-1, 1]``.
    alpha:
        Correlation threshold for this KPI.
    theta:
        Tolerance threshold; the level-2 band is ``[alpha - theta, alpha)``.
    """
    return int(_scores_to_levels(np.float64(score), alpha, theta))


#: Peer aggregation rules over the trailing peer axis (``max`` is the
#: default; see :mod:`repro.core.config`).
_AGGREGATORS = {
    "max": lambda peers: peers.max(axis=-1),
    "median": lambda peers: np.median(peers, axis=-1),
    "mean": lambda peers: peers.mean(axis=-1),
}


@lru_cache(maxsize=256)
def _search_plan(
    n_dbs: int, active_key: bytes, kpi_names: Tuple[str, ...],
    rr_only_kpis: Tuple[str, ...], primary: int | None,
) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Algorithm 1's ``Search`` step as index arrays, one entry per KPI group.

    Entry ``(kpis, judged, columns)`` scores database ``judged[a]`` on KPI
    rows ``kpis`` from round-array columns ``columns[a]``: its pairs with
    the other judged databases, in index order.  Table II's R-R-only KPIs
    group without the primary: it is neither judged on them nor a peer.
    """
    active = np.frombuffer(active_key, dtype=bool)
    groups = [(np.arange(len(kpi_names)), active)]
    rr = np.array([kpi in rr_only_kpis for kpi in kpi_names], dtype=bool)
    if rr.any() and primary is not None and primary < n_dbs:
        replicas = active.copy()
        replicas[primary] = False
        groups = [(np.flatnonzero(~rr), active), (np.flatnonzero(rr), replicas)]
    rows, cols = triangle_indices(n_dbs)
    pair_of = np.zeros((n_dbs, n_dbs), dtype=np.intp)
    pair_of[rows, cols] = pair_of[cols, rows] = np.arange(rows.size)
    plan = []
    for kpis, mask in groups:
        judged = np.flatnonzero(mask)
        n = judged.size
        if kpis.size and n > 1:
            peers = np.broadcast_to(judged, (n, n))[~np.eye(n, dtype=bool)]
            columns = pair_of[judged[:, None], peers.reshape(n, n - 1)]
            for shared in (kpis, judged, columns):  # every caller gets these
                shared.setflags(write=False)
            plan.append((kpis, judged, columns))
    return tuple(plan)


@dataclass(frozen=True)
class CorrelationLevels:
    """Correlation levels of every database over every KPI for one window.

    ``levels[d, k]`` is the level of database ``d`` on KPI ``k``; inactive
    databases carry level-3 everywhere (they do not participate, Alg. 1).
    """

    kpi_names: Tuple[str, ...]
    levels: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        lv = np.asarray(self.levels, dtype=np.int64)
        sc = np.asarray(self.scores, dtype=np.float64)
        if lv.ndim != 2 or lv.shape[1] != len(self.kpi_names):
            raise ValueError(
                f"levels must be (n_databases, {len(self.kpi_names)}), got {lv.shape}"
            )
        if sc.shape != lv.shape:
            raise ValueError("scores and levels must have the same shape")
        if lv.size and (lv.min() < LEVEL_EXTREME_DEVIATION or lv.max() > LEVEL_CORRELATED):
            raise ValueError("levels must lie in {1, 2, 3}")
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "scores", sc)

    @property
    def n_databases(self) -> int:
        return self.levels.shape[0]

    def for_database(self, database: int) -> Dict[str, int]:
        """KPI-name to level mapping for one database."""
        return {
            kpi: int(self.levels[database, index])
            for index, kpi in enumerate(self.kpi_names)
        }

    def count(self, database: int, level: int) -> int:
        """Number of KPIs of a database at the given level."""
        return int(np.count_nonzero(self.levels[database] == level))


def calculate_levels(
    matrices: Union[np.ndarray, Sequence[CorrelationMatrix]],
    config: DBCatcherConfig,
    active: np.ndarray | None = None,
) -> CorrelationLevels:
    """Algorithm 1: correlation levels for every database and KPI.

    Parameters
    ----------
    matrices:
        The ``Q`` correlation matrices of one observation window, in the
        same order as ``config.kpi_names``: a ``(n_kpis, n_pairs)`` round
        array (what engines return) or per-KPI :class:`CorrelationMatrix`
        objects.
    config:
        Supplies the per-KPI thresholds ``alpha_i``, the tolerance ``theta``
        and the peer aggregation rule.
    active:
        Optional in-use database mask; inactive databases do not
        participate and receive level-3 (no evidence against them).

    Returns
    -------
    CorrelationLevels
        The level dictionary ``D`` of Algorithm 1 in array form, plus the
        aggregated scores that produced each level (useful for reports).
    """
    table = matrices
    if not isinstance(table, np.ndarray):
        table = np.stack([matrix.triangle for matrix in matrices])
    if table.shape[0] != config.n_kpis:
        raise ValueError(
            f"expected {config.n_kpis} correlation matrices, got {table.shape[0]}"
        )
    n_dbs = databases_for_pairs(table.shape[1])
    if active is None:
        active_mask = np.ones(n_dbs, dtype=bool)
    else:
        active_mask = np.asarray(active, dtype=bool)
        if active_mask.shape != (n_dbs,):
            raise ValueError("active mask must have one entry per database")

    plan = _search_plan(
        n_dbs, active_mask.tobytes(), tuple(config.kpi_names),
        tuple(config.rr_only_kpis), config.primary_index,
    )
    aggregate = _AGGREGATORS[config.peer_aggregation]
    # Unjudged cells (inactive, or without peers) keep 1.0: no evidence.
    scores = np.ones((n_dbs, config.n_kpis), dtype=np.float64)
    for kpis, judged, columns in plan:
        peers = table[kpis[:, None, None], columns]  # (kpis, judged, peers)
        scores[judged[:, None], kpis] = aggregate(peers).T
    # alpha <= 1 (config-validated), so a 1.0 score is always level-3.
    levels = _scores_to_levels(scores, np.asarray(config.alphas), config.theta)
    return CorrelationLevels(
        kpi_names=config.kpi_names, levels=levels, scores=scores
    )
