"""Culprit ranking: which databases and KPIs drove a decorrelation.

DBCatcher's verdict says *that* a unit misbehaved; the per-pair KCD
matrices behind the verdict say *where*.  For every (KPI, database-pair)
cell the attribution walk measures the **threshold deficit** — how far
the pair's KCD score fell below that KPI's correlation threshold
``alpha_i`` (healthy cells contribute zero) — and aggregates the deficits
three ways:

* per database — a database involved in many deficient pairs is the
  likely culprit (an abnormal database decorrelates from *all* its peers,
  while healthy peers keep tracking each other, so its row dominates);
* per KPI — which indicator dimensions carry the decorrelation;
* per pair — the raw evidence, kept for drill-down.

Scores are normalized to shares (they sum to 1 over databases and over
KPIs respectively) so rankings are comparable across rounds; the
unnormalized mean deficit per evaluated cell is kept as ``strength``, the
severity signal.  Table II's R-R KPIs exclude the primary exactly as the
level calculation does — its legitimate decorrelation there must not be
read as evidence of fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.config import DBCatcherConfig
from repro.core.detector import UnitDetectionResult
from repro.core.matrices import triangle_indices
from repro.obs import runtime as obs

__all__ = ["Attribution", "Attributor", "attribute_result"]


@dataclass(frozen=True)
class Attribution:
    """Ranked culprit evidence for one abnormal detection round.

    Parameters
    ----------
    unit:
        Unit the round belongs to.
    start, end:
        Tick span of the round.
    database_scores:
        ``(database, share)`` pairs sorted by decreasing share; shares sum
        to 1 when any deficit exists.  Only databases active in the round
        appear.
    kpi_scores:
        ``(kpi_name, share)`` pairs sorted by decreasing share.
    pair_scores:
        ``(i, j, deficit)`` with ``i < j``, summed over KPIs and sorted by
        decreasing deficit; zero-deficit pairs are omitted.
    strength:
        Mean threshold deficit per evaluated (KPI, pair) cell — the
        magnitude of the decorrelation, in KCD units.
    abnormal_databases:
        The round's abnormal verdict, for convenience.
    """

    unit: str
    start: int
    end: int
    database_scores: Tuple[Tuple[int, float], ...]
    kpi_scores: Tuple[Tuple[str, float], ...]
    pair_scores: Tuple[Tuple[int, int, float], ...]
    strength: float
    abnormal_databases: Tuple[int, ...] = ()

    @property
    def top_database(self) -> Optional[int]:
        """Highest-ranked culprit database, or ``None`` without evidence."""
        return self.database_scores[0][0] if self.database_scores else None

    @property
    def top_kpi(self) -> Optional[str]:
        """Highest-ranked culprit KPI, or ``None`` without evidence."""
        return self.kpi_scores[0][0] if self.kpi_scores else None

    def ranked_databases(self, top: Optional[int] = None) -> Tuple[int, ...]:
        """Database indices in rank order, optionally truncated."""
        ranked = tuple(db for db, _ in self.database_scores)
        return ranked if top is None else ranked[:top]

    def to_dict(self) -> Dict[str, object]:
        return {
            "unit": self.unit,
            "start": self.start,
            "end": self.end,
            "databases": [[db, score] for db, score in self.database_scores],
            "kpis": [[kpi, score] for kpi, score in self.kpi_scores],
            "pairs": [[i, j, score] for i, j, score in self.pair_scores],
            "strength": self.strength,
            "abnormal_databases": list(self.abnormal_databases),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Attribution":
        return cls(
            unit=str(payload["unit"]),
            start=int(payload["start"]),  # type: ignore[arg-type]
            end=int(payload["end"]),  # type: ignore[arg-type]
            database_scores=tuple(
                (int(db), float(score)) for db, score in payload["databases"]  # type: ignore[union-attr]
            ),
            kpi_scores=tuple(
                (str(kpi), float(score)) for kpi, score in payload["kpis"]  # type: ignore[union-attr]
            ),
            pair_scores=tuple(
                (int(i), int(j), float(score))
                for i, j, score in payload["pairs"]  # type: ignore[union-attr]
            ),
            strength=float(payload["strength"]),  # type: ignore[arg-type]
            abnormal_databases=tuple(
                int(db) for db in payload.get("abnormal_databases", [])  # type: ignore[union-attr]
            ),
        )


def attribute_result(
    unit: str,
    result: UnitDetectionResult,
    config: DBCatcherConfig,
) -> Optional[Attribution]:
    """Rank culprit databases and KPIs for one completed round.

    Returns ``None`` when the round carries no correlation evidence
    (``result.matrices`` is ``None`` — the round resolved degraded before
    any KCD pass, so there is nothing to attribute).
    """
    matrices = result.matrices
    if matrices is None:
        return None
    scores = np.stack([matrix.triangle for matrix in matrices])
    n_dbs = matrices[0].n_databases
    if result.active is not None:
        active = np.asarray(result.active, dtype=bool)
    else:
        active = np.ones(n_dbs, dtype=bool)
    rows, cols = triangle_indices(n_dbs)
    kpi_masks = np.tile(active, (len(matrices), 1))
    primary = config.primary_index
    if primary is not None and primary < n_dbs:
        rr_only = [matrix.kpi in config.rr_only_kpis for matrix in matrices]
        kpi_masks[np.flatnonzero(rr_only), primary] = False

    # One pass over the (n_kpis, n_pairs) round array.
    usable = kpi_masks[:, rows] & kpi_masks[:, cols] & np.isfinite(scores)
    alphas = np.asarray(config.alphas, dtype=np.float64)[:, None]
    deficits = np.where(usable, np.clip(alphas - scores, 0.0, None), 0.0)
    kpi_totals = dict(
        zip([matrix.kpi for matrix in matrices], deficits.sum(axis=1).tolist())
    )
    pair_totals = deficits.sum(axis=0)
    # One bincount over every (KPI, row-then-column) endpoint, in KPI
    # order: each database total adds its deficits in the same order as
    # a per-KPI walk, so near-tied databases rank the same either way.
    endpoints = np.tile(np.concatenate((rows, cols)), len(matrices))
    db_totals = np.bincount(
        endpoints, np.concatenate((deficits, deficits), axis=1).ravel(), n_dbs
    )
    cells_evaluated = int(np.count_nonzero(usable))
    total_deficit = sum(kpi_totals.values())

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
    obs.counter("rca.attributions").increment()
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


class Attributor:
    """Per-unit attribution with the right thresholds for each unit.

    Parameters
    ----------
    configs:
        One shared :class:`~repro.core.config.DBCatcherConfig` or a
        mapping keyed by unit name — the same shapes the fleet scheduler
        resolves detector configs from, so the attribution walk always
        uses the thresholds the verdict was judged against (including
        hot-swapped tuned thresholds, when the caller rebinds).
    """

    def __init__(
        self,
        configs: Union[DBCatcherConfig, Mapping[str, DBCatcherConfig]],
    ):
        self._configs = configs

    def config_for(self, unit: str) -> DBCatcherConfig:
        if isinstance(self._configs, DBCatcherConfig):
            return self._configs
        return self._configs[unit]

    def attribute(
        self, unit: str, result: UnitDetectionResult
    ) -> Optional[Attribution]:
        with obs.span("rca.attribute"):
            return attribute_result(unit, result, self.config_for(unit))

    def attribute_all(
        self, unit: str, results: List[UnitDetectionResult]
    ) -> List[Attribution]:
        """Attributions for every abnormal round in ``results``."""
        attributions = []
        for result in results:
            if not result.abnormal_databases:
                continue
            attribution = self.attribute(unit, result)
            if attribution is not None:
                attributions.append(attribution)
        return attributions
