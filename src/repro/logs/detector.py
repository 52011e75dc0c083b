"""Online log-frequency detection over template count series.

The second modality in the ensemble: where DBCatcher asks *did this
database's KPIs decorrelate from its peers*, the log-frequency detector
asks *did this database's log mix change* — per ``(database, template)``
it keeps running frequency baselines (Welford mean/variance over
completed detection rounds, normalized to a fixed reference window so
flexible-window rounds of different lengths are comparable) and judges a
round abnormal when either

* a **known** template's windowed rate bursts past
  ``mean + threshold_sigma * std`` with at least ``min_count`` raw
  occurrences, or
* a **novel** WARN/ERROR template appears with ``min_count`` or more
  occurrences — a brand-new error shape is a signal in itself (MultiLog's
  unseen-template heuristic), while novel INFO chatter is ignored.

Baselines update *after* judging, from every known cell including its
zeros, so the detector is strictly online: a verdict depends only on
rounds that ended before the judged one.  Everything is elementwise
float arithmetic over the cells' baseline arrays — no RNG, no wall clock
— so equal streams give equal verdicts, which the fused-verdict
determinism suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

import numpy as np

__all__ = ["LogVerdict", "LogFrequencyDetector"]

#: Severities whose *novel* templates fire the unseen-template rule.
_ALARM_LEVELS = ("WARN", "ERROR")

#: Std floor in normalized-rate units: a template seen at a perfectly
#: steady rate must still need a real burst (not one stray line) to
#: fire.  The judging floor is the larger of this and the Poisson noise
#: ``sqrt(mean)`` — counting processes are at least shot-noisy, and a
#: few observed windows systematically underestimate that.
_STD_FLOOR = 0.75

#: Score -> incident-strength mapping: a burst at exactly the default
#: threshold lands near 0.15 (below the HIGH severity knee at 0.25), a
#: 10-sigma burst saturates toward the 0.5 CRITICAL knee.
_STRENGTH_SCALE = 20.0


@dataclass(frozen=True)
class LogVerdict:
    """What the log channel concluded about one detection round.

    Parameters
    ----------
    start, end:
        Absolute tick span ``[start, end)`` of the judged round — the
        same span the paired correlation round covers.
    abnormal_databases:
        Databases whose log mix burst, sorted ascending.
    scores:
        Per flagged database, the maximum burst score in sigma-like
        units (novel templates score ``threshold_sigma * count /
        min_count``).
    culprit_templates:
        Per flagged database, ``(template, share)`` evidence sorted by
        decreasing share; shares sum to 1 per database.
    strength:
        Mean burst score over flagged databases mapped to the incident
        severity scale (see :data:`_STRENGTH_SCALE`), 0 when quiet.
    """

    start: int
    end: int
    abnormal_databases: Tuple[int, ...] = ()
    scores: Mapping[int, float] = field(default_factory=dict)
    culprit_templates: Mapping[int, Tuple[Tuple[str, float], ...]] = field(
        default_factory=dict
    )
    strength: float = 0.0

    @property
    def abnormal(self) -> bool:
        return bool(self.abnormal_databases)


class LogFrequencyDetector:
    """Online burst detection over one unit's template count stream.

    Parameters
    ----------
    n_databases:
        Databases in the unit.
    reference_window:
        Tick length counts are normalized to before judging, usually the
        detector's initial window ``W`` — a 60-tick expanded round and a
        20-tick round then judge comparable rates.
    threshold_sigma:
        Burst threshold for known templates, in std units over the
        normalized rate.
    min_count:
        Raw occurrence floor: a burst (or novel template) below it never
        fires, whatever the z-score says.
    warmup_rounds:
        Rounds that only feed the baselines before judging starts;
        also how much history a cell needs before its z-score counts.
    """

    def __init__(
        self,
        n_databases: int,
        reference_window: int = 20,
        threshold_sigma: float = 6.0,
        min_count: int = 4,
        warmup_rounds: int = 2,
    ):
        if n_databases < 1:
            raise ValueError("n_databases must be >= 1")
        if reference_window < 1:
            raise ValueError("reference_window must be >= 1")
        if threshold_sigma <= 0:
            raise ValueError("threshold_sigma must be positive")
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        if warmup_rounds < 1:
            raise ValueError("warmup_rounds must be >= 1")
        self.n_databases = n_databases
        self.reference_window = reference_window
        self.threshold_sigma = threshold_sigma
        self.min_count = min_count
        self.warmup_rounds = warmup_rounds
        self.rounds_judged = 0
        #: Welford baselines: ``(database, template)`` cell -> its row in
        #: ``_n``/``_mean``/``_m2``.
        self._rows: Dict[Tuple[int, str], int] = {}
        self._n = np.zeros(0, dtype=np.int64)
        self._mean = np.zeros(0, dtype=np.float64)
        self._m2 = np.zeros(0, dtype=np.float64)

    def judge(
        self, start: int, end: int, counts: Mapping[Tuple[int, str], int]
    ) -> LogVerdict:
        """Score one round's summed counts, then absorb them as baseline."""
        if end <= start:
            raise ValueError("round must satisfy start < end")
        scale = self.reference_window / (end - start)
        rows = self._rows
        known = len(rows)
        cells = list(counts)
        raw = np.fromiter(counts.values(), dtype=np.float64, count=len(cells))
        # Unknown cells get fresh rows now (they baseline from this round).
        at = np.array(
            [rows.setdefault(cell, len(rows)) for cell in cells], dtype=np.intp
        )
        grown = len(rows) - known
        if grown:
            self._n = np.concatenate([self._n, np.zeros(grown, dtype=np.int64)])
            self._mean = np.concatenate([self._mean, np.zeros(grown)])
            self._m2 = np.concatenate([self._m2, np.zeros(grown)])
        burst_scores: Dict[int, float] = {}
        burst_templates: Dict[int, Dict[str, float]] = {}
        if self.rounds_judged >= self.warmup_rounds:
            n = self._n[at]
            mean = self._mean[at]
            with np.errstate(divide="ignore", invalid="ignore"):
                std = np.where(n >= 2, np.sqrt(self._m2[at] / (n - 1)), 0.0)
            std = np.maximum(
                np.maximum(std, np.sqrt(np.maximum(mean, 0.0))), _STD_FLOOR
            )
            scores = np.where(
                n < self.warmup_rounds,
                # Novel (or near-novel) template: alarming only at
                # WARN/ERROR severity (filtered below).
                self.threshold_sigma * raw / self.min_count,
                (raw * scale - mean) / std,
            )
            firing = (raw >= self.min_count) & (scores >= self.threshold_sigma)
            novel = n < self.warmup_rounds
            for index in np.flatnonzero(firing).tolist():
                database, template = cells[index]
                level = template.split(":", 1)[0]
                if novel[index] and level not in _ALARM_LEVELS:
                    continue
                score = float(scores[index])
                burst_scores[database] = max(
                    burst_scores.get(database, 0.0), score
                )
                per_db = burst_templates.setdefault(database, {})
                per_db[template] = per_db.get(template, 0.0) + score
        # Baselines absorb the round after judging: every known cell
        # updates, zeros included, so a template's *absence* is evidence.
        values = np.zeros(len(rows))
        values[at] = raw * scale
        self._n += 1
        delta = values - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (values - self._mean)
        self.rounds_judged += 1

        abnormal = tuple(sorted(burst_scores))
        culprits: Dict[int, Tuple[Tuple[str, float], ...]] = {}
        for database in abnormal:
            total = sum(burst_templates[database].values())
            culprits[database] = tuple(
                sorted(
                    (
                        (template, score / total)
                        for template, score in burst_templates[database].items()
                    ),
                    key=lambda item: (-item[1], item[0]),
                )
            )
        strength = 0.0
        if abnormal:
            mean_score = sum(burst_scores.values()) / len(abnormal)
            strength = min(1.0, mean_score / _STRENGTH_SCALE)
        return LogVerdict(
            start=start,
            end=end,
            abnormal_databases=abnormal,
            scores=burst_scores,
            culprit_templates=culprits,
            strength=strength,
        )
