"""Correlation matrices (Eq. 5) with upper-triangular storage.

A round's ``Q`` matrices live in one ``(n_kpis, n_pairs)`` *round
array*: row ``k`` is KPI ``k``'s strict upper triangle in
:func:`triangle_indices` order (the paper notes the symmetric lower
triangle need not be saved).  Engines fill it; levels and RCA consume it
whole.  :class:`CorrelationMatrix` is the per-KPI *boundary* type
(results, persist codec, reports): zero-copy row views of a round array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "CorrelationMatrix",
    "build_correlation_matrices",
    "databases_for_pairs",
    "matrices_from_round",
    "triangle_indices",
]


def _triangle_size(n_databases: int) -> int:
    return n_databases * (n_databases - 1) // 2


@lru_cache(maxsize=64)
def triangle_indices(n_databases: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached, read-only ``(rows, cols)`` of the strict upper triangle."""
    rows, cols = np.triu_indices(n_databases, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def databases_for_pairs(n_pairs: int) -> int:
    """Invert :func:`_triangle_size`: ``N`` with ``N * (N - 1) / 2`` pairs."""
    n = (1 + isqrt(1 + 8 * n_pairs)) // 2
    if n < 2 or _triangle_size(n) != n_pairs:
        raise ValueError(f"{n_pairs} is not the pair count of a unit")
    return n


def _pair_index(i: int, j: int, n: int) -> int:
    """Flat index of pair ``(i, j)`` with ``i < j`` in the upper triangle."""
    return i * n - i * (i + 1) // 2 + (j - i - 1)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric pairwise-KCD matrix for one KPI, stored as its triangle.

    Parameters
    ----------
    kpi:
        Name of the KPI this matrix covers (``j`` in ``CM_j``).
    n_databases:
        Matrix dimension ``N``.
    triangle:
        Row-major strict upper triangle, length ``N * (N - 1) / 2``.
    """

    kpi: str
    n_databases: int
    triangle: np.ndarray

    def __post_init__(self) -> None:
        if self.n_databases < 2:
            raise ValueError("a unit needs at least 2 databases to correlate")
        tri = np.asarray(self.triangle, dtype=np.float64)
        expected = _triangle_size(self.n_databases)
        if tri.shape != (expected,):
            raise ValueError(
                f"triangle for N={self.n_databases} must have {expected} "
                f"entries, got shape {tri.shape}"
            )
        object.__setattr__(self, "triangle", tri)

    def __eq__(self, other: object) -> bool:
        # The dataclass-generated __eq__ would compare the triangle
        # arrays elementwise and raise on truth-testing the result;
        # results carry these matrices, so equality must stay usable.
        if not isinstance(other, CorrelationMatrix):
            return NotImplemented
        return (
            self.kpi == other.kpi
            and self.n_databases == other.n_databases
            and np.array_equal(self.triangle, other.triangle, equal_nan=True)
        )

    @classmethod
    def from_dense(cls, kpi: str, matrix: np.ndarray) -> "CorrelationMatrix":
        """Build from a dense symmetric matrix (e.g. a ``kcd_matrix``)."""
        dense = np.asarray(matrix, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError(f"expected a square matrix, got {dense.shape}")
        n = dense.shape[0]
        triangle = dense[triangle_indices(n)]
        return cls(kpi=kpi, n_databases=n, triangle=triangle)

    def score(self, i: int, j: int) -> float:
        """KCD between databases ``i`` and ``j`` (1.0 on the diagonal)."""
        n = self.n_databases
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"database index out of range for N={n}")
        if i == j:
            return 1.0
        if i > j:
            i, j = j, i
        return float(self.triangle[_pair_index(i, j, n)])

    def to_dense(self) -> np.ndarray:
        """Reconstruct the full symmetric matrix with unit diagonal."""
        n = self.n_databases
        dense = np.eye(n, dtype=np.float64)
        rows, cols = triangle_indices(n)
        dense[rows, cols] = self.triangle
        dense[cols, rows] = self.triangle
        return dense


def matrices_from_round(
    kpi_names: Sequence[str], scores: np.ndarray
) -> Tuple[CorrelationMatrix, ...]:
    """One :class:`CorrelationMatrix` per KPI, as row views of a round array."""
    n_dbs = databases_for_pairs(scores.shape[1])
    return tuple(
        CorrelationMatrix(kpi=kpi, n_databases=n_dbs, triangle=row)
        for kpi, row in zip(kpi_names, scores)
    )


def build_correlation_matrices(
    window: np.ndarray,
    kpi_names: Sequence[str],
    max_delay: int | None = None,
    active: np.ndarray | None = None,
    measure=None,
    engine=None,
) -> List[CorrelationMatrix]:
    """Compute all ``Q`` correlation matrices for one observation window.

    Parameters
    ----------
    window:
        Array of shape ``(n_databases, n_kpis, n_points)``.
    kpi_names:
        KPI names, one per KPI axis entry.
    max_delay:
        Delay scan bound forwarded to the KCD.
    active:
        Optional in-use database mask.
    measure:
        Optional replacement correlation measure (see
        :func:`repro.core.kcd.kcd_matrix`).  Mutually exclusive with
        ``engine``.
    engine:
        Optional :class:`repro.engine.KCDEngine` to delegate to (e.g. a
        :class:`~repro.engine.batched.BatchedEngine` shared across calls).
        ``None`` builds the engine ``measure`` calls for.

    Returns
    -------
    list of CorrelationMatrix
        One matrix per KPI, in ``kpi_names`` order.
    """
    if engine is None:
        # Local import: repro.engine builds on this module.
        from repro.engine.base import make_engine

        engine = make_engine(measure=measure)
    elif measure is not None:
        raise ValueError("pass either engine or measure, not both")
    scores = engine.matrices(window, kpi_names, max_delay=max_delay, active=active)
    return list(matrices_from_round(kpi_names, scores))
