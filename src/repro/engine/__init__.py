"""Pluggable KCD compute engines (the correlation-measurement module).

One observation window in, the unit's ``Q`` correlation matrices out as
one ``(n_kpis, n_pairs)`` round array — behind a single
:class:`~repro.engine.base.KCDEngine` interface with two backends:

* :class:`~repro.engine.batched.BatchedEngine` (``backend="batched"``,
  the default) — all database pairs and all KPIs in one vectorized FFT
  pass, with incremental reuse of normalized rows and running sums as
  the flexible window expands (:class:`~repro.engine.cache.WindowCache`);
* :class:`~repro.engine.reference.ReferenceEngine`
  (``backend="reference"``) — the per-pair, per-lag oracle loop, also
  home to the pluggable Table X measures.

Select a backend through ``DBCatcherConfig(backend=...)`` (the detector,
service workers, chaos runner and CLI all honour it), or build one
directly with :func:`make_engine` and hand it to
:func:`repro.core.matrices.build_correlation_matrices`.
"""

from repro.engine.base import KCDEngine, make_engine, validate_window
from repro.engine.batched import BatchedEngine
from repro.engine.cache import CacheStats, WindowCache
from repro.engine.reference import ReferenceEngine

__all__ = [
    "BatchedEngine",
    "CacheStats",
    "KCDEngine",
    "ReferenceEngine",
    "WindowCache",
    "make_engine",
    "validate_window",
]
