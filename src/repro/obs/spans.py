"""Lightweight tracing spans: nestable, thread-safe, wall + CPU time.

A *span* wraps one pipeline stage — ``span("detector.correlate")`` around
the correlation-measurement module, ``span("kcd.profile")`` around one
profile computation — and on exit records the stage's wall-clock and
per-thread CPU seconds into the ambient registry:

* histogram ``span.<name>.wall_seconds`` — latency distribution;
* histogram ``span.<name>.cpu_seconds`` — CPU burn distribution.

Spans nest: each thread keeps its own stack, so a span opened inside
another records its parent and depth without any cross-thread locking.
Finished spans are also handed to any registered *hooks* — the profiling
hook API — as plain :class:`SpanRecord` values, which is how ad-hoc
profilers, flame-dump scripts or tests tap the stream without touching
the instrumented code.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs.metrics import RegistryLike

__all__ = ["SpanRecord", "Tracer", "NULL_SPAN"]

#: Histogram buckets for span durations: spans cover stages from a single
#: KCD profile (microseconds) up to a whole dispatch round (seconds).
SPAN_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0,
)

SpanHook = Callable[["SpanRecord"], None]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as delivered to profiling hooks."""

    name: str
    wall_seconds: float
    cpu_seconds: float
    parent: Optional[str]
    depth: int


class _Span:
    """Context manager for one span instance (cheap, slotted)."""

    __slots__ = ("_tracer", "name", "_wall_started", "_cpu_started")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self.name = name
        self._wall_started = 0.0
        self._cpu_started = 0.0

    def __enter__(self) -> "_Span":
        self._tracer._stack().append(self.name)
        self._wall_started = time.perf_counter()
        self._cpu_started = time.thread_time()
        return self

    def __exit__(self, *exc_info) -> None:
        wall = time.perf_counter() - self._wall_started
        cpu = time.thread_time() - self._cpu_started
        stack = self._tracer._stack()
        stack.pop()
        self._tracer._finish(self.name, wall, cpu, stack)


class _NullSpan:
    """Shared no-op span for the disabled runtime."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Turns ``span(name)`` calls into histogram observations and hooks.

    Parameters
    ----------
    registry:
        Where span histograms live; a :class:`~repro.obs.metrics.NullRegistry`
        makes every observation a no-op (but spans still nest, so hooks
        remain usable against a null registry).
    hooks:
        Initial profiling hooks; more can be added with :meth:`add_hook`.
    """

    def __init__(
        self,
        registry: RegistryLike,
        hooks: Sequence[SpanHook] = (),
    ):
        self.registry = registry
        self._hooks: List[SpanHook] = list(hooks)
        self._local = threading.local()
        #: Span-name -> (registry, wall histogram, cpu histogram) cache.
        #: Span exits are the instrumentation hot path (one per KCD matrix
        #: per KPI per round); caching skips the f-string build and the
        #: registry's locked name lookup on every exit.  Entries are
        #: validated against the current registry identity, so a runtime
        #: enable()/disable()/scoped() swap naturally invalidates them.
        self._span_instruments: dict = {}

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str) -> _Span:
        """Open a span; use as ``with tracer.span("kcd.profile"):``."""
        return _Span(self, name)

    def current(self) -> Optional[str]:
        """Name of the calling thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def add_hook(self, hook: SpanHook) -> None:
        self._hooks.append(hook)

    def remove_hook(self, hook: SpanHook) -> None:
        self._hooks.remove(hook)

    def _finish(self, name: str, wall: float, cpu: float, stack: List[str]) -> None:
        registry = self.registry
        cached = self._span_instruments.get(name)
        if cached is None or cached[0] is not registry:
            cached = (
                registry,
                registry.histogram(f"span.{name}.wall_seconds", bounds=SPAN_BUCKETS),
                registry.histogram(f"span.{name}.cpu_seconds", bounds=SPAN_BUCKETS),
            )
            self._span_instruments[name] = cached
        cached[1].observe(wall)
        cached[2].observe(cpu)
        if self._hooks:
            # Records are built only for hooks to read.
            record = SpanRecord(
                name=name,
                wall_seconds=wall,
                cpu_seconds=cpu,
                parent=stack[-1] if stack else None,
                depth=len(stack),
            )
            for hook in self._hooks:
                hook(record)
