"""Ingestion bridge: bounded per-unit tick queues with backpressure.

The bypass monitoring pipeline pushes one tick per unit per collection
interval; the detection side consumes them in batches.  Between the two
sits a bounded queue per unit.  When a queue fills the configured
:class:`~repro.service.config.ServiceConfig.backpressure` policy decides
what happens: ``block`` stalls the producer (lossless), ``drop_oldest``
evicts the stalest tick so the queue always holds the freshest window of
traffic (lossy, bounded staleness).  Per-unit sequence tracking makes any
loss visible: every tick carries its source sequence number, and the
bridge records gaps instead of silently compacting them away.  Duplicate
and out-of-order arrivals (seen under degraded transports and exercised
by :mod:`repro.chaos`) are rejected as *stale* and counted, never fed to
a detector twice.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Generic, List, Optional, Sequence, TypeVar

from repro.service.metrics import MetricsRegistry

__all__ = ["QueueClosed", "QueueFull", "TickQueue", "IngestionBridge"]

T = TypeVar("T")


class QueueClosed(RuntimeError):
    """Put after close, or get on a closed-and-drained queue."""


class QueueFull(RuntimeError):
    """Blocking put timed out while the queue stayed full."""


class TickQueue(Generic[T]):
    """Bounded FIFO with a selectable overflow policy.

    Thread-safe; safe for one or many producers and consumers.

    Parameters
    ----------
    capacity:
        Maximum items held.
    policy:
        ``"block"`` — :meth:`put` waits for room (raising
        :class:`QueueFull` on timeout); ``"drop_oldest"`` — :meth:`put`
        always succeeds, evicting the oldest item when full.
    """

    def __init__(self, capacity: int, policy: str = "block"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if policy not in ("block", "drop_oldest"):
            raise ValueError(f"unknown backpressure policy {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self._items: Deque[T] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        #: Items evicted by the drop_oldest policy so far.
        self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: T, timeout: Optional[float] = None) -> int:
        """Enqueue one item.

        Returns the number of items evicted to make room (0 or 1; always
        0 under the ``block`` policy).
        """
        with self._lock:
            if self._closed:
                raise QueueClosed("queue is closed")
            if len(self._items) >= self.capacity:
                if self.policy == "drop_oldest":
                    self._items.popleft()
                    self.dropped += 1
                    self._items.append(item)
                    self._not_empty.notify()
                    return 1
                if not self._not_full.wait_for(
                    lambda: self._closed or len(self._items) < self.capacity,
                    timeout=timeout,
                ):
                    raise QueueFull(
                        f"queue stayed full for {timeout:.3g}s "
                        f"(capacity {self.capacity})"
                    )
                if self._closed:
                    raise QueueClosed("queue closed while waiting for room")
            self._items.append(item)
            self._not_empty.notify()
            return 0

    def try_put_many(self, items: Sequence[T]) -> int:
        """Enqueue a run of items without waiting; returns how many fit.

        The network ingestion path uses this instead of a blocking
        :meth:`put` — an HTTP handler must never park a server thread on
        queue room; it admits what fits, answers 429 for the rest and lets
        the *client* wait.  Under ``drop_oldest`` everything fits (evicting
        like :meth:`put` would).
        """
        with self._lock:
            if self._closed:
                raise QueueClosed("queue is closed")
            if self.policy != "drop_oldest":
                items = items[: max(0, self.capacity - len(self._items))]
            self._items.extend(items)
            overflow = len(self._items) - self.capacity
            if overflow > 0:
                for _ in range(overflow):
                    self._items.popleft()
                self.dropped += overflow
            if items:
                self._not_empty.notify(len(items))
            return len(items)

    def get(self, timeout: Optional[float] = None) -> T:
        """Dequeue one item, waiting up to ``timeout`` seconds."""
        with self._lock:
            if not self._not_empty.wait_for(
                lambda: self._closed or self._items, timeout=timeout
            ):
                raise QueueFull(f"queue stayed empty for {timeout:.3g}s")
            if not self._items:
                raise QueueClosed("queue is closed and drained")
            item = self._items.popleft()
            self._not_full.notify()
            return item

    def drain(self, max_items: Optional[int] = None) -> List[T]:
        """Dequeue up to ``max_items`` immediately available items."""
        with self._lock:
            count = len(self._items) if max_items is None else min(
                max_items, len(self._items)
            )
            taken = [self._items.popleft() for _ in range(count)]
            if taken:
                self._not_full.notify_all()
            return taken

    def close(self) -> None:
        """Reject future puts; wake every waiter."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()


class IngestionBridge:
    """Per-unit bounded queues plus sequence accounting.

    Parameters
    ----------
    unit_names:
        The fleet's unit names; one queue per unit.
    capacity, policy:
        Queue bound and overflow policy, shared by every unit.
    metrics:
        Registry receiving the ``ticks_ingested`` / ``ticks_dropped`` /
        ``ticks_stale`` / ``sequence_gap_ticks`` counters and the
        ``queue_depth`` / ``queue_stale_total`` / ``queue_evictions_total``
        gauges.
    """

    def __init__(
        self,
        unit_names: Sequence[str],
        capacity: int = 256,
        policy: str = "block",
        metrics: Optional[MetricsRegistry] = None,
    ):
        if not unit_names:
            raise ValueError("the bridge needs at least one unit")
        if len(set(unit_names)) != len(unit_names):
            raise ValueError("unit names must be unique")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queues: Dict[str, TickQueue] = {
            name: TickQueue(capacity, policy) for name in unit_names
        }
        #: Guards the sequence bookkeeping (stale / gap / next-seq) so the
        #: accept-or-reject decision is atomic under concurrent producers
        #: and the stale counters never lose updates to interleaving.
        self._seq_lock = threading.Lock()
        #: Next sequence number expected per unit (monotonic source order).
        self._next_seq: Dict[str, int] = {name: 0 for name in unit_names}
        #: Sequence gaps observed per unit (ticks the source never delivered).
        self.sequence_gaps: Dict[str, int] = {name: 0 for name in unit_names}
        #: Stale ticks rejected per unit (duplicates and out-of-order
        #: arrivals whose sequence number the bridge had already passed).
        self.stale_rejected: Dict[str, int] = {name: 0 for name in unit_names}

    @property
    def unit_names(self) -> List[str]:
        return list(self._queues)

    def offer(self, event, timeout: Optional[float] = None) -> int:
        """Enqueue one :class:`~repro.service.sources.TickEvent`.

        Returns the number of ticks evicted by backpressure.  Raises
        ``KeyError`` for unknown units.  A *stale* tick — a duplicate or
        out-of-order arrival whose sequence number the bridge has already
        passed — is rejected rather than enqueued: accepting it would feed
        the unit's detector the same wall-clock instant twice (or in the
        wrong order) and silently skew every window after it.  Rejections
        are counted in :attr:`stale_rejected` and the ``ticks_stale``
        metric, so a degraded transport is visible, not fatal.
        """
        queue = self._queues[event.unit]
        with self._seq_lock:
            expected = self._next_seq[event.unit]
            if event.seq < expected:
                self.stale_rejected[event.unit] += 1
                self.metrics.counter("ticks_stale").increment()
                self.metrics.gauge("queue_stale_total").set(
                    sum(self.stale_rejected.values())
                )
                return 0
            if event.seq > expected:
                gap = event.seq - expected
                self.sequence_gaps[event.unit] += gap
                self.metrics.counter("sequence_gap_ticks").increment(gap)
            self._next_seq[event.unit] = event.seq + 1
        dropped = queue.put(event, timeout=timeout)
        self.metrics.counter("ticks_ingested").increment()
        if dropped:
            self.metrics.counter("ticks_dropped").increment(dropped)
        self.metrics.gauge("queue_depth").set(len(queue))
        if dropped:
            self.metrics.gauge("queue_evictions_total").set(
                self.total_dropped()
            )
        return dropped

    def pending(self, unit: str) -> int:
        return len(self._queues[unit])

    def total_pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def drain(self, unit: str, max_ticks: Optional[int] = None) -> List:
        """Take up to ``max_ticks`` buffered events for one unit."""
        taken = self._queues[unit].drain(max_ticks)
        self.metrics.gauge("queue_depth").set(len(self._queues[unit]))
        return taken

    def dropped(self, unit: str) -> int:
        """Ticks evicted from one unit's queue so far."""
        return self._queues[unit].dropped

    def total_dropped(self) -> int:
        return sum(q.dropped for q in self._queues.values())

    def close(self) -> None:
        for queue in self._queues.values():
            queue.close()
