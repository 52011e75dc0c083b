"""Ingestion bridge tests: bounded queues, backpressure, sequence gaps."""

import threading
import time

import numpy as np
import pytest

from repro.service.metrics import MetricsRegistry
from repro.service.queues import (
    IngestionBridge,
    QueueClosed,
    QueueFull,
    TickQueue,
)
from repro.service.sources import TickEvent


def _event(unit="u0", seq=0):
    return TickEvent(unit=unit, seq=seq, sample=np.full((2, 2), float(seq)))


class TestTickQueueDropOldest:
    def test_drop_oldest_evicts_stalest(self):
        queue = TickQueue(capacity=3, policy="drop_oldest")
        for seq in range(5):
            queue.put(seq)
        assert queue.dropped == 2
        assert queue.drain() == [2, 3, 4]

    def test_put_reports_eviction(self):
        queue = TickQueue(capacity=1, policy="drop_oldest")
        assert queue.put("a") == 0
        assert queue.put("b") == 1

    def test_try_put_many_admits_all_and_evicts_like_put(self):
        queue = TickQueue(capacity=3, policy="drop_oldest")
        queue.put(0)
        assert queue.try_put_many([1, 2, 3, 4]) == 4
        assert queue.dropped == 2
        assert queue.drain() == [2, 3, 4]


class TestTickQueueBlock:
    def test_try_put_many_admits_the_prefix_that_fits(self):
        queue = TickQueue(capacity=3, policy="block")
        queue.put(0)
        assert queue.try_put_many([1, 2, 3]) == 2
        assert queue.try_put_many([3]) == 0
        assert queue.dropped == 0
        assert queue.drain() == [0, 1, 2]
        queue.close()
        with pytest.raises(QueueClosed):
            queue.try_put_many([3])

    def test_blocking_put_times_out(self):
        queue = TickQueue(capacity=1, policy="block")
        queue.put("a")
        with pytest.raises(QueueFull):
            queue.put("b", timeout=0.05)
        assert queue.dropped == 0

    def test_blocked_producer_resumes_when_consumer_drains(self):
        queue = TickQueue(capacity=1, policy="block")
        queue.put(0)
        produced = []

        def producer():
            for item in (1, 2):
                queue.put(item, timeout=5.0)
                produced.append(item)

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        assert produced == []  # full queue blocked the producer
        taken = [queue.get(timeout=5.0) for _ in range(3)]
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert taken == [0, 1, 2]
        assert queue.dropped == 0

    def test_closed_queue_rejects_put_and_unblocks_waiters(self):
        queue = TickQueue(capacity=1, policy="block")
        queue.put("a")
        errors = []

        def producer():
            try:
                queue.put("b", timeout=5.0)
            except QueueClosed as exc:
                errors.append(exc)

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5.0)
        assert len(errors) == 1
        with pytest.raises(QueueClosed):
            queue.put("c")


class TestIngestionBridge:
    def test_offer_and_drain_keep_order(self):
        bridge = IngestionBridge(["u0", "u1"], capacity=8)
        for seq in range(4):
            bridge.offer(_event("u0", seq))
        bridge.offer(_event("u1", 0))
        taken = bridge.drain("u0", max_ticks=3)
        assert [event.seq for event in taken] == [0, 1, 2]
        assert bridge.pending("u0") == 1
        assert bridge.pending("u1") == 1

    def test_drop_oldest_accounting(self):
        metrics = MetricsRegistry()
        bridge = IngestionBridge(
            ["u0"], capacity=2, policy="drop_oldest", metrics=metrics
        )
        for seq in range(5):
            bridge.offer(_event("u0", seq))
        assert bridge.dropped("u0") == 3
        assert bridge.total_dropped() == 3
        assert metrics.counter("ticks_dropped").value == 3
        assert metrics.counter("ticks_ingested").value == 5
        # The freshest window survives.
        assert [event.seq for event in bridge.drain("u0")] == [3, 4]

    def test_block_policy_raises_on_sustained_overload(self):
        bridge = IngestionBridge(["u0"], capacity=1, policy="block")
        bridge.offer(_event("u0", 0))
        with pytest.raises(QueueFull):
            bridge.offer(_event("u0", 1), timeout=0.05)

    def test_sequence_gap_detection(self):
        bridge = IngestionBridge(["u0"], capacity=8)
        bridge.offer(_event("u0", 0))
        bridge.offer(_event("u0", 3))  # source skipped 1 and 2
        assert bridge.sequence_gaps["u0"] == 2

    def test_out_of_order_rejected_as_stale(self):
        metrics = MetricsRegistry()
        bridge = IngestionBridge(["u0"], capacity=8, metrics=metrics)
        bridge.offer(_event("u0", 1))
        # A tick from before the bridge's high-water mark is rejected and
        # counted, never enqueued — detectors must not see an instant twice.
        assert bridge.offer(_event("u0", 0)) == 0
        assert bridge.stale_rejected["u0"] == 1
        assert metrics.counter("ticks_stale").value == 1
        assert [event.seq for event in bridge.drain("u0")] == [1]

    def test_duplicate_rejected_as_stale(self):
        bridge = IngestionBridge(["u0"], capacity=8)
        bridge.offer(_event("u0", 0))
        bridge.offer(_event("u0", 0))
        assert bridge.stale_rejected["u0"] == 1
        assert [event.seq for event in bridge.drain("u0")] == [0]

    def test_unknown_unit_rejected(self):
        bridge = IngestionBridge(["u0"], capacity=8)
        with pytest.raises(KeyError):
            bridge.offer(_event("nope", 0))

    def test_queue_depth_gauge_tracks_max(self):
        metrics = MetricsRegistry()
        bridge = IngestionBridge(["u0"], capacity=8, metrics=metrics)
        for seq in range(5):
            bridge.offer(_event("u0", seq))
        bridge.drain("u0")
        assert metrics.gauge("queue_depth").max == 5
        assert metrics.gauge("queue_depth").value == 0
