"""Tests for the per-resource execution queues."""

import pytest

from repro.common import Resource
from repro.ssd.queues import ExecutionQueue


class TestExecutionQueue:
    def test_pending_latency_counter(self):
        queue = ExecutionQueue(Resource.ISP, parallelism=1)
        queue.enqueue(1, now=0.0, estimated_latency=100.0)
        queue.enqueue(2, now=0.0, estimated_latency=50.0)
        assert queue.queueing_delay(0.0) == pytest.approx(150.0)
        queue.complete(1)
        assert queue.queueing_delay(0.0) == pytest.approx(50.0)
        queue.complete(2)
        assert queue.queueing_delay(0.0) == 0.0

    def test_depth_tracks_outstanding_instructions(self):
        # Each enqueued instruction stays outstanding until it completes,
        # exactly once; only outstanding instructions may reserve a slot.
        queue = ExecutionQueue(Resource.PUD, parallelism=2)
        queue.enqueue(1, 0.0, 10.0)
        queue.enqueue(2, 0.0, 10.0)
        queue.complete(2)
        with pytest.raises(KeyError):
            queue.complete(2)
        with pytest.raises(KeyError):
            queue.reserve(2, 0.0, 10.0)
        queue.reserve(1, 0.0, 10.0)
        queue.complete(1)
        assert queue.queueing_delay(0.0) == 0.0

    def test_queueing_delay_scales_with_backlog(self):
        queue = ExecutionQueue(Resource.IFP, parallelism=4)
        assert queue.queueing_delay(0.0) == 0.0
        for uid in range(8):
            queue.enqueue(uid, 0.0, 100.0)
        # 8 instructions of 100 ns over 4 parallel units -> ~200 ns backlog.
        assert queue.queueing_delay(0.0) == pytest.approx(200.0)

    def test_reserve_uses_parallel_units(self):
        queue = ExecutionQueue(Resource.IFP, parallelism=2)
        queue.enqueue(1, 0.0, 100.0)
        queue.enqueue(2, 0.0, 100.0)
        queue.enqueue(3, 0.0, 100.0)
        first = queue.reserve(1, 0.0, 100.0)
        second = queue.reserve(2, 0.0, 100.0)
        third = queue.reserve(3, 0.0, 100.0)
        assert first.start == 0.0 and second.start == 0.0
        assert third.start == pytest.approx(100.0)


class TestResourceQueueSet:
    """``platform.queues``: backend identity -> that backend's queue."""

    def test_all_three_resources_present(self, platform):
        for resource in (Resource.ISP, Resource.PUD, Resource.IFP):
            assert platform.queues[resource].resource is resource

    def test_platform_queue_set_follows_backend_registry(self, platform):
        # Same identities, same queue objects, in registration order.
        assert tuple(platform.queues) == platform.backends.ids()
        for backend in platform.backends:
            assert platform.queues[backend.resource] is backend.queue

    def test_queueing_delays_reports_all_resources(self, platform):
        delays = {resource: queue.queueing_delay(0.0)
                  for resource, queue in platform.queues.items()}
        assert set(platform.offload_candidates()) <= set(delays)
        assert not any(delays.values())

    def test_busiest_identifies_loaded_resource(self, platform):
        platform.queues[Resource.ISP].enqueue(1, 0.0, 1000.0)
        delays = {resource: queue.queueing_delay(0.0)
                  for resource, queue in platform.queues.items()}
        assert max(delays, key=delays.get) is Resource.ISP
