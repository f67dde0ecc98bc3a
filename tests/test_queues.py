"""Tests for the per-resource execution queues."""

import pytest

from repro.common import Resource
from repro.ssd.queues import ExecutionQueue


class TestExecutionQueue:
    def test_pending_latency_counter(self):
        # A reservation adds its duration to the backlog; retiring the
        # slots that have ended subtracts it again.
        queue = ExecutionQueue(Resource.ISP, parallelism=1)
        first = queue.reserve(1, 0.0, 100.0)
        second = queue.reserve(2, 0.0, 50.0)
        assert queue.queueing_delay(0.0) == pytest.approx(150.0)
        assert queue.retire(first.end) == second.end
        assert queue.queueing_delay(0.0) == pytest.approx(50.0)
        assert queue.retire(second.end) == float("inf")
        assert queue.queueing_delay(0.0) == 0.0

    def test_depth_tracks_outstanding_instructions(self):
        # A slot stays in the backlog until its end time and leaves it
        # exactly once: retiring again (or before the end) changes nothing.
        queue = ExecutionQueue(Resource.PUD, parallelism=2)
        short = queue.reserve(1, 0.0, 10.0)
        long = queue.reserve(2, 0.0, 30.0)
        assert queue.retire(short.end - 1.0) == short.end
        assert queue.queueing_delay(0.0) == pytest.approx(20.0)
        assert queue.retire(short.end) == long.end
        assert queue.queueing_delay(0.0) == pytest.approx(15.0)
        assert queue.retire(short.end) == long.end
        assert queue.queueing_delay(0.0) == pytest.approx(15.0)
        assert queue.retire(long.end + 1.0) == float("inf")
        assert queue.queueing_delay(0.0) == 0.0
        assert queue.retire(long.end + 2.0) == float("inf")
        assert queue.queueing_delay(0.0) == 0.0

    def test_queueing_delay_scales_with_backlog(self):
        # The same backlog drains faster on more parallel sub-units.
        delays = {}
        for parallelism in (1, 4):
            queue = ExecutionQueue(Resource.IFP, parallelism=parallelism)
            assert queue.queueing_delay(0.0) == 0.0
            for uid in range(8):
                queue.reserve(uid, 0.0, 100.0)
            delays[parallelism] = queue.queueing_delay(0.0)
        # 8 instructions of 100 ns: 800 ns on one unit, 200 ns over four.
        assert delays[1] == pytest.approx(800.0)
        assert delays[4] == pytest.approx(200.0)

    def test_reserve_uses_parallel_units(self):
        queue = ExecutionQueue(Resource.IFP, parallelism=2)
        first = queue.reserve(1, 0.0, 100.0)
        second = queue.reserve(2, 0.0, 100.0)
        third = queue.reserve(3, 0.0, 100.0)
        assert first.start == 0.0 and second.start == 0.0
        assert third.start == pytest.approx(100.0)

    def test_same_end_slots_retire_in_uid_order(self):
        # uid 2 is reserved first, uid 1 second; both end at 0.2 and
        # uid 3 stays.  The counter subtracts uid 1's duration before
        # uid 2's, and the two orders round differently here.
        queue = ExecutionQueue(Resource.IFP, parallelism=3)
        late = queue.reserve(2, 0.0, 0.2)
        early = queue.reserve(1, 0.1, 0.1)
        assert early.end == late.end == 0.2
        queue.reserve(3, 0.0, 0.7)
        pending = (0.2 + 0.1) + 0.7
        uid_order = (pending - 0.1) - 0.2
        assert uid_order != (pending - 0.2) - 0.1
        assert queue.retire(0.2) == 0.7
        assert queue.queueing_delay(0.0) == uid_order / 3


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
        assert set(platform.backends.offload_candidates()) <= set(delays)
        assert not any(delays.values())

    def test_busiest_identifies_loaded_resource(self, platform):
        platform.queues[Resource.ISP].reserve(1, 0.0, 1000.0)
        delays = {resource: queue.queueing_delay(0.0)
                  for resource, queue in platform.queues.items()}
        assert max(delays, key=delays.get) is Resource.ISP
