"""Tests for the event-driven simulation kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import SimulationError
from repro.ssd.events import (BusGroup, EventScheduler, MultiServer, Server,
                              SharedBus)


class TestEventScheduler:
    def test_events_execute_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(30.0, lambda e: order.append("c"))
        scheduler.schedule(10.0, lambda e: order.append("a"))
        scheduler.schedule(20.0, lambda e: order.append("b"))
        scheduler.run()
        assert order == ["a", "b", "c"]
        assert scheduler.now == 30.0

    def test_ties_break_by_priority_then_insertion(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(5.0, lambda e: order.append("late"), priority=1)
        scheduler.schedule(5.0, lambda e: order.append("first"), priority=0)
        scheduler.schedule(5.0, lambda e: order.append("second"), priority=0)
        scheduler.run()
        assert order == ["first", "second", "late"]

    def test_schedule_in_past_raises(self):
        scheduler = EventScheduler()
        scheduler.schedule(10.0, lambda e: None)
        scheduler.run()
        with pytest.raises(SimulationError):
            scheduler.schedule(5.0, lambda e: None)

    def test_cancelled_events_are_skipped(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.schedule(10.0, lambda e: fired.append(1))
        event.cancel()
        scheduler.run()
        assert fired == []
        assert scheduler.processed == 0

    def test_run_until_stops_the_clock(self):
        scheduler = EventScheduler()
        scheduler.schedule(100.0, lambda e: None)
        final = scheduler.run(until=50.0)
        assert final == 50.0
        assert scheduler.pending == 1

    def test_schedule_after_uses_relative_delay(self):
        scheduler = EventScheduler()
        times = []
        scheduler.schedule(10.0, lambda e: scheduler.schedule_after(
            5.0, lambda e2: times.append(scheduler.now)))
        scheduler.run()
        assert times == [15.0]

    def test_negative_delay_raises(self):
        scheduler = EventScheduler()
        with pytest.raises(SimulationError):
            scheduler.schedule_after(-1.0, lambda e: None)


class TestServer:
    def test_back_to_back_jobs_serialize(self):
        server = Server("core")
        first = server.reserve(0.0, 10.0)
        second = server.reserve(0.0, 5.0)
        assert first.end == 10.0
        assert second.start == 10.0
        assert second.end == 15.0

    def test_idle_gap_is_respected(self):
        server = Server("core")
        server.reserve(0.0, 10.0)
        late = server.reserve(100.0, 5.0)
        assert late.start == 100.0

    def test_queueing_delay(self):
        server = Server("core")
        server.reserve(0.0, 10.0)
        assert server.queueing_delay(4.0) == pytest.approx(6.0)
        assert server.queueing_delay(20.0) == 0.0

    def test_utilization(self):
        server = Server("core")
        server.reserve(0.0, 25.0)
        assert server.utilization(100.0) == pytest.approx(0.25)

    def test_negative_duration_raises(self):
        with pytest.raises(SimulationError):
            Server("core").reserve(0.0, -1.0)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e6),
                              st.floats(min_value=0, max_value=1e4)),
                    min_size=1, max_size=40))
    def test_reservations_never_overlap(self, jobs):
        server = Server("core")
        previous_end = 0.0
        for arrival, duration in jobs:
            reservation = server.reserve(arrival, duration)
            assert reservation.start >= previous_end
            assert reservation.end == pytest.approx(
                reservation.start + duration)
            previous_end = reservation.end


class TestMultiServer:
    def test_parallel_slots_used_before_queueing(self):
        pool = MultiServer("dies", 2)
        a = pool.reserve(0.0, 10.0)
        b = pool.reserve(0.0, 10.0)
        c = pool.reserve(0.0, 10.0)
        assert a.start == 0.0 and b.start == 0.0
        assert c.start == 10.0

    def test_zero_servers_rejected(self):
        with pytest.raises(SimulationError):
            MultiServer("bad", 0)

    def test_explicit_server_index(self):
        pool = MultiServer("dies", 4)
        first = pool.reserve(0.0, 10.0, server_index=2)
        second = pool.reserve(0.0, 10.0, server_index=2)
        assert first.server_index == 2
        assert second.start == 10.0


class TestSharedBus:
    def test_transfer_time_scales_with_size(self):
        bus = SharedBus("channel", 1.2)  # 1.2 bytes / ns
        assert bus.transfer_time(1200) == pytest.approx(1000.0)

    def test_transfers_serialize(self):
        bus = SharedBus("channel", 1.0)
        first = bus.transfer(0.0, 100)
        second = bus.transfer(0.0, 100)
        assert second.start == first.end

    def test_bytes_moved_accumulates(self):
        bus = SharedBus("channel", 1.0)
        bus.transfer(0.0, 100)
        bus.transfer(0.0, 200)
        assert bus.bytes_moved == 300


class TestBusGroup:
    def test_least_loaded_bus_is_chosen(self):
        group = BusGroup("channels", 2, 1.0)
        first = group.transfer(0.0, 100)
        second = group.transfer(0.0, 100)
        assert first.server_index != second.server_index
        assert second.start == 0.0

    def test_pinned_channel_serializes(self):
        group = BusGroup("channels", 2, 1.0)
        group.transfer(0.0, 100, channel=0)
        second = group.transfer(0.0, 100, channel=0)
        assert second.start == pytest.approx(100.0)

    def test_utilization_averages_buses(self):
        group = BusGroup("channels", 2, 1.0)
        group.transfer(0.0, 100, channel=0)
        assert group.utilization(100.0) == pytest.approx(0.5)


class TestRunUntilClamp:
    """``run(until=...)`` clamps the clock; it must never rewind it."""

    def test_until_in_past_does_not_rewind_clock(self):
        scheduler = EventScheduler()
        scheduler.schedule(10.0, lambda e: None)
        scheduler.schedule(100.0, lambda e: None)
        assert scheduler.run(until=50.0) == 50.0
        # Regression: virtual time is monotonic, so an ``until`` earlier
        # than the current clock is a no-op for the clock, not a rewind.
        assert scheduler.run(until=20.0) == 50.0
        assert scheduler.now == 50.0
        assert scheduler.pending == 1

    def test_until_between_now_and_next_event_still_advances(self):
        scheduler = EventScheduler()
        scheduler.schedule(100.0, lambda e: None)
        scheduler.run(until=30.0)
        assert scheduler.run(until=60.0) == 60.0
        assert scheduler.processed == 0


ARRIVALS = st.lists(
    st.floats(min_value=0.0, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40)
DURATION = st.floats(min_value=0.0, max_value=1e4,
                     allow_nan=False, allow_infinity=False)


class TestBatchEntryPoints:
    """Batch bookings must be *bit-identical* to per-job reservations.

    The run-batched movement engine books a whole page run with one call
    and is validated by equality against the per-page path, so every
    batch entry point (finish chain, busy time, job count, bytes moved)
    must reproduce the sequential loop exactly -- no float tolerance
    anywhere.
    """

    @given(arrivals=ARRIVALS, duration=DURATION)
    @settings(max_examples=40, deadline=None)
    def test_server_reserve_batch_matches_sequential(self, arrivals,
                                                     duration):
        reference = Server("ref")
        ends = [reference.reserve(a, duration).end for a in arrivals]
        batched = Server("batch")
        assert batched.reserve_batch(arrivals, duration) == ends
        assert batched.free_at == reference.free_at
        assert batched.busy_time == reference.busy_time
        assert batched.jobs == reference.jobs

    def test_shared_bus_batch_matches_sequential(self):
        arrivals = [0.0, 10.0, 10.0, 500.0]
        reference = SharedBus("ref", 2.0)
        ends = [reference.transfer(a, 256).end for a in arrivals]
        batched = SharedBus("batch", 2.0)
        assert batched.transfer_batch(arrivals, 256) == ends
        assert batched.bytes_moved == reference.bytes_moved

    def test_negative_duration_rejected_by_batch_entry_points(self):
        with pytest.raises(SimulationError):
            Server("s").reserve_batch([0.0], -1.0)
