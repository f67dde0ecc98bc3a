"""Tests for the reservation servers (the simulator's timing kernel)."""

import pytest
from hypothesis import given, strategies as st

from repro.common import SimulationError
from repro.ssd.events import BusGroup, MultiServer, Server, SharedBus


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
        first = pool.reserve_on(2, 0.0, 10.0)
        second = pool.reserve_on(2, 0.0, 10.0)
        assert first == 10.0
        assert second == 20.0
        # The other servers stay free.
        assert pool.reserve(0.0, 10.0).start == 0.0

    def test_pinned_negative_duration_raises(self):
        with pytest.raises(SimulationError):
            MultiServer("dies", 2).reserve_on(0, 0.0, -1.0)


class TestSharedBus:
    def test_transfer_time_scales_with_size(self):
        bus = SharedBus("channel", 1.2)  # 1.2 bytes / ns
        assert bus.transfer_time(1200) == pytest.approx(1000.0)

    def test_transfers_serialize(self):
        bus = SharedBus("channel", 1.0)
        first = bus.transfer(0.0, 100)
        second = bus.transfer(0.0, 100)
        # The second transfer starts when the first ends.
        assert first == 100.0
        assert second == first + 100.0

    def test_negative_size_raises(self):
        with pytest.raises(SimulationError):
            SharedBus("channel", 1.0).transfer(0.0, -1)

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
        # Each transfer took its own idle bus, so neither waited.
        assert first == second == 100.0
        assert [bus.busy_time for bus in group.buses] == [100.0, 100.0]

    def test_pinned_channel_serializes(self):
        group = BusGroup("channels", 2, 1.0)
        group.transfer(0.0, 100, channel=0)
        second = group.transfer(0.0, 100, channel=0)
        assert second == pytest.approx(200.0)
        assert group.buses[1].busy_time == 0.0

    def test_utilization_averages_buses(self):
        group = BusGroup("channels", 2, 1.0)
        group.transfer(0.0, 100, channel=0)
        assert group.utilization(100.0) == pytest.approx(0.5)
