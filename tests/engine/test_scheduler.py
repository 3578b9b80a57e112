"""Unit tests for the discrete-event scheduler: transfers, topology routes,
the overlap scope, and dead-place purging."""

import pytest

from repro.engine import Scheduler
from repro.runtime.cost import CostModel
from repro.runtime.exceptions import DeadPlaceException
from repro.runtime.runtime import Runtime


def make_scheduler(cost=None, places=4, **kwargs):
    sched = Scheduler(cost if cost is not None else CostModel.unit(), **kwargs)
    for pid in range(places):
        sched.register_place(pid)
    return sched


class TestServe:
    def test_serial_server_queues(self):
        s = make_scheduler()
        assert s.serve(1, t_request=0.0, duration=5.0) == 5.0
        assert s.serve(1, t_request=1.0, duration=2.0) == 7.0
        # The served place's clock follows the completions.
        assert s.clock.now(1) == 7.0

    def test_distinct_places_do_not_contend(self):
        s = make_scheduler()
        s.serve(1, 0.0, 5.0)
        assert s.serve(2, 0.0, 5.0) == 5.0


class TestTransferRoutes:
    def test_p2p_full_duplex(self):
        # latency=1, byte_time=1 → message(3) = 4.
        s = make_scheduler()
        assert s.transfer(0, 1, 3.0, t_request=0.0) == 4.0
        # Same sender again: serializes on ("tx", 0).
        assert s.transfer(0, 2, 3.0, t_request=0.0) == 8.0
        # Reverse direction is free — full duplex, distinct resources.
        assert s.transfer(1, 0, 3.0, t_request=0.0) == 4.0
        # Third party into the busy receiver queues on ("rx", 1).
        assert s.transfer(2, 1, 3.0, t_request=0.0) == 8.0

    def test_receiver_clock_advances_to_arrival(self):
        s = make_scheduler()
        s.transfer(0, 1, 3.0, t_request=0.0)
        assert s.clock.now(1) == 4.0
        assert s.clock.now(0) == 0.0  # sender does not wait

    def test_intra_node_uses_shm_rate_through_dst_server(self):
        cost = CostModel.unit().with_rates(places_per_node=2, shm_byte_time=0.5)
        s = make_scheduler(cost)
        # Places 0,1 on node 0: shm_message(4) = 1 + 0.5*4 = 3.
        assert s.transfer(0, 1, 4.0, t_request=0.0) == 3.0
        # The shm path shares the destination's communication server.
        assert s.serve(1, t_request=0.0, duration=1.0) == 4.0

    def test_cross_node_serializes_on_shared_nic(self):
        cost = CostModel.unit().with_rates(places_per_node=2, shm_byte_time=0.5)
        s = make_scheduler(cost)
        # Places 0 and 1 both send cross-node: one shared ("nic-tx", 0).
        assert s.transfer(0, 2, 3.0, t_request=0.0) == 4.0
        assert s.transfer(1, 3, 3.0, t_request=0.0) == 8.0
        # A third transfer into node 1 queues on its shared receive NIC.
        assert s.transfer(0, 3, 3.0, t_request=0.0) == 12.0


class TestStableStorage:
    def test_writes_serialize_on_shared_disk(self):
        cost = CostModel.unit().with_rates(disk_byte_time=2.0)
        s = make_scheduler(cost)
        # message(4) = 5 to reach the store, then disk(4) = 8 on the disk.
        assert s.stable_write(1, 4.0) == 13.0
        # A concurrent writer queues behind the first write's disk slot.
        assert s.stable_write(2, 4.0) == 21.0
        assert s.clock.now(1) == 13.0
        assert s.clock.now(2) == 21.0

    def test_read_pays_disk_then_message(self):
        cost = CostModel.unit().with_rates(disk_byte_time=2.0)
        s = make_scheduler(cost)
        # disk(4) = 8, then message(4) = 5 back to the reader.
        assert s.stable_read(1, 4.0) == 13.0
        assert s.clock.now(1) == 13.0


class TestOverlap:
    def test_overlap_defers_arrival_then_drain_applies(self):
        s = make_scheduler()
        with s.overlap():
            done = s.transfer(0, 1, 3.0, t_request=0.0)
        assert done == 4.0
        # The receiver's clock did not move, but the resources did.
        assert s.clock.now(1) == 0.0
        assert s.pending_overlap() == {1: 4.0}
        stall = s.drain_overlap()
        assert stall == 4.0
        assert s.clock.now(1) == 4.0
        assert s.pending_overlap() == {}

    def test_compute_hides_overlapped_arrival(self):
        s = make_scheduler()
        with s.overlap():
            s.transfer(0, 1, 3.0, t_request=0.0)
        # The receiver computes past the deferred arrival: nothing to pay.
        s.clock.set_at_least(1, 10.0)
        assert s.drain_overlap() == 0.0
        assert s.clock.now(1) == 10.0

    def test_resources_stay_busy_during_overlap(self):
        s = make_scheduler()
        with s.overlap():
            s.transfer(0, 1, 3.0, t_request=0.0)
        # A foreground transfer into the same receiver queues behind the
        # deferred one — contention is preserved, only arrivals defer.
        assert s.transfer(2, 1, 3.0, t_request=0.0) == 8.0

    def test_sync_place_waits_for_latest_pending(self):
        s = make_scheduler()
        with s.overlap():
            s.transfer(0, 1, 3.0, t_request=0.0)
        stall = s.drain_overlap(sync_place_id=2)
        assert stall == 4.0
        assert s.clock.now(2) == 4.0

    def test_nested_scopes_defer_until_outermost_exit(self):
        s = make_scheduler()
        with s.overlap():
            with s.overlap():
                s.transfer(0, 1, 3.0, t_request=0.0)
            assert s.overlapping
            s.transfer(0, 2, 3.0, t_request=0.0)
        assert not s.overlapping
        assert set(s.pending_overlap()) == {1, 2}

    def test_drain_skips_dead_places(self):
        s = make_scheduler()
        with s.overlap():
            s.transfer(0, 1, 3.0, t_request=0.0)
        s.purge_place(1)
        assert s.drain_overlap() == 0.0


class TestPurge:
    def test_purged_place_raises_on_all_paths(self):
        s = make_scheduler()
        s.purge_place(2)
        with pytest.raises(DeadPlaceException):
            s.serve(2, 0.0, 1.0)
        with pytest.raises(DeadPlaceException):
            s.transfer(0, 2, 1.0, 0.0)
        with pytest.raises(DeadPlaceException):
            s.transfer(2, 0, 1.0, 0.0)
        with pytest.raises(DeadPlaceException):
            s.stable_write(2, 1.0)
        with pytest.raises(DeadPlaceException):
            s.stable_read(2, 1.0)

    def test_purge_retires_and_removes_place_resources(self):
        s = make_scheduler()
        s.transfer(0, 1, 3.0, 0.0)  # creates ("tx", 0) and ("rx", 1)
        tx0 = s.resource(("tx", 0))
        s.purge_place(0)
        assert tx0.retired
        keys = {r.key for r in s.resources()}
        assert ("tx", 0) not in keys

    def test_shared_nic_survives_a_place_death(self):
        cost = CostModel.unit().with_rates(places_per_node=2)
        s = make_scheduler(cost)
        s.transfer(0, 2, 3.0, 0.0)
        s.purge_place(0)
        # Place 1 shares node 0's NIC; the node is still up.
        assert s.transfer(1, 2, 3.0, t_request=0.0) == 8.0

    def test_runtime_kill_purges_engine_state(self):
        rt = Runtime(4, cost=CostModel.unit(), resilient=True)
        rt.transfer(1, 2, 3.0, rt.clock.now(1))
        rt.kill(2)
        assert rt.engine.is_place_dead(2)
        with pytest.raises(DeadPlaceException):
            rt.engine.serve(2, 0.0, 1.0)
