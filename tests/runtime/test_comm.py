"""Tests for modeled collectives: timing shape and failure behaviour."""

import math

import pytest

from repro.runtime import CostModel, DeadPlaceException, PlaceGroup, Runtime
from repro.runtime.comm import (
    check_group_alive,
    flat_gather,
    point_to_point,
    tree_allreduce,
    tree_broadcast,
    tree_reduce,
)


def rt_with(n, **cost_kwargs):
    return Runtime(n, cost=CostModel(**cost_kwargs))


class TestPointToPoint:
    def test_advances_destination(self):
        rt = rt_with(3, latency=1.0, byte_time=0.5)
        t = point_to_point(rt, 1, 2, nbytes=4)
        assert t == pytest.approx(1.0 + 2.0)
        assert rt.clock.now(2) == pytest.approx(3.0)

    def test_dead_endpoints(self):
        rt = rt_with(3)
        rt.kill(2)
        with pytest.raises(DeadPlaceException):
            point_to_point(rt, 0, 2, 8)
        with pytest.raises(DeadPlaceException):
            point_to_point(rt, 2, 0, 8)


class TestBroadcast:
    def test_logarithmic_rounds(self):
        # Tree broadcast: the last receiver waits ~ceil(log2 P) message times.
        lat = 1.0
        for P in (2, 4, 8, 16):
            rt = rt_with(P, latency=lat)
            tree_broadcast(rt, rt.world, 0, nbytes=0)
            depth = math.ceil(math.log2(P))
            # Place 0 is also the finish driver (its clock includes the
            # join), so measure the pure receivers.
            last = max(rt.clock.now(i) for i in range(1, P))
            assert last == pytest.approx(depth * lat)

    def test_nonzero_root(self):
        rt = rt_with(4, latency=1.0)
        tree_broadcast(rt, rt.world, root_index=2, nbytes=0)
        assert max(rt.clock.now(i) for i in range(1, 4)) == pytest.approx(2.0)

    def test_dead_member_raises_before_data_moves(self):
        rt = rt_with(4, latency=1.0)
        rt.kill(3)
        with pytest.raises(DeadPlaceException):
            tree_broadcast(rt, rt.world, 0, nbytes=8)

    def test_single_place_group(self):
        rt = rt_with(2, latency=1.0)
        g = PlaceGroup.of_ids([1])
        tree_broadcast(rt, g, 0, nbytes=8)  # no sends needed
        assert rt.clock.now(1) == 0.0


class TestGather:
    def test_linear_in_places(self):
        # Flat gather: root absorbs P-1 payloads serially.
        bt = 1.0
        costs = {}
        for P in (3, 5, 9):
            rt = rt_with(P, byte_time=bt)
            flat_gather(rt, rt.world, 0, nbytes_each=2.0)
            costs[P] = rt.clock.now(0)
        assert costs[5] == pytest.approx(costs[3] + 2 * 2.0)
        assert costs[9] == pytest.approx(costs[5] + 4 * 2.0)

    def test_dead_member(self):
        rt = rt_with(3)
        rt.kill(1)
        with pytest.raises(DeadPlaceException):
            flat_gather(rt, rt.world, 0, 8)


class TestReduceAllreduce:
    def test_reduce_log_depth(self):
        rt = rt_with(8, latency=1.0)
        rt.engine.set_tracing(True)
        tree_reduce(rt, rt.world, 0, nbytes=0)
        # The slowest task (the root's final merge) lands at log2(8) rounds.
        finish = rt.engine.timeline.of_kind("finish")[-1]
        assert finish.task_end_max == pytest.approx(3.0)

    def test_reduce_flops_charged(self):
        rt = rt_with(2, flop_time=1.0)
        tree_reduce(rt, rt.world, 0, nbytes=0, reduce_flops=10)
        assert rt.clock.now(0) == pytest.approx(10.0)

    def test_allreduce_all_places_advance(self):
        rt = rt_with(4, latency=1.0)
        tree_allreduce(rt, rt.world, nbytes=0)
        times = [rt.clock.now(i) for i in range(4)]
        assert min(times) > 0

    def test_allreduce_counts_two_finishes(self):
        rt = rt_with(4, latency=1.0)
        tree_allreduce(rt, rt.world, nbytes=0)
        assert rt.stats.finishes == 2


class TestResilienceAccounting:
    def test_collectives_pay_ledger_when_resilient(self):
        cost = CostModel(latency=1e-6, ledger_event_time=1e-3)
        t = {}
        for resilient in (False, True):
            rt = Runtime(8, cost=cost, resilient=resilient)
            tree_broadcast(rt, rt.world, 0, nbytes=0)
            t[resilient] = rt.now()
        assert t[True] > t[False]

    def test_check_group_alive(self):
        rt = rt_with(4)
        check_group_alive(rt, rt.world)  # no raise
        rt.kill(2)
        with pytest.raises(DeadPlaceException):
            check_group_alive(rt, rt.world)
