"""Tests for the Runtime facade: finish semantics, failures, spares."""

import pytest

from repro.runtime import (
    CostModel,
    DeadPlaceException,
    MultipleException,
    Place,
    PlaceGroup,
    PlaceZeroDeadError,
    Runtime,
)


def make_rt(n=4, resilient=False, cost=None, spares=0):
    return Runtime(n, cost=cost or CostModel.zero(), resilient=resilient, spares=spares)


class TestBasics:
    def test_world(self):
        rt = make_rt(4)
        assert rt.world.ids == [0, 1, 2, 3]
        assert all(rt.is_alive(i) for i in range(4))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Runtime(0)
        with pytest.raises(ValueError):
            Runtime(2, spares=-1)
        with pytest.raises(ValueError):
            Runtime(2, cost=CostModel(latency=-1))

    def test_heap_isolation(self):
        rt = make_rt(2)
        rt.finish_all(rt.world, lambda ctx: ctx.heap.put("x", ctx.place.id))
        assert rt.heap_of(0).get("x") == 0
        assert rt.heap_of(1).get("x") == 1

    def test_finish_all_results_in_group_order(self):
        rt = make_rt(3)
        group = PlaceGroup.of_ids([2, 0, 1])
        res = rt.finish_all(group, lambda ctx: ctx.place.id * 10)
        assert res == [20, 0, 10]

    def test_at_returns_value(self):
        rt = make_rt(3)
        rt.heap_of(2).put("k", 99)
        assert rt.at(Place(2), lambda ctx: ctx.heap.get("k")) == 99

    def test_at_dead_place_raises(self):
        rt = make_rt(3)
        rt.kill(2)
        with pytest.raises(DeadPlaceException):
            rt.at(Place(2), lambda ctx: None)


class TestFailures:
    def test_kill_destroys_heap(self):
        rt = make_rt(3)
        rt.heap_of(1).put("data", [1, 2, 3])
        rt.kill(1)
        assert not rt.is_alive(1)
        with pytest.raises(DeadPlaceException):
            rt.heap_of(1)

    def test_kill_place_zero_fatal(self):
        rt = make_rt(3)
        with pytest.raises(PlaceZeroDeadError):
            rt.kill(0)

    def test_kill_idempotent(self):
        rt = make_rt(3)
        rt.kill(1)
        rt.kill(1)
        assert rt.stats.kills == 1

    def test_finish_completes_live_tasks_then_raises(self):
        # X10 semantics: surviving tasks run to completion before the
        # DeadPlaceException surfaces at the finish.
        rt = make_rt(4)
        rt.kill(2)
        ran = []
        with pytest.raises(DeadPlaceException) as exc_info:
            rt.finish_all(rt.world, lambda ctx: ran.append(ctx.place.id))
        assert sorted(ran) == [0, 1, 3]
        assert exc_info.value.places == [2]

    def test_multiple_failures_aggregated(self):
        rt = make_rt(5)
        rt.kill(1)
        rt.kill(3)
        with pytest.raises(MultipleException) as exc_info:
            rt.finish_all(rt.world, lambda ctx: None)
        assert exc_info.value.places == [1, 3]

    def test_dead_place_exception_inside_task_collected(self):
        # A task that reads from a dead place surfaces at the finish.
        rt = make_rt(3, cost=CostModel.zero())
        rt.heap_of(2).put("k", 7)
        rt.kill(2)

        def reader(ctx):
            if ctx.place.id == 1:
                return ctx.read_remote(2, "k", nbytes=8)
            return None

        with pytest.raises(DeadPlaceException):
            rt.finish_all(PlaceGroup.of_ids([0, 1]), reader)

    def test_injector_phase_kill(self):
        rt = make_rt(3)
        rt.injector.kill_at_phase(1, phase=2)
        rt.finish_all(rt.world, lambda ctx: None)  # phase 1: fine
        with pytest.raises(DeadPlaceException):
            rt.finish_all(rt.world, lambda ctx: None)  # phase 2: place 1 dead

    def test_live_group(self):
        rt = make_rt(4)
        rt.kill(2)
        assert rt.live_world().ids == [0, 1, 3]
        g = PlaceGroup.of_ids([2, 3])
        assert rt.live_group(g).ids == [3]


class TestSparesAndElastic:
    def test_spares_not_in_world(self):
        rt = make_rt(3, spares=2)
        assert rt.world.size == 3
        assert rt.spares_remaining == 2

    def test_claim_spare(self):
        rt = make_rt(3, spares=2)
        s1 = rt.claim_spare()
        s2 = rt.claim_spare()
        assert {s1.id, s2.id} == {3, 4}
        assert rt.claim_spare() is None

    def test_dead_spare_not_claimable(self):
        rt = make_rt(3, spares=1)
        rt.kill(3)
        assert rt.claim_spare() is None
        assert rt.spares_remaining == 0

    def test_elastic_add_place(self):
        rt = make_rt(2)
        p = rt.add_place()
        assert p.id == 2
        assert rt.is_alive(2)
        # New place's clock starts at the current global time or later.
        assert rt.clock.now(2) >= 0.0
        p2 = rt.add_place()
        assert p2.id == 3


class TestVirtualTime:
    def test_zero_cost_runs_in_zero_time(self):
        rt = make_rt(4)
        rt.finish_all(rt.world, lambda ctx: None)
        assert rt.now() == 0.0

    def test_finish_time_components_unit_cost(self):
        # Unit cost, 2 places (driver + 1 remote), no compute:
        # spawns: 2 * spawn(1); remote task begins at spawn_t + msg(1) ...
        rt = make_rt(2, cost=CostModel.unit())
        rt.finish_all(rt.world, lambda ctx: None)
        t = rt.now()
        assert t > 0
        # Deterministic: rerunning the same phase costs the same again.
        rt2 = make_rt(2, cost=CostModel.unit())
        rt2.finish_all(rt2.world, lambda ctx: None)
        assert rt2.now() == t

    def test_compute_advances_task_place_only_until_join(self):
        rt = make_rt(3, cost=CostModel(flop_time=1.0))

        def work(ctx):
            if ctx.place.id == 2:
                ctx.charge_flops(5)

        rt.finish_all(rt.world, work)
        # Join waits for the slowest task: driver time >= 5.
        assert rt.now() >= 5.0

    def test_resilient_finish_costs_more(self):
        cost = CostModel(
            task_spawn_time=1e-6,
            task_join_time=1e-6,
            latency=1e-6,
            ledger_event_time=1e-3,
        )
        t = {}
        for resilient in (False, True):
            rt = make_rt(8, resilient=resilient, cost=cost)
            for _ in range(5):
                rt.finish_all(rt.world, lambda ctx: None)
            t[resilient] = rt.now()
        assert t[True] > t[False]

    def test_ledger_hides_under_long_tasks(self):
        # Bookkeeping overlaps computation: a long task window absorbs the
        # ledger's processing, so resilient overhead shrinks relative to a
        # short task window (the paper's PageRank-vs-LinReg effect).
        cost = CostModel(flop_time=1.0, ledger_event_time=0.5, latency=0.001)

        def overhead(task_flops):
            times = {}
            for resilient in (False, True):
                rt = make_rt(8, resilient=resilient, cost=cost)
                rt.finish_all(rt.world, lambda ctx: ctx.charge_flops(task_flops))
                times[resilient] = rt.now()
            return times[True] - times[False]

        assert overhead(0.001) > overhead(100.0) * 0.5  # long tasks hide events

    def test_stats_counters(self):
        rt = make_rt(4, resilient=True, cost=CostModel.unit())
        rt.engine.set_tracing(True)
        rt.finish_all(rt.world, lambda ctx: None, label="phase-a")
        assert rt.stats.finishes == 1
        assert rt.stats.tasks == 4
        # Spawn + termination per task, each one ledger service.
        assert len(rt.engine.timeline.of_kind("service")) == 8
        (finish,) = rt.engine.timeline.of_kind("finish")
        assert finish.label == "phase-a"
        assert finish.n_tasks == 4


class TestFlatCharges:
    """``PlaceContext.charge_*`` store into the clock themselves; the cases
    ``VirtualClock.advance`` guards must still reach it."""

    def test_negative_charges_rejected(self):
        rt = make_rt(2, cost=CostModel.unit())
        ctx = rt.context(rt.world[1])
        for charge, amount in (
            (ctx.charge_flops, -1),
            (ctx.charge_memcpy, -8),
            (ctx.charge_seconds, -1),
        ):
            with pytest.raises(ValueError, match="cannot advance clock by negative time"):
                charge(amount)
        assert rt.clock.now(1) == 0.0 and rt.clock._moved is False

    def test_straggler_charges_are_stretched(self):
        rt = make_rt(2, cost=CostModel.unit())
        ctx = rt.context(rt.world[1])
        rt.set_straggler(1, 3.0)
        ctx.charge_flops(2)
        assert rt.clock.now(1) == 6.0
        ctx.charge_memcpy(8)
        assert rt.clock.now(1) == 30.0
        ctx.charge_seconds(1.0)
        assert rt.clock.now(1) == 33.0
        rt.set_straggler(1, 1.0)
        ctx.charge_flops(2)
        ctx.charge_memcpy(8)
        assert rt.clock.now(1) == 43.0
        assert rt.clock.now(0) == 0.0

    def test_a_charge_marks_the_clock_moved(self):
        rt = make_rt(2, cost=CostModel(flop_time=1.0))
        assert rt.clock._moved is False
        rt.context(rt.world[1]).charge_flops(0)
        assert rt.clock._moved is False
        rt.context(rt.world[1]).charge_flops(1)
        assert rt.clock._moved is True

    def test_a_timed_finish_marks_the_clock_moved(self):
        rt = make_rt(3, cost=CostModel.unit())
        assert rt.clock._moved is False
        rt.finish_all(rt.world, lambda ctx: None)
        assert rt.clock._moved is True
        assert not rt.engine.zero_fast()
        assert all(t > 0.0 for t in rt.clock.snapshot().values())


class TestClose:
    """``Runtime.close()``: the owner of a world releases it by refcount."""

    def test_payload_dies_at_close_without_a_gc_run(self):
        import gc
        import weakref

        import numpy as np

        from repro.matrix.distvector import DistVector
        from repro.runtime import make_runtime

        gc.collect()
        gc.disable()
        try:
            rt = make_runtime(3, resilient=True)
            v = DistVector.make(rt, 9).init(2.0)
            v.scale(3.0)  # exercise cached contexts and finishes
            payload = weakref.ref(rt.heap_of(1).get(v.heap_key).data)
            assert isinstance(payload(), np.ndarray)
            rt.close()
            assert payload() is None
        finally:
            gc.enable()

    def test_use_after_close_raises_and_close_is_idempotent(self):
        from repro.matrix.distvector import DistVector

        rt = make_rt(3)
        v = DistVector.make(rt, 9).init(1.0)
        rt.close()
        rt.close()
        with pytest.raises(RuntimeError, match="heap of dead place"):
            rt.heap_of(1).get(v.heap_key)
        with pytest.raises(RuntimeError, match="heap of dead place"):
            v.scale(2.0)
        with pytest.raises(RuntimeError, match="heap of dead place"):
            rt.finish_all(rt.world, lambda ctx: len(ctx.heap))

    def test_context_manager_closes_on_exception(self):
        from repro.runtime import make_runtime

        with pytest.raises(KeyError):
            with make_runtime(2) as rt:
                assert not rt.heap_of(1).destroyed
                raise KeyError("boom")
        assert all(heap.destroyed for heap in rt._heaps.values())
        assert not rt._ctx_cache
