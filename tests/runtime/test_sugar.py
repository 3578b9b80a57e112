"""Tests for the X10-style finish / async-at sugar."""

import pytest

from repro.runtime import CostModel, DeadPlaceException, Place, Runtime
from repro.runtime.sugar import at, finish


def make_rt(n=4, **kw):
    return Runtime(n, cost=kw.pop("cost", CostModel.zero()), **kw)


class TestFinishScope:
    def test_basic_fan_out(self):
        rt = make_rt()
        with finish(rt) as f:
            for place in rt.world:
                f.async_at(place, lambda ctx: ctx.heap.put("x", ctx.place.id * 2))
        assert [rt.heap_of(i).get("x") for i in range(4)] == [0, 2, 4, 6]

    def test_handles_resolve_after_exit(self):
        rt = make_rt()
        with finish(rt) as f:
            handles = [f.async_at(p, lambda ctx: ctx.place.id) for p in rt.world]
            assert not handles[0].done  # nothing ran yet inside the scope
        assert [h.result() for h in handles] == [0, 1, 2, 3]

    def test_result_before_completion_rejected(self):
        rt = make_rt()
        with finish(rt) as f:
            h = f.async_at(Place(1), lambda ctx: 1)
            with pytest.raises(ValueError):
                h.result()

    def test_multiple_tasks_same_place_serialize(self):
        # One worker per place: two tasks at the same place run back to back.
        rt = make_rt(cost=CostModel(flop_time=1.0))
        with finish(rt) as f:
            f.async_at(Place(1), lambda ctx: ctx.charge_flops(5))
            f.async_at(Place(1), lambda ctx: ctx.charge_flops(5))
        assert rt.clock.now(1) >= 10.0

    def test_dead_place_surfaces_at_scope_exit(self):
        rt = make_rt()
        rt.kill(2)
        ran = []
        with pytest.raises(DeadPlaceException):
            with finish(rt) as f:
                f.async_at(Place(1), lambda ctx: ran.append(1))
                f.async_at(Place(2), lambda ctx: ran.append(2))
        assert ran == [1]  # live task still ran (X10 semantics)

    def test_empty_scope_is_free(self):
        rt = make_rt(cost=CostModel.unit())
        with finish(rt):
            pass
        assert rt.now() == 0.0
        assert rt.stats.finishes == 0

    def test_body_exception_propagates_without_running_tasks(self):
        rt = make_rt()
        ran = []
        with pytest.raises(RuntimeError, match="boom"):
            with finish(rt) as f:
                f.async_at(Place(1), lambda ctx: ran.append(1))
                raise RuntimeError("boom")
        assert ran == []

    def test_not_reentrant(self):
        rt = make_rt()
        scope = finish(rt)
        with scope:
            with pytest.raises(ValueError):
                scope.__enter__()

    def test_async_outside_scope_rejected(self):
        rt = make_rt()
        scope = finish(rt)
        with pytest.raises(ValueError):
            scope.async_at(Place(1), lambda ctx: None)

    def test_counts_one_finish(self):
        rt = make_rt(trace=True)
        with finish(rt, label="mine") as f:
            for p in rt.world:
                f.async_at(p, lambda ctx: None)
        assert rt.stats.finishes == 1
        (event,) = rt.engine.timeline.of_kind("finish")
        assert (event.label, event.n_tasks) == ("mine", 4)


class TestAt:
    def test_at_returns_value(self):
        rt = make_rt()
        rt.heap_of(3).put("k", 9)
        assert at(rt, Place(3), lambda ctx: ctx.heap.get("k")) == 9
