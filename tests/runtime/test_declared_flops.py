"""Flops declared to a finish are charged exactly as the task charging them.

``finish_all(..., flops=)`` / ``finish_tasks(..., flops=)`` charge each task's
count when its body returns; a body ending in ``ctx.charge_flops`` is the
reference.  Every observable — per-place clocks to the bit, runtime stats,
finish reports and the engine timeline — must agree, with and without cost,
and with a straggler.  A task that raises is charged nothing, and a bad
declaration raises before any task runs.
"""

import math
from dataclasses import asdict

import pytest

from repro.bench.calibration import regression_cost
from repro.runtime import CostModel, DeadPlaceException, MultipleException
from repro.runtime.factory import make_runtime

PLACES = 5
NAN, INF = float("nan"), float("inf")
PER_PLACE = [1.0e5 * (index + 1) for index in range(PLACES)]
UNIFORM = 2.5e5
#: ``finish_tasks`` with place 1 repeated (its second task queues behind the
#: first) and a zero count.
REPEATED = [(1, 4.0e5), (1, 1.0e5), (3, 0.0), (0, 2.0e5)]


def body(ctx):
    me = ctx.place.id
    ctx.write_remote((me + 1) % PLACES, ("from", me), me, nbytes=4096)
    return me


def charging(n):
    """The reference: the same body, then ``ctx.charge_flops(n)``."""

    def task(ctx):
        value = body(ctx)
        ctx.charge_flops(n)
        return value

    return task


def run_program(cost: CostModel, slowdown: float, declare: bool) -> dict:
    with make_runtime(PLACES, cost=cost, resilient=True, trace=True) as rt:
        if slowdown != 1.0:
            rt.clock.set_slowdown(2, slowdown)
        world = rt.world
        repeated = [(world[pid], n) for pid, n in REPEATED]
        results = []
        if declare:
            results.append(rt.finish_all(world, body, label="per-place", flops=PER_PLACE))
            results.append(rt.finish_all(world, body, label="uniform", flops=UNIFORM))
            results.append(
                rt.finish_tasks(
                    [(place, body) for place, _ in repeated],
                    label="tasks",
                    flops=[n for _, n in repeated],
                )
            )
        else:
            results.append(
                rt.finish_all(
                    world, lambda ctx: charging(PER_PLACE[ctx.place.id])(ctx), label="per-place"
                )
            )
            results.append(rt.finish_all(world, charging(UNIFORM), label="uniform"))
            results.append(
                rt.finish_tasks([(place, charging(n)) for place, n in repeated], label="tasks")
            )
        return {
            "results": results,
            "clocks": {pid: t.hex() for pid, t in rt.clock.snapshot().items()},
            "stats": asdict(rt.stats),
            "timeline": [event.to_record() for event in rt.engine.timeline],
        }


@pytest.mark.parametrize(
    "cost, slowdown",
    [(CostModel.zero(), 1.0), (regression_cost(), 1.0), (regression_cost(), 4.0)],
    ids=["zero", "regression", "straggler"],
)
def test_declared_flops_equal_in_task_charges(cost, slowdown):
    declared = run_program(cost, slowdown, declare=True)
    assert declared == run_program(cost, slowdown, declare=False)
    assert len(declared["timeline"]) > 0
    if cost.is_zero:
        assert set(declared["clocks"].values()) == {(0.0).hex()}


@pytest.mark.parametrize("finish", ["all", "tasks"])
def test_a_task_raising_dead_place_is_not_charged(finish):
    def clocks(raiser_flops):
        """Place 1's task reads from dead place 3 and raises; place 2's completes."""
        with make_runtime(4, cost=regression_cost()) as rt:
            rt.kill(3)

            def task(ctx):
                if ctx.place.id == 1:
                    ctx.read_remote(3, "x", nbytes=8)

            with pytest.raises((DeadPlaceException, MultipleException)):
                if finish == "all":
                    rt.finish_all(rt.world, task, flops=[5.0e5, raiser_flops, 5.0e5, 7.0])
                else:
                    world = rt.world
                    rt.finish_tasks([(world[1], task), (world[2], task)], flops=[raiser_flops, 5.0e5])
            return {pid: t.hex() for pid, t in rt.clock.snapshot().items()}

    assert clocks(1.0e9) == clocks(0.0)


@pytest.mark.parametrize("cost", [CostModel.zero(), regression_cost()], ids=["zero", "regression"])
@pytest.mark.parametrize(
    "flops",
    [-1.0, NAN, INF, -INF, [1.0, 2.0, -3.0, 4.0], [1.0, NAN, 2.0, 3.0], [1.0, 2.0, 3.0]],
    ids=["negative", "nan", "inf", "-inf", "one-negative", "one-nan", "too-few"],
)
def test_bad_declared_flops_raise_before_any_task(cost, flops):
    with make_runtime(4, cost=cost) as rt:
        ran = []
        before = (rt.clock.snapshot(), rt.stats.finishes, rt.stats.tasks)
        with pytest.raises(ValueError):
            rt.finish_all(rt.world, ran.append, flops=flops)
        with pytest.raises(ValueError):
            rt.finish_tasks([(place, ran.append) for place in rt.world], flops=flops)
        assert ran == []
        assert (rt.clock.snapshot(), rt.stats.finishes, rt.stats.tasks) == before


@pytest.mark.parametrize(
    "charge",
    [
        lambda ctx: ctx.charge_flops(NAN),
        lambda ctx: ctx.charge_flops(INF),
        lambda ctx: ctx.charge_seconds(INF),
        lambda ctx: ctx.charge_seconds(-INF),
        lambda ctx: ctx.charge_seconds(NAN),
        lambda ctx: ctx.charge_memcpy(INF),
    ],
    ids=["flops-nan", "flops-inf", "seconds-inf", "seconds--inf", "seconds-nan", "memcpy-inf"],
)
@pytest.mark.parametrize("slowdown", [1.0, 4.0], ids=["", "straggler"])
def test_non_finite_in_task_charges_cannot_poison_virtual_time(charge, slowdown):
    with make_runtime(4, cost=regression_cost()) as rt:
        rt.clock.set_slowdown(2, slowdown)
        with pytest.raises(ValueError, match="non-finite|negative"):
            rt.finish_all(rt.world, charge)
        rt.finish_all(rt.world, lambda ctx: ctx.charge_flops(10.0))
        assert all(math.isfinite(t) for t in rt.clock.snapshot().values())
