"""The zero-time and the timed branch of a finish are one behaviour.

Under ``CostModel.zero()`` with an unmoved clock the runtime skips the
virtual-time recurrences; an enabled engine timeline (``trace=True``) forces
the same program through them.  Everything observable must agree.
"""

import pytest

from repro.runtime import CostModel, DeadPlaceException
from repro.runtime.comm import flat_gather, tree_allreduce, tree_broadcast, tree_reduce
from repro.runtime.factory import make_runtime

PLACES = 6
#: The program's nine finishes as ``(label, live tasks)``: the last one runs
#: after place 3 died.
FINISHES = [
    ("", 6), ("all", 6), ("tasks", 3), ("bcast", 6), ("reduce", 6), ("gather", 6),
    ("allreduce:reduce", 6), ("allreduce:bcast", 6), ("after-kill", 5),
]


def run_program(resilient: bool, trace: bool):
    """Everything observable, the timeline's finishes as ``(label, n_tasks)``
    and its number of ledger services."""
    with make_runtime(PLACES, cost=CostModel.zero(), resilient=resilient, trace=trace) as rt:
        world = rt.world
        results = [rt.finish_all(world, lambda ctx: ctx.heap.put("seed", 10 * ctx.place.id))]

        def body(ctx):
            me = ctx.place.id
            ctx.heap.put("mine", me)
            ctx.charge_flops(100)
            ctx.write_remote((me + 1) % PLACES, ("from", me), me, nbytes=24)
            return ctx.read_remote((me - 1) % PLACES, "seed", nbytes=8)

        results.append(rt.finish_all(world, body, ret_bytes=16, label="all"))
        results.append(
            rt.finish_tasks(
                [
                    (world[1], lambda ctx: ctx.heap.get(("from", 0))),
                    (world[1], lambda ctx: ctx.heap.get("mine") + 1),
                    (world[0], lambda ctx: ctx.heap.get("seed")),
                ],
                ret_bytes=8,
                label="tasks",
            )
        )
        results.append(tree_broadcast(rt, world, 2, 800))
        results.append(tree_reduce(rt, world, 0, 800, reduce_flops=100))
        results.append(flat_gather(rt, world, 1, 160))
        results.append(tree_allreduce(rt, world, 8, reduce_flops=1))

        rt.kill(3)
        with pytest.raises(DeadPlaceException) as raised:
            rt.finish_all(world, lambda ctx: ctx.place.id, label="after-kill")

        assert rt.engine.timeline.enabled is trace
        stats, timeline = rt.stats, rt.engine.timeline
        return (
            {
                "results": results,
                "raised": (type(raised.value), raised.value.places),
                "finishes": stats.finishes,
                "tasks": stats.tasks,
                "kills": stats.kills,
                "clocks": rt.clock.snapshot(),
                "moved": rt.clock._moved,
            },
            [(e.label, e.n_tasks) for e in timeline.of_kind("finish")],
            len(timeline.of_kind("service")),
        )


@pytest.mark.parametrize("resilient", [True, False])
def test_zero_and_timed_branch_agree(resilient):
    zero, untraced, _ = run_program(resilient, trace=False)
    timed, finishes, ledger_events = run_program(resilient, trace=True)
    assert zero == timed
    assert set(zero["clocks"].values()) == {0.0}
    assert zero["moved"] is False
    assert zero["raised"] == (DeadPlaceException, [3])
    assert ledger_events == (2 * zero["tasks"] if resilient else 0)
    # The traced run records every finish; the untraced one nothing.
    assert untraced == []
    assert finishes == FINISHES
    assert sum(n for _, n in finishes) == zero["tasks"]
