"""The zero-time and the timed branch of a finish are one behaviour.

Under ``CostModel.zero()`` with an unmoved clock the runtime skips the
virtual-time recurrences; an enabled engine timeline (``trace=True``) forces
the same program through them.  Everything observable must agree.
"""

from dataclasses import asdict

import pytest

from repro.runtime import CostModel, DeadPlaceException
from repro.runtime.comm import flat_gather, tree_allreduce, tree_broadcast, tree_reduce
from repro.runtime.factory import make_runtime

PLACES = 6


def run_program(resilient: bool, trace: bool) -> dict:
    with make_runtime(PLACES, cost=CostModel.zero(), resilient=resilient, trace=trace) as rt:
        world = rt.world
        results = [rt.finish_all(world, lambda ctx: ctx.heap.put("seed", 10 * ctx.place.id))]

        def body(ctx):
            me = ctx.place.id
            ctx.heap.put("mine", me)
            ctx.charge_flops(100)
            ctx.write_remote((me + 1) % PLACES, ("from", me), me, nbytes=24)
            return ctx.read_remote((me - 1) % PLACES, "seed", nbytes=8)

        results.append(rt.finish_all(world, body, arg_bytes=64, ret_bytes=16, label="all"))
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
        stats = rt.stats
        return {
            "results": results,
            "raised": (type(raised.value), raised.value.places),
            "finishes": stats.finishes,
            "tasks": stats.tasks,
            "messages": stats.messages,
            "bytes_sent": stats.bytes_sent.hex(),
            "kills": stats.kills,
            "reports": [asdict(report) for report in stats.finish_reports],
            "ledger": asdict(rt.ledger.stats),
            "clocks": rt.clock.snapshot(),
            "moved": rt.clock._moved,
        }


@pytest.mark.parametrize("resilient", [True, False])
def test_zero_and_timed_branch_agree(resilient):
    zero = run_program(resilient, trace=False)
    timed = run_program(resilient, trace=True)
    assert zero == timed
    assert set(zero["clocks"].values()) == {0.0}
    assert zero["moved"] is False
    assert zero["raised"] == (DeadPlaceException, [3])
    assert len(zero["reports"]) == 9 and zero["reports"][-1]["dead_places"] == [3]
    assert zero["ledger"]["events"] == (2 * zero["tasks"] if resilient else 0)
