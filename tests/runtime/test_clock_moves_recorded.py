"""No clock moves off the record.

On a traced runtime every public entry point that moves a virtual clock
leaves at least one engine ``Timeline`` event, so a profile folded from
the timeline accounts for all of virtual time's movers.
"""

import pytest

from repro.engine.timeline import FinishEvent
from repro.runtime import CostModel, Place, Runtime
from repro.runtime.detector import PhiAccrualDetector


def _traced():
    return Runtime(4, cost=CostModel.unit(), resilient=True, spares=1, trace=True)


def _revive(rt):
    rt.kill(3)
    rt.engine.timeline.clear()
    rt.revive(3)


def _detector_resolve(rt):
    detector = PhiAccrualDetector(rt, detect_timeout=1.0)
    rt.kill(1)
    rt.engine.timeline.clear()  # only the detection wait is checked
    detector.resolve([1])


def _read_remote(rt):
    rt.at(Place(1), lambda ctx: ctx.heap.put("k", 1))
    rt.engine.timeline.clear()  # only the read's own finish is checked
    rt.finish_tasks([(Place(2), lambda ctx: ctx.read_remote(1, "k", 8))])


ENTRY_POINTS = {
    "at": lambda rt: rt.at(Place(2), lambda ctx: None),
    "finish_all": lambda rt: rt.finish_all(rt.world, lambda ctx: None),
    "finish_tasks": lambda rt: rt.finish_tasks([(Place(1), lambda ctx: None)]),
    "add_place": lambda rt: rt.add_place(),
    "detector.resolve": _detector_resolve,
    "revive": _revive,
    "read_remote": _read_remote,
    "write_remote": lambda rt: rt.finish_tasks(
        [(Place(2), lambda ctx: ctx.write_remote(1, "k", 1, 8))]
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_leaves_an_event(name):
    rt = _traced()
    before = rt.clock.snapshot()
    ENTRY_POINTS[name](rt)
    assert rt.clock.snapshot() != before
    assert len(rt.engine.timeline) >= 1


@pytest.mark.parametrize("name", ["read_remote", "write_remote"])
def test_remote_access_leaves_a_transfer_beside_its_finish(name):
    rt = _traced()
    ENTRY_POINTS[name](rt)
    kinds = {e.kind for e in rt.engine.timeline}
    assert "transfer" in kinds
    assert "finish" in kinds


def test_at_leaves_exactly_one_finish():
    rt = _traced()
    rt.at(Place(2), lambda ctx: None)
    finishes = [e for e in rt.engine.timeline if isinstance(e, FinishEvent)]
    assert len(finishes) == 1
    assert finishes[0].n_tasks == 1


def test_detection_wait_is_one_detector_span():
    rt = _traced()
    before = rt.now()
    _detector_resolve(rt)
    (event,) = rt.engine.timeline
    assert event.kind == "service" and event.resource == "detector"
    assert event.t_start == before and event.t_end == rt.now() > before
