"""Tests for the engine's typed event timeline and its JSONL round-trip."""

import io

from repro.engine import (
    DiskEvent,
    EngineEvent,
    FinishEvent,
    MembershipEvent,
    Scheduler,
    ServiceEvent,
    Timeline,
    TransferEvent,
    event_from_record,
    load_jsonl,
)
from repro.runtime.cost import CostModel
from repro.runtime.runtime import Runtime


class TestTimeline:
    def test_disabled_timeline_records_nothing(self):
        tl = Timeline(enabled=False)
        tl.record(TransferEvent(t_start=0.0, t_end=1.0))
        assert len(tl) == 0

    def test_of_kind_filters(self):
        tl = Timeline(enabled=True)
        tl.record(TransferEvent(t_start=0.0, t_end=1.0, src=0, dst=1))
        tl.record(DiskEvent(t_start=1.0, t_end=2.0, place=0))
        assert [e.kind for e in tl] == ["transfer", "disk"]
        assert len(tl.of_kind("transfer")) == 1
        assert tl.of_kind("transfer")[0].dst == 1

    def test_duration(self):
        e = ServiceEvent(t_start=2.0, t_end=5.0, resource="('ledger',)")
        assert e.duration == 3.0


class TestJsonlRoundTrip:
    def test_round_trip_preserves_types_and_fields(self):
        tl = Timeline(enabled=True)
        events = [
            TransferEvent(t_start=0.0, t_end=4.0, src=0, dst=1, nbytes=3.0, route="nic"),
            ServiceEvent(t_start=4.0, t_end=5.0, resource="('ledger',)"),
            DiskEvent(t_start=5.0, t_end=9.0, place=2, nbytes=8.0, op="read"),
            FinishEvent(
                t_start=0.0, t_end=10.0, label="step", n_tasks=4,
                task_end_max=8.0, ledger_ready=9.5,
            ),
            MembershipEvent(t_start=10.0, t_end=10.0, op="kill", place=2),
            MembershipEvent(t_start=11.0, t_end=11.0, op="lease", name="job-1", members=(1, 3)),
        ]
        for e in events:
            tl.record(e)
        buf = io.StringIO()
        assert tl.dump_jsonl(buf) == 6
        buf.seek(0)
        assert load_jsonl(buf) == events

    def test_unknown_kind_degrades_to_base_event(self):
        e = event_from_record({"kind": "martian", "t_start": 1.0, "t_end": 2.0, "x": 9})
        assert type(e) is EngineEvent
        assert (e.t_start, e.t_end) == (1.0, 2.0)

    def test_dump_to_path(self, tmp_path):
        tl = Timeline(enabled=True)
        tl.record(TransferEvent(t_start=0.0, t_end=1.0, src=0, dst=1))
        path = str(tmp_path / "events.jsonl")
        assert tl.dump_jsonl(path) == 1
        assert load_jsonl(path) == tl.events


class TestSchedulerRecording:
    def test_transfer_and_disk_events_recorded_when_enabled(self):
        s = Scheduler(CostModel.unit(), timeline=Timeline(enabled=True))
        s.register_place(0)
        s.register_place(1)
        s.transfer(0, 1, 3.0, t_request=0.0)
        s.stable_write(0, 2.0)
        kinds = [e.kind for e in s.timeline]
        assert kinds == ["transfer", "disk"]
        transfer = s.timeline.of_kind("transfer")[0]
        assert (transfer.src, transfer.dst, transfer.route) == (0, 1, "p2p")

    def test_runtime_trace_flag_enables_engine_timeline(self):
        rt = Runtime(3, cost=CostModel.unit(), resilient=True, trace=True)
        rt.finish_all(rt.world, lambda ctx: ctx.charge_flops(10.0), label="step")
        assert rt.engine.timeline.enabled
        finishes = rt.engine.timeline.of_kind("finish")
        assert finishes and finishes[-1].label == "step"
        # Resilient finish pushed bookkeeping through the ledger resource.
        assert rt.engine.timeline.of_kind("service")

    def test_membership_changes_are_timeline_events(self):
        rt = Runtime(4, cost=CostModel.unit(), spares=1, trace=True)
        lease = rt.pool.lease(size=2, name="job")
        rt.kill(lease.members[0].id)
        rt.revive(lease.members[0].id)
        added = rt.add_place()
        rt.pool.release(lease)
        events = rt.engine.timeline.of_kind("membership")
        assert [e.op for e in events] == ["lease", "kill", "repair", "add_place", "release"]
        assert events[0].members == tuple(p.id for p in lease.members)
        assert (events[0].name, events[4].name) == ("job", "job")
        assert [e.place for e in events[1:4]] == [lease.members[0].id] * 2 + [added.id]
        assert all(e.t_start == e.t_end for e in events)

    def test_runtime_default_keeps_timeline_off(self):
        rt = Runtime(3, cost=CostModel.unit())
        rt.finish_all(rt.world, lambda ctx: ctx.charge_flops(10.0), label="step")
        assert not rt.engine.timeline.enabled
        assert len(rt.engine.timeline) == 0
