"""Tests for the finish-profiling and timeline rendering tools."""

import pytest

from repro.bench.timeline import (
    OpProfile,
    profile_finishes,
    render_profile,
    render_timeline,
)
from repro.engine.timeline import FinishEvent, iter_spans
from repro.runtime import CostModel, Runtime


def make_finish(label, start, end, n_tasks=2, ledger_ready=0.0, task_end_max=0.0):
    return FinishEvent(
        t_start=start,
        t_end=end,
        label=label,
        n_tasks=n_tasks,
        task_end_max=task_end_max or end,
        ledger_ready=ledger_ready,
    )


class TestProfile:
    def test_groups_by_operation_suffix(self):
        finishes = [
            make_finish("DupVector:axpy", 0.0, 1.0),
            make_finish("DistVector:axpy", 1.0, 3.0),
            make_finish("matvec", 3.0, 4.0),
        ]
        profiles = {p.op: p for p in profile_finishes(finishes)}
        assert profiles["axpy"].count == 2
        assert profiles["axpy"].total_time == pytest.approx(3.0)
        assert profiles["matvec"].count == 1

    def test_sorted_by_total_time(self):
        finishes = [
            make_finish("a", 0.0, 1.0),
            make_finish("b", 0.0, 5.0),
        ]
        assert [p.op for p in profile_finishes(finishes)] == ["b", "a"]

    def test_stall_fraction(self):
        # Finish ends at the ledger-ready time, 1s past the last task.
        report = make_finish("x", 0.0, 3.0, ledger_ready=3.0, task_end_max=2.0)
        profile = profile_finishes([report])[0]
        assert profile.ledger_stall == pytest.approx(1.0)
        assert profile.stall_fraction == pytest.approx(1.0 / 3.0)

    def test_empty_profile(self):
        assert profile_finishes([]) == []
        assert OpProfile(op="x").mean_time == 0.0
        assert OpProfile(op="x").stall_fraction == 0.0

    def test_render_profile_table(self):
        finishes = [make_finish(f"op{i}", 0.0, float(i + 1)) for i in range(15)]
        text = render_profile(finishes, top=5)
        assert "operation" in text
        assert "(other)" in text  # overflow row present

    def test_render_from_real_run(self):
        rt = Runtime(3, cost=CostModel.unit(), trace=True)
        rt.finish_all(rt.world, lambda ctx: None, label="Thing:work")
        text = render_profile(rt.engine.timeline.of_kind("finish"))
        assert "work" in text


class TestTimeline:
    def test_empty(self):
        assert "no finishes" in render_timeline([])

    def test_bars_scale_with_duration(self):
        finishes = [
            make_finish("short", 0.0, 1.0),
            make_finish("long", 1.0, 10.0),
        ]
        text = render_timeline(finishes, width=20)
        lines = text.splitlines()
        assert "short" in lines[1] and "long" in lines[2]
        assert lines[2].count("█") > lines[1].count("█")

    def test_row_cap(self):
        finishes = [make_finish("x", float(i), float(i + 1)) for i in range(50)]
        text = render_timeline(finishes, max_rows=10)
        assert "40 more finishes not shown" in text


class TestEngineEventConsumption:
    def test_finish_reports_from_events_round_trip(self, tmp_path):
        from repro.bench.timeline import load_engine_events

        rt = Runtime(3, cost=CostModel.unit(), resilient=True, trace=True)
        rt.finish_all(rt.world, lambda ctx: None, label="Thing:work")
        path = str(tmp_path / "events.jsonl")
        rt.engine.timeline.dump_jsonl(path)

        dumped = list(iter_spans(load_engine_events(path), "finish"))
        live = rt.engine.timeline.of_kind("finish")
        assert len(live) == 1 and dumped == live
        assert live[0].ledger_ready > live[0].task_end_max  # a stall to carry

    def test_profile_matches_live_reports(self, tmp_path):
        from repro.bench.timeline import load_engine_events

        rt = Runtime(3, cost=CostModel.unit(), resilient=True, trace=True)
        rt.finish_all(rt.world, lambda ctx: None, label="A:op1")
        rt.finish_all(rt.world, lambda ctx: None, label="B:op2")
        path = str(tmp_path / "events.jsonl")
        rt.engine.timeline.dump_jsonl(path)
        dumped = list(iter_spans(load_engine_events(path), "finish"))
        live = rt.engine.timeline.of_kind("finish")
        assert render_profile(dumped) == render_profile(live)
        assert render_timeline(dumped) == render_timeline(live)

    def test_non_finish_events_ignored(self):
        from repro.engine import TransferEvent

        events = [TransferEvent(t_start=0.0, t_end=1.0, src=0, dst=1)]
        assert list(iter_spans(events, "finish")) == []
        assert profile_finishes(iter_spans(events, "finish")) == []
