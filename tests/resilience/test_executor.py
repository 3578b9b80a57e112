"""Tests for the resilient iterative executor and restoration modes."""

import numpy as np
import pytest

from repro.matrix.dupvector import DupVector
from repro.resilience.executor import (
    ExecutionReport,
    IterativeExecutor,
    NonResilientExecutor,
    RestoreMode,
)
from repro.resilience.iterative import ResilientIterativeApp
from repro.runtime import CostModel, DataLossError, Runtime


class CountingApp(ResilientIterativeApp):
    """A minimal app: a DupVector accumulating +1 per iteration."""

    def __init__(self, runtime, iterations=10, group=None):
        self.runtime = runtime
        self.iterations = iterations
        self._places = group if group is not None else runtime.world
        self.iteration = 0
        self.state = DupVector.make(runtime, 4, self._places)
        self.step_log = []
        self.restore_log = []

    @property
    def places(self):
        return self._places

    def is_finished(self):
        return self.iteration >= self.iterations

    def step(self):
        self.state.cell_add(1.0)
        self.step_log.append(self.iteration)
        self.iteration += 1

    def checkpoint(self, store):
        store.start_new_snapshot()
        store.save(self.state)
        store.commit(iteration=self.iteration)

    def restore(self, new_places, store, snapshot_iter):
        self.state.remake(new_places)
        self._places = new_places
        store.restore()
        self.iteration = snapshot_iter
        self.restore_log.append((new_places.ids, snapshot_iter, self.restore_context.rebalance))


def run_with_failure(
    mode, iterations=10, interval=4, kill_at=6, spares=0, nplaces=4, **executor_kwargs
):
    rt = Runtime(nplaces, cost=CostModel.zero(), resilient=True, spares=spares)
    app = CountingApp(rt, iterations)
    rt.injector.kill_at_iteration(2, iteration=kill_at)
    executor = IterativeExecutor(
        rt, app, checkpoint_interval=interval, mode=mode, **executor_kwargs
    )
    report = executor.run()
    return rt, app, report


class TestHappyPath:
    def test_runs_to_completion(self):
        rt = Runtime(3, cost=CostModel.zero())
        app = CountingApp(rt, 7)
        report = IterativeExecutor(rt, app, checkpoint_interval=3).run()
        assert app.iteration == 7
        assert np.allclose(app.state.to_array(), 7.0)
        assert report.iterations_executed == 7
        assert report.restores == 0
        # Checkpoints at iterations 0, 3, 6.
        assert report.checkpoints == 3

    def test_nonresilient_executor(self):
        rt = Runtime(3, cost=CostModel.zero())
        app = CountingApp(rt, 5)
        report = NonResilientExecutor(rt, app).run()
        assert report.iterations_executed == 5
        assert report.checkpoints == 0

    def test_invalid_interval(self):
        rt = Runtime(2)
        with pytest.raises(ValueError):
            IterativeExecutor(rt, CountingApp(rt, 1), checkpoint_interval=0)

    def test_invalid_fallback(self):
        rt = Runtime(2)
        with pytest.raises(ValueError):
            IterativeExecutor(
                rt, CountingApp(rt, 1), spare_fallback=RestoreMode.REPLACE_REDUNDANT
            )


class TestFailureRecovery:
    def test_shrink_result_correct(self):
        rt, app, report = run_with_failure(RestoreMode.SHRINK)
        assert np.allclose(app.state.to_array(), 10.0)
        assert report.restores == 1
        assert report.failures_observed == 1
        assert app.places.ids == [0, 1, 3]
        # Rolled back to the checkpoint at iteration 4, redid 4..5.
        assert report.iterations_executed == 10 + (6 - 4)

    def test_rollback_repeats_iterations(self):
        rt, app, report = run_with_failure(RestoreMode.SHRINK, kill_at=7, interval=4)
        # Steps 4, 5, 6 were re-executed after the rollback to iteration 4.
        assert app.step_log.count(4) == 2
        assert app.step_log.count(6) == 2
        assert app.step_log.count(7) == 1

    def test_no_duplicate_checkpoint_after_restore(self):
        # After rolling back to iteration 4 (= the snapshot), the executor
        # must not immediately re-checkpoint the state it just restored.
        rt, app, report = run_with_failure(RestoreMode.SHRINK, kill_at=6, interval=4)
        # Checkpoints: 0, 4, 8 — exactly three, not four.
        assert report.checkpoints == 3

    def test_shrink_rebalance_sets_context_flag(self):
        rt, app, report = run_with_failure(RestoreMode.SHRINK_REBALANCE)
        assert app.restore_log[-1][2] is True

    def test_shrink_does_not_set_rebalance(self):
        rt, app, report = run_with_failure(RestoreMode.SHRINK)
        assert app.restore_log[-1][2] is False

    def test_replace_redundant_keeps_group_size(self):
        rt, app, report = run_with_failure(RestoreMode.REPLACE_REDUNDANT, spares=2)
        assert app.places.size == 4
        assert app.places.ids == [0, 1, 4, 3]  # spare took index 2
        assert np.allclose(app.state.to_array(), 10.0)

    def test_replace_redundant_falls_back_when_spares_exhausted(self):
        rt, app, report = run_with_failure(RestoreMode.REPLACE_REDUNDANT, spares=0)
        assert app.places.ids == [0, 1, 3]  # shrank instead
        assert np.allclose(app.state.to_array(), 10.0)
        assert app.restore_log[-1][2] is False  # fallback was SHRINK

    def test_replace_elastic_creates_new_place(self):
        rt, app, report = run_with_failure(RestoreMode.REPLACE_ELASTIC)
        assert app.places.size == 4
        assert app.places.ids == [0, 1, 4, 3]  # id 4 is brand new
        assert np.allclose(app.state.to_array(), 10.0)

    def test_multiple_failures_across_run(self):
        rt = Runtime(5, cost=CostModel.zero(), resilient=True)
        app = CountingApp(rt, 12)
        rt.injector.kill_at_iteration(2, iteration=3)
        rt.injector.kill_at_iteration(4, iteration=8)
        report = IterativeExecutor(rt, app, checkpoint_interval=3, mode=RestoreMode.SHRINK).run()
        assert report.restores == 2
        assert app.places.ids == [0, 1, 3]
        assert np.allclose(app.state.to_array(), 12.0)

    def test_two_simultaneous_failures(self):
        rt = Runtime(6, cost=CostModel.zero(), resilient=True)
        app = CountingApp(rt, 10)
        # Non-adjacent victims: snapshot survives.
        rt.injector.kill_at_iteration(2, iteration=5)
        rt.injector.kill_at_iteration(4, iteration=5)
        report = IterativeExecutor(rt, app, checkpoint_interval=4).run()
        assert report.restores == 1
        assert report.failures_observed == 2
        assert np.allclose(app.state.to_array(), 10.0)

    def test_failure_before_first_checkpoint_unrecoverable(self):
        rt = Runtime(3, cost=CostModel.zero(), resilient=True)
        app = CountingApp(rt, 5)
        # Kill during the very first checkpoint (phase-level injection):
        # save() raises before anything committed.
        rt.injector.kill_at_phase(1, phase=rt.phase + 1)
        with pytest.raises(DataLossError):
            IterativeExecutor(rt, app, checkpoint_interval=3).run()

    def test_adjacent_double_failure_raises_data_loss(self, monkeypatch):
        monkeypatch.setattr("repro.resilience.executor.MAX_RESTORE_ATTEMPTS", 2)
        rt = Runtime(5, cost=CostModel.zero(), resilient=True)
        app = CountingApp(rt, 10)
        rt.injector.kill_at_iteration(2, iteration=5)
        rt.injector.kill_at_iteration(3, iteration=5)
        with pytest.raises(DataLossError):
            IterativeExecutor(rt, app, checkpoint_interval=4).run()


class TestReportAccounting:
    def test_segment_times_sum_close_to_total(self):
        rt = Runtime(4, cost=CostModel.laptop(), resilient=True)
        app = CountingApp(rt, 8)
        rt.injector.kill_at_iteration(2, iteration=5)
        report = IterativeExecutor(rt, app, checkpoint_interval=4).run()
        assert report.total_time > 0
        parts = (
            report.step_time
            + report.checkpoint_time
            + report.restore_time
            + report.lost_time
        )
        assert parts == pytest.approx(report.total_time, rel=0.01)

    def test_percentages(self):
        report = ExecutionReport(
            step_time=6.0, checkpoint_time=3.0, restore_time=1.0, total_time=10.0
        )
        assert report.checkpoint_pct == pytest.approx(30.0)
        assert report.restore_pct == pytest.approx(10.0)

    def test_mean_checkpoint_time(self):
        report = ExecutionReport(checkpoint_durations=[1.0, 3.0])
        assert report.mean_checkpoint_time == 2.0
        assert ExecutionReport().mean_checkpoint_time == 0.0


class TestOverlappedCheckpointing:
    """checkpoint_mode="overlapped": engine overlap scope around backups."""

    def _run(self, mode, **kwargs):
        from repro.bench.calibration import regression_bench_workload, regression_cost
        from repro.apps.resilient import LinRegResilient

        rt = Runtime(4, cost=regression_cost(), resilient=True, **kwargs)
        app = LinRegResilient(rt, regression_bench_workload(9))
        executor = IterativeExecutor(
            rt, app, checkpoint_interval=3, checkpoint_mode=mode
        )
        return rt, app, executor.run()

    def test_invalid_mode_rejected(self):
        rt = Runtime(2)
        with pytest.raises(ValueError):
            IterativeExecutor(rt, CountingApp(rt, 1), checkpoint_mode="async")

    def test_same_work_and_result_as_blocking(self):
        _, app_b, rep_b = self._run("blocking")
        _, app_o, rep_o = self._run("overlapped")
        assert rep_o.iterations_executed == rep_b.iterations_executed
        assert rep_o.checkpoints == rep_b.checkpoints
        assert np.allclose(app_o.model(), app_b.model())

    def test_overlap_reduces_stall_and_total(self):
        _, _, rep_b = self._run("blocking")
        _, _, rep_o = self._run("overlapped")
        assert rep_b.checkpoint_stall_time == pytest.approx(rep_b.checkpoint_time)
        assert rep_o.checkpoint_stall_time < rep_b.checkpoint_stall_time
        assert rep_o.total_time < rep_b.total_time

    def test_nothing_pending_after_run(self):
        rt, _, _ = self._run("overlapped")
        assert rt.engine.pending_overlap() == {}
        assert not rt.engine.overlapping

    def test_failure_recovery_under_overlap(self):
        rt, app, report = run_with_failure(
            RestoreMode.SHRINK, checkpoint_mode="overlapped"
        )
        assert report.restores == 1
        assert app.iteration == 10
        assert np.allclose(app.state.to_array(), 10.0)

    def test_blocking_mode_unchanged_semantics(self):
        # Blocking runs never enter an overlap scope at all.
        rt = Runtime(3, cost=CostModel.zero())
        app = CountingApp(rt, 5)
        report = IterativeExecutor(rt, app, checkpoint_interval=2).run()
        assert report.checkpoint_stall_time == report.checkpoint_time
        assert rt.engine.pending_overlap() == {}
