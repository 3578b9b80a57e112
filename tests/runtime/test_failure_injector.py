"""Tests for scripted, context-triggered and random failure injection."""

import pickle

import pytest

from repro.runtime.failure import (
    ExponentialFailureModel,
    FailureInjector,
    ScriptedKill,
)


class TestScriptedKill:
    def test_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            ScriptedKill(place_id=1)
        with pytest.raises(ValueError):
            ScriptedKill(place_id=1, iteration=1, phase=2)
        ScriptedKill(place_id=1, iteration=3)  # ok

    def test_place_zero_rejected(self):
        with pytest.raises(ValueError, match="place 0"):
            ScriptedKill(place_id=0, iteration=3)

    def test_during_validates_context_name(self):
        ScriptedKill(place_id=1, during="checkpoint")  # ok
        ScriptedKill(place_id=1, during="restore", occurrence=2)  # ok
        with pytest.raises(ValueError):
            ScriptedKill(place_id=1, during="reduction")
        with pytest.raises(ValueError):
            ScriptedKill(place_id=1, during="checkpoint", occurrence=0)


class TestFailureInjector:
    def test_iteration_trigger_fires_once(self):
        inj = FailureInjector().kill_at_iteration(2, iteration=5)
        assert inj.due_at_iteration(4) == []
        assert inj.due_at_iteration(5) == [2]
        assert inj.due_at_iteration(6) == []
        assert inj.pending == 0

    def test_late_poll_still_fires(self):
        inj = FailureInjector().kill_at_iteration(1, iteration=3)
        assert inj.due_at_iteration(10) == [1]

    def test_phase_trigger(self):
        inj = FailureInjector().kill_at_phase(3, phase=7)
        assert inj.due_at_phase(6, 0.0) == []
        assert inj.due_at_phase(7, 0.0) == [3]

    def test_time_trigger(self):
        inj = FailureInjector().kill_at_time(2, time=1.5)
        assert inj.due_at_phase(1, 1.0) == []
        assert inj.due_at_phase(2, 2.0) == [2]

    def test_multiple_kills_same_trigger(self):
        inj = (
            FailureInjector()
            .kill_at_iteration(1, iteration=4)
            .kill_at_iteration(3, iteration=4)
        )
        assert sorted(inj.due_at_iteration(4)) == [1, 3]

    def test_place_zero_kill_rejected_at_scheduling(self):
        inj = FailureInjector()
        with pytest.raises(ValueError, match="immortal"):
            inj.kill_at_iteration(0, iteration=2)

    def test_duplicate_kill_of_same_place_rejected(self):
        inj = FailureInjector().kill_at_iteration(2, iteration=3)
        with pytest.raises(ValueError, match="duplicate"):
            inj.kill_at_phase(2, phase=9)
        with pytest.raises(ValueError, match="duplicate"):
            inj.kill_at_iteration(2, iteration=3)

    def test_duplicates_in_constructor_list_rejected(self):
        kills = [
            ScriptedKill(place_id=1, iteration=2),
            ScriptedKill(place_id=1, phase=5),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            FailureInjector(kills)

    def test_unfired_lists_pending_kills(self):
        inj = (
            FailureInjector()
            .kill_at_iteration(1, iteration=3)
            .kill_at_iteration(2, iteration=99)
        )
        inj.due_at_iteration(3)
        assert [k.place_id for k in inj.unfired()] == [2]
        assert inj.pending == 1

    def test_pending_at_finish_counts_finish_triggers_only(self):
        inj = (
            FailureInjector()
            .kill_at_iteration(1, iteration=5)
            .kill_at_phase(2, phase=4)
            .kill_at_time(3, time=9.0)
            .kill_during(4, "checkpoint")
        )
        assert inj.pending_at_finish == 3
        assert inj.due_at_phase(4, 0.0) == [2]
        assert inj.due_at_iteration(5) == [1]
        assert inj.pending_at_finish == 2
        # Derived state: left out of a pickle, recounted on load.
        assert "pending_at_finish" not in inj.__getstate__()
        assert pickle.loads(pickle.dumps(inj)).pending_at_finish == 2
        assert inj.due_at_phase(5, 9.0) == [3]
        assert inj.pending_at_finish == 1


def test_iteration_kills_never_poll_at_finish(monkeypatch):
    """A run whose kills are all iteration kills never enters the finish's
    kill poll: no finish can fire them (the executor does, between
    iterations)."""
    from repro.runtime.runtime import Runtime
    from repro.world import WorldSpec

    entered = []
    poll = Runtime._fire_due_failures
    monkeypatch.setattr(
        Runtime, "_fire_due_failures", lambda rt: entered.append(rt.phase) or poll(rt)
    )
    spec = WorldSpec(
        app="linreg", places=6, iterations=9, workload="tiny", checkpoint_interval=3,
        fail_at=(4, 7), victim=(2, 4),
    )
    rt, _, _, executor = spec.build()
    with rt:
        report = executor.run()
    assert report.restores == 2 and not report.pending_kills
    assert entered == []


def test_time_kill_added_to_a_live_runtime_fires_at_a_finish():
    """A timed kill scheduled on a built runtime's injector (the Young-interval
    experiments' path) fires at the first finish entered past its time.  The
    schedule is a tuple: appending to it around ``add`` would leave the
    finish's kill counter at zero, so it fails loudly instead."""
    from repro.bench.calibration import cluster_2015
    from repro.runtime import Runtime
    from repro.runtime.exceptions import DeadPlaceException

    kill = ScriptedKill(place_id=2, time=1e-6)
    with Runtime(4, cost=cluster_2015(), resilient=True) as rt:
        with pytest.raises(AttributeError):
            rt.injector.kills.append(kill)
        rt.injector.add(kill)
        rt.finish_all(rt.world, lambda ctx: ctx.charge_seconds(1e-3))  # before the kill time
        assert rt.is_alive(2)
        with pytest.raises(DeadPlaceException):
            rt.finish_all(rt.world, lambda ctx: None)
        assert not rt.is_alive(2)
        assert rt.injector.unfired() == [] and rt.injector.pending_at_finish == 0


class TestContextTriggers:
    def test_fires_inside_matching_context(self):
        inj = FailureInjector().kill_during(2, "checkpoint")
        assert inj.due_at_phase(1, 0.0) == []  # not in a checkpoint
        inj.enter_context("checkpoint")
        assert inj.due_at_phase(2, 0.0) == [2]
        inj.exit_context("checkpoint")

    def test_occurrence_skips_earlier_contexts(self):
        inj = FailureInjector().kill_during(3, "checkpoint", occurrence=2)
        inj.enter_context("checkpoint")
        assert inj.due_at_phase(1, 0.0) == []  # first checkpoint: not yet
        inj.exit_context("checkpoint")
        assert inj.due_at_phase(2, 0.0) == []  # between checkpoints
        inj.enter_context("checkpoint")
        assert inj.due_at_phase(3, 0.0) == [3]  # second checkpoint
        inj.exit_context("checkpoint")

    def test_restore_context_independent_of_checkpoint(self):
        inj = FailureInjector().kill_during(1, "restore")
        inj.enter_context("checkpoint")
        assert inj.due_at_phase(1, 0.0) == []
        inj.exit_context("checkpoint")
        inj.enter_context("restore")
        assert inj.due_at_phase(2, 0.0) == [1]
        inj.exit_context("restore")

    def test_exit_without_enter_raises(self):
        inj = FailureInjector()
        with pytest.raises(RuntimeError, match="no context active"):
            inj.exit_context("checkpoint")

    def test_mismatched_exit_names_the_stack(self):
        inj = FailureInjector()
        inj.enter_context("checkpoint")
        inj.enter_context("restore")
        with pytest.raises(RuntimeError, match=r"innermost.*'restore'"):
            inj.exit_context("checkpoint")
        # The stack is untouched by the failed exit; unwinding in the
        # correct order still works.
        inj.exit_context("restore")
        inj.exit_context("checkpoint")
        with pytest.raises(RuntimeError, match="no context active"):
            inj.exit_context("checkpoint")

    def test_balanced_nesting_accepted(self):
        inj = FailureInjector()
        inj.enter_context("restore")
        inj.enter_context("checkpoint")
        inj.exit_context("checkpoint")
        inj.exit_context("restore")


class TestExponentialModel:
    def test_deterministic_given_seed(self):
        a = ExponentialFailureModel(mttf=10.0, seed=42).schedule([1, 2, 3], 100.0)
        b = ExponentialFailureModel(mttf=10.0, seed=42).schedule([1, 2, 3], 100.0)
        assert [(k.place_id, k.time) for k in a] == [(k.place_id, k.time) for k in b]

    def test_never_kills_place_zero(self):
        kills = ExponentialFailureModel(mttf=0.01, seed=1).schedule([0, 1, 2], 1e9)
        assert all(k.place_id != 0 for k in kills)

    def test_respects_horizon(self):
        kills = ExponentialFailureModel(mttf=50.0, seed=7).schedule([1, 2], 0.0)
        assert kills == []

    def test_no_duplicate_victims(self):
        kills = ExponentialFailureModel(mttf=0.1, seed=3).schedule(list(range(1, 9)), 1e9)
        victims = [k.place_id for k in kills]
        assert len(victims) == len(set(victims))

    def test_invalid_mttf(self):
        with pytest.raises(ValueError):
            ExponentialFailureModel(mttf=0.0)
