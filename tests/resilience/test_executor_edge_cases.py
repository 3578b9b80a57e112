"""Edge cases of the resilient executor: cascading and mid-restore failures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrix.dupvector import DupVector
from repro.resilience.executor import IterativeExecutor, RestoreMode
from repro.resilience.iterative import ResilientIterativeApp
from repro.runtime import BORROW, DEDICATED, POOLED, CostModel, DataLossError, Runtime


class CountingApp(ResilientIterativeApp):
    """Same minimal app as the main executor tests."""

    def __init__(self, runtime, iterations=10, group=None):
        self.runtime = runtime
        self.iterations = iterations
        self._places = group if group is not None else runtime.world
        self.iteration = 0
        self.state = DupVector.make(runtime, 4, self._places)

    @property
    def places(self):
        return self._places

    def is_finished(self):
        return self.iteration >= self.iterations

    def step(self):
        self.state.cell_add(1.0)
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


class TestCascadingFailures:
    def test_failure_during_restore_retries_with_fresh_group(self):
        """A place dying *during* restore triggers another recovery round."""
        rt = Runtime(6, cost=CostModel.zero(), resilient=True)
        app = CountingApp(rt, 10)
        rt.injector.kill_at_iteration(2, iteration=5)

        # Sabotage the first restore attempt: when restore remakes the
        # state, kill another (non-adjacent) place mid-phase.
        original_restore = app.restore
        fired = {"done": False}

        def failing_restore(new_places, store, snapshot_iter):
            if not fired["done"]:
                fired["done"] = True
                rt.injector.kill_at_phase(4, phase=rt.phase + 1)
            original_restore(new_places, store, snapshot_iter)

        app.restore = failing_restore
        report = IterativeExecutor(rt, app, checkpoint_interval=4).run()
        assert report.failures_observed == 2
        assert report.restores == 1  # only the successful attempt counts
        assert app.places.ids == [0, 1, 3, 5]
        assert np.allclose(app.state.to_array(), 10.0)

    def test_restore_attempt_cap(self):
        """Endless restore failures eventually raise DataLossError."""
        rt = Runtime(4, cost=CostModel.zero(), resilient=True)
        app = CountingApp(rt, 10)
        rt.injector.kill_at_iteration(2, iteration=3)

        def always_failing_restore(new_places, store, snapshot_iter):
            from repro.runtime.exceptions import DeadPlaceException

            raise DeadPlaceException(2)

        app.restore = always_failing_restore
        with pytest.raises(DataLossError):
            IterativeExecutor(
                rt, app, checkpoint_interval=3, max_restore_attempts=3
            ).run()

    def test_shrink_down_to_single_survivor(self):
        rt = Runtime(3, cost=CostModel.zero(), resilient=True)
        app = CountingApp(rt, 8)
        rt.injector.kill_at_iteration(1, iteration=3)
        rt.injector.kill_at_iteration(2, iteration=6)
        report = IterativeExecutor(rt, app, checkpoint_interval=2).run()
        assert app.places.ids == [0]
        assert np.allclose(app.state.to_array(), 8.0)
        assert report.restores == 2

    def test_elastic_after_spare_modes_mixed_world(self):
        """Spares and elastic places coexist with stable indices."""
        rt = Runtime(4, cost=CostModel.zero(), resilient=True, spares=1)
        app = CountingApp(rt, 12)
        rt.injector.kill_at_iteration(1, iteration=3)
        rt.injector.kill_at_iteration(2, iteration=7)
        report = IterativeExecutor(
            rt, app, checkpoint_interval=3, mode=RestoreMode.REPLACE_REDUNDANT,
            spare_fallback=RestoreMode.SHRINK_REBALANCE,
        ).run()
        # First failure consumed the spare (id 4); second had none left and
        # fell back to shrink-rebalance.
        assert report.restores == 2
        assert app.places.ids == [0, 4, 3]
        assert np.allclose(app.state.to_array(), 12.0)


class TestCheckpointCadence:
    @pytest.mark.parametrize("interval", [1, 2, 3, 7, 30])
    def test_checkpoint_counts(self, interval):
        rt = Runtime(3, cost=CostModel.zero(), resilient=True)
        app = CountingApp(rt, 12)
        report = IterativeExecutor(rt, app, checkpoint_interval=interval).run()
        expected = len([i for i in range(12) if i % interval == 0])
        assert report.checkpoints == expected

    def test_interval_one_recovers_with_minimal_rework(self):
        rt = Runtime(4, cost=CostModel.zero(), resilient=True)
        app = CountingApp(rt, 10)
        rt.injector.kill_at_iteration(2, iteration=7)
        report = IterativeExecutor(rt, app, checkpoint_interval=1).run()
        # Checkpoint at every iteration: only the iteration in flight at
        # the failure is redone.
        assert report.iterations_executed == 11
        assert np.allclose(app.state.to_array(), 10.0)


class TestSpareAccounting:
    def test_insufficient_spares_are_not_wasted(self):
        """Two simultaneous deaths with one spare: the executor shrinks and
        the spare remains available for a later, single failure."""
        rt = Runtime(6, cost=CostModel.zero(), resilient=True, spares=1)
        app = CountingApp(rt, 12)
        rt.injector.kill_at_iteration(2, iteration=4)
        rt.injector.kill_at_iteration(4, iteration=4)  # simultaneous pair
        rt.injector.kill_at_iteration(1, iteration=9)  # later single failure
        report = IterativeExecutor(
            rt, app, checkpoint_interval=3, mode=RestoreMode.REPLACE_REDUNDANT
        ).run()
        assert report.restores == 2
        # First event shrank (no spare consumed); second used the spare
        # (id 6) at place 1's index.
        assert app.places.ids == [0, 6, 3, 5]
        assert np.allclose(app.state.to_array(), 12.0)

    @settings(max_examples=150, deadline=None)
    @given(economics=st.sampled_from([DEDICATED, POOLED, BORROW]), data=st.data())
    def test_precounted_claims_always_succeed(self, economics, data):
        """Replace-redundant counts stash + ``lease.spares_remaining`` before
        claiming.  Under every economics that count is exact in the
        sequential simulator — whatever died, whoever else holds a lease,
        whatever an aborted reconstruction stashed — so when it covers the
        dead, every claim succeeds, and when it does not, nothing is
        claimed."""
        draw = data.draw
        world = draw(st.integers(4, 10), "world")
        rt = Runtime(world, cost=CostModel.zero(), resilient=True,
                     spares=draw(st.integers(0, 4), "reserve"))
        dedicated = 0
        if economics == DEDICATED:
            dedicated = draw(st.integers(0, rt.pool.reserve_remaining), "dedicated")
        lease = rt.pool.lease(
            size=draw(st.integers(2, world - 2), "size"),
            economics=economics,
            dedicated_spares=dedicated,
        )
        group = lease.group()
        if economics != DEDICATED:  # a second tenant drawing on the same reserve
            other = rt.pool.lease(size=1, economics=economics)
            for _ in range(draw(st.integers(0, 2), "other claims")):
                other.claim_spare()
        executor = IterativeExecutor(rt, CountingApp(rt, group=group), lease=lease)
        for _ in range(draw(st.integers(0, 2), "stashed")):
            spare = lease.claim_spare()
            if spare is not None:
                executor._spare_stash.append(spare)
        members = [p.id for p in group][1:]  # the driver is immortal
        others = sorted(set(rt.all_place_ids()) - {0} - {p.id for p in group})
        kills = draw(st.sets(st.sampled_from(members), max_size=len(members) - 1), "dead")
        if others:  # reserve, idle, stashed and the other tenant's places
            kills |= draw(st.sets(st.sampled_from(others)), "other kills")
        for pid in kills:
            rt.kill(pid)
        dead_idx = [i for i in range(group.size) if not rt.is_alive(group[i].id)]
        stashed = [p for p in executor._spare_stash if rt.is_alive(p.id)]
        enough = lease.spares_remaining + len(stashed) >= len(dead_idx)
        claimed_before = lease.spares_claimed

        new_group = executor._claim_replacements(group, dead_idx, all_or_none=True)

        if enough:
            assert new_group is not None
            assert all(rt.is_alive(p.id) for p in new_group)
            assert new_group.size == group.size
        else:
            assert new_group is None
            assert lease.spares_claimed == claimed_before
            assert executor._spare_stash == stashed
