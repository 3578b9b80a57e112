"""No copy without an owner.

Every snapshot copy in a live heap belongs to a snapshot some store still
references.  A ``make_snapshot()`` that a dying place aborts, a publish that
fails after its first object, and a read-only snapshot superseded before any
commit referenced it all used to leave their copies in the survivors' heaps
for the rest of the run (ISSUE 20); ``orphaned_copies`` is the one-pass check
the chaos campaigns now run after every schedule.
"""

from dataclasses import replace

import pytest

from repro import chaos
from repro.matrix.distvector import DistVector
from repro.resilience.executor import RestoreMode
from repro.resilience.placement import SpreadPlacement
from repro.resilience.protection import Protection
from repro.resilience.reconstruct import ReconstructionStore
from repro.resilience.snapshot import orphaned_copies
from repro.resilience.store import AppResilientStore
from repro.runtime import CostModel, PlaceGroup, Runtime
from repro.runtime.exceptions import DeadPlaceException, MultipleException
from repro.runtime.failure import ScriptedKill

FAILURES = (DeadPlaceException, MultipleException)


def _copies(rt):
    """Keys of every snapshot copy in a live heap."""
    return orphaned_copies(rt, [])


def _world(places=4):
    rt = Runtime(places, cost=CostModel.zero(), resilient=True)
    vectors = [DistVector.make(rt, 24).init_random(seed) for seed in (1, 2, 3)]
    return rt, vectors


class TestFailedSaves:
    def test_orphaned_copies_sees_exactly_the_unowned(self):
        rt, (x, r, _) = _world()
        kept, dropped = x.make_snapshot(), r.make_snapshot()
        assert orphaned_copies(rt, [kept, dropped]) == []
        orphans = orphaned_copies(rt, [kept])
        assert len(orphans) == 4 * 2 and {key[1] for key in orphans} == {dropped.snap_id}
        dropped.delete()
        assert orphaned_copies(rt, [kept]) == []

    def test_a_make_snapshot_that_raises_leaves_no_copy(self):
        rt, (x, _, _) = _world()
        rt.injector.add(ScriptedKill(place_id=2, phase=rt.phase + 1))
        with pytest.raises(FAILURES):
            x.make_snapshot()
        # The three survivors each ran their save before the finish raised.
        assert _copies(rt) == []

    def test_a_save_aborted_by_a_dead_backup_home_leaves_no_primary(self):
        """The kill precedes the snapshot: the save at the place whose backup
        home is dead writes its primary, then raises before the key counts
        as saved."""
        rt, (x, _, _) = _world()
        rt.kill(2)
        with pytest.raises(FAILURES):
            x.make_snapshot()
        assert _copies(rt) == []

    def test_store_save_leaves_nothing_behind_and_cancels_clean(self):
        rt, (x, r, _) = _world()
        store = AppResilientStore(rt, Protection(replicas=2, placement=SpreadPlacement()))
        store.start_new_snapshot()
        store.save(x)
        rt.injector.add(ScriptedKill(place_id=3, phase=rt.phase + 1))
        with pytest.raises(FAILURES):
            store.save(r)
        assert {key[1] for key in _copies(rt)} == {s.snap_id for s in store.live_snapshots()}
        store.cancel_snapshot()
        assert _copies(rt) == []

    def test_read_only_snapshot_of_a_cancelled_attempt_is_freed_when_superseded(self):
        rt, (x, r, _) = _world()
        store = AppResilientStore(rt)
        store.start_new_snapshot()
        store.save_read_only(x)
        rt.injector.add(ScriptedKill(place_id=3, phase=rt.phase + 1))
        with pytest.raises(FAILURES):
            store.save(r)
        store.cancel_snapshot()
        # The registry keeps x's snapshot, but place 3 took copies with it, so
        # the retry over the survivors re-saves x and supersedes it uncommitted.
        survivors = rt.live_group(x.group)
        x.remake(survivors)
        r.remake(survivors)
        store.start_new_snapshot()
        store.save_read_only(x)
        store.save(r)
        store.commit(iteration=0)
        assert orphaned_copies(rt, store.live_snapshots()) == []
        assert len({key[1] for key in _copies(rt)}) == 2

    def test_a_failed_publish_frees_the_snapshots_it_completed(self):
        rt, (x, r, p) = _world()
        rstore = ReconstructionStore(rt)
        rstore.publish([(x, 0), (r, None), (p, None)], iteration=0)
        committed = {snap.snap_id for snap in rstore.live_snapshots()}
        # x and r complete; the kill lands in p's finish.
        rt.injector.add(ScriptedKill(place_id=2, phase=rt.phase + 3))
        with pytest.raises(FAILURES):
            rstore.publish([(x, 0), (r, None), (p, None)], iteration=1)
        assert rstore.state_iteration == 0
        assert {snap.snap_id for snap in rstore.live_snapshots()} == committed
        assert orphaned_copies(rt, rstore.live_snapshots()) == []


def test_rebind_frees_the_copies_whose_home_left_the_table():
    """A spare installed at index 2 by an aborted recovery, then moved to
    index 1 by the next attempt: the copies it took for key 2 (its primary,
    key 1's backup) are out of every read's reach, and ``delete()`` walks the
    table, so the rebind itself must free them."""
    rt = Runtime(4, cost=CostModel.zero(), resilient=True, spares=2)
    x = DistVector.make(rt, 24).init_random(1)
    snap, world = x.make_snapshot(), x.group
    first, second = rt.claim_spare(), rt.claim_spare()
    rt.kill(2)
    group = world.replace(world[2], first)
    snap.rebind_group(group)
    x.rehome(group)
    rt.finish_all(
        PlaceGroup([group[1], group[2]]),
        lambda ctx: snap.save_from(
            ctx, group.index_of(ctx.place), ctx.heap.get(x.heap_key).freeze_view()
        ),
    )
    assert snap.fully_redundant()
    held = len(_copies(rt))
    rt.kill(1)
    snap.rebind_group(world.replace(world[1], first).replace(world[2], second))
    assert len(_copies(rt)) == held - 2 - 2  # place 1's two died with it
    assert not rt.heap_of(first.id).contains(("snap", snap.snap_id, 2))
    snap.delete()
    assert _copies(rt) == []


def _run(config, kills, mode=RestoreMode.SHRINK):
    rt, _, store, executor = replace(config.spec, mode=mode, kills=tuple(kills)).build()
    with rt:
        report = executor.run()
        owners = store.live_snapshots()
        if executor.rstore is not None:
            owners += executor.rstore.live_snapshots()
        return report, orphaned_copies(rt, owners), rt.injector.unfired()


class TestRunsLeaveNoOrphans:
    def test_kill_inside_the_second_checkpoint(self):
        config = chaos.CampaignConfig(app="linreg", seed=1)
        kill = ScriptedKill(place_id=3, during="checkpoint", occurrence=2)
        report, orphans, unfired = _run(config, [kill])
        assert not unfired and report.restores == 1
        assert orphans == []

    def test_kill_at_a_checkpoint_iteration(self):
        """The kill fires at the loop top of a checkpoint iteration, so the
        checkpoint starts over a group with a dead member."""
        config = chaos.CampaignConfig(app="linreg", seed=1)
        kill = ScriptedKill(place_id=4, iteration=config.checkpoint_interval)
        report, orphans, unfired = _run(config, [kill], RestoreMode.SHRINK_REBALANCE)
        assert not unfired and report.restores == 1
        assert orphans == []

    def test_kill_inside_a_publish(self, monkeypatch):
        """cg with ``recovery="reconstruct"``, one kill at every early phase:
        some land inside ``publish`` (after its first object's snapshot),
        some inside a checkpoint, a step or the initial statics."""
        config = chaos.CampaignConfig(
            app="cg", seed=1, recovery="reconstruct", spares=1
        )
        failed_publishes = []
        publish = ReconstructionStore.publish

        def spy(self, objs, iteration):
            try:
                publish(self, objs, iteration)
            except FAILURES:
                failed_publishes.append(iteration)
                raise

        monkeypatch.setattr(ReconstructionStore, "publish", spy)
        for phase in range(20, 90):
            try:
                _, orphans, _ = _run(
                    config, [ScriptedKill(place_id=3, phase=phase)], RestoreMode.REPLACE_REDUNDANT
                )
            except chaos.DataLossError:
                continue  # a kill before the first commit: nothing to roll back to
            assert orphans == [], f"kill at phase {phase}"
        assert failed_publishes
