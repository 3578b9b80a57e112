"""Tests for AppResilientStore: atomic commit, read-only reuse, cancel."""

import numpy as np
import pytest

from repro.matrix.dupvector import DupVector
from repro.matrix.distvector import DistVector
from repro.resilience.store import AppResilientStore
from repro.runtime import CostModel, DeadPlaceException, MultipleException, Runtime


def make_rt(n=4):
    return Runtime(n, cost=CostModel.zero())


class TestCommitProtocol:
    def test_basic_snapshot_restore_cycle(self):
        rt = make_rt()
        store = AppResilientStore(rt)
        v = DupVector.make(rt, 5).init_random(1)
        ref = v.to_array()
        store.start_new_snapshot()
        store.save(v)
        store.commit(iteration=7)
        v.fill(0.0)
        store.restore()
        assert np.allclose(v.to_array(), ref)
        assert store.latest_iteration == 7

    def test_start_twice_rejected(self):
        store = AppResilientStore(make_rt())
        store.start_new_snapshot()
        with pytest.raises(ValueError):
            store.start_new_snapshot()

    def test_save_requires_open_snapshot(self):
        rt = make_rt()
        store = AppResilientStore(rt)
        v = DupVector.make(rt, 3)
        with pytest.raises(ValueError):
            store.save(v)
        with pytest.raises(ValueError):
            store.save_read_only(v)

    def test_duplicate_save_rejected(self):
        rt = make_rt()
        store = AppResilientStore(rt)
        v = DupVector.make(rt, 3)
        store.start_new_snapshot()
        store.save(v)
        with pytest.raises(ValueError):
            store.save(v)

    def test_commit_requires_open_snapshot(self):
        store = AppResilientStore(make_rt())
        with pytest.raises(ValueError):
            store.commit()

    def test_restore_requires_commit(self):
        store = AppResilientStore(make_rt())
        with pytest.raises(ValueError):
            store.restore()
        with pytest.raises(ValueError):
            store.latest_iteration

    def test_old_checkpoint_deleted_on_commit(self):
        # Coordinated checkpointing keeps only the latest checkpoint.
        rt = make_rt()
        store = AppResilientStore(rt)
        v = DupVector.make(rt, 4).init(1.0)
        store.start_new_snapshot()
        store.save(v)
        store.commit(iteration=0)
        first = store.latest().snapshots[v]
        store.start_new_snapshot()
        store.save(v)
        store.commit(iteration=10)
        # The first snapshot's heap entries are gone.
        for pid in rt.world.ids:
            assert not rt.heap_of(pid).contains(("snap", first.snap_id, rt.world.index_of(rt.world[pid])))
        assert store.latest_iteration == 10


class TestReadOnlyReuse:
    def test_snapshot_created_once(self):
        rt = make_rt()
        store = AppResilientStore(rt)
        v = DupVector.make(rt, 4).init(3.0)
        store.start_new_snapshot()
        store.save_read_only(v)
        store.commit(0)
        first = store.latest().read_only[v]
        store.start_new_snapshot()
        store.save_read_only(v)
        store.commit(10)
        assert store.latest().read_only[v] is first  # reused, not re-saved

    def test_reuse_skipped_when_copies_lost(self):
        rt = make_rt(4)
        store = AppResilientStore(rt)
        v = DupVector.make(rt, 4).init(3.0)
        store.start_new_snapshot()
        store.save_read_only(v)
        store.commit(0)
        first = store.latest().read_only[v]
        # Adjacent double failure destroys one key's both copies.
        rt.kill(1)
        rt.kill(2)
        v.remake(rt.live_world())
        v.init(3.0)
        store.start_new_snapshot()
        store.save_read_only(v)
        store.commit(10)
        assert store.latest().read_only[v] is not first

    def test_checkpoint_bytes_count_read_only_once(self):
        rt = make_rt()
        store = AppResilientStore(rt)
        v = DupVector.make(rt, 16).init(1.0)
        w = DupVector.make(rt, 4).init(2.0)
        store.start_new_snapshot()
        store.save_read_only(v)
        store.save(w)
        store.commit(0)
        assert store.total_checkpoint_bytes() > 0


class TestCancel:
    def test_cancel_discards_partial_snapshot(self):
        rt = make_rt()
        store = AppResilientStore(rt)
        v = DupVector.make(rt, 4).init(5.0)
        store.start_new_snapshot()
        store.save(v)
        store.cancel_snapshot()
        assert not store.in_progress
        assert store.latest() is None
        # The partial snapshot's entries were freed.
        for pid in rt.world.ids:
            assert len(rt.heap_of(pid).keys_with_prefix(("snap",))) == 0

    def test_cancel_keeps_previous_checkpoint(self):
        rt = make_rt()
        store = AppResilientStore(rt)
        v = DupVector.make(rt, 4).init(1.0)
        store.start_new_snapshot()
        store.save(v)
        store.commit(iteration=5)
        v.fill(9.0)
        store.start_new_snapshot()
        store.save(v)
        store.cancel_snapshot()
        store.restore()
        assert np.allclose(v.to_array(), 1.0)  # previous checkpoint intact
        assert store.latest_iteration == 5

    def test_cancel_without_open_snapshot_is_noop(self):
        store = AppResilientStore(make_rt())
        store.cancel_snapshot()  # no raise

    def test_failure_mid_save_leaves_store_cancellable(self):
        # A place dies during save(); the caller cancels and the previous
        # checkpoint remains the recovery point — the atomicity guarantee.
        rt = make_rt(4)
        store = AppResilientStore(rt)
        v = DupVector.make(rt, 4).init(1.0)
        w = DistVector.make(rt, 8).fill(2.0)
        store.start_new_snapshot()
        store.save(v)
        store.save(w)
        store.commit(iteration=3)

        rt.kill(2)
        store.start_new_snapshot()
        with pytest.raises((DeadPlaceException, MultipleException)):
            store.save(v)
        store.cancel_snapshot()
        assert store.latest_iteration == 3


class FakeSnapshot:
    """Stand-in snapshot recording deletion; redundancy is controllable."""

    def __init__(self):
        self.deleted = False
        self.redundant = True
        self.total_nbytes = 1.0
        # A full save of one partition, as ``AppResilientStore.save`` counts it.
        self.num_keys, self.clean_keys, self.clean_nbytes = 1, set(), 0.0

    def fully_redundant(self):
        return self.redundant

    def reusable(self):
        return self.redundant

    def delete(self):
        self.deleted = True


class FakeObject:
    """Minimal Snapshottable whose snapshots are FakeSnapshots."""

    def __init__(self):
        self.taken = []

    def make_snapshot(self, protection, base=None):
        snap = FakeSnapshot()
        self.taken.append(snap)
        return snap

    def restore_snapshot(self, snap):
        pass


class TestReadOnlyReclamation:
    """commit()/cancel_snapshot() lifetime rules for read-only snapshots."""

    def test_superseded_read_only_freed_on_commit(self):
        store = AppResilientStore(make_rt())
        obj = FakeObject()
        store.start_new_snapshot()
        store.save_read_only(obj)
        store.commit(0)
        first = obj.taken[0]
        # Copies lost: the next checkpoint must take a fresh snapshot...
        first.redundant = False
        store.start_new_snapshot()
        store.save_read_only(obj)
        # ...but the degraded one stays alive until the commit publishes
        # its replacement (the previous checkpoint may still need it).
        assert not first.deleted
        store.commit(1)
        # Now unreferenced: reclaimed.
        assert first.deleted
        assert not obj.taken[1].deleted

    def test_reused_read_only_survives_commit(self):
        store = AppResilientStore(make_rt())
        obj = FakeObject()
        store.start_new_snapshot()
        store.save_read_only(obj)
        store.commit(0)
        store.start_new_snapshot()
        store.save_read_only(obj)
        store.commit(1)
        assert len(obj.taken) == 1  # reused, never re-taken
        assert not obj.taken[0].deleted

    def test_cancel_keeps_registry_read_only_snapshot(self):
        store = AppResilientStore(make_rt())
        obj = FakeObject()
        store.start_new_snapshot()
        store.save_read_only(obj)
        store.cancel_snapshot()
        # The snapshot is registry-held and still valid: a later attempt
        # reuses it instead of re-saving.
        assert not obj.taken[0].deleted
        store.start_new_snapshot()
        store.save_read_only(obj)
        assert len(obj.taken) == 1

    def test_cancel_after_resave_keeps_both_generations(self):
        store = AppResilientStore(make_rt())
        obj = FakeObject()
        store.start_new_snapshot()
        store.save_read_only(obj)
        store.commit(0)
        first = obj.taken[0]
        first.redundant = False
        store.start_new_snapshot()
        store.save_read_only(obj)  # fresh re-save into the attempt
        store.cancel_snapshot()
        # The committed checkpoint still references the old snapshot and
        # the registry holds the new one: neither may be freed.
        assert not first.deleted
        assert not obj.taken[1].deleted
        assert store.latest().read_only[obj] is first

    def test_cancel_frees_only_mutable_partials(self):
        store = AppResilientStore(make_rt())
        ro, mut = FakeObject(), FakeObject()
        store.start_new_snapshot()
        store.save_read_only(ro)
        store.save(mut)
        store.cancel_snapshot()
        assert mut.taken[0].deleted
        assert not ro.taken[0].deleted


class TestMultiObjectCheckpoint:
    def test_restore_reloads_all_objects(self):
        rt = make_rt()
        store = AppResilientStore(rt)
        a = DupVector.make(rt, 4).init_random(1)
        b = DistVector.make(rt, 9).init_random(2)
        ra, rb = a.to_array(), b.to_array()
        store.start_new_snapshot()
        store.save(a)
        store.save(b)
        store.commit(0)
        a.fill(0.0)
        b.fill(0.0)
        store.restore()
        assert np.allclose(a.to_array(), ra)
        assert np.allclose(b.to_array(), rb)
