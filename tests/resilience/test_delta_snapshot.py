"""Delta (incremental) checkpointing: versions, copy-on-write, adoption."""

import numpy as np
import pytest

from repro.matrix.dense import DenseMatrix
from repro.matrix.distvector import DistVector
from repro.matrix.dupvector import DupVector
from repro.matrix.sparse import SparseCSR
from repro.matrix.vector import Vector
from repro.resilience.snapshot import DistObjectSnapshot
from repro.resilience.store import AppResilientStore
from repro.runtime import CostModel, PlaceGroup, Runtime
from repro.util import checksum
from repro.util.checksum import memoized_checksum, payload_checksum
from repro.util.versioning import freeze_payload, payload_frozen, version_token


def make_rt(n=4, cost=None, **kw):
    return Runtime(n, cost=cost or CostModel.zero(), **kw)


class TestVersionTracking:
    def test_mutators_bump_the_version(self):
        v = Vector.of([1.0, 2.0])
        before = v.version
        v.scale(2.0)
        assert v.version != before
        m = DenseMatrix.make(2, 2)
        before = m.version
        m.fill(3.0)
        assert m.version != before
        s = SparseCSR.empty(2, 2)
        before = s.version
        s.scale(0.5)
        assert s.version != before

    def test_versions_are_globally_unique(self):
        # Two fresh objects never share a token, so a restore that rebuilds
        # an object can never falsely compare clean against an old base.
        tokens = {Vector.make(2).version for _ in range(100)}
        tokens |= {DenseMatrix.make(1, 1).version for _ in range(100)}
        assert len(tokens) == 200

    def test_partition_versions_track_mutation(self):
        rt = make_rt()
        v = DupVector.make(rt, 8).init(1.0)
        before = v.partition_versions()
        assert set(before) == {0, 1, 2, 3}
        v.scale(2.0)
        after = v.partition_versions()
        assert all(after[i] != before[i] for i in before)

    def test_version_token_dispatch(self):
        v = Vector.make(2)
        assert version_token(v) == v.version
        assert version_token({0: v}) == ((0, v.version),)
        assert version_token(object()) is None


class TestCopyOnWrite:
    def test_freeze_view_shares_bytes_and_is_immutable(self):
        v = Vector.of([1.0, 2.0, 3.0])
        view = v.freeze_view()
        assert np.shares_memory(view.data, v.data)
        assert not view.data.flags.writeable
        with pytest.raises(ValueError):
            view.data[0] = 9.0

    def test_touch_after_freeze_copies_before_writing(self):
        v = Vector.of([1.0, 2.0])
        view = v.freeze_view()
        v.scale(10.0)  # touch() replaces the frozen backing array
        assert not np.shares_memory(view.data, v.data)
        assert view.data.tolist() == [1.0, 2.0]
        assert v.data.tolist() == [10.0, 20.0]

    def test_sparse_freeze_view_preserves_values(self):
        s = SparseCSR.from_dense(np.array([[1.0, 0.0], [0.0, 2.0]]))
        view = s.freeze_view()
        s.scale(3.0)
        assert view.to_dense().tolist() == [[1.0, 0.0], [0.0, 2.0]]

    def test_missed_touch_site_fails_loudly_not_silently(self):
        # The safety property behind CoW: once frozen, a direct write that
        # skipped touch() raises instead of corrupting the snapshot.
        v = Vector.of([1.0])
        v.freeze_view()
        with pytest.raises(ValueError):
            v.data[0] = 2.0

    def test_freeze_payload_and_frozen_predicate(self):
        payload = {0: Vector.of([1.0]), 1: np.zeros(3)}
        assert not payload_frozen(payload)
        freeze_payload(payload)
        assert payload_frozen(payload)


class TestChecksumMemo:
    def test_memo_hit_for_frozen_tokened_payload(self):
        v = Vector.of([4.0, 5.0])
        freeze_payload(v)
        checksum._crc_memo.clear()
        crc = memoized_checksum(v, v.version)
        assert v.version in checksum._crc_memo
        assert memoized_checksum(v, v.version) == crc == payload_checksum(v)

    def test_memo_bypassed_for_writable_payloads(self):
        # Corrupted copies come back writable (deepcopy drops the frozen
        # flag), so a poisoned memo can never mask the corruption.
        v = Vector.of([4.0, 5.0])
        freeze_payload(v)
        checksum._crc_memo.clear()
        memoized_checksum(v, v.version)
        import copy as _copy

        evil = _copy.deepcopy(v)
        evil.data[0] = -1.0
        assert memoized_checksum(evil, v.version) != memoized_checksum(v, v.version)


def _two_checkpoints(rt, store, objects, mutate=None):
    store.start_new_snapshot()
    for obj in objects:
        store.save(obj)
    store.commit(0)
    if mutate:
        mutate()
    t0 = rt.now()
    store.start_new_snapshot()
    for obj in objects:
        store.save(obj)
    store.commit(1)
    return rt.now() - t0


class TestDeltaStore:
    def test_clean_partitions_are_adopted_not_copied(self):
        rt = make_rt(cost=CostModel.laptop(), resilient=True)
        store = AppResilientStore(rt, replicas=1, delta=True)
        v = DupVector.make(rt, 4096).init_random(3)
        _two_checkpoints(rt, store, [v])
        assert store.delta_clean_partitions == 4
        assert store.delta_dirty_partitions == 4  # the first, baseless save
        assert store.delta_clean_bytes == store.delta_dirty_bytes > 0

    def test_clean_checkpoint_is_cheaper_than_full(self):
        def run(delta):
            rt = make_rt(cost=CostModel.laptop(), resilient=True)
            store = AppResilientStore(rt, replicas=1, delta=delta)
            v = DupVector.make(rt, 1 << 20).init_random(3)
            return _two_checkpoints(rt, store, [v])

        full, clean = run(False), run(True)
        assert clean < full / 5

    def test_dirty_partitions_still_pay_full_cost(self):
        def run(delta, mutate):
            rt = make_rt(cost=CostModel.laptop(), resilient=True)
            store = AppResilientStore(rt, replicas=1, delta=delta)
            v = DupVector.make(rt, 1 << 14).init_random(3)
            return _two_checkpoints(
                rt, store, [v], mutate=(lambda: v.scale(2.0)) if mutate else None
            )

        # An all-dirty delta checkpoint costs what a full one does.
        assert run(True, mutate=True) == pytest.approx(run(False, mutate=True))

    def test_delta_restore_matches_full_restore(self):
        def run(delta):
            rt = make_rt(resilient=True)
            store = AppResilientStore(rt, replicas=1, delta=delta)
            v = DupVector.make(rt, 32).init_random(7)
            d = DistVector.make(rt, 32).init_random(8)
            store.start_new_snapshot()
            store.save(v)
            store.save(d)
            store.commit(0)
            v.scale(3.0)  # d stays clean
            store.start_new_snapshot()
            store.save(v)
            store.save(d)
            store.commit(1)
            v.fill(0.0)
            d.fill(0.0)
            store.restore()
            return v.to_array(), d.to_array()

        vf, df = run(False)
        vd, dd = run(True)
        assert np.array_equal(vf, vd) and np.array_equal(df, dd)

    def test_committed_snapshot_immune_to_later_mutation(self):
        rt = make_rt(resilient=True)
        store = AppResilientStore(rt, replicas=1, delta=True)
        v = DupVector.make(rt, 16).init_random(1)
        saved = v.to_array().copy()
        store.start_new_snapshot()
        store.save(v)
        store.commit(0)
        v.scale(100.0)
        store.restore()
        assert np.array_equal(v.to_array(), saved)

    def test_replica_death_forces_a_dirty_resave(self):
        rt = make_rt(4, resilient=True)
        store = AppResilientStore(rt, replicas=1, delta=True)
        v = DupVector.make(rt, 8).init_random(2)
        store.start_new_snapshot()
        store.save(v)
        store.commit(0)
        snap = store.latest().snapshots[v]
        token = v.partition_versions()[0]
        assert snap.can_reuse(0, token)
        # Partition 0's bytes are unchanged, but its backup replica died
        # with its place: redundancy is degraded, so reuse must be refused
        # (adopting would let the next failure destroy the last copy).
        rt.kill(snap._homes[0][1].id)
        assert not snap.can_reuse(0, token)

    def test_adoption_survives_base_deletion_on_commit(self):
        # commit() deletes the previous snapshot's heap entries; adopted
        # payloads live under the NEW snapshot's keys and must survive.
        rt = make_rt(resilient=True)
        store = AppResilientStore(rt, replicas=1, delta=True)
        v = DupVector.make(rt, 16).init_random(4)
        saved = v.to_array().copy()
        for it in range(3):  # three all-clean generations
            store.start_new_snapshot()
            store.save(v)
            store.commit(it)
        v.fill(-1.0)
        store.restore()
        assert np.array_equal(v.to_array(), saved)

    def test_incompatible_base_degrades_to_full_save(self):
        rt = make_rt(resilient=True)
        snap_a = DistObjectSnapshot(rt, rt.world, backups=1)
        snap_b = DistObjectSnapshot(rt, rt.world, backups=2)
        snap_c = DistObjectSnapshot(rt, PlaceGroup.of_ids([0, 1]), backups=1)
        assert not snap_b.delta_compatible(snap_a)
        assert not snap_c.delta_compatible(snap_a)
        assert DistObjectSnapshot(rt, rt.world, backups=1).delta_compatible(snap_a)


class TestCorruptionIsolation:
    """A quarantined copy's CoW siblings in other tiers are unaffected."""

    def _snapshot(self, rt, stable=False):
        snap = DistObjectSnapshot(rt, rt.world, backups=1, stable_fallback=stable)
        group = snap.group

        def task(ctx):
            index = group.index_of(ctx.place)
            payload = Vector.of([float(index), float(index) + 0.5])
            snap.save_from(ctx, index, payload, token=payload.version)

        rt.finish_all(group, task)
        return snap

    def test_corrupting_one_tier_leaves_siblings_byte_identical(self):
        rt = make_rt(3, resilient=True)
        snap = self._snapshot(rt, stable=True)
        # All tiers share one frozen payload object; corrupt_copy must
        # replace, not mutate, or every tier would rot at once.
        assert snap.corrupt_copy(1, 0)
        _, backup_pid, backup_key = snap._rows[1][1]
        backup = rt.heap_of(backup_pid).get(backup_key)
        assert backup.data.tolist() == [1.0, 1.5]
        assert snap._stable[1].data.tolist() == [1.0, 1.5]
        # locate quarantines the primary and serves the intact backup.
        pid, key = snap.locate(1)
        assert key[0] == "snapb"
        assert (1, 0) in snap.quarantined

    def test_adopted_corruption_is_caught_on_first_use(self):
        # A silently corrupted copy adopted by a delta save stays
        # unverified and is quarantined by the checksum pass on first use —
        # adoption must not launder corruption into a "verified" state.
        rt = make_rt(3, cost=CostModel.zero(), resilient=True)
        store = AppResilientStore(rt, replicas=1, delta=True)
        v = DupVector.make(rt, 4, PlaceGroup.of_ids([0, 1, 2])).init_random(5)
        saved = v.to_array().copy()
        store.start_new_snapshot()
        store.save(v)
        store.commit(0)
        base = store.latest().snapshots[v]
        assert base.corrupt_copy(1, 0)
        store.start_new_snapshot()
        store.save(v)  # partition 1 is version-clean: adopted, corruption included
        store.commit(1)
        snap = store.latest().snapshots[v]
        assert 1 in snap.clean_keys
        pid, key = snap.locate(1)
        assert key[0] == "snapb" and (1, 0) in snap.quarantined
        v.fill(0.0)
        store.restore()
        assert np.array_equal(v.to_array(), saved)


class TestSaveFromSinglePlace:
    def test_degenerate_replica_pays_no_second_memcpy(self):
        # On a single-place group the "backup" is the same heap; the copy
        # is forwarded by reference, so adding it must cost (almost)
        # nothing relative to a replica-free save of the same bytes.
        nbytes_payload = Vector.make(1 << 16)

        def elapsed(backups):
            rt = make_rt(2, cost=CostModel.laptop(), resilient=True)
            g = PlaceGroup.of_ids([1])
            snap = DistObjectSnapshot(rt, g, backups=backups)
            t0 = rt.now()
            rt.finish_all(
                g,
                lambda ctx: snap.save_from(ctx, 0, nbytes_payload.copy()),
            )
            return rt.now() - t0

        one_copy, with_replica = elapsed(0), elapsed(1)
        memcpy = CostModel.laptop().memcpy(nbytes_payload.nbytes)
        assert with_replica - one_copy < 0.5 * memcpy
