"""Tests for the generalized k-backup snapshot store.

The paper's double in-memory store is the ``backups=1`` instance; the
generalization stores k backup replicas on the next k ring places and
survives any burst of up to k consecutive failures.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrix.dupvector import DupVector
from repro.matrix.vector import Vector
from repro.resilience.protection import Protection
from repro.resilience.snapshot import DistObjectSnapshot
from repro.runtime import CostModel, DataLossError, Runtime


def make_rt(n=6, cost=None):
    return Runtime(n, cost=cost or CostModel.zero())


def save_all(rt, snap, payload_fn):
    group = snap.group

    def task(ctx):
        index = group.index_of(ctx.place)
        snap.save_from(ctx, index, payload_fn(index))

    rt.finish_all(group, task)


class TestKBackups:
    def test_replica_placement(self):
        rt = make_rt(5)
        snap = DistObjectSnapshot(rt, rt.world, backups=2)
        save_all(rt, snap, lambda i: Vector.of([float(i)]))
        # Key 0: primary on 0, backups on 1 and 2.
        assert rt.heap_of(0).contains(("snap", snap.snap_id, 0))
        assert rt.heap_of(1).contains(("snapb", snap.snap_id, 0, 1))
        assert rt.heap_of(2).contains(("snapb", snap.snap_id, 0, 2))

    def test_zero_backups_is_unprotected(self):
        rt = make_rt(4)
        snap = DistObjectSnapshot(rt, rt.world, backups=0)
        save_all(rt, snap, lambda i: Vector.of([float(i)]))
        rt.kill(2)
        with pytest.raises(DataLossError):
            snap.locate(2)
        snap.locate(1)  # other keys fine

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_survives_k_consecutive_failures(self, k):
        rt = make_rt(6)
        snap = DistObjectSnapshot(rt, rt.world, backups=k)
        save_all(rt, snap, lambda i: Vector.of([float(i) * 3]))
        for victim in range(1, 1 + k):  # kill k consecutive places (not 0)
            rt.kill(victim)
        for key in range(6):
            pid, heap_key = snap.locate(key)
            assert rt.heap_of(pid).get(heap_key).data[0] == key * 3

    @pytest.mark.parametrize("k", [1, 2])
    def test_k_plus_one_consecutive_failures_lose_data(self, k):
        rt = make_rt(6)
        snap = DistObjectSnapshot(rt, rt.world, backups=k)
        save_all(rt, snap, lambda i: Vector.of([1.0]))
        for victim in range(1, 2 + k):  # k+1 consecutive victims
            rt.kill(victim)
        with pytest.raises(DataLossError):
            snap.locate(1)

    def test_delete_frees_all_replicas(self):
        rt = make_rt(5)
        snap = DistObjectSnapshot(rt, rt.world, backups=2)
        save_all(rt, snap, lambda i: Vector.of([1.0]))
        snap.delete()
        for pid in rt.world.ids:
            assert len(rt.heap_of(pid).keys_with_prefix(("snap",))) == 0
            assert len(rt.heap_of(pid).keys_with_prefix(("snapb",))) == 0

    def test_negative_backups_rejected(self):
        rt = make_rt(3)
        with pytest.raises(ValueError):
            DistObjectSnapshot(rt, rt.world, backups=-1)

    def test_save_cost_grows_with_replication(self):
        costs = {}
        for k in (1, 3):
            rt = make_rt(6, cost=CostModel(byte_time=1e-6, memcpy_byte_time=1e-7))
            snap = DistObjectSnapshot(rt, rt.world, backups=k)
            save_all(rt, snap, lambda i: Vector.of(np.zeros(1000)))
            costs[k] = rt.clock.global_time()
        assert costs[3] > costs[1]

    @settings(max_examples=20, deadline=None)
    @given(
        places=st.integers(2, 8),
        k=st.integers(1, 4),
        victims=st.sets(st.integers(1, 7), max_size=3),
    )
    def test_locate_never_returns_dead_copies(self, places, k, victims):
        rt = make_rt(places)
        snap = DistObjectSnapshot(rt, rt.world, backups=k)
        save_all(rt, snap, lambda i: Vector.of([float(i)]))
        for victim in victims:
            if victim < places:
                rt.kill(victim)
        for key in range(places):
            try:
                pid, heap_key = snap.locate(key)
            except DataLossError:
                continue
            assert rt.is_alive(pid)
            assert rt.heap_of(pid).get(heap_key).data[0] == key


class TestObjectLevelReplication:
    def test_dup_vector_with_extra_backups(self):
        rt = make_rt(6)
        v = DupVector.make(rt, 8).init_random(3)
        ref = v.to_array()
        snap = v.make_snapshot(Protection(replicas=2))
        assert snap.backups == 2
        # Two consecutive failures — fatal for the paper's double store,
        # survivable with k=2.
        rt.kill(2)
        rt.kill(3)
        v.remake(rt.live_world())
        v.restore_snapshot(snap)
        assert np.allclose(v.to_array(), ref)
