"""Tests for DupVector: replica consistency, ops, snapshot/restore."""

import numpy as np
import pytest

from repro.runtime import CostModel, DeadPlaceException, PlaceGroup, Runtime
from repro.matrix.dupvector import DupVector


def make_rt(n=4, **kwargs):
    return Runtime(n, cost=kwargs.pop("cost", CostModel.zero()), **kwargs)


class TestConstruction:
    def test_make_over_world(self):
        rt = make_rt()
        v = DupVector.make(rt, 5)
        assert v.group == rt.world
        assert np.all(v.to_array() == 0)

    def test_make_over_subgroup(self):
        rt = make_rt()
        g = PlaceGroup.of_ids([1, 3])
        v = DupVector.make(rt, 5, g)
        assert v.group == g
        # No payload on places outside the group.
        assert rt.heap_of(0).get_or(v.heap_key) is None

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            DupVector.make(make_rt(), 0)


class TestOps:
    def test_init_random_consistent(self):
        v = DupVector.make(make_rt(), 8).init_random(3)
        assert v.replicas_consistent()
        assert not np.all(v.to_array() == 0)

    def test_cellwise_keep_replicas_consistent(self):
        rt = make_rt()
        v = DupVector.make(rt, 6).init_random(1)
        w = DupVector.make(rt, 6).init(2.0)
        v.scale(3.0).cell_add(w).cell_sub(1.0).axpy(0.5, w)
        assert v.replicas_consistent()

    def test_arithmetic_matches_numpy(self):
        rt = make_rt()
        v = DupVector.make(rt, 6).init_random(1)
        w = DupVector.make(rt, 6).init_random(2)
        a, b = v.to_array(), w.to_array()
        v.scale(2.0).cell_add(w).axpy(-1.5, w)
        assert np.allclose(v.to_array(), 2 * a + b - 1.5 * b)

    def test_cell_mult_and_map(self):
        rt = make_rt()
        v = DupVector.make(rt, 4).init(3.0)
        w = DupVector.make(rt, 4).init(2.0)
        v.cell_mult(w).map(np.sqrt)
        assert np.allclose(v.to_array(), np.sqrt(6.0))

    def test_dot_and_norm(self):
        rt = make_rt()
        v = DupVector.make(rt, 3).init(2.0)
        assert v.dot(v) == pytest.approx(12.0)
        assert v.norm2() == pytest.approx(np.sqrt(12.0))

    def test_copy_from(self):
        rt = make_rt()
        v = DupVector.make(rt, 4).init_random(5)
        w = DupVector.make(rt, 4)
        w.copy_from(v)
        assert np.allclose(w.to_array(), v.to_array())

    def test_mismatched_operands(self):
        rt = make_rt()
        v = DupVector.make(rt, 4)
        w = DupVector.make(rt, 5)
        with pytest.raises(ValueError):
            v.cell_add(w)
        u = DupVector.make(rt, 4, PlaceGroup.of_ids([0, 1]))
        with pytest.raises(ValueError):
            v.cell_add(u)


class TestSync:
    def test_sync_propagates_root_update(self):
        rt = make_rt()
        v = DupVector.make(rt, 4).init(1.0)
        root = v.local()
        root.touch()  # the write protocol: replicas may share one frozen array
        root.data[:] = [9, 8, 7, 6]  # driver-side update of the root copy
        assert not v.replicas_consistent()
        v.sync()
        assert v.replicas_consistent()
        assert np.allclose(v.payload_at_index(3).data, [9, 8, 7, 6])

    def test_reduce_sum(self):
        rt = make_rt(3)
        v = DupVector.make(rt, 2)
        # Each place holds a different partial.
        for i in range(3):
            replica = v.payload_at_index(i)
            replica.touch()
            replica.data[:] = [i, 10 * i]
        v.reduce_sum()
        assert v.replicas_consistent()
        assert np.allclose(v.to_array(), [3, 30])


class TestResilience:
    def test_ops_raise_on_dead_member(self):
        rt = make_rt()
        v = DupVector.make(rt, 4).init(1.0)
        rt.kill(2)
        with pytest.raises(DeadPlaceException):
            v.scale(2.0)

    def test_remake_over_survivors(self):
        rt = make_rt()
        v = DupVector.make(rt, 4).init(1.0)
        rt.kill(2)
        v.remake(rt.live_world())
        assert v.group.ids == [0, 1, 3]
        assert np.all(v.to_array() == 0)  # remake reallocates, data is gone
        v.init(5.0)
        assert v.replicas_consistent()

    def test_snapshot_restore_same_group(self):
        rt = make_rt()
        v = DupVector.make(rt, 6).init_random(7)
        ref = v.to_array()
        snap = v.make_snapshot()
        v.fill(0.0)
        v.restore_snapshot(snap)
        assert np.allclose(v.to_array(), ref)
        assert v.replicas_consistent()

    def test_snapshot_survives_failure_and_shrink(self):
        rt = make_rt()
        v = DupVector.make(rt, 6).init_random(7)
        ref = v.to_array()
        snap = v.make_snapshot()
        rt.kill(1)
        v.remake(rt.live_world())
        v.restore_snapshot(snap)
        assert np.allclose(v.to_array(), ref)
        assert v.replicas_consistent()

    def test_restore_rejects_larger_group(self):
        rt = make_rt(4)
        g = PlaceGroup.of_ids([0, 1])
        v = DupVector.make(rt, 4, g).init(1.0)
        snap = v.make_snapshot()
        v.remake(rt.world)
        with pytest.raises(ValueError):
            v.restore_snapshot(snap)

    def test_restore_checks_length(self):
        rt = make_rt()
        v = DupVector.make(rt, 4).init(1.0)
        snap = v.make_snapshot()
        w = DupVector.make(rt, 5)
        with pytest.raises(ValueError):
            w.restore_snapshot(snap)

    def test_snapshot_is_isolated_from_live_updates(self):
        rt = make_rt()
        v = DupVector.make(rt, 4).init(2.0)
        snap = v.make_snapshot()
        v.fill(9.0)  # later mutation must not corrupt the snapshot
        v.restore_snapshot(snap)
        assert np.allclose(v.to_array(), 2.0)

    def test_destroy_frees_heap(self):
        rt = make_rt()
        v = DupVector.make(rt, 4)
        v.destroy()
        for pid in rt.world.ids:
            assert rt.heap_of(pid).get_or(v.heap_key) is None
