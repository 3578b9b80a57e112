"""Tests for the stable-storage snapshot backend."""

import numpy as np
import pytest

from repro.apps.data import PageRankWorkload
from repro.apps.nonresilient.pagerank import PageRankNonResilient
from repro.apps.resilient.pagerank import PageRankResilient
from repro.matrix.dupvector import DupVector
from repro.matrix.distblock import DistBlockMatrix
from repro.resilience.executor import IterativeExecutor
from repro.resilience.protection import Protection
from repro.resilience.stable import StableObjectSnapshot
from repro.runtime import CostModel, Runtime

DISK = Protection(disk_only=True)


def make_rt(n=4, cost=None, **kw):
    return Runtime(n, cost=cost or CostModel.zero(), **kw)


class TestStableSnapshot:
    def test_roundtrip(self):
        rt = make_rt()
        v = DupVector.make(rt, 6).init_random(1)
        ref = v.to_array()
        snap = v.make_snapshot(DISK)
        assert isinstance(snap, StableObjectSnapshot)
        v.fill(0.0)
        v.restore_snapshot(snap)
        assert np.allclose(v.to_array(), ref)

    def test_survives_adjacent_double_failure(self):
        # The exact scenario that defeats the in-memory double store.
        rt = make_rt(5)
        v = DupVector.make(rt, 6).init_random(3)
        ref = v.to_array()
        snap = v.make_snapshot(DISK)
        rt.kill(1)
        rt.kill(2)
        v.remake(rt.live_world())
        v.restore_snapshot(snap)
        assert np.allclose(v.to_array(), ref)

    def test_survives_all_nonzero_places_dying(self):
        rt = make_rt(4)
        g = DistBlockMatrix.make_dense(rt, 8, 4, 4).init_random(2)
        ref = g.to_dense().data
        snap = g.make_snapshot(DISK)
        for victim in (1, 2, 3):
            rt.kill(victim)
        g.remake(rt.live_world())
        g.restore_snapshot(snap)
        assert np.array_equal(g.to_dense().data, ref)

    def test_regridded_restore_works(self):
        from repro.matrix.grid import Grid

        rt = make_rt(4)
        g = DistBlockMatrix.make_sparse(rt, 20, 8, 8).init_random(3, density=0.3)
        ref = g.to_dense().data
        snap = g.make_snapshot(DISK)
        g.remake(rt.world, new_grid=Grid.partition(20, 8, 5))
        g.restore_snapshot(snap)
        assert np.array_equal(g.to_dense().data, ref)

    def test_charges_disk_rates(self):
        cost = CostModel(disk_byte_time=1e-3)
        times = {}
        for stable in (False, True):
            rt = make_rt(3, cost=cost)
            v = DupVector.make(rt, 128).init(1.0)
            t0 = rt.clock.global_time()
            v.make_snapshot(Protection(disk_only=stable))
            times[stable] = rt.clock.global_time() - t0
        assert times[True] > times[False]  # disk writes vs free memcpy

    def test_fully_redundant_always(self):
        rt = make_rt(4)
        v = DupVector.make(rt, 4).init(1.0)
        snap = v.make_snapshot(DISK)
        rt.kill(1)
        rt.kill(2)
        assert snap.fully_redundant()

    def test_delete(self):
        rt = make_rt(3)
        v = DupVector.make(rt, 4).init(1.0)
        snap = v.make_snapshot(DISK)
        snap.delete()
        with pytest.raises(ValueError):
            snap.locate(0)


class TestStableEndToEnd:
    def test_pagerank_recovers_via_stable_storage(self):
        wl = PageRankWorkload(
            nodes_per_place=24, out_degree=3, iterations=10, blocks_per_place=2
        )
        ref_rt = make_rt(4)
        ref = PageRankNonResilient(ref_rt, wl)
        ref.run()

        rt = make_rt(4, resilient=True)
        app = PageRankResilient(rt, wl)
        # Adjacent double failure: unrecoverable in-memory, fine on disk.
        rt.injector.kill_at_iteration(1, iteration=5)
        rt.injector.kill_at_iteration(2, iteration=5)
        report = IterativeExecutor(rt, app, checkpoint_interval=4, protection=DISK).run()
        assert report.restores == 1
        assert np.allclose(app.ranks(), ref.ranks(), atol=1e-8)
