"""Integration tests for non-default groups, layouts and trace plumbing."""

import numpy as np
import pytest

from repro.apps.data import PageRankWorkload, RegressionWorkload
from repro.apps.nonresilient import LinRegNonResilient, PageRankNonResilient
from repro.apps.resilient import PageRankResilient
from repro.matrix.distblock import DistBlockMatrix
from repro.resilience.executor import IterativeExecutor
from repro.runtime import CostModel, PlaceGroup, Runtime


def make_rt(n=6):
    return Runtime(n, cost=CostModel.zero())


class TestAppsOnSubgroups:
    def test_linreg_on_a_subset_of_places(self):
        """Apps can run on an arbitrary subgroup — the §IV-A1 enabler."""
        rt = make_rt(6)
        wl = RegressionWorkload(
            features=8, examples_per_place=40, iterations=6, blocks_per_place=2
        )
        group = PlaceGroup.of_ids([0, 2, 4])
        app = LinRegNonResilient(rt, wl, group=group)
        app.run()
        assert np.isfinite(app.model()).all()
        # Non-member places hold no app data.
        assert rt.heap_of(1).get_or(app.X.heap_key) is None

    def test_resilient_app_on_subgroup_recovers(self):
        rt = Runtime(6, cost=CostModel.zero(), resilient=True)
        wl = PageRankWorkload(
            nodes_per_place=30, out_degree=3, iterations=8, blocks_per_place=2
        )
        group = PlaceGroup.of_ids([0, 1, 3, 5])
        ref_rt = make_rt(6)
        ref = PageRankNonResilient(ref_rt, wl, group=PlaceGroup.of_ids([0, 1, 3, 5]))
        ref.run()

        app = PageRankResilient(rt, wl, group=group)
        rt.injector.kill_at_iteration(3, iteration=4)
        IterativeExecutor(rt, app, checkpoint_interval=3).run()
        assert app.places.ids == [0, 1, 5]
        assert np.allclose(app.ranks(), ref.ranks(), atol=1e-8)
        # Place 2 was never involved and is untouched.
        assert rt.is_alive(2)


class TestSingleBlockPerPlaceApps:
    def test_blocks_per_place_one(self):
        rt = make_rt(4)
        wl = PageRankWorkload(
            nodes_per_place=24, out_degree=3, iterations=6, blocks_per_place=1
        )
        app = PageRankNonResilient(rt, wl)
        app.run()
        assert app.ranks().sum() == pytest.approx(1.0, abs=1e-9)


class TestPlaceGridLayout:
    def test_snapshot_restore_with_2d_place_grid(self):
        """The rowPlaces × colPlaces layout survives the restore paths."""
        rt = make_rt(6)
        g = DistBlockMatrix.make_dense(
            rt, 24, 18, 6, 3, row_places=3, col_places=2
        ).init_random(5)
        ref = g.to_dense().data
        snap = g.make_snapshot()
        rt.kill(4)
        survivors = rt.live_world()
        # Shrink onto 5 places: the 2-D layout degrades to a grouped map.
        g.remake(survivors)
        g.restore_snapshot(snap)
        assert np.array_equal(g.to_dense().data, ref)

    def test_2d_map_matvec(self):
        from repro.matrix.distvector import DistVector
        from repro.matrix.dupvector import DupVector
        from repro.matrix.ops import dist_block_matvec

        rt = make_rt(4)
        g = DistBlockMatrix.make_dense(
            rt, 16, 12, 4, 2, row_places=2, col_places=2
        ).init_random(3)
        x = DupVector.make(rt, 12).init_random(4)
        y = DistVector.make(rt, 16)
        dist_block_matvec(g, x, y)
        assert np.allclose(y.to_array(), g.to_dense().data @ x.to_array())


class TestTracePlumbing:
    def test_kill_and_finish_events_recorded(self):
        rt = Runtime(3, cost=CostModel.zero(), trace=True)
        rt.finish_all(rt.world, lambda ctx: None, label="traced")
        rt.kill(2)
        timeline = rt.engine.timeline
        assert timeline.of_kind("finish")[-1].label == "traced"
        (kill,) = timeline.of_kind("membership")
        assert (kill.op, kill.place) == ("kill", 2)

    def test_add_place_traced(self):
        rt = Runtime(2, cost=CostModel.zero(), trace=True)
        place = rt.add_place()
        (added,) = rt.engine.timeline.of_kind("membership")
        assert (added.op, added.place) == ("add_place", place.id)

    def test_trace_disabled_by_default(self):
        rt = Runtime(2, cost=CostModel.zero())
        rt.finish_all(rt.world, lambda ctx: None)
        rt.kill(1)
        assert rt.engine.timeline.events == []
