"""Tests for DistBlockMatrix: layout, remake modes, snapshot/restore."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrix.distblock import DistBlockMatrix
from repro.matrix.grid import Grid
from repro.matrix.random import LinkMatrix
from repro.runtime import CostModel, DeadPlaceException, PlaceGroup, Runtime


def make_rt(n=4):
    return Runtime(n, cost=CostModel.zero())


class TestConstruction:
    def test_make_dense_grouped(self):
        rt = make_rt(4)
        g = DistBlockMatrix.make_dense(rt, 16, 6, 8, 1)
        assert g.blocks_per_place() == [2, 2, 2, 2]
        assert g.aligned_row_partition().sizes == [4, 4, 4, 4]

    def test_make_with_place_grid(self):
        rt = make_rt(4)
        g = DistBlockMatrix.make_dense(rt, 8, 8, 4, 4, row_places=2, col_places=2)
        assert sum(g.blocks_per_place()) == 16
        assert g.blocks_per_place() == [4, 4, 4, 4]

    def test_place_grid_must_match_group(self):
        rt = make_rt(4)
        with pytest.raises(ValueError):
            DistBlockMatrix.make_dense(rt, 8, 8, 4, 4, row_places=3, col_places=2)
        with pytest.raises(ValueError):
            DistBlockMatrix.make_dense(rt, 8, 8, 4, 4, row_places=2, col_places=None)

    def test_invalid_kind(self):
        rt = make_rt(2)
        with pytest.raises(ValueError):
            DistBlockMatrix(rt, Grid.partition(4, 4, 2, 1), rt.world, "diagonal")

    def test_subgroup(self):
        rt = make_rt(4)
        group = PlaceGroup.of_ids([1, 2])
        g = DistBlockMatrix.make_dense(rt, 8, 4, 4, 1, group=group)
        assert g.blocks_per_place() == [2, 2]
        assert rt.heap_of(0).get_or(g.heap_key) is None


class TestInitialization:
    def test_dense_random_deterministic(self):
        a = DistBlockMatrix.make_dense(make_rt(3), 9, 4, 6, 1).init_random(5)
        b = DistBlockMatrix.make_dense(make_rt(2), 9, 4, 6, 1).init_random(5)
        # Same grid, different place counts: same logical matrix.
        assert np.array_equal(a.to_dense().data, b.to_dense().data)

    def test_sparse_random(self):
        g = DistBlockMatrix.make_sparse(make_rt(2), 10, 10, 4, 1).init_random(3, density=0.3)
        assert 0 < g.total_nnz() <= 30 + 4  # rounding per block

    def test_link_matrix_grid_independent(self):
        link = LinkMatrix(24, 4, seed=9)
        a = DistBlockMatrix.make_sparse(make_rt(3), 24, 24, 6, 1).init_link_matrix(link)
        b = DistBlockMatrix.make_sparse(make_rt(2), 24, 24, 4, 2).init_link_matrix(link)
        assert np.array_equal(a.to_dense().data, b.to_dense().data)

    def test_link_matrix_requires_sparse(self):
        rt = make_rt(2)
        g = DistBlockMatrix.make_dense(rt, 8, 8, 4, 1)
        with pytest.raises(ValueError):
            g.init_link_matrix(LinkMatrix(8, 2))

    def test_init_from_dense_roundtrip(self):
        rt = make_rt(3)
        from repro.matrix.dense import DenseMatrix

        src = DenseMatrix.from_function(9, 7, lambda i, j: i * 7.0 + j)
        g = DistBlockMatrix.make_dense(rt, 9, 7, 3, 2).init_from_dense(src)
        assert np.array_equal(g.to_dense().data, src.data)
        s = DistBlockMatrix.make_sparse(rt, 9, 7, 3, 2).init_from_dense(src)
        assert np.array_equal(s.to_dense().data, src.data)


class TestLayoutQueries:
    def test_aligned_partition_none_when_scattered(self):
        from repro.matrix.mapping import CyclicBlockMap

        rt = make_rt(3)
        grid = Grid.partition(12, 4, 6, 1)
        g = DistBlockMatrix(rt, grid, rt.world, "dense", CyclicBlockMap(grid, 3))
        assert g.aligned_row_partition() is None

    def test_row_spans(self):
        rt = make_rt(2)
        g = DistBlockMatrix.make_dense(rt, 8, 4, 4, 1)
        assert g.row_spans() == [(0, 4), (4, 8)]


class TestRemake:
    def test_shrink_keeps_grid(self):
        rt = make_rt(4)
        g = DistBlockMatrix.make_dense(rt, 16, 4, 8, 1).init_random(1)
        rt.kill(3)
        g.remake(rt.live_world())
        # Same 8-block grid dealt over 3 places: 3/3/2.
        assert g.grid.num_row_blocks == 8
        assert g.blocks_per_place() == [3, 3, 2]

    def test_rebalance_new_grid(self):
        rt = make_rt(4)
        g = DistBlockMatrix.make_dense(rt, 16, 4, 8, 1).init_random(1)
        rt.kill(3)
        survivors = rt.live_world()
        g.remake(survivors, new_grid=DistBlockMatrix.default_regrid(16, 4, 1, survivors.size))
        assert g.grid.num_row_blocks == 3
        assert g.blocks_per_place() == [1, 1, 1]

    def test_remake_clears_data(self):
        rt = make_rt(2)
        g = DistBlockMatrix.make_dense(rt, 8, 4, 4, 1).init_random(1)
        g.remake(rt.world)
        assert g.to_dense().norm_f() == 0.0

    def test_remake_rejects_wrong_shape_grid(self):
        rt = make_rt(2)
        g = DistBlockMatrix.make_dense(rt, 8, 4, 4, 1)
        with pytest.raises(ValueError):
            g.remake(rt.world, new_grid=Grid.partition(9, 4, 3, 1))


class TestSnapshotRestore:
    def _matrix(self, rt, kind="dense", m=20, n=8, rbs=10, cbs=2):
        if kind == "dense":
            g = DistBlockMatrix.make_dense(rt, m, n, rbs, cbs)
            return g.init_random(7)
        g = DistBlockMatrix.make_sparse(rt, m, n, rbs, cbs)
        return g.init_random(7, density=0.3)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_restore_same_group(self, kind):
        rt = make_rt(4)
        g = self._matrix(rt, kind)
        ref = g.to_dense().data
        snap = g.make_snapshot()
        g.remake(rt.world)
        g.restore_snapshot(snap)
        assert np.array_equal(g.to_dense().data, ref)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_shrink_restore_block_by_block(self, kind):
        rt = make_rt(4)
        g = self._matrix(rt, kind)
        ref = g.to_dense().data
        snap = g.make_snapshot()
        rt.kill(2)
        g.remake(rt.live_world())  # grid kept
        g.restore_snapshot(snap)
        assert np.array_equal(g.to_dense().data, ref)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_rebalance_restore_regridded(self, kind):
        rt = make_rt(4)
        g = self._matrix(rt, kind)
        ref = g.to_dense().data
        snap = g.make_snapshot()
        rt.kill(2)
        survivors = rt.live_world()
        g.remake(survivors, new_grid=DistBlockMatrix.default_regrid(20, 8, 2, survivors.size))
        g.restore_snapshot(snap)
        assert np.array_equal(g.to_dense().data, ref)

    def test_restore_kind_mismatch(self):
        rt = make_rt(2)
        g = self._matrix(rt, "dense", m=8, n=4, rbs=4, cbs=1)
        snap = g.make_snapshot()
        s = DistBlockMatrix.make_sparse(rt, 8, 4, 4, 1)
        with pytest.raises(ValueError):
            s.restore_snapshot(snap)

    def test_snapshot_isolated_from_live_updates(self):
        rt = make_rt(2)
        g = self._matrix(rt, "dense", m=8, n=4, rbs=4, cbs=1)
        ref = g.to_dense().data
        snap = g.make_snapshot()
        g.init_random(99)  # overwrite live data
        g.restore_snapshot(snap)
        assert np.array_equal(g.to_dense().data, ref)

    def test_dead_member_fails_snapshot(self):
        # Two exceptions surface: place 1's own task cannot run, and place
        # 0's backup copy targets dead place 1 — X10 aggregates them.
        from repro.runtime import MultipleException

        rt = make_rt(3)
        g = self._matrix(rt, "dense", m=9, n=4, rbs=3, cbs=1)
        rt.kill(1)
        with pytest.raises((DeadPlaceException, MultipleException)) as exc_info:
            g.make_snapshot()
        assert exc_info.value.places == [1]

    @settings(max_examples=15, deadline=None)
    @given(
        kind=st.sampled_from(["dense", "sparse"]),
        m=st.integers(6, 40),
        n=st.integers(2, 12),
        rbs=st.integers(1, 8),
        cbs=st.integers(1, 3),
        new_rbs=st.integers(1, 8),
        new_cbs=st.integers(1, 3),
    )
    def test_any_regrid_restore_is_identity(self, kind, m, n, rbs, cbs, new_rbs, new_cbs):
        """Property: snapshot → remake with ANY grid → restore == identity."""
        places = 3
        rbs = max(rbs, places)
        new_rbs = max(new_rbs, places)
        rt = make_rt(places)
        g = self._matrix(rt, kind, m=m, n=n, rbs=rbs, cbs=cbs)
        ref = g.to_dense().data
        snap = g.make_snapshot()
        g.remake(rt.world, new_grid=Grid.partition(m, n, new_rbs, new_cbs))
        g.restore_snapshot(snap)
        assert np.array_equal(g.to_dense().data, ref)


class TestSharedZeroBlocks:
    """Fresh dense blocks alias one frozen zero block per shape (copy-on-write)."""

    @staticmethod
    def _fresh():
        from repro.matrix.random import zero_dense_block

        g = DistBlockMatrix.make_dense(make_rt(2), 8, 3, 2, 1)
        (a,), (b,) = g.block_set(0), g.block_set(1)
        return a.data, b.data, zero_dense_block(4, 3)

    def test_fresh_blocks_of_one_shape_share_memory(self):
        a, b, shared = self._fresh()
        assert np.shares_memory(a.data, b.data)
        assert np.shares_memory(a.data, shared.data)
        assert a is not b and not a.data.any()

    def test_raw_write_raises(self):
        a, _, _ = self._fresh()
        with pytest.raises(ValueError, match="read-only"):
            a.data[0, 0] = 1.0

    @pytest.mark.parametrize("write", ["scale", "set_sub_matrix", "mult", "fill"])
    def test_api_write_detaches(self, write):
        from repro.matrix.dense import DenseMatrix

        a, b, shared = self._fresh()
        ones = DenseMatrix(np.ones((4, 3)))
        {
            "scale": lambda: a.scale(2.0),
            "set_sub_matrix": lambda: a.set_sub_matrix(1, 1, DenseMatrix(np.ones((2, 2)))),
            "mult": lambda: a.mult(ones, DenseMatrix(np.eye(3))),
            "fill": lambda: a.fill(7.0),
        }[write]()
        assert not np.shares_memory(a.data, b.data)
        assert (a.data != 0).any() or write == "scale"
        assert not b.data.any() and not shared.data.any()
        assert not self._fresh()[0].data.any()

    def test_remake_realiases_the_shared_block(self):
        rt = make_rt(3)
        g = DistBlockMatrix.make_dense(rt, 12, 3, 3, 1).init_random(5)
        rt.kill(2)
        g.remake(rt.live_group(g.group))
        blocks = [blk.data for i in range(2) for blk in g.block_set(i)]
        assert all(np.shares_memory(blk.data, blocks[0].data) for blk in blocks)
        assert not any(blk.data.any() for blk in blocks)
