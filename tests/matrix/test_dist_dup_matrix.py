"""Tests for the one-block-per-place and duplicated matrix classes."""

import numpy as np
import pytest

from repro.matrix.dense import DenseMatrix
from repro.matrix.distmatrix import DistDenseMatrix, DistSparseMatrix
from repro.matrix.dupmatrix import DupDenseMatrix, DupSparseMatrix
from repro.matrix.sparse import SparseCSR
from repro.runtime import CostModel, PlaceGroup, Runtime


def make_rt(n=4):
    return Runtime(n, cost=CostModel.zero())


class TestDistDense:
    def test_one_block_per_place(self):
        rt = make_rt(3)
        g = DistDenseMatrix.make(rt, 10, 4)
        assert g.blocks_per_place() == [1, 1, 1]
        assert g.grid.num_row_blocks == 3

    def test_block_of_place(self):
        rt = make_rt(3)
        g = DistDenseMatrix.make(rt, 10, 4)
        assert g.block_of_place(0).shape == (4, 4)
        assert g.block_of_place(2).shape == (3, 4)

    def test_remake_recalculates_grid(self):
        # §IV-A2: one-block-per-place classes must re-grid on group change.
        rt = make_rt(4)
        g = DistDenseMatrix.make(rt, 12, 4).init_random(1)
        rt.kill(1)
        g.remake(rt.live_world())
        assert g.grid.num_row_blocks == 3
        assert g.blocks_per_place() == [1, 1, 1]

    def test_remake_rejects_explicit_grid(self):
        rt = make_rt(2)
        g = DistDenseMatrix.make(rt, 8, 4)
        from repro.matrix.grid import Grid

        with pytest.raises(ValueError):
            g.remake(rt.world, new_grid=Grid.partition(8, 4, 2))

    def test_shrink_restore_always_regrids(self):
        rt = make_rt(4)
        g = DistDenseMatrix.make(rt, 13, 5).init_random(3)
        ref = g.to_dense().data
        snap = g.make_snapshot()
        rt.kill(2)
        g.remake(rt.live_world())
        g.restore_snapshot(snap)
        assert np.array_equal(g.to_dense().data, ref)


class TestDistSparse:
    def test_restore_after_failure(self):
        rt = make_rt(4)
        g = DistSparseMatrix.make(rt, 14, 14).init_random(5, density=0.3)
        ref = g.to_dense().data
        snap = g.make_snapshot()
        rt.kill(3)
        g.remake(rt.live_world())
        g.restore_snapshot(snap)
        assert np.array_equal(g.to_dense().data, ref)

    def test_kind(self):
        rt = make_rt(2)
        g = DistSparseMatrix.make(rt, 6, 6)
        assert g.kind == "sparse"


class TestDupDense:
    def test_duplicates_everywhere(self):
        rt = make_rt(3)
        proto = DenseMatrix.from_function(3, 3, lambda i, j: i + j * 2.0)
        d = DupDenseMatrix.make(rt, proto)
        assert d.replicas_consistent()
        assert np.array_equal(d.local().data, proto.data)

    def test_payload_type_checked(self):
        rt = make_rt(2)
        with pytest.raises(ValueError):
            DupDenseMatrix.make(rt, SparseCSR.empty(2, 2))
        with pytest.raises(ValueError):
            DupSparseMatrix.make(rt, DenseMatrix.make(2, 2))

    def test_sync_propagates(self):
        rt = make_rt(3)
        d = DupDenseMatrix.make_zero(rt, 2, 2)
        root = d.local()
        root.touch()  # the write protocol: replicas may share one frozen array
        root.data[0, 0] = 5.0
        assert not d.replicas_consistent()
        d.sync()
        assert d.replicas_consistent()
        assert d.payload_at_index(2).data[0, 0] == 5.0

    def test_snapshot_restore_after_shrink(self):
        rt = make_rt(3)
        proto = DenseMatrix.from_function(4, 4, lambda i, j: i * 4.0 + j)
        d = DupDenseMatrix.make(rt, proto)
        snap = d.make_snapshot()
        rt.kill(1)
        d.remake(rt.live_world())
        d.restore_snapshot(snap)
        assert d.replicas_consistent()
        assert np.array_equal(d.local().data, proto.data)

    def test_restore_shape_checked(self):
        rt = make_rt(2)
        d = DupDenseMatrix.make_zero(rt, 2, 2)
        snap = d.make_snapshot()
        e = DupDenseMatrix.make_zero(rt, 3, 3)
        with pytest.raises(ValueError):
            e.restore_snapshot(snap)


class TestDupSparse:
    def test_roundtrip(self):
        rt = make_rt(3)
        dense = np.zeros((4, 4))
        dense[0, 1], dense[3, 2] = 2.0, 5.0
        proto = SparseCSR.from_dense(dense)
        d = DupSparseMatrix.make(rt, proto, PlaceGroup.of_ids([0, 2]))
        assert d.replicas_consistent()
        snap = d.make_snapshot()
        d.remake(PlaceGroup.of_ids([0, 2]))
        assert d.local().nnz == 0
        d.restore_snapshot(snap)
        assert np.array_equal(d.local().to_dense(), dense)

    def test_make_empty(self):
        rt = make_rt(2)
        d = DupSparseMatrix.make_empty(rt, 5, 5)
        assert d.local().nnz == 0
