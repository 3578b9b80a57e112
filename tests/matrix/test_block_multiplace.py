"""Tests for MatrixBlock/BlockSet details and the MultiPlaceObject base."""

import numpy as np
import pytest

from repro.matrix.block import BlockSet, MatrixBlock
from repro.matrix.dense import DenseMatrix
from repro.matrix.distblock import DistBlockMatrix
from repro.matrix.dupvector import DupVector
from repro.matrix.grid import Grid
from repro.matrix.sparse import SparseCSR
from repro.runtime import CostModel, DeadPlaceException, PlaceGroup, Runtime


def make_rt(n=3):
    return Runtime(n, cost=CostModel.zero())


class TestMatrixBlock:
    def test_for_grid_validates_shape(self):
        grid = Grid.partition(10, 6, 2, 2)
        block = MatrixBlock.for_grid(grid, 0, 1, DenseMatrix.make(5, 3))
        assert block.row_range() == (0, 5)
        assert block.col_range() == (3, 6)
        with pytest.raises(ValueError):
            MatrixBlock.for_grid(grid, 0, 1, DenseMatrix.make(4, 3))

    def test_kind_and_bytes(self):
        grid = Grid.partition(4, 4, 2, 1)
        dense = MatrixBlock.for_grid(grid, 0, 0, DenseMatrix.make(2, 4))
        sparse = MatrixBlock.for_grid(grid, 1, 0, SparseCSR.empty(2, 4))
        assert not dense.is_sparse and sparse.is_sparse
        assert dense.nbytes == 64


class TestBlockSet:
    def _bs(self):
        grid = Grid.partition(8, 4, 4, 1)
        bs = BlockSet(place_index=0)
        for rb in (1, 2):
            bs.add(MatrixBlock.for_grid(grid, rb, 0, DenseMatrix.make(2, 4)))
        return bs

    def test_duplicate_rejected(self):
        bs = self._bs()
        grid = Grid.partition(8, 4, 4, 1)
        with pytest.raises(ValueError):
            bs.add(MatrixBlock.for_grid(grid, 1, 0, DenseMatrix.make(2, 4)))

    def test_get_and_contains(self):
        bs = self._bs()
        assert bs.contains(1, 0)
        assert bs.get(2, 0).row_range() == (4, 6)
        with pytest.raises(KeyError):
            bs.get(0, 0)

    def test_iteration_is_row_major_whatever_the_insertion_order(self):
        grid = Grid.partition(8, 4, 4, 2)
        bs = BlockSet(place_index=0)
        for rb, cb in ((2, 1), (0, 1), (2, 0), (0, 0)):
            bs.add(MatrixBlock.for_grid(grid, rb, cb, DenseMatrix.make(2, 2)))
        row_major = [(0, 0), (0, 1), (2, 0), (2, 1)]
        assert [b.key for b in bs] == row_major == bs.keys()
        running = iter(bs)
        first = next(running)
        bs.add(MatrixBlock.for_grid(grid, 1, 0, DenseMatrix.make(2, 2)))  # a later add()
        assert [first.key] + [b.key for b in running] == row_major
        assert [b.key for b in bs] == sorted(row_major + [(1, 0)]) == bs.keys()
        assert [key for key, _version in bs.version_token()] == bs.keys()

    def test_row_span(self):
        assert self._bs().row_span() == (2, 6)
        with pytest.raises(ValueError):
            BlockSet(0).row_span()

    def test_freeze_view_dict_is_copy_on_write(self):
        bs = self._bs()
        payload = bs.freeze_view_dict()
        live = bs.get(1, 0).data
        assert np.shares_memory(payload[(1, 0)].data, live.data)
        with pytest.raises(ValueError):
            payload[(1, 0)].data[0, 0] = 9.0
        live.fill(9.0)
        assert not np.shares_memory(payload[(1, 0)].data, live.data)
        assert payload[(1, 0)].data[0, 0] == 0.0

    def test_total_nnz_counts_sparse_only(self):
        grid = Grid.partition(4, 4, 2, 1)
        bs = BlockSet(0)
        bs.add(MatrixBlock.for_grid(grid, 0, 0, DenseMatrix.make(2, 4)))
        bs.add(
            MatrixBlock.for_grid(
                grid, 1, 0, SparseCSR.from_coo(2, 4, [0, 1], [1, 2], [1.0, 2.0])
            )
        )
        assert bs.total_nnz() == 2


class TestMultiPlaceObject:
    def test_total_nbytes(self):
        rt = make_rt(3)
        v = DupVector.make(rt, 8)
        # 3 copies x 8 doubles (+ framing counted by payload_nbytes).
        assert v.total_nbytes() >= 3 * 64

    def test_destroy_then_group_alive_check(self):
        rt = make_rt(3)
        v = DupVector.make(rt, 4)
        v.check_group_alive()
        rt.kill(1)
        with pytest.raises(DeadPlaceException):
            v.check_group_alive()

    def test_construction_on_dead_place_rejected(self):
        rt = make_rt(3)
        rt.kill(2)
        with pytest.raises(DeadPlaceException):
            DupVector.make(rt, 4, PlaceGroup.of_ids([0, 2]))

    def test_unique_object_ids(self):
        rt = make_rt(2)
        a, b = DupVector.make(rt, 2), DupVector.make(rt, 2)
        assert a.oid != b.oid
        assert a.heap_key != b.heap_key

    def test_total_nbytes_skips_dead_places(self):
        rt = make_rt(3)
        g = DistBlockMatrix.make_dense(rt, 9, 3, 3, 1).init_random(1)
        full = g.total_nbytes()
        rt.kill(2)
        assert g.total_nbytes() < full
