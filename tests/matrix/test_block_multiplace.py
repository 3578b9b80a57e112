"""Tests for MatrixBlock/BlockSet details and the MultiPlaceObject base."""

import numpy as np
import pytest

from repro.matrix.block import BlockSet, MatrixBlock
from repro.matrix.dense import DenseMatrix
from repro.matrix.dupvector import DupVector
from repro.matrix.grid import Grid
from repro.matrix.sparse import SparseCSR
from repro.runtime import CostModel, DeadPlaceException, PlaceGroup, Runtime


def make_rt(n=3):
    return Runtime(n, cost=CostModel.zero())


def block(grid, rb, data):
    """Row block *rb* of *grid* holding *data*, as allocation builds it."""
    return MatrixBlock(rb, grid.row_offsets[rb], data)


class TestMatrixBlock:
    def test_kind_and_bytes(self):
        grid = Grid.partition(4, 4, 2)
        dense = block(grid, 0, DenseMatrix.make(2, 4))
        sparse = block(grid, 1, SparseCSR.empty(2, 4))
        assert not dense.is_sparse and sparse.is_sparse
        assert dense.nbytes == 64


class TestBlockSet:
    def _bs(self):
        grid = Grid.partition(8, 4, 4)
        bs = BlockSet(place_index=0)
        for rb in (1, 2):
            bs.add(block(grid, rb, DenseMatrix.make(2, 4)))
        return bs

    def test_duplicate_rejected(self):
        bs = self._bs()
        grid = Grid.partition(8, 4, 4)
        with pytest.raises(ValueError):
            bs.add(block(grid, 1, DenseMatrix.make(2, 4)))

    def test_get_and_contains(self):
        bs = self._bs()
        assert bs.contains(1) and not bs.contains(0)
        assert bs.get(2).row_range() == (4, 6)
        with pytest.raises(KeyError):
            bs.get(0)

    def test_iteration_is_row_major_whatever_the_insertion_order(self):
        grid = Grid.partition(10, 4, 5)
        bs = BlockSet(place_index=0)
        for rb in (3, 0, 4, 2):
            bs.add(block(grid, rb, DenseMatrix.make(2, 4)))
        in_order = [0, 2, 3, 4]
        assert [b.rb for b in bs] == in_order
        assert bs.keys() == [(rb, 0) for rb in in_order]  # the saved block keys
        running = iter(bs)
        first = next(running)
        bs.add(block(grid, 1, DenseMatrix.make(2, 4)))  # a later add()
        assert [first.rb] + [b.rb for b in running] == in_order
        assert [b.rb for b in bs] == [0, 1, 2, 3, 4]
        assert bs.keys() == [(rb, 0) for rb in range(5)]
        assert [key for key, _version in bs.version_token()] == bs.keys()

    def test_freeze_view_dict_is_copy_on_write(self):
        bs = self._bs()
        payload = bs.freeze_view_dict()
        live = bs.get(1).data
        assert np.shares_memory(payload[(1, 0)].data, live.data)
        with pytest.raises(ValueError):
            payload[(1, 0)].data[0, 0] = 9.0
        live.fill(9.0)
        assert not np.shares_memory(payload[(1, 0)].data, live.data)
        assert payload[(1, 0)].data[0, 0] == 0.0

    def test_total_nnz_counts_sparse_only(self):
        grid = Grid.partition(4, 4, 2)
        bs = BlockSet(0)
        bs.add(block(grid, 0, DenseMatrix.make(2, 4)))
        bs.add(block(grid, 1, SparseCSR.from_coo(2, 4, [0, 1], [1, 2], [1.0, 2.0])))
        assert bs.total_nnz() == 2


class TestMultiPlaceObject:
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
