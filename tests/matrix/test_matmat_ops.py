"""Tests for matrix-matrix kernels and DupDenseMatrix operations."""

import numpy as np
import pytest

from repro.matrix.dense import DenseMatrix
from repro.matrix.distblock import DistBlockMatrix
from repro.matrix.dupmatrix import DupDenseMatrix
from repro.matrix.ops import dist_gram, dist_matmat_dup
from repro.runtime import CostModel, Runtime


def make_rt(n=3):
    return Runtime(n, cost=CostModel.zero())


def dense_dist(rt, m, n, seed):
    return DistBlockMatrix.make_dense(rt, m, n, rt.world.size * 2).init_random(seed)


def sparse_dist(rt, m, n, seed):
    return DistBlockMatrix.make_sparse(rt, m, n, rt.world.size * 2).init_random(
        seed, density=0.35
    )


class TestSparseMatmat:
    def test_matmat_matches_dense(self):
        from repro.matrix.sparse import SparseCSR

        rng = np.random.default_rng(0)
        dense = rng.random((8, 6))
        dense[dense < 0.5] = 0
        a = SparseCSR.from_dense(dense)
        b = rng.random((6, 3))
        assert np.allclose(a.matmat(b), dense @ b)
        c = rng.random((8, 3))
        assert np.allclose(a.t_matmat(c), dense.T @ c)

    def test_shape_checks(self):
        from repro.matrix.sparse import SparseCSR

        a = SparseCSR.empty(4, 3)
        with pytest.raises(ValueError):
            a.matmat(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            a.t_matmat(np.zeros((3, 2)))


class TestDistGram:
    def test_dense_dense(self):
        rt = make_rt()
        W = dense_dist(rt, 18, 4, 1)
        out = DupDenseMatrix.make_zero(rt, 4, 4)
        dist_gram(W, W, out)
        Wd = W.to_dense().data
        assert np.allclose(out.to_array(), Wd.T @ Wd)
        assert out.replicas_consistent(1e-12)

    def test_dense_sparse(self):
        rt = make_rt()
        W = dense_dist(rt, 18, 4, 1)
        V = sparse_dist(rt, 18, 6, 2)
        out = DupDenseMatrix.make_zero(rt, 4, 6)
        dist_gram(W, V, out)
        assert np.allclose(out.to_array(), W.to_dense().data.T @ V.to_dense().data)

    def test_sparse_dense(self):
        rt = make_rt()
        V = sparse_dist(rt, 18, 6, 2)
        W = dense_dist(rt, 18, 4, 1)
        out = DupDenseMatrix.make_zero(rt, 6, 4)
        dist_gram(V, W, out)
        assert np.allclose(out.to_array(), V.to_dense().data.T @ W.to_dense().data)

    def test_rejects_misaligned(self):
        rt = make_rt()
        a = DistBlockMatrix.make_dense(rt, 18, 4, 6)
        b = DistBlockMatrix.make_dense(rt, 18, 4, 9)  # different blocking
        out = DupDenseMatrix.make_zero(rt, 4, 4)
        with pytest.raises(ValueError):
            dist_gram(a, b, out)

    def test_rejects_wrong_output_shape(self):
        rt = make_rt()
        W = dense_dist(rt, 18, 4, 1)
        with pytest.raises(ValueError):
            dist_gram(W, W, DupDenseMatrix.make_zero(rt, 4, 5))


class TestDistMatmatDup:
    def test_dense(self):
        rt = make_rt()
        A = dense_dist(rt, 18, 4, 1)
        B = DupDenseMatrix.make_zero(rt, 4, 5)
        B.init_from(DenseMatrix(np.random.default_rng(3).random((4, 5))))
        out = DistBlockMatrix.make_dense(rt, 18, 5, 6)
        dist_matmat_dup(A, B, out)
        assert np.allclose(out.to_dense().data, A.to_dense().data @ B.to_array())

    def test_sparse(self):
        rt = make_rt()
        V = sparse_dist(rt, 18, 6, 2)
        B = DupDenseMatrix.make_zero(rt, 6, 3)
        B.init_from(DenseMatrix(np.random.default_rng(3).random((6, 3))))
        out = DistBlockMatrix.make_dense(rt, 18, 3, 6)
        dist_matmat_dup(V, B, out)
        assert np.allclose(out.to_dense().data, V.to_dense().data @ B.to_array())

    def test_inner_dim_check(self):
        rt = make_rt()
        A = dense_dist(rt, 18, 4, 1)
        B = DupDenseMatrix.make_zero(rt, 5, 3)
        out = DistBlockMatrix.make_dense(rt, 18, 3, 6)
        with pytest.raises(ValueError):
            dist_matmat_dup(A, B, out)


class TestDupDenseOps:
    def test_cellwise_chain_matches_numpy(self):
        rt = make_rt()
        a = DupDenseMatrix.make_zero(rt, 3, 3)
        b = DupDenseMatrix.make_zero(rt, 3, 3)
        a.fill(6.0)
        b.fill(2.0)
        a.cell_mult(b).cell_div(b).cell_add(1.0).scale(0.5)
        assert np.allclose(a.to_array(), 3.5)
        assert a.replicas_consistent()

    def test_cell_div_eps_floor(self):
        rt = make_rt(2)
        a = DupDenseMatrix.make_zero(rt, 2, 2).fill(1.0)
        z = DupDenseMatrix.make_zero(rt, 2, 2)  # zeros
        a.cell_div(z, eps=0.5)
        assert np.allclose(a.to_array(), 2.0)

    def test_mult(self):
        rt = make_rt()
        rng = np.random.default_rng(5)
        a = DupDenseMatrix.make_zero(rt, 3, 4)
        b = DupDenseMatrix.make_zero(rt, 4, 2)
        a.init_from(DenseMatrix(rng.random((3, 4))))
        b.init_from(DenseMatrix(rng.random((4, 2))))
        out = DupDenseMatrix.make_zero(rt, 3, 2).mult(a, b)
        assert np.allclose(out.to_array(), a.to_array() @ b.to_array())
        assert out.replicas_consistent(1e-15)

    def test_transpose_from(self):
        rt = make_rt()
        a = DupDenseMatrix.make_zero(rt, 2, 3)
        a.init_from(DenseMatrix(np.arange(6.0).reshape(2, 3)))
        t = DupDenseMatrix.make_zero(rt, 3, 2).transpose_from(a)
        assert np.array_equal(t.to_array(), a.to_array().T)

    def test_reduce_sum(self):
        rt = make_rt(3)
        a = DupDenseMatrix.make_zero(rt, 2, 2)
        for i in range(3):
            replica = a.payload_at_index(i)
            replica.touch()
            replica.data[:] = i + 1
        a.reduce_sum()
        assert np.allclose(a.to_array(), 6.0)
        assert a.replicas_consistent()

    def test_norm_f(self):
        rt = make_rt(2)
        a = DupDenseMatrix.make_zero(rt, 2, 2).fill(3.0)
        assert a.norm_f() == pytest.approx(6.0)

    def test_shape_checks(self):
        rt = make_rt(2)
        a = DupDenseMatrix.make_zero(rt, 2, 2)
        b = DupDenseMatrix.make_zero(rt, 2, 3)
        with pytest.raises(ValueError):
            a.cell_add(b)
        with pytest.raises(ValueError):
            a.transpose_from(b)
        with pytest.raises(ValueError):
            DupDenseMatrix.make_zero(rt, 2, 2).mult(a, b)  # 2x2 != 2x3 result


class TestDistBlockCellwise:
    def test_chain_matches_numpy(self):
        rt = make_rt()
        A = dense_dist(rt, 12, 4, 1)
        B = dense_dist(rt, 12, 4, 2)
        Ad, Bd = A.to_dense().data.copy(), B.to_dense().data.copy()
        A.cell_mult(B).scale(3.0).cell_div(B).cell_add(B)
        assert np.allclose(A.to_dense().data, 3 * Ad + Bd)

    def test_norm_f_dense_and_sparse(self):
        rt = make_rt()
        A = dense_dist(rt, 12, 4, 1)
        assert A.norm_f() == pytest.approx(np.linalg.norm(A.to_dense().data))
        S = sparse_dist(rt, 12, 4, 2)
        assert S.norm_f() == pytest.approx(np.linalg.norm(S.to_dense().data))

    def test_binary_ops_require_dense(self):
        rt = make_rt()
        A = dense_dist(rt, 12, 4, 1)
        S = sparse_dist(rt, 12, 4, 2)
        with pytest.raises(ValueError):
            A.cell_mult(S)
        with pytest.raises(ValueError):
            S.cell_div(S)

    def test_layout_mismatch_rejected(self):
        rt = make_rt()
        A = DistBlockMatrix.make_dense(rt, 12, 4, 6).init_random(1)
        B = DistBlockMatrix.make_dense(rt, 12, 4, 12).init_random(2)
        with pytest.raises(ValueError):
            A.cell_add(B)
