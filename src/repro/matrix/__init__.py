"""The Global Matrix Library (GML) reproduction.

Single-place classes (pure numerics):
:class:`Vector`, :class:`DenseMatrix`, :class:`SparseCSR`, :class:`SparseCSC`.

Multi-place classes (Table I of the paper):

=============  =====================  ===========================================
               Duplicated             Distributed
=============  =====================  ===========================================
Vectors        :class:`DupVector`     :class:`DistVector`
Matrices       :class:`DupDenseMatrix`,
               :class:`DupSparseMatrix`  :class:`DistDenseMatrix`,
                                         :class:`DistSparseMatrix`,
                                         :class:`DistBlockMatrix`
=============  =====================  ===========================================

Supporting machinery: :class:`Grid` / :class:`Partition1D` (row blocking
and overlap math), :class:`BlockSet` (per-place block container), the one
block→place rule (``TaskPlan`` deals a grid's row blocks over its places as
``Partition1D.even(row_blocks, places)``: near-even consecutive runs,
Fig. 1-b), and the distributed kernels in :mod:`repro.matrix.ops`.
"""

from repro.matrix.block import BlockSet, MatrixBlock
from repro.matrix.dense import DenseMatrix, flops_cellwise, flops_matmul, flops_matvec
from repro.matrix.distblock import DistBlockMatrix
from repro.matrix.distmatrix import DistDenseMatrix, DistSparseMatrix
from repro.matrix.distvector import DistVector
from repro.matrix.dupmatrix import DupDenseMatrix, DupSparseMatrix
from repro.matrix.dupvector import DupVector
from repro.matrix.grid import Grid, Partition1D, split_even
from repro.matrix.ops import (
    dist_block_matvec,
    dist_block_normal_matvec,
    dist_block_t_matvec,
    dist_gram,
    dist_matmat_dup,
)
from repro.matrix.random import LinkMatrix, random_dense_block, random_sparse_block, random_vector
from repro.matrix.sparse import SparseCSC, SparseCSR, flops_spmv
from repro.matrix.vector import Vector

__all__ = [
    "BlockSet",
    "MatrixBlock",
    "DenseMatrix",
    "flops_cellwise",
    "flops_matmul",
    "flops_matvec",
    "DistBlockMatrix",
    "DistDenseMatrix",
    "DistSparseMatrix",
    "DistVector",
    "DupDenseMatrix",
    "DupSparseMatrix",
    "DupVector",
    "Grid",
    "Partition1D",
    "split_even",
    "dist_block_matvec",
    "dist_block_normal_matvec",
    "dist_block_t_matvec",
    "dist_gram",
    "dist_matmat_dup",
    "LinkMatrix",
    "random_dense_block",
    "random_sparse_block",
    "random_vector",
    "SparseCSC",
    "SparseCSR",
    "flops_spmv",
    "Vector",
]
