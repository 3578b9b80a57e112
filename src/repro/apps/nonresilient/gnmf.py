"""Gaussian Non-negative Matrix Factorization (non-resilient).

GNMF is one of GML's stock demo applications (alongside LinReg, LogReg and
PageRank): factor a sparse non-negative matrix ``V ≈ W·H`` with Lee-Seung
multiplicative updates,

    H ← H ∘ (Wᵀ V) ⊘ (Wᵀ W H)
    W ← W ∘ (V Hᵀ) ⊘ (W (H Hᵀ))

``V`` (m×n, sparse) and the tall factor ``W`` (m×k, dense) are
row-distributed and aligned; the wide factor ``H`` (k×n) is duplicated.
Each update needs two distributed Gram products (all-reduced k×k / k×n
partials) and two fully local row-band products — the communication
pattern GML's GNMF demo exhibits.

This app is an *extension* of the paper's three benchmarks, exercising the
duplicated-matrix and matrix-matrix parts of resilient GML.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.data import GnmfWorkload
from repro.matrix.distblock import DistBlockMatrix
from repro.matrix.dupmatrix import DupDenseMatrix
from repro.matrix.ops import dist_gram, dist_matmat_dup
from repro.matrix.random import random_dense_block
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import Runtime


class GnmfNonResilient:
    """Plain multiplicative-update NMF over GML."""

    def __init__(
        self,
        runtime: Runtime,
        workload: GnmfWorkload,
        group: Optional[PlaceGroup] = None,
    ):
        self.runtime = runtime
        self.workload = workload
        group = group if group is not None else runtime.world
        self._places = group
        self.iteration = 0

        self.m = workload.rows(group.size)
        n, k = workload.cols, workload.rank
        row_blocks = workload.row_blocks(group.size)
        self.V = DistBlockMatrix.make_sparse(runtime, self.m, n, row_blocks, group)
        self.V.init_random(workload.seed, density=workload.density)
        self.W = DistBlockMatrix.make_dense(runtime, self.m, k, row_blocks, group)
        self.W.init_random(workload.seed + 1)
        self.H = DupDenseMatrix.make_zero(runtime, k, n, group)
        self.H.init_from(random_dense_block(workload.seed + 2, 0, k, n))
        self._make_temporaries(group, row_blocks)

    def _make_temporaries(self, group: PlaceGroup, row_blocks: int) -> None:
        """The temporaries of the two update rules."""
        n, k, rt = self.workload.cols, self.workload.rank, self.runtime
        self.WtV = DupDenseMatrix.make_zero(rt, k, n, group)
        self.WtW = DupDenseMatrix.make_zero(rt, k, k, group)
        self.WtWH = DupDenseMatrix.make_zero(rt, k, n, group)
        self.Ht = DupDenseMatrix.make_zero(rt, n, k, group)
        self.HHt = DupDenseMatrix.make_zero(rt, k, k, group)
        self.VHt = DistBlockMatrix.make_dense(rt, self.m, k, row_blocks, group)
        self.WHHt = DistBlockMatrix.make_dense(rt, self.m, k, row_blocks, group)

    @property
    def places(self) -> PlaceGroup:
        return self._places

    def is_finished(self) -> bool:
        return self.iteration >= self.workload.iterations

    def step(self) -> None:
        """One pair of multiplicative updates."""
        # H update: H = H ∘ (WᵀV) ⊘ (WᵀW H)
        dist_gram(self.W, self.V, self.WtV)
        dist_gram(self.W, self.W, self.WtW)
        self.WtWH.mult(self.WtW, self.H)
        self.H.cell_mult(self.WtV)
        self.H.cell_div(self.WtWH)
        # W update: W = W ∘ (V Hᵀ) ⊘ (W (H Hᵀ))
        self.Ht.transpose_from(self.H)
        dist_matmat_dup(self.V, self.Ht, self.VHt)
        self.HHt.mult(self.H, self.Ht)
        dist_matmat_dup(self.W, self.HHt, self.WHHt)
        self.W.cell_mult(self.VHt)
        self.W.cell_div(self.WHHt)
        self.iteration += 1

    def run(self) -> None:
        """Factor to completion."""
        while not self.is_finished():
            self.step()

    def reconstruction_error(self) -> float:
        """``||V − W·H||_F`` (driver-side; for tests and reporting)."""
        import numpy as np

        V = self.V.to_dense().data
        W = self.W.to_dense().data
        H = self.H.to_array()
        return float(np.linalg.norm(V - W @ H))

    def factors(self):
        """Driver-side copies of ``(W, H)``."""
        return self.W.to_dense().data, self.H.to_array()
