"""Linear Regression (non-resilient) — GML's LinReg benchmark.

Trains a ridge-regression model ``(XᵀX + λI) w = Xᵀy`` with the conjugate
gradient method, the algorithm GML's LinearRegression demo uses.  The
training examples are a dense ``DistBlockMatrix`` (weak scaling: a fixed
number of examples per place); the model and CG direction vectors are
``DupVector``s; matvec intermediates are ``DistVector``s aligned to the
matrix's row layout.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.data import RegressionWorkload
from repro.matrix.distblock import DistBlockMatrix
from repro.matrix.distvector import DistVector
from repro.matrix.dupvector import DupVector
from repro.matrix.ops import dist_block_normal_matvec, dist_block_t_matvec
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import Runtime


class LinRegNonResilient:
    """Plain CG linear regression over GML."""

    def __init__(
        self,
        runtime: Runtime,
        workload: RegressionWorkload,
        group: Optional[PlaceGroup] = None,
    ):
        self.runtime = runtime
        self.workload = workload
        group = group if group is not None else runtime.world
        self._places = group
        self.iteration = 0

        self.n_examples = workload.examples(group.size)
        d = workload.features
        self.X = DistBlockMatrix.make_dense(
            runtime, self.n_examples, d, workload.row_blocks(group.size), group
        ).init_random(workload.seed)
        row_part = self.X.aligned_row_partition()
        self.y = DistVector.make(runtime, self.n_examples, group, row_part)
        self.y.init_random(workload.seed, tag=1)

        # CG state.
        self.w = DupVector.make(runtime, d, group)
        self.r = DupVector.make(runtime, d, group)
        self.p = DupVector.make(runtime, d, group)
        self.q = DupVector.make(runtime, d, group)
        self.Xp = DistVector.make(runtime, self.n_examples, group, row_part)
        self._start_cg()

    @property
    def places(self) -> PlaceGroup:
        return self._places

    def _start_cg(self) -> None:
        # r = Xᵀy - (XᵀX + λI)·0 = Xᵀy;  p = r.
        dist_block_t_matvec(self.X, self.y, self.r)
        self.p.copy_from(self.r)
        self.norm_r2 = self.r.dot(self.r)
        self.initial_norm_r2 = self.norm_r2

    def is_finished(self) -> bool:
        if self.iteration >= self.workload.iterations:
            return True
        tol = self.workload.tolerance
        return tol > 0 and self.norm_r2 <= (tol * tol) * self.initial_norm_r2

    def step(self) -> None:
        """One CG iteration."""
        lam = self.workload.ridge_lambda
        # q = Xᵀ(X p) + λ p
        dist_block_normal_matvec(self.X, self.p, self.Xp, self.q)
        self.q.axpy(lam, self.p)
        # Line search along p.
        alpha = self.norm_r2 / self.p.dot(self.q)
        self.w.axpy(alpha, self.p)
        self.r.axpy(-alpha, self.q)
        new_r2 = self.r.dot(self.r)
        beta = new_r2 / self.norm_r2 if self.norm_r2 else 0.0
        # p = r + β p
        self.p.scale(beta)
        self.p.cell_add(self.r)
        self.norm_r2 = new_r2
        self.iteration += 1

    def run(self) -> None:
        """Train to completion."""
        while not self.is_finished():
            self.step()

    def model(self):
        """The learned weight vector (driver-side copy)."""
        return self.w.to_array()
