"""Logistic Regression (non-resilient) — GML's LogReg benchmark.

Trains a binary classifier by batch gradient descent with a one-step
backtracking evaluation per iteration (GML's LogisticRegression demo
likewise evaluates the objective when choosing its step), so each
iteration performs two forward passes and one gradient pass — which is why
LogReg's time per iteration is roughly twice LinReg's in the paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.apps.data import RegressionWorkload
from repro.matrix.distblock import DistBlockMatrix
from repro.matrix.distvector import DistVector
from repro.matrix.dupvector import DupVector
from repro.matrix.ops import dist_block_t_matvec
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import Runtime


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


class LogRegNonResilient:
    """Plain gradient-descent logistic regression over GML."""

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

        n_examples = self.n_examples = workload.examples(group.size)
        d = workload.features
        self.X = DistBlockMatrix.make_dense(
            runtime, n_examples, d, workload.row_blocks(group.size), group
        ).init_random(workload.seed)
        row_part = self.X.aligned_row_partition()
        # Binary labels derived deterministically from a random score.
        self.y = DistVector.make(runtime, n_examples, group, row_part)
        self.y.init_random(workload.seed, tag=2)
        self.y.map(lambda v: (v > 0.5).astype(float), flops_per_cell=1)

        # Model and temporaries.
        self.w = DupVector.make(runtime, d, group)
        self.grad = DupVector.make(runtime, d, group)
        self.margins = DistVector.make(runtime, n_examples, group, row_part)
        self.probe = DistVector.make(runtime, n_examples, group, row_part)
        self.loss = float("inf")

    @property
    def places(self) -> PlaceGroup:
        return self._places

    def is_finished(self) -> bool:
        return self.iteration >= self.workload.iterations

    def step(self) -> None:
        """One gradient-descent iteration with an objective evaluation."""
        lam = self.workload.ridge_lambda
        # Batch GD with a size-normalized step so the rate is scale-free.
        eta = self.workload.learning_rate / self.n_examples
        # Forward pass: mu = sigmoid(X w);  residual = mu - y.
        self.margins.mult(self.X, self.w)
        self.margins.map(_sigmoid, flops_per_cell=4)
        self.margins.cell_sub(self.y)
        # Gradient: g = Xᵀ residual + λ w; update w.
        dist_block_t_matvec(self.X, self.margins, self.grad)
        self.grad.axpy(lam, self.w)
        self.w.axpy(-eta, self.grad)
        # Objective evaluation at the new iterate (second forward pass).
        self.probe.mult(self.X, self.w)
        self.probe.map(_sigmoid, flops_per_cell=4)
        self.probe.cell_sub(self.y)
        self.loss = self.probe.dot_dist(self.probe)
        self.iteration += 1

    def run(self) -> None:
        """Train to completion."""
        while not self.is_finished():
            self.step()

    def model(self):
        """The learned weight vector (driver-side copy)."""
        return self.w.to_array()
