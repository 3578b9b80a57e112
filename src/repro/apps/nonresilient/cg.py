"""Preconditioned conjugate gradient (non-resilient).

Jacobi-preconditioned CG for the SPD banded system of
:class:`~repro.apps.data.CGWorkload`, written over the GML classes:

* ``A`` — a :class:`~repro.matrix.distsparse.DistSparseRowMatrix` (one CSR
  row band per place);
* ``x, r, z, p, q`` — partition-aligned :class:`DistVector` s;
* ``p_dup`` — the :class:`DupVector` operand of the matvec.

One iteration (with ``M⁻¹`` the inverse diagonal of ``A``)::

    q = A p
    α = ρ / (p·q)          # ρ = r·z from the previous iteration
    x += α p ;  r -= α q
    z = M⁻¹ r
    ρ' = r·z ;  β = ρ'/ρ
    p = z + β p

All scalar reductions are group-ordered partial sums (``dot_dist``), so a
run's trajectory is bit-reproducible for a fixed group width — the
property the resilient variant's exact reconstruction leans on.
"""

from __future__ import annotations

from functools import partial
from math import sqrt
from typing import Optional

from repro.apps.data import CGWorkload
from repro.matrix.distsparse import DistSparseRowMatrix
from repro.matrix.distvector import DistVector
from repro.matrix.dupvector import DupVector
from repro.matrix.grid import Partition1D
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import Runtime


class CGNonResilient:
    """Plain PCG iteration over GML."""

    def __init__(
        self,
        runtime: Runtime,
        workload: CGWorkload,
        group: Optional[PlaceGroup] = None,
    ):
        self.runtime = runtime
        self.workload = workload
        group = group if group is not None else runtime.world
        self._places = group
        self.iteration = 0

        n = workload.rows(group.size)
        self.n = n
        part = Partition1D.even(n, group.size)
        self.A = DistSparseRowMatrix.make(
            runtime, n, group, builder=partial(workload.band, n),
            partition=part,
        )
        self.b = DistVector.make(runtime, n, group, part).init_random(
            workload.seed, tag=1
        )
        # Jacobi preconditioner: M⁻¹ = 1/diag(A), built from the same
        # seeded diagonal the band builder uses (tag=2 jitter).
        self.inv_diag = (
            DistVector.make(runtime, n, group, part)
            .init_random(workload.seed, tag=2)
            .map(lambda v: 1.0 / (CGWorkload.DIAG_BASE + v), flops_per_cell=2.0)
        )
        self.x = DistVector.make(runtime, n, group, part).fill(0.0)
        self.r = DistVector.make(runtime, n, group, part).copy_from(self.b)
        self.z = (
            DistVector.make(runtime, n, group, part)
            .copy_from(self.r)
            .cell_mult(self.inv_diag)
        )
        self.p = DistVector.make(runtime, n, group, part).copy_from(self.z)
        self.q = DistVector.make(runtime, n, group, part)
        self.p_dup = DupVector.make(runtime, n, group)
        self.rz = self.r.dot_dist(self.z)
        self.rz0 = self.rz

    @property
    def places(self) -> PlaceGroup:
        return self._places

    def is_finished(self) -> bool:
        if self.iteration >= self.workload.iterations:
            return True
        tol = self.workload.tolerance
        return bool(tol > 0 and self.rz <= tol * tol * self.rz0)

    def step(self) -> None:
        """One PCG iteration."""
        self.p.to_dup(self.p_dup)
        self.A.mult_into(self.q, self.p_dup)
        alpha = self.rz / self.q.dot_dist(self.p)
        self.x.axpy(alpha, self.p)
        self.r.axpy(-alpha, self.q)
        self.z.copy_from(self.r).cell_mult(self.inv_diag)
        rz_new = self.r.dot_dist(self.z)
        beta = rz_new / self.rz if self.rz else 0.0
        self.p.scale(beta).cell_add(self.z)
        self.rz = rz_new
        self.iteration += 1

    def run(self) -> None:
        """Iterate to completion."""
        while not self.is_finished():
            self.step()

    def solution(self):
        """The iterate ``x`` (driver-side copy)."""
        return self.x.to_array()

    def residual_norm(self) -> float:
        """``sqrt(r·z)`` — the preconditioned residual norm."""
        return sqrt(max(self.rz, 0.0))
