"""PageRank (non-resilient) — the paper's Listing 2, line for line.

``P = α·G·P + (1-α)·E·Uᵀ·P`` iterated k times: ``G`` is the sparse
column-stochastic link matrix (a ``DistBlockMatrix``), ``P`` the duplicated
rank vector, ``U`` a distributed personalization vector, ``GP`` the
distributed matvec temporary.  Each iteration is:

1. ``GP.mult(G, P).scale(alpha)``
2. ``UtP1a = U.dot(P) * (1 - alpha)``
3. ``GP.copyTo(P.local())``  (gather)
4. ``P.local().cellAdd(UtP1a)``
5. ``P.sync()``  (broadcast)
"""

from __future__ import annotations

from typing import Optional

from repro.apps.data import PageRankWorkload
from repro.matrix.distblock import DistBlockMatrix
from repro.matrix.distvector import DistVector
from repro.matrix.dupvector import DupVector
from repro.matrix.random import LinkMatrix
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import Runtime


class PageRankNonResilient:
    """Plain PageRank power iteration over GML."""

    def __init__(
        self,
        runtime: Runtime,
        workload: PageRankWorkload,
        group: Optional[PlaceGroup] = None,
    ):
        self.runtime = runtime
        self.workload = workload
        group = group if group is not None else runtime.world
        self._places = group
        self.iteration = 0

        self.n = workload.nodes(group.size)
        self.link = LinkMatrix(self.n, workload.out_degree, workload.seed)
        self.G = DistBlockMatrix.make_sparse(
            runtime, self.n, self.n, workload.row_blocks(group.size), group
        ).init_link_matrix(self.link)
        row_part = self.G.aligned_row_partition()
        self.P = DupVector.make(runtime, self.n, group).init(1.0 / self.n)
        self.U = DistVector.make(runtime, self.n, group, row_part).fill(1.0 / self.n)
        self.GP = DistVector.make(runtime, self.n, group, row_part)

    @property
    def places(self) -> PlaceGroup:
        return self._places

    def is_finished(self) -> bool:
        return self.iteration >= self.workload.iterations

    def step(self) -> None:
        """One power iteration (Listing 2's loop body)."""
        alpha = self.workload.alpha
        self.GP.mult(self.G, self.P)
        self.GP.scale(alpha)
        ut_p_1a = self.U.dot(self.P) * (1.0 - alpha)
        self.GP.copy_to(self.P.local())  # gather
        self.P.local().cell_add(ut_p_1a)
        self.P.sync()  # broadcast
        self.iteration += 1

    def run(self) -> None:
        """Iterate to completion."""
        while not self.is_finished():
            self.step()

    def ranks(self):
        """The rank vector (driver-side copy)."""
        return self.P.to_array()
