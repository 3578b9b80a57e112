"""Gaussian Non-negative Matrix Factorization (resilient).

The framework version of the GNMF extension: the non-resilient program,
unchanged, plus ``checkpoint`` and ``restore``.  The input ``V`` is saved
read-only, both factors ``W`` (distributed) and ``H`` (duplicated) are
checkpointed, and the temporaries are merely remade on restore.
"""

from __future__ import annotations

from repro.apps.nonresilient.gnmf import GnmfNonResilient
from repro.matrix.grid import Grid
from repro.resilience.iterative import ResilientIterativeApp
from repro.resilience.store import AppResilientStore
from repro.runtime.place import PlaceGroup


class GnmfResilient(GnmfNonResilient, ResilientIterativeApp):
    """Multiplicative-update NMF under the resilient iterative framework."""

    # Own bindings, not inherited ones: the perf tracer wraps a class's own
    # ``__init__`` and ``step`` only (ROADMAP 1(d) drops this requirement).
    __init__ = GnmfNonResilient.__init__
    step = GnmfNonResilient.step

    def checkpoint(self, store: AppResilientStore) -> None:
        store.start_new_snapshot()
        store.save_read_only(self.V)
        store.save(self.W)
        store.save(self.H)
        store.commit(iteration=self.iteration)

    def restore(
        self, new_places: PlaceGroup, store: AppResilientStore, snapshot_iter: int
    ) -> None:
        row_blocks = self.workload.row_blocks(new_places.size)
        new_grid_v = new_grid_w = None
        if self.restore_context.rebalance:
            new_grid_v = Grid.partition(self.m, self.workload.cols, row_blocks)
            new_grid_w = Grid.partition(self.m, self.workload.rank, row_blocks)
        self.V.remake(new_places, new_grid=new_grid_v)
        self.W.remake(new_places, new_grid=new_grid_w)
        self.H.remake(new_places)
        self._make_temporaries(new_places, self.V.grid.num_row_blocks)
        self._places = new_places
        store.restore()
        self.iteration = snapshot_iter
