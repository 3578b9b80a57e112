"""PageRank (resilient) — Listings 2 + 5 of the paper, combined.

The iteration body is the non-resilient program's (Listing 2, inherited
unchanged); ``checkpoint`` is Listing 5 lines 3–7 (``saveReadOnly(G)``,
``saveReadOnly(U)``, ``save(P)``, ``commit``); ``restore`` is Listing 5
lines 9–14 (remake ``G``, ``U``, ``P`` and the temporary ``GP`` over the
new group, then one ``store.restore()`` reloading everything saved).
"""

from __future__ import annotations

from repro.apps.nonresilient.pagerank import PageRankNonResilient
from repro.matrix.grid import Grid
from repro.resilience.iterative import ResilientIterativeApp
from repro.resilience.store import AppResilientStore
from repro.runtime.place import PlaceGroup


class PageRankResilient(PageRankNonResilient, ResilientIterativeApp):
    """PageRank under the resilient iterative framework."""

    # Own bindings, not inherited ones: the perf tracer wraps a class's own
    # ``__init__`` and ``step`` only (ROADMAP 1(d) drops this requirement).
    __init__ = PageRankNonResilient.__init__
    step = PageRankNonResilient.step

    def checkpoint(self, store: AppResilientStore) -> None:
        store.start_new_snapshot()
        store.save_read_only(self.G)
        store.save_read_only(self.U)
        store.save(self.P)
        store.commit(iteration=self.iteration)

    def restore(
        self, new_places: PlaceGroup, store: AppResilientStore, snapshot_iter: int
    ) -> None:
        new_grid = None
        if self.restore_context.rebalance:
            new_grid = Grid.partition(
                self.n, self.n, self.workload.row_blocks(new_places.size)
            )
        self.G.remake(new_places, new_grid=new_grid)
        row_part = self.G.aligned_row_partition()
        self.U.remake(new_places, row_part)
        self.P.remake(new_places)
        self.GP.remake(new_places, row_part)
        self._places = new_places
        store.restore()
        self.iteration = snapshot_iter
