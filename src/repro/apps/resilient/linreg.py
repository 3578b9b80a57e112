"""Linear Regression (resilient) — the framework version of LinReg.

The non-resilient program, unchanged, plus the ``checkpoint`` and
``restore`` methods.  The training data ``X`` and labels ``y`` never
change, so they are saved with ``save_read_only`` (their snapshot is
created once, in the first checkpoint); the mutable CG state is the model
``w``, the residual ``r`` and the direction ``p`` — the scalar ``norm_r2``
is recomputed from the restored residual rather than saved.
"""

from __future__ import annotations

from repro.apps.nonresilient.linreg import LinRegNonResilient
from repro.matrix.grid import Grid
from repro.resilience.iterative import ResilientIterativeApp
from repro.resilience.store import AppResilientStore
from repro.runtime.place import PlaceGroup


class LinRegResilient(LinRegNonResilient, ResilientIterativeApp):
    """CG linear regression under the resilient iterative framework."""

    # Own bindings, not inherited ones: the perf tracer wraps a class's own
    # ``__init__`` and ``step`` only (ROADMAP 1(d) drops this requirement).
    __init__ = LinRegNonResilient.__init__
    step = LinRegNonResilient.step

    def checkpoint(self, store: AppResilientStore) -> None:
        store.start_new_snapshot()
        store.save_read_only(self.X)
        store.save_read_only(self.y)
        store.save(self.w)
        store.save(self.r)
        store.save(self.p)
        store.commit(iteration=self.iteration)

    def restore(
        self, new_places: PlaceGroup, store: AppResilientStore, snapshot_iter: int
    ) -> None:
        new_grid = None
        if self.restore_context.rebalance:
            new_grid = Grid.partition(
                self.n_examples, self.workload.features, self.workload.row_blocks(new_places.size)
            )
        self.X.remake(new_places, new_grid=new_grid)
        row_part = self.X.aligned_row_partition()
        self.y.remake(new_places, row_part)
        self.Xp.remake(new_places, row_part)
        self.w.remake(new_places)
        self.r.remake(new_places)
        self.p.remake(new_places)
        self.q.remake(new_places)
        self._places = new_places
        store.restore()
        self.norm_r2 = self.r.dot(self.r)
        self.iteration = snapshot_iter
