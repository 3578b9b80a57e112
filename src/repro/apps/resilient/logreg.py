"""Logistic Regression (resilient) — the framework version of LogReg.

The non-resilient program, unchanged, plus ``checkpoint`` and ``restore``.
The only mutable state that must be checkpointed is the model ``w``
(temporaries and the tracked loss are recomputed), while ``X`` and the
labels ``y`` are saved read-only.
"""

from __future__ import annotations

from repro.apps.nonresilient.logreg import LogRegNonResilient
from repro.matrix.grid import Grid
from repro.resilience.iterative import ResilientIterativeApp
from repro.resilience.store import AppResilientStore
from repro.runtime.place import PlaceGroup


class LogRegResilient(LogRegNonResilient, ResilientIterativeApp):
    """Gradient-descent logistic regression under the resilient framework."""

    # Own bindings, not inherited ones: the perf tracer wraps a class's own
    # ``__init__`` and ``step`` only (ROADMAP 1(d) drops this requirement).
    __init__ = LogRegNonResilient.__init__
    step = LogRegNonResilient.step

    def checkpoint(self, store: AppResilientStore) -> None:
        store.start_new_snapshot()
        store.save_read_only(self.X)
        store.save_read_only(self.y)
        store.save(self.w)
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
        self.margins.remake(new_places, row_part)
        self.probe.remake(new_places, row_part)
        self.w.remake(new_places)
        self.grad.remake(new_places)
        self._places = new_places
        store.restore()
        self.loss = float("inf")
        self.iteration = snapshot_iter
