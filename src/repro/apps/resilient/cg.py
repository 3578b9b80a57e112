"""Preconditioned conjugate gradient (resilient, ABFT-reconstructable).

The non-resilient program, unchanged, plus ``checkpoint`` (save
``A``/``b``/``M⁻¹`` read only + ``x``/``r``/``p``) and ``restore`` (remake
+ reload + recompute ``z``/``ρ``) make CG a well-behaved rollback app.  On
top of that it
implements the checkpoint-free protocol of
:class:`~repro.resilience.iterative.ReconstructableIterativeApp`:

* :meth:`publish_redundant` — after every iteration, re-publish ``r`` and
  ``p`` with *k* replicas on neighbor places and ``x`` primary-copy-only
  (one local memcpy), plus the statics once;
* :meth:`reconstruct` — on a burst of ≤ *k* failures per placement group,
  reset every place to the last published boundary (survivors from their
  own primary copies, spares from surviving replicas) and re-solve the
  lost ``x`` partitions **exactly** from the SPD identity
  ``A_JJ x_J = b_J − r_J − A_JK x_K`` (Chen 2011; arXiv:1907.13077 for
  simultaneous multi-failure bursts, where J spans several places and the
  joint principal system couples them).

Because ``r``, ``p``, ``z`` and every scalar are restored bit-exactly and
``x`` never feeds back into them (it only accumulates ``α p`` updates),
the post-recovery trajectory is bit-identical to the failure-free run;
the solution differs only by the joint re-solve's ~1e-12 residual in the
lost rows.  No rollback: the loop counter stays at the published
boundary, so ``restored_iterations`` stays empty.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.apps.nonresilient.cg import CGNonResilient
from repro.matrix.grid import Partition1D
from repro.matrix.sparse import SparseCSR
from repro.matrix.vector import Vector
from repro.resilience.iterative import ReconstructableIterativeApp
from repro.resilience.reconstruct import ReconstructionStore
from repro.resilience.store import AppResilientStore
from repro.runtime.comm import point_to_point
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import PlaceContext


class CGResilient(CGNonResilient, ReconstructableIterativeApp):
    """PCG under the resilient framework, with exact reconstruction."""

    # Own bindings, not inherited ones: the perf tracer wraps a class's own
    # ``__init__`` and ``step`` only (ROADMAP 1(d) drops this requirement).
    __init__ = CGNonResilient.__init__
    step = CGNonResilient.step

    def checkpoint(self, store: AppResilientStore) -> None:
        store.start_new_snapshot()
        store.save_read_only(self.A)
        store.save_read_only(self.b)
        store.save_read_only(self.inv_diag)
        store.save(self.x)
        store.save(self.r)
        store.save(self.p)
        store.commit(iteration=self.iteration)

    def restore(
        self, new_places: PlaceGroup, store: AppResilientStore, snapshot_iter: int
    ) -> None:
        # One band per place, so any group-size change forces a row
        # repartition regardless of the rebalance flag (there is no block
        # grid to keep); same-size replacement keeps the partition.
        part = (
            self.A.partition
            if new_places.size == self._places.size
            else Partition1D.even(self.n, new_places.size)
        )
        for obj in (self.b, self.inv_diag, self.x, self.r, self.z, self.q):
            obj.remake(new_places, part)
        self.A.remake(new_places, part)
        self.p.remake(new_places, part)
        self.p_dup.remake(new_places)
        self._places = new_places
        store.restore()
        self.z.copy_from(self.r).cell_mult(self.inv_diag)
        self.rz = self.r.dot_dist(self.z)
        self.iteration = snapshot_iter

    # -- checkpoint-free recovery ---------------------------------------------

    def publish_redundant(self, store: ReconstructionStore, iteration: int) -> None:
        if not store.statics_saved:
            store.save_static(self.A)
            store.save_static(self.b)
            store.save_static(self.inv_diag)
        # x is primary-copy-only (backups=0): its lost partitions are
        # re-*solved*, the local copy just lets survivors reset for free.
        store.publish(
            [(self.x, 0), (self.r, None), (self.p, None)], iteration=iteration
        )

    def reconstruct(
        self,
        new_places: PlaceGroup,
        store: ReconstructionStore,
        lost_indices: List[int],
    ) -> None:
        lost = sorted(set(lost_indices))
        lost_set = set(lost)
        snap_a = store.static_snapshot(self.A)
        snap_b = store.static_snapshot(self.b)
        snap_inv = store.static_snapshot(self.inv_diag)
        snap_x = store.state_snapshot(self.x)
        snap_r = store.state_snapshot(self.r)
        snap_p = store.state_snapshot(self.p)

        # Adopt the replacement group.  Survivors keep their payloads and
        # indices; spares get fresh (zero / empty) payloads to fill.  All
        # idempotent, so a retry after a mid-recovery kill is safe.
        self.A.rehome(new_places)
        for vec in (self.b, self.inv_diag, self.x, self.r, self.z, self.q, self.p):
            vec.rehome(new_places)
        self.p_dup.rehome(new_places)

        a_key = self.A.heap_key

        def reset(ctx: PlaceContext) -> None:
            index = new_places.index_of(ctx.place)
            if index in lost_set:
                # Statics: the replica set is the only source (fetch
                # charges the remote read from a surviving copy).  Always
                # re-fetched — a spare reused from an aborted recovery may
                # hold a same-size band for the *wrong* index.
                band: SparseCSR = snap_a.fetch(ctx, index)
                ctx.heap.put(a_key, band)
                for snap, obj in ((snap_b, self.b), (snap_inv, self.inv_diag)):
                    payload: Vector = snap.fetch(ctx, index)
                    seg: Vector = ctx.heap.get(obj.heap_key)
                    seg.touch()
                    seg.data[:] = payload.data
            else:
                # Survivors reset x from their own primary copy — the
                # cheap local memcpy that makes x's backups=0 sufficient.
                payload = snap_x.fetch(ctx, index)
                seg = ctx.heap.get(self.x.heap_key)
                seg.touch()
                seg.data[:] = payload.data
            # Everyone resets r and p to the published boundary: survivors
            # from local primaries, spares from surviving replicas.
            for snap, obj in ((snap_r, self.r), (snap_p, self.p)):
                payload = snap.fetch(ctx, index)
                seg = ctx.heap.get(obj.heap_key)
                seg.touch()
                seg.data[:] = payload.data

        self.runtime.finish_all(new_places, reset, label="cg:reconstruct")

        self._solve_lost_x(new_places, lost)

        # z and ρ are recomputed, not stored: bitwise identical to the
        # failure-free boundary (same partition, same group-ordered sums).
        self.z.copy_from(self.r).cell_mult(self.inv_diag)
        self.rz = self.r.dot_dist(self.z)
        # Restore full redundancy for the statics (repair cost ∝ damage);
        # the dynamic state is re-published after the next step anyway.
        store.repair_static(new_places)
        self._places = new_places
        self.iteration = store.state_iteration

    def _solve_lost_x(self, group: PlaceGroup, lost: List[int]) -> None:
        """Joint exact re-solve of the lost ``x`` partitions.

        ``A_JJ x_J = b_J − r_J − A_JK x_K`` with J the union of the lost
        row ranges: a principal submatrix of an SPD matrix is SPD, so the
        dense system is uniquely solvable whatever burst pattern J has.
        Simultaneous adjacent failures genuinely couple through A's
        off-diagonal bands — one joint solve, not per-partition solves.
        The work is modeled on the first replacement place: survivors ship
        only the boundary ``x`` values A_J actually references.
        """
        if not lost:
            return
        rt = self.runtime
        part = self.x.partition
        solver_id = group[lost[0]].id

        bands = [self.A.band(j) for j in lost]
        a_j = SparseCSR.vstack(bands) if len(bands) > 1 else bands[0]
        ranges = [part.range_of(j) for j in lost]
        m_total = sum(hi - lo for lo, hi in ranges)

        # Ship the referenced boundary values from their surviving owners.
        needed = np.bincount(a_j.indices, minlength=self.n) > 0
        x_glob = np.zeros(self.n)
        for index in range(group.size):
            if index in lost:
                continue  # lost ranges stay zero: spmv then yields A_JK x_K
            lo, hi = part.range_of(index)
            count = int(np.count_nonzero(needed[lo:hi]))
            if count:
                point_to_point(rt, group[index].id, solver_id, count * 8)
                x_glob[lo:hi] = self.x.segment(index).data

        rhs = np.concatenate([self.b.segment(j).data for j in lost])
        rhs -= np.concatenate([self.r.segment(j).data for j in lost])
        rhs -= a_j.spmv(x_glob)

        dense = np.zeros((m_total, m_total))
        col = 0
        for lo, hi in ranges:
            dense[:, col : col + hi - lo] = a_j.sub_matrix(
                0, m_total, lo, hi
            ).to_dense()
            col += hi - lo
        x_lost = np.linalg.solve(dense, rhs)

        # A_JJ couples rows only within ``stride`` of each other, so it is
        # (block-)banded with half-bandwidth ``stride``: the recovery solve
        # a real implementation runs is a banded Cholesky, O(m·w²), not a
        # dense LU.  The dense solve above computes the identical solution
        # (it is the exactness, not the cost, we take from it); the charge
        # is the banded solver's.
        bandwidth = 2 * self.workload.stride + 1
        rt.clock.advance(
            solver_id,
            rt.cost.flops(
                2.0 * a_j.nnz * rt.cost.sparse_flop_factor
                + 2.0 * float(m_total) * float(bandwidth) ** 2
            ),
        )
        row = 0
        for j, (lo, hi) in zip(lost, ranges):
            seg = self.x.segment(j)
            seg.touch()
            seg.data[:] = x_lost[row : row + hi - lo]
            row += hi - lo
            if group[j].id != solver_id:
                point_to_point(rt, solver_id, group[j].id, (hi - lo) * 8)
