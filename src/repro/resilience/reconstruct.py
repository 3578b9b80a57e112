"""Redundant-state storage for checkpoint-free (ABFT) recovery.

Checkpoint/restart keeps *old* state and rolls the whole computation back
to it.  Reconstruction keeps *current* state redundant instead: after
every iteration the application re-publishes the small dynamic vectors it
cannot recompute (for PCG: the residual ``r`` and search direction ``p``)
to neighbor places through the same tiered
:class:`~repro.resilience.snapshot.DistObjectSnapshot` machinery
checkpoints use, while the large static operands (the matrix row bands
``A``, the right-hand side ``b``, the preconditioner diagonal) are
replicated **once** and merely repaired when a replica's place dies.  On a
failure the survivors' copies rebuild the lost partitions exactly — no
rollback, no lost iterations; the re-solve
``x_J = A_JJ⁻¹ (b_J − r_J − A_JK x_K)`` recovers the one vector that is
*not* replicated (Chen 2011; arXiv:1907.13077 for the multi-failure
generalization this module implements).

The store keeps exactly one committed *state generation*: per-object
snapshots taken atomically (all objects re-published, then the previous
generation deleted), tagged with the iteration they capture.  A failure in
the middle of a refresh leaves the previous generation committed, so
reconstruction always resets to a consistent boundary — at worst one
iteration behind, never a mix.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.resilience.placement import ParityPlacement
from repro.resilience.protection import Protection
from repro.resilience.snapshot import DistObjectSnapshot, Snapshottable
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import PlaceContext, Runtime
from repro.util.validation import require


class ReconstructionStore:
    """Redundant static + per-iteration dynamic state for reconstruction.

    *protection* is the checkpoint store's: *k* in-memory backup copies
    per partition at the placement policy's offsets, never a disk copy.
    Reconstruction survives any failure burst that leaves at least one copy
    of every published partition — up to ``replicas`` simultaneous deaths
    per placement group, the redundancy bound the executor's fallback
    logic is written against.
    """

    def __init__(self, runtime: Runtime, protection: Protection = Protection()):
        require(protection.replicas >= 1, "reconstruction needs at least one replica")
        require(
            not isinstance(protection.placement, ParityPlacement),
            "parity placement stores per-group XOR blocks, which the "
            "redundant-state store cannot incrementally refresh every "
            "iteration; use a replica placement (ring/stride/spread)",
        )
        self.runtime = runtime
        self.protection = replace(protection, stable_fallback=False)
        self._static: Dict[Snapshottable, DistObjectSnapshot] = {}
        self._state: Dict[Snapshottable, DistObjectSnapshot] = {}
        #: Iteration the committed state generation captures (-1 = none).
        self.state_iteration: int = -1
        #: Logical bytes pushed through redundancy publishing (statics +
        #: every per-iteration refresh) — the bench's overhead axis.
        self.redundancy_bytes: float = 0.0
        #: Keys re-replicated by :meth:`repair_static` across the run.
        self.repaired_keys: int = 0

    # -- static operands ------------------------------------------------------

    def save_static(self, obj: Snapshottable) -> None:
        """Replicate a static (never-mutated) object once.

        Idempotent: a second call for the same object is a no-op — statics
        are repaired, not re-published.
        """
        if obj in self._static:
            return
        snap = obj.make_snapshot(self.protection)
        self._static[obj] = snap
        self.redundancy_bytes += snap.total_nbytes

    def static_snapshot(self, obj: Snapshottable) -> DistObjectSnapshot:
        require(obj in self._static, f"{obj!r} has no static snapshot")
        return self._static[obj]

    @property
    def statics_saved(self) -> bool:
        return bool(self._static)

    def repair_static(self, new_group: PlaceGroup) -> int:
        """Re-anchor the statics to *new_group* and restore full redundancy.

        After reconstruction the replaced places hold live payloads again,
        but any snapshot copy that lived on a dead place is gone.  Each
        damaged key is re-saved from its (new) primary place — re-running
        the replica fan-out for exactly the lost copies, so repair cost
        scales with the damage, not with the object.  Returns the number
        of keys re-saved.
        """
        repaired = 0
        for obj, snap in self._static.items():
            snap.rebind_group(new_group)
            damaged = [key for key in snap.saved_keys() if not snap.key_intact(key)]
            if not damaged:
                continue
            sub = PlaceGroup([new_group[key] for key in damaged])
            key_of = {new_group[key].id: key for key in damaged}

            def resave(ctx: PlaceContext, snap=snap, obj=obj, key_of=key_of):
                # An alias, not the live object, whose next touch() + write would reach it.
                live = ctx.heap.get(obj.heap_key)
                snap.save_from(
                    ctx, key_of[ctx.place.id], live.freeze_view(), token=obj._token_of(live)
                )

            self.runtime.finish_all(sub, resave, label="reconstruct:repair")
            repaired += len(damaged)
        self.repaired_keys += repaired
        return repaired

    # -- per-iteration dynamic state -------------------------------------------

    def publish(
        self, objs: Sequence[Tuple[Snapshottable, Optional[int]]], iteration: int
    ) -> None:
        """Atomically commit a new state generation at *iteration*.

        *objs* is ``[(object, backups)]`` with ``backups=None`` meaning the
        store's replica count and ``0`` meaning primary-copy-only (used for
        ``x``, whose lost partitions are re-*solved*, not re-fetched — the
        local copy exists purely so survivors can reset to the boundary
        without communication).  All new snapshots are taken first; only
        then does the previous generation get deleted, so a failure
        anywhere in between leaves the old generation committed and
        consistent.
        """
        fresh: Dict[Snapshottable, DistObjectSnapshot] = {}
        try:
            for obj, backups in objs:
                protection = self.protection
                if backups is not None:
                    protection = replace(protection, replicas=backups)
                snap = obj.make_snapshot(protection)
                fresh[obj] = snap
                self.redundancy_bytes += snap.total_nbytes
        except BaseException:
            # The generation is never committed: free the snapshots it completed.
            for snap in fresh.values():
                snap.delete()
            raise
        previous = self._state
        self._state = fresh
        self.state_iteration = iteration
        for snap in previous.values():
            snap.delete()

    def state_snapshot(self, obj: Snapshottable) -> DistObjectSnapshot:
        require(obj in self._state, f"{obj!r} has no published state")
        return self._state[obj]

    @property
    def ready(self) -> bool:
        """True once statics and at least one state generation committed."""
        return self.state_iteration >= 0 and bool(self._state) and bool(self._static)

    # -- shared -----------------------------------------------------------------

    def live_snapshots(self) -> List[DistObjectSnapshot]:
        """Every snapshot the store holds: the statics and the committed state."""
        return list(self._static.values()) + list(self._state.values())

    def placement_ok(self) -> bool:
        """Invariant surface: no replica co-resident with its primary."""
        return all(snap.placement_ok() for snap in self.live_snapshots())

    def fully_redundant(self) -> bool:
        """True while every static copy set is complete (post-repair check)."""
        return all(snap.fully_redundant() for snap in self._static.values())

    def invalidate(self) -> None:
        """Drop every generation after a fallback rollback.

        A checkpoint/restart fallback may shrink the group or roll the
        state behind the published boundary, leaving the committed
        generation (and the statics' group binding) stale.  Invalidation
        empties the store so :attr:`ready` goes false until the app's next
        ``publish_redundant`` rebuilds it — statics included — over the
        post-restore group.
        """
        self.delete()

    def delete(self) -> None:
        """Free every copy (end-of-run cleanup for long-lived runtimes)."""
        for snap in self.live_snapshots():
            snap.delete()
        self._static.clear()
        self._state.clear()
        self.state_iteration = -1
