"""The application resilient store (paper Listing 4, §V-A1).

An :class:`AppResilientStore` builds *consistent application snapshots*: a
checkpoint is valid only if the snapshots of **all** participating GML
objects were created successfully; a failure mid-checkpoint cancels the
whole attempt and the previous committed checkpoint remains the recovery
point.  After a successful commit, the previous checkpoint's (non-read-only)
snapshots are deleted — coordinated checkpointing needs only the latest one.

``save_read_only`` implements the paper's optimization for immutable inputs
(the training matrix, the link graph): an existing snapshot of a read-only
object is *reused* across checkpoints, so it is created once, in the first
checkpoint, and never re-saved (visible in Table III: PageRank checkpoints
are far cheaper than its matrix size would suggest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.resilience.protection import Protection
from repro.resilience.snapshot import DistObjectSnapshot, Snapshottable
from repro.runtime.runtime import Runtime
from repro.util.validation import require


@dataclass
class AppSnapshot:
    """One committed application checkpoint: object → snapshot, plus the
    iteration it captures (needed to roll the loop counter back)."""

    snapshots: Dict[Snapshottable, DistObjectSnapshot] = field(default_factory=dict)
    read_only: Dict[Snapshottable, DistObjectSnapshot] = field(default_factory=dict)
    iteration: int = 0

    def all_objects(self) -> List[Snapshottable]:
        return list(self.snapshots) + list(self.read_only)

    def all_snapshots(self) -> List[DistObjectSnapshot]:
        return list(self.snapshots.values()) + list(self.read_only.values())


class AppResilientStore:
    """Atomic multi-object snapshot store (Listing 4's API).

    Usage (Listing 5)::

        store.start_new_snapshot()
        store.save_read_only(G)
        store.save_read_only(U)
        store.save(P)
        store.commit(iteration=k)
        ...
        store.restore()          # after remake()s, reload all saved objects
    """

    def __init__(
        self, runtime: Runtime, protection: Protection = Protection(), delta: bool = False
    ):
        self.runtime = runtime
        #: Handed to every ``make_snapshot`` this store calls.
        self.protection = protection
        #: Incremental (dirty-partition-only) checkpointing: ``save`` hands
        #: each object its last committed snapshot as the delta base, so
        #: unchanged partitions are adopted by reference instead of copied.
        #: Off by default — full checkpoints are the paper-parity mode.
        self.delta = delta
        self.snapshots: List[AppSnapshot] = []
        self._in_progress: Optional[AppSnapshot] = None
        self._read_only_registry: Dict[Snapshottable, DistObjectSnapshot] = {}
        #: Lifetime delta-save accounting (partitions / logical bytes).
        self.delta_clean_partitions = 0
        self.delta_dirty_partitions = 0
        self.delta_clean_bytes = 0.0
        self.delta_dirty_bytes = 0.0

    # -- checkpoint construction ------------------------------------------------

    def start_new_snapshot(self) -> None:
        """Begin a new application checkpoint attempt."""
        require(self._in_progress is None, "a snapshot is already in progress")
        self._in_progress = AppSnapshot()

    def save(self, obj: Snapshottable) -> None:
        """Snapshot a mutable object into the in-progress checkpoint.

        In delta mode the object's last *committed* snapshot is offered as
        the base: partitions it can prove unchanged (same mutation token,
        full redundancy set intact) are adopted by reference, so the
        checkpoint pays for dirty bytes only.
        """
        require(self._in_progress is not None, "call start_new_snapshot() first")
        require(obj not in self._in_progress.snapshots, "object already saved")
        base = None
        if self.delta:
            latest = self.latest()
            if latest is not None:
                base = latest.snapshots.get(obj)
        snap = obj.make_snapshot(self.protection, base)
        self._in_progress.snapshots[obj] = snap
        clean = len(snap.clean_keys)
        self.delta_clean_partitions += clean
        self.delta_dirty_partitions += snap.num_keys - clean
        self.delta_clean_bytes += snap.clean_nbytes
        self.delta_dirty_bytes += snap.total_nbytes - snap.clean_nbytes

    def save_read_only(self, obj: Snapshottable) -> None:
        """Snapshot an immutable object, reusing an existing snapshot if any.

        If the previous read-only snapshot can no longer be safely shared —
        an in-memory copy was lost to a failure and there is no stable tier
        behind it — a fresh snapshot is taken (the reuse is an optimization,
        not a correctness assumption).
        """
        require(self._in_progress is not None, "call start_new_snapshot() first")
        existing = self._read_only_registry.get(obj)
        if existing is not None and existing.reusable():
            self._in_progress.read_only[obj] = existing
            return
        # First save, or the old snapshot lost copies to a failure: take a
        # fresh one so the next failure cannot destroy the last copy.  The
        # old snapshot stays alive until commit — the previous committed
        # checkpoint may still need it if this attempt is cancelled.
        snapshot = obj.make_snapshot(self.protection)
        self._read_only_registry[obj] = snapshot
        self._in_progress.read_only[obj] = snapshot
        latest = self.latest()
        if existing is not None and (
            latest is None or latest.read_only.get(obj) is not existing
        ):
            # Taken by a cancelled attempt and superseded before any commit
            # referenced it: the registry was its only owner.
            existing.delete()

    def commit(self, iteration: int = 0) -> None:
        """Atomically publish the in-progress checkpoint.

        Deletes the previous checkpoint's mutable snapshots (read-only ones
        stay in the registry for reuse).
        """
        require(self._in_progress is not None, "no snapshot in progress")
        self._in_progress.iteration = iteration
        previous = self.latest()
        self.snapshots.append(self._in_progress)
        self._in_progress = None
        if previous is not None:
            for snap in previous.snapshots.values():
                snap.delete()
            # Read-only snapshots superseded by a fresh re-save are now
            # unreferenced and can be freed too.
            current = set(id(s) for s in self.latest().read_only.values())
            for snap in previous.read_only.values():
                if id(snap) not in current:
                    snap.delete()

    def cancel_snapshot(self) -> None:
        """Discard a failed checkpoint attempt, freeing partial snapshots.

        Read-only snapshots newly created during the attempt are kept in
        the registry (they are still valid and reusable); mutable partial
        snapshots are deleted.
        """
        if self._in_progress is None:
            return
        for snap in self._in_progress.snapshots.values():
            snap.delete()
        self._in_progress = None

    # -- recovery ------------------------------------------------------------

    def latest(self) -> Optional[AppSnapshot]:
        """The most recent committed checkpoint (None before the first)."""
        return self.snapshots[-1] if self.snapshots else None

    @property
    def latest_iteration(self) -> int:
        """Iteration captured by the latest committed checkpoint."""
        latest = self.latest()
        require(latest is not None, "no committed checkpoint")
        return latest.iteration

    def live_snapshots(self) -> List[DistObjectSnapshot]:
        """Every snapshot that may own heap copies: the latest committed
        checkpoint's, the read-only registry's and the open attempt's."""
        out = list(self._read_only_registry.values())
        for app_snap in (self.latest(), self._in_progress):
            if app_snap is not None:
                out.extend(app_snap.all_snapshots())
        return out

    def restore(self) -> None:
        """Reload every object of the latest checkpoint (Listing 5 L14).

        The caller must already have ``remake()``-d the objects over the
        new place group; restore then routes each object's saved partitions
        to their new homes.
        """
        latest = self.latest()
        require(latest is not None, "no committed checkpoint to restore")
        for obj, snap in latest.read_only.items():
            obj.restore_snapshot(snap)
        for obj, snap in latest.snapshots.items():
            obj.restore_snapshot(snap)

    def verify_integrity(self) -> Dict[str, int]:
        """Scrub the latest committed checkpoint: checksum every copy.

        Quarantines every corrupt copy found (all tiers, not just the
        first clean one per key) and returns
        ``{"clean": ..., "quarantined": ...}`` copy counts.
        """
        latest = self.latest()
        clean = quarantined = 0
        if latest is not None:
            for snap in list(latest.snapshots.values()) + list(
                latest.read_only.values()
            ):
                c, q = snap.verify_all()
                clean += c
                quarantined += q
        return {"clean": clean, "quarantined": quarantined}

    def quarantined_copies(self) -> int:
        """Total snapshot copies quarantined across the store's lifetime."""
        seen = set()
        total = 0
        for app_snap in self.snapshots:
            for snap in app_snap.all_snapshots():
                if id(snap) not in seen:
                    seen.add(id(snap))
                    total += len(snap.quarantined)
        return total

    @property
    def in_progress(self) -> bool:
        """True while a checkpoint attempt is open."""
        return self._in_progress is not None

    def total_checkpoint_bytes(self) -> float:
        """Bytes held by the latest checkpoint (double-store counted once)."""
        latest = self.latest()
        if latest is None:
            return 0.0
        return sum(s.total_nbytes for s in latest.snapshots.values()) + sum(
            s.total_nbytes for s in latest.read_only.values()
        )

    def total_stored_bytes(self) -> float:
        """Physical bytes of the latest checkpoint across every tier —
        replicas and disk copies multiply, parity adds its ``~1/g``
        overhead once (the bytes-vs-recoverability frontier's x-axis)."""
        latest = self.latest()
        if latest is None:
            return 0.0
        return sum(s.stored_nbytes() for s in latest.all_snapshots())
