"""Snapshot/restore for GML objects (paper §IV-B), generalized to tiers.

``Snapshottable`` is the paper's Listing 3 interface.  A
:class:`DistObjectSnapshot` stores an object's state as key/value pairs —
key = the place's *index* in the object's place group, value = that place's
data partition — in a **tiered, k-replica store**:

* tier 0: the primary copy in the owning place's heap;
* tiers 1..k: in-memory backup copies on the places chosen by a pluggable
  :class:`~repro.resilience.placement.ReplicaPlacement` policy (the paper's
  double store is ``backups=1`` with ring placement: one copy on the *next*
  place);
* final tier (opt-in ``stable_fallback=True``): a copy on the shared
  stable store, written through the engine's disk resource at checkpoint
  time and only read back when **every** in-memory copy of a partition has
  died with its places.

Saving costs one local copy, one engine-routed transfer per remote replica
(a fan-out from the owning place) and, with the fallback tier, one disk
write.  Loading prefers the primary, falls through the replicas in
placement order, and reaches the disk tier last; only when a key survives
in *no* tier does :meth:`DistObjectSnapshot.fetch` raise
:class:`DataLossError` — tested behaviour, not a corner we paper over.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.resilience.placement import ReplicaPlacement, RingPlacement
from repro.runtime.exceptions import (
    DataLossError,
    DeadPlaceException,
    SnapshotCorruptionError,
)
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import PlaceContext, Runtime
from repro.util.bytesize import memoized_nbytes, payload_nbytes
from repro.util.checksum import corrupt_payload, memoized_checksum
from repro.util.validation import require
from repro.util.versioning import freeze_payload

_snap_counter = itertools.count()


class Snapshottable(ABC):
    """The paper's Listing 3: objects that can save and restore themselves."""

    @abstractmethod
    def make_snapshot(self, base: Optional["DistObjectSnapshot"] = None) -> "DistObjectSnapshot":
        """Capture this object's distributed state into a resilient store.

        *base* (delta checkpointing) is the previous committed snapshot of
        the same object: partitions whose mutation version is unchanged
        since *base* are adopted from it by reference instead of being
        re-saved and re-hashed.  ``None`` forces a full save.
        """

    @abstractmethod
    def restore_snapshot(self, snapshot: "DistObjectSnapshot") -> None:
        """Reload this object's state (possibly onto a different group)."""


class DistObjectSnapshot:
    """Tiered in-memory key/value store for one GML object's partitions.

    Entries live in the place heaps under ``("snap", id, key)`` (primary)
    and ``("snapb", id, key, replica)`` (backups at the placement policy's
    offsets), so a place's death destroys exactly the copies it held.  With
    ``stable_fallback`` each partition is additionally written through the
    engine's shared disk and survives any set of place failures.

    ``meta`` carries object-specific restore metadata (the data grid, the
    block→place owner map, the vector partition) captured at snapshot time.
    """

    #: Sentinel "place id" returned by :meth:`locate` for the disk tier.
    STABLE_TIER = -1

    def __init__(
        self,
        runtime: Runtime,
        group: PlaceGroup,
        meta: Optional[Dict[str, Any]] = None,
        backups: int = 1,
        placement: Optional[ReplicaPlacement] = None,
        stable_fallback: bool = False,
    ):
        require(backups >= 0, "backups must be >= 0")
        self.runtime = runtime
        self.group = group
        self.snap_id = next(_snap_counter)
        self.meta: Dict[str, Any] = dict(meta or {})
        self.backups = backups
        self.placement = placement if placement is not None else RingPlacement()
        self._offsets = self.placement.offsets(backups, group.size)
        #: ``_backup_homes[replica - 1][key]`` — the modular placement
        #: arithmetic tabulated once (rebuilt when the group is rebound);
        #: the save/intact/delete loops hit it tens of times per key.
        self._backup_homes: List[List[Any]] = self._home_table()
        self.stable_fallback = stable_fallback
        self._stable: Dict[int, Any] = {}
        self._saved_keys: set = set()
        self.total_nbytes = 0.0
        #: Mutation-version token recorded per key at save time (the dirty
        #: test of delta checkpointing compares against these).
        self._versions: Dict[int, Any] = {}
        #: Keys adopted clean from a base snapshot (delta saves) and the
        #: bytes they would have cost under a full save.
        self.clean_keys: set = set()
        self.clean_nbytes = 0.0
        #: Restore reads that fell through every in-memory copy to disk.
        self.fallback_reads = 0
        #: CRC-32 recorded per key at save time (ground truth for verify).
        self._checksums: Dict[int, int] = {}
        #: ``key -> (payload, token)`` whose CRC has not been computed yet.
        #: Snapshot payloads are frozen (byte-immutable) for the snapshot's
        #: lifetime and corruption strikes replace heap entries with
        #: *copies*, so hashing the retained reference on first verify
        #: yields the same CRC the save would have — most checkpoints are
        #: deleted unverified, skipping the hash pass entirely.  The
        #: virtual-time charge stays at save (see :meth:`save_from`).
        self._crc_pending: Dict[int, Any] = {}
        #: ``(key, tier)`` copies known clean — verified copies are not
        #: re-hashed, so health polling stays timing-neutral.
        self._verified: set = set()
        #: ``(key, tier)`` copies that failed verification and were dropped.
        self.quarantined: List[Tuple[int, int]] = []

    # -- keys ------------------------------------------------------------

    def _primary_key(self, key: int) -> tuple:
        return ("snap", self.snap_id, key)

    def _backup_key(self, key: int, replica: int = 1) -> tuple:
        return ("snapb", self.snap_id, key, replica)

    def _home_table(self) -> List[List[Any]]:
        group, size = self.group, self.group.size
        return [
            [group[(key + offset) % size] for key in range(size)]
            for offset in self._offsets
        ]

    def _backup_place(self, key: int, replica: int):
        """The place holding the *replica*-th backup of *key*."""
        return self._backup_homes[replica - 1][key]

    # -- saving ------------------------------------------------------------

    def save_from(
        self, ctx: PlaceContext, key: int, payload: Any, token: Optional[Any] = None
    ) -> None:
        """Save one partition from within a finish task at the owning place.

        The caller passes a copy-on-write ``freeze_view`` of the live
        payload: an alias sharing its arrays, never the live object itself
        (whose next ``touch()`` + write would land in the snapshot).  The
        payload is frozen here — snapshot bytes are immutable for the
        snapshot's lifetime.  Charges one local copy, then fans the backup
        replicas out over the engine's transfer resources from a common
        issue time (the sends serialize on the owner's transmit side, the
        receivers absorb them concurrently), and finally one engine disk
        write when the stable fallback tier is enabled.

        *token* is the partition's mutation-version token; recording it is
        what lets the next delta save prove the partition clean.
        """
        if self.group.index_of(ctx.place) != key:
            # Message built lazily: this guard runs on every partition save.
            require(
                False,
                f"partition {key} must be saved from group index {key}, "
                f"not from {ctx.place}",
            )
        rt = self.runtime
        zero = rt.engine.zero_fast()
        freeze_payload(payload)
        # Sized after the freeze so the token-keyed memo applies (a re-save
        # of an unchanged partition skips the recursive measuring pass).
        nbytes = memoized_nbytes(payload, token)
        ctx.heap.put(self._primary_key(key), payload)
        if not zero:
            ctx.charge_memcpy(nbytes)
        fanout = []
        for replica in range(1, self.backups + 1):
            backup_place = self._backup_place(key, replica)
            if backup_place != ctx.place:
                fanout.append((backup_place.id, self._backup_key(key, replica)))
            else:
                # Single-place group: degenerate "replica" on the same
                # place.  The primary copy is forwarded by reference — the
                # bytes were already paid for once above, so no second
                # memcpy charge.
                ctx.heap.put(self._backup_key(key, replica), payload)
        if fanout:
            cost = rt.cost
            if zero:
                # All timing lands on 0.0; only liveness (checked in the
                # same order the per-destination transfers would) and the
                # stats trail remain, byte math expression-identical.
                alive = rt._alive
                for pid, _ in fanout:
                    if not alive.get(pid, False):
                        raise DeadPlaceException(pid)
                for pid, heap_key in fanout:
                    rt._heaps[pid].put(heap_key, payload)
            else:
                rt.engine.transfer_fanout(
                    ctx.place.id, [pid for pid, _ in fanout], nbytes, ctx.now
                )
                for pid, heap_key in fanout:
                    rt.heap_of(pid).put(heap_key, payload)
                rt.clock.set_at_least(
                    ctx.place.id, ctx.now + len(fanout) * cost.message(0)
                )
            rt.stats.messages += len(fanout)
            rt.stats.bytes_sent += len(fanout) * cost.scaled_bytes(nbytes)
        if self.stable_fallback:
            rt.engine.stable_write(ctx.place.id, nbytes)
            self._stable[key] = payload
        # The partition is checksummed *once per save* in virtual time;
        # the actual CRC pass is deferred until a verify first needs it
        # (the payload reference is immutable, so late hashing is exact).
        self._checksums.pop(key, None)
        self._crc_pending[key] = (payload, token)
        if not zero:
            ctx.charge_seconds(rt.cost.checksum(nbytes))
        self._verified.add((key, 0))
        for replica in range(1, self.backups + 1):
            self._verified.add((key, replica))
        if self.stable_fallback:
            self._verified.add((key, self.STABLE_TIER))
        self._saved_keys.add(key)
        if token is not None:
            self._versions[key] = token
        self.total_nbytes += nbytes

    # -- delta (incremental) saves -------------------------------------------

    def delta_compatible(self, base: "DistObjectSnapshot") -> bool:
        """True when *base* can donate clean partitions to this snapshot.

        The copies are adopted in place (same heaps, same replica homes),
        so the group, replica count, placement offsets, and stable tier
        must all match; anything else degrades to a full save.
        """
        return (
            type(base) is type(self)
            and base.group.ids == self.group.ids
            and base.backups == self.backups
            and base._offsets == self._offsets
            and base.stable_fallback == self.stable_fallback
        )

    def key_intact(self, key: int) -> bool:
        """True while every tier of *key* still holds its copy.

        A partition that lost any copy (a replica died with its place, a
        quarantined corruption) must be re-saved in full even if its bytes
        are unchanged — reusing a degraded redundancy set would let the
        next failure destroy the last copy.
        """
        if key not in self._saved_keys:
            return False
        rt = self.runtime
        primary = self.group[key]
        if not rt.is_alive(primary.id) or not rt.heap_of(primary.id).contains(
            self._primary_key(key)
        ):
            return False
        for replica in range(1, self.backups + 1):
            backup = self._backup_place(key, replica)
            if not rt.is_alive(backup.id) or not rt.heap_of(backup.id).contains(
                self._backup_key(key, replica)
            ):
                return False
        if self.stable_fallback and key not in self._stable:
            return False
        return True

    def can_reuse(self, key: int, token: Optional[Any]) -> bool:
        """True when *key* is provably clean: same mutation token as the
        one recorded at save time, and the full redundancy set survives."""
        return (
            token is not None
            and self._versions.get(key) == token
            and self.key_intact(key)
        )

    def save_clean_from(self, ctx: PlaceContext, key: int, base: "DistObjectSnapshot") -> None:
        """Adopt an unchanged partition from *base* by reference.

        Every tier's copy is re-referenced under this snapshot's heap keys
        — including a silently corrupted one, which stays unverified here
        (its ``_verified`` entry was discarded when it was struck) and is
        caught by the checksum pass on first use, exactly as it would have
        been in *base*.  No bytes move and nothing is re-hashed, so the
        partition contributes **zero** checkpoint virtual time: the
        dirty-bytes-only cost the tentpole asks for, and the paper's
        ``saveReadOnly`` reuse as the degenerate all-clean case.
        """
        if self.group.index_of(ctx.place) != key:
            # Message built lazily: this guard runs on every partition save.
            require(
                False,
                f"partition {key} must be saved from group index {key}, "
                f"not from {ctx.place}",
            )
        rt = self.runtime
        primary_heap = rt.heap_of(self.group[key].id)
        payload = primary_heap.get(base._primary_key(key))
        nbytes = payload_nbytes(payload)
        primary_heap.put(self._primary_key(key), payload)
        for replica in range(1, self.backups + 1):
            backup_heap = rt.heap_of(self._backup_place(key, replica).id)
            backup_heap.put(
                self._backup_key(key, replica),
                backup_heap.get(base._backup_key(key, replica)),
            )
        if self.stable_fallback:
            self._stable[key] = base._stable[key]
        if key in base._crc_pending:
            self._crc_pending[key] = base._crc_pending[key]
        elif key in base._checksums:
            self._checksums[key] = base._checksums[key]
        tiers = [0] + list(range(1, self.backups + 1))
        if self.stable_fallback:
            tiers.append(self.STABLE_TIER)
        for tier in tiers:
            if (key, tier) in base._verified:
                self._verified.add((key, tier))
        if key in base._versions:
            self._versions[key] = base._versions[key]
        self._saved_keys.add(key)
        self.clean_keys.add(key)
        self.clean_nbytes += nbytes
        self.total_nbytes += nbytes

    def stored_nbytes(self) -> float:
        """Physical bytes this snapshot occupies across every tier.

        ``total_nbytes`` counts each partition's logical size once; the
        replica tiers and the optional disk copy each store it again —
        the ``k x`` footprint the parity tier exists to undercut.
        """
        copies = self.backups + 1 + (1 if self.stable_fallback else 0)
        return self.total_nbytes * copies

    @property
    def num_keys(self) -> int:
        """Number of partitions saved so far."""
        return len(self._saved_keys)

    def has_key(self, key: int) -> bool:
        return key in self._saved_keys

    # -- locating / loading -------------------------------------------------

    def locate(self, key: int) -> Tuple[int, tuple]:
        """``(place_id, heap_key)`` of a surviving *verified* copy of *key*.

        Prefers the primary copy, then the backups in placement order, then
        the stable tier (place id :data:`STABLE_TIER`).  Every candidate is
        checksum-verified before being offered: a copy that fails
        verification is quarantined (dropped from its tier) and the search
        falls through to the next tier.  Raises :class:`DataLossError` when
        every tier has lost the key, or :class:`SnapshotCorruptionError`
        when the *last* surviving copies were quarantined — corrupt data is
        never silently restored.
        """
        if key not in self._saved_keys:
            require(False, f"snapshot has no key {key}")
        rt = self.runtime
        primary = self.group[key]
        quarantined_before = len(self.quarantined)
        if rt.is_alive(primary.id) and rt.heap_of(primary.id).contains(self._primary_key(key)):
            if self._verify_copy(key, 0, primary.id, self._primary_key(key)):
                return primary.id, self._primary_key(key)
        for replica in range(1, self.backups + 1):
            backup = self._backup_place(key, replica)
            heap_key = self._backup_key(key, replica)
            if rt.is_alive(backup.id) and rt.heap_of(backup.id).contains(heap_key):
                if self._verify_copy(key, replica, backup.id, heap_key):
                    return backup.id, heap_key
        if key in self._stable:
            if self._verify_copy(key, self.STABLE_TIER, self.STABLE_TIER, None):
                return self.STABLE_TIER, ("stable", self.snap_id, key)
        if len(self.quarantined) > quarantined_before:
            raise SnapshotCorruptionError(
                f"every surviving copy of snapshot key {key} failed checksum "
                f"verification and was quarantined "
                f"({len(self.quarantined) - quarantined_before} this search)"
            )
        raise DataLossError(
            f"all {self.backups + 1} in-memory copies of snapshot key {key} lost "
            f"(primary {primary} and its replica set; no stable-storage tier)"
        )

    def _expected_checksum(self, key: int) -> Optional[int]:
        """Ground-truth CRC of *key*, computing a deferred one on demand."""
        pending = self._crc_pending.pop(key, None)
        if pending is not None:
            payload, token = pending
            self._checksums[key] = memoized_checksum(payload, token)
        return self._checksums.get(key)

    def _verify_copy(
        self, key: int, tier: int, place_id: int, heap_key: Optional[tuple]
    ) -> bool:
        """Checksum one copy; quarantine and return False on mismatch.

        Clean verdicts are memoized per ``(key, tier)`` so health polling
        (``recoverable`` etc.) re-hashes nothing; a new corruption strike
        invalidates the memo.  The hash pass is charged to the place
        holding the copy (the disk tier's pass rides the restore read).
        """
        if (key, tier) in self._verified:
            return True
        rt = self.runtime
        if tier == self.STABLE_TIER:
            payload = self._stable[key]
        else:
            payload = rt.heap_of(place_id).get(heap_key)
            rt.clock.advance(place_id, rt.cost.checksum(payload_nbytes(payload)))
        expected = self._expected_checksum(key)
        if expected is None or memoized_checksum(payload, self._versions.get(key)) == expected:
            self._verified.add((key, tier))
            return True
        if tier == self.STABLE_TIER:
            del self._stable[key]
        else:
            rt.heap_of(place_id).remove_if_present(heap_key)
        self.quarantined.append((key, tier))
        return False

    # -- corruption injection (chaos campaigns) ------------------------------

    def saved_keys(self) -> List[int]:
        """Keys saved into this snapshot, sorted."""
        return sorted(self._saved_keys)

    def tiers(self, key: int) -> List[int]:
        """Tiers currently holding a copy of *key*: 0 = primary, 1..k =
        replicas, :data:`STABLE_TIER` = disk."""
        rt = self.runtime
        out: List[int] = []
        if key in self._saved_keys:
            primary = self.group[key]
            if rt.is_alive(primary.id) and rt.heap_of(primary.id).contains(
                self._primary_key(key)
            ):
                out.append(0)
            for replica in range(1, self.backups + 1):
                backup = self._backup_place(key, replica)
                if rt.is_alive(backup.id) and rt.heap_of(backup.id).contains(
                    self._backup_key(key, replica)
                ):
                    out.append(replica)
            if key in self._stable:
                out.append(self.STABLE_TIER)
        return out

    def corrupt_copy(self, key: int, tier: int) -> bool:
        """Replace one tier's copy of *key* with a corrupted *copy*.

        Only the struck tier is damaged — the tiers share the payload
        object, so in-place mutation would corrupt them all at once.
        Returns False when the tier holds no copy (dead place, already
        quarantined).  Fault-injection entry point for
        :class:`~repro.runtime.failure.CorruptionModel` and tests.
        """
        rt = self.runtime
        if key not in self._saved_keys:
            return False
        if tier == self.STABLE_TIER:
            if key not in self._stable:
                return False
            self._stable[key] = corrupt_payload(self._stable[key])
        else:
            place = self.group[key] if tier == 0 else self._backup_place(key, tier)
            heap_key = (
                self._primary_key(key) if tier == 0 else self._backup_key(key, tier)
            )
            if not rt.is_alive(place.id) or not rt.heap_of(place.id).contains(heap_key):
                return False
            heap = rt.heap_of(place.id)
            heap.put(heap_key, corrupt_payload(heap.get(heap_key)))
        self._verified.discard((key, tier))
        return True

    def fetch(
        self,
        ctx: PlaceContext,
        key: int,
        extract: Optional[Callable[[Any], Any]] = None,
        extract_flops: float = 0.0,
        extract_bytes: float = 0.0,
    ) -> Any:
        """Load partition *key* (or an extracted part) to the calling place.

        ``extract`` runs at the *source* place — this models the paper's
        repartitioned restore, where the owning place cuts out only the
        overlap region and ships just that sub-block.  ``extract_flops``
        charges the scanning work (e.g. the sparse non-zero counting pass)
        and ``extract_bytes`` the copy that materializes the sub-block.

        When every in-memory copy is gone the read falls through to the
        stable tier: the restoring place pays the engine's disk read and
        cuts the sub-block locally (there is no owning place left to run
        the extractor on).
        """
        src_id, heap_key = self.locate(key)
        if src_id == self.STABLE_TIER:
            payload = self._stable[key]
            self.runtime.engine.stable_read(ctx.place.id, payload_nbytes(payload))
            self.fallback_reads += 1
            self.runtime.stats.stable_fallback_reads += 1
            if extract is not None:
                payload = extract(payload)
                ctx.charge_memcpy(payload_nbytes(payload))
            return payload
        payload = self.runtime.heap_of(src_id).get(heap_key)
        if extract is not None:
            cost = self.runtime.cost
            charge = cost.flops(extract_flops) + cost.memcpy(extract_bytes)
            if charge:
                self.runtime.clock.advance(src_id, charge)
            payload = extract(payload)
        if src_id == ctx.place.id:
            # Local read: the size only feeds the (zero) memcpy charge.
            if not self.runtime.engine.zero_fast():
                ctx.charge_memcpy(payload_nbytes(payload))
        else:
            _ = ctx.read_remote(src_id, heap_key, payload_nbytes(payload))
        return payload

    def verify_all(self) -> Tuple[int, int]:
        """Integrity scrub: checksum every copy of every key, all tiers.

        Unlike :meth:`locate` (which stops at the first clean copy) this
        verifies the *whole* redundancy set, quarantining every corrupt
        copy found.  Returns ``(clean copies, newly quarantined copies)``.
        """
        clean = 0
        before = len(self.quarantined)
        for key in self.saved_keys():
            for tier in self.tiers(key):
                if tier == self.STABLE_TIER:
                    ok = self._verify_copy(key, tier, self.STABLE_TIER, None)
                elif tier == 0:
                    ok = self._verify_copy(
                        key, 0, self.group[key].id, self._primary_key(key)
                    )
                else:
                    ok = self._verify_copy(
                        key,
                        tier,
                        self._backup_place(key, tier).id,
                        self._backup_key(key, tier),
                    )
                if ok:
                    clean += 1
        return clean, len(self.quarantined) - before

    # -- health -----------------------------------------------------------

    def fully_redundant(self) -> bool:
        """True if every key still has its primary AND all backup copies.

        A snapshot that survived a failure is down to fewer in-memory
        copies for some keys; full redundancy is what the read-only reuse
        optimization requires of snapshots without a stable tier.
        """
        rt = self.runtime
        for key in self._saved_keys:
            copies = [(self.group[key], self._primary_key(key))]
            copies += [
                (self._backup_place(key, r), self._backup_key(key, r))
                for r in range(1, self.backups + 1)
            ]
            for place, heap_key in copies:
                if not rt.is_alive(place.id):
                    return False
                if not rt.heap_of(place.id).contains(heap_key):
                    return False
        return True

    def reusable(self) -> bool:
        """True if a later checkpoint may safely re-reference this snapshot.

        Without a stable tier that means full in-memory redundancy (the
        next failure must not destroy the last copy); with the fallback
        tier the disk copy makes reuse safe even while degraded.
        """
        if self.stable_fallback and self._saved_keys:
            if all(key in self._stable for key in self._saved_keys):
                return True
        return self.fully_redundant()

    def recoverable(self) -> bool:
        """True while at least one copy of every key survives in some tier."""
        try:
            for key in self._saved_keys:
                self.locate(key)
        except DataLossError:
            return False
        return True

    def placement_ok(self) -> bool:
        """Invariant: no backup replica shares a place with its primary
        (vacuously true for single-place groups, which have nowhere else)."""
        if self.group.size <= 1:
            return True
        for key in self._saved_keys:
            primary = self.group[key]
            for replica in range(1, self.backups + 1):
                if self._backup_place(key, replica) == primary:
                    return False
        return True

    def rebind_group(self, new_group: PlaceGroup) -> None:
        """Re-anchor this snapshot to a same-size replacement group.

        Used by checkpoint-free reconstruction after spares replace dead
        members at their old indices: survivors' copies are found at the
        same places as before (same ids at the same indices), while keys
        whose primary or replica homes moved to a spare read as damaged
        (:meth:`key_intact` False) until the caller re-saves them — the
        redundancy-repair pass of
        :class:`~repro.resilience.reconstruct.ReconstructionStore`.
        """
        require(
            new_group.size == self.group.size,
            "rebind_group cannot resize the snapshot group",
        )
        self.group = new_group
        self._backup_homes = self._home_table()

    # -- lifecycle --------------------------------------------------------------

    def delete(self) -> None:
        """Free all surviving copies (old checkpoints are deleted on commit)."""
        rt = self.runtime
        alive = rt._alive
        heaps = rt._heaps
        snap_id = self.snap_id
        for key in self._saved_keys:
            pid = self.group[key].id
            if alive.get(pid, False):
                heaps[pid].remove_if_present(("snap", snap_id, key))
            for r in range(1, self.backups + 1):
                pid = self._backup_place(key, r).id
                if alive.get(pid, False):
                    heaps[pid].remove_if_present(("snapb", snap_id, key, r))
        self._stable.clear()
        self._saved_keys.clear()

    def __repr__(self) -> str:
        return (
            f"DistObjectSnapshot(id={self.snap_id}, keys={sorted(self._saved_keys)}, "
            f"group={self.group.ids}, backups={self.backups}, "
            f"placement={self.placement.name}, stable_fallback={self.stable_fallback})"
        )
