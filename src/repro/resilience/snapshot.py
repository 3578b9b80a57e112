"""Snapshot/restore for GML objects (paper §IV-B), generalized to tiers.

``Snapshottable`` is the paper's Listing 3 interface.  A
:class:`DistObjectSnapshot` stores an object's state as key/value pairs —
key = the place's *index* in the object's place group, value = that place's
data partition.  Which copies of a partition exist, where, and in what
order a read tries them is one piece of data, the per-key **copy table**
``_rows[key] = ((tier, place id, heap key), ...)``:

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
write.  Loading walks one **ladder** (:meth:`DistObjectSnapshot.locate`):
the in-memory copies in table order, then a copy re-derived from other data
(none here; XOR reconstruction in the parity store), then the disk tier;
only when a key survives in *no* tier does :meth:`DistObjectSnapshot.fetch`
raise :class:`DataLossError` — tested behaviour, not a corner we paper
over.  Saving, adopting, probing, corrupting, verifying and deleting are all
passes over the same table, so the three stores (this one,
:mod:`~repro.resilience.parity`, :mod:`~repro.resilience.stable`) differ
only in the table and the re-derived rung they declare.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.resilience.placement import ReplicaPlacement, RingPlacement
from repro.runtime.exceptions import (
    DataLossError,
    DeadPlaceException,
    SnapshotCorruptionError,
)
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import PlaceContext, Runtime
from repro.util.checksum import corrupt_payload, memoized_checksum
from repro.util.payload import BLOCK_KEY_NBYTES, FRAMING_BYTES, MODELED_INDEX, STORED_INDEX
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - the protection module imports this one
    from repro.resilience.protection import Protection

_snap_counter = itertools.count()

#: First element of every heap key a snapshot store writes: primary, backup,
#: parity block and parity-reconstructed partition (the last two belong to
#: :mod:`~repro.resilience.parity`); the second element is the snapshot id.
COPY_KINDS = frozenset(("snap", "snapb", "snapp", "snapr"))


def orphaned_copies(runtime: Runtime, snapshots: Iterable["DistObjectSnapshot"]) -> List[tuple]:
    """Heap keys of snapshot copies that none of *snapshots* owns.

    The "no copy without an owner" invariant, as one pass over the heaps'
    keys: a copy outlives its snapshot only through a bug (a save that
    failed half-way, a store that dropped a snapshot without deleting it),
    and then sits in the survivors' heaps for the rest of the run.
    """
    owned = {snap.snap_id for snap in snapshots}
    return [
        key
        for heap in runtime._heaps.values()
        for key in heap._store
        if type(key) is tuple and key[0] in COPY_KINDS and key[1] not in owned
    ]


class Snapshottable(ABC):
    """The paper's Listing 3: objects that can save and restore themselves."""

    @abstractmethod
    def make_snapshot(
        self, protection: "Protection", base: Optional["DistObjectSnapshot"] = None
    ) -> "DistObjectSnapshot":
        """Capture this object's distributed state into a snapshot of the
        tier *protection* names (every GML object defaults to
        ``Protection()``, the paper's double store).

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

    ``meta`` carries object-specific restore metadata (the data grid's row
    sizes, the vector partition) captured at snapshot time.
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
        #: The copy table: ``_rows[key]`` lists ``(tier, place id, heap key)``
        #: of every in-memory copy of *key*, in the order a read tries them
        #: (0 = primary, then the backups in placement order).  The modular
        #: placement arithmetic is tabulated once, rebuilt only by
        #: :meth:`rebind_group`, and kept in fork images; every save, probe,
        #: read and delete is a pass over it.  A copy is *held* while
        #: ``rt._alive.get(pid, False) and rt._heaps[pid].contains(heap
        #: key)``; the passes over the rows test that inline.
        self._rows: List[Tuple[Tuple[int, int, tuple], ...]] = self._copy_table()
        self.stable_fallback = stable_fallback
        self._stable: Dict[int, Any] = {}
        self._saved_keys: set = set()
        #: Modeled size of each saved partition, by key, measured once, at
        #: save: every copy of a key has it (a bit flip never changes a size).
        self._nbytes: List[int] = [0] * group.size
        self.total_nbytes = 0.0
        #: Mutation-version token recorded per key at save time (the dirty
        #: test of delta checkpointing compares against these).
        self._versions: Dict[int, Any] = {}
        #: Keys adopted clean from a base snapshot (delta saves) and the
        #: bytes they would have cost under a full save.
        self.clean_keys: set = set()
        self.clean_nbytes = 0.0
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

    # -- the copy table ------------------------------------------------------

    def _copy_table(self) -> List[Tuple[Tuple[int, int, tuple], ...]]:
        ids, sid = self.group.ids, self.snap_id
        size = len(ids)
        rows = []
        for key in range(size):
            # Tier t's copy sits its ring offset (0 for the primary) along.
            row = [(0, ids[key], ("snap", sid, key))]
            for tier, offset in enumerate(self._offsets, 1):
                row.append((tier, ids[(key + offset) % size], ("snapb", sid, key, tier)))
            rows.append(tuple(row))
        return rows

    def _check_owner(self, ctx: PlaceContext, key: int) -> None:
        """Raise unless *ctx* runs at the place owning partition *key*."""
        if self.group.index_of(ctx.place) != key:
            raise ValueError(
                f"partition {key} must be saved from group index {key}, "
                f"not from {ctx.place}"
            )

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

        The payload is a leaf or a block set ``{(rb, cb): leaf}``
        (:mod:`repro.util.payload`; a bare ndarray is a parity block, never
        a partition); anything else is a ``TypeError`` before any copy is
        written.  One walk freezes its arrays and sizes it as
        ``payload_nbytes`` would, inline to keep the save's call budget;
        the charges follow in a fixed order — memcpy, fan-out, message
        wait, checksum — and are skipped whole while ``engine.zero_fast()``
        holds.
        """
        place = ctx.place
        places = self.group._places
        if not (0 <= key < len(places) and places[key] is place):
            self._check_owner(ctx, key)
        # ``freeze_payload`` and ``payload_nbytes`` in one walk, inlined.
        if type(payload) is dict:
            leaves = payload.values()
            nbytes = FRAMING_BYTES + BLOCK_KEY_NBYTES * len(payload)
        else:
            leaves, nbytes = (payload,), 0
        for leaf in leaves:
            names = getattr(type(leaf), "ARRAY_NAMES", None)
            if names is None:
                raise TypeError(f"cannot snapshot a {type(leaf).__name__} payload")
            nbytes += FRAMING_BYTES
            for name in names:
                array = getattr(leaf, name)
                array.setflags(write=False)
                if array.dtype == STORED_INDEX:  # counted at the modeled width
                    nbytes += array.size * MODELED_INDEX.itemsize
                else:
                    nbytes += array.nbytes
        rt = self.runtime
        cost, clock, engine = rt.cost, rt.clock, rt.engine
        zero = engine.zero_fast()
        owner_id = place.id
        copies = self._rows[key]
        dst_ids, dst_keys = [], []
        for tier, pid, heap_key in copies:
            if pid != owner_id:
                dst_ids.append(pid)
                dst_keys.append(heap_key)
            else:
                # The primary — or, in a single-place group, a degenerate
                # "replica" on the same place, forwarded by reference: the
                # bytes are paid for once, by the primary's memcpy.
                ctx.heap.put(heap_key, payload)
                if tier == 0 and not zero:
                    ctx.charge_memcpy(nbytes)
        if dst_ids:
            if zero:
                # All timing lands on 0.0; only liveness remains, checked
                # in the same order the per-destination transfers would.
                alive = rt._alive
                for pid in dst_ids:
                    if not alive.get(pid, False):
                        raise DeadPlaceException(pid)
            else:
                times = clock._times
                engine.transfer_fanout(owner_id, dst_ids, nbytes, times[owner_id])
                clock.set_at_least(owner_id, times[owner_id] + len(dst_ids) * cost.message(0))
            heaps = rt._heaps
            for pid, heap_key in zip(dst_ids, dst_keys):
                heaps[pid].put(heap_key, payload)
        if self.stable_fallback:
            engine.stable_write(owner_id, nbytes)
            self._stable[key] = payload
        # The partition is checksummed *once per save* in virtual time;
        # the actual CRC pass is deferred until a verify first needs it
        # (the payload reference is immutable, so late hashing is exact).
        self._checksums.pop(key, None)
        self._crc_pending[key] = (payload, token)
        if not zero:
            # ``cost.checksum(nbytes)``'s product written out: one call
            # fewer per timed save.
            ctx.charge_seconds(cost.checksum_byte_time * nbytes * cost.logical_scale)
        verified = self._verified
        for tier in range(len(copies)):
            verified.add((key, tier))
        if self.stable_fallback:
            verified.add((key, self.STABLE_TIER))
        self._saved_keys.add(key)
        self._nbytes[key] = nbytes
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
        alive, heaps = self.runtime._alive, self.runtime._heaps
        for _, pid, heap_key in self._rows[key]:
            if not (alive.get(pid, False) and heaps[pid].contains(heap_key)):
                return False
        return not self.stable_fallback or key in self._stable

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
        self._check_owner(ctx, key)
        rt = self.runtime
        adopted = []
        for (tier, pid, heap_key), base_row in zip(self._rows[key], base._rows[key]):
            heap = rt.heap_of(pid)
            payload = heap.get(base_row[2])
            heap.put(heap_key, payload)
            adopted.append((tier, payload))
        if self.stable_fallback:
            self._stable[key] = base._stable[key]
            adopted.append((self.STABLE_TIER, base._stable[key]))
        if key in base._crc_pending:
            self._crc_pending[key] = base._crc_pending[key]
        elif key in base._checksums:
            self._checksums[key] = base._checksums[key]
        self._verified.update(
            (key, tier) for tier, _ in adopted if (key, tier) in base._verified
        )
        if key in base._versions:
            self._versions[key] = base._versions[key]
        nbytes = self._nbytes[key] = base._nbytes[key]
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
        copies = len(self._rows[0]) + (1 if self.stable_fallback else 0)
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

        The ladder: the in-memory copies in table order (primary, then the
        backups in placement order), then a copy re-derived from other data
        (:meth:`_locate_rederived`), then the stable tier (place id
        :data:`STABLE_TIER`).  Every candidate is checksum-verified before
        being offered: a copy that fails verification is quarantined
        (dropped from its tier) and the search falls through to the next
        rung.  Raises :class:`DataLossError` when every tier has lost the
        key, or :class:`SnapshotCorruptionError` when the *last* surviving
        copies were quarantined — corrupt data is never silently restored.
        """
        if key not in self._saved_keys:
            require(False, f"snapshot has no key {key}")
        quarantined_before = len(self.quarantined)
        alive, heaps, verified = self.runtime._alive, self.runtime._heaps, self._verified
        for tier, pid, heap_key in self._rows[key]:
            if (
                alive.get(pid, False)
                and heaps[pid].contains(heap_key)
                and ((key, tier) in verified or self._verify_tier(key, tier))
            ):
                return pid, heap_key
        hit = self._locate_rederived(key)
        if hit is not None:
            return hit
        if key in self._stable and self._verify_tier(key, self.STABLE_TIER):
            return self.STABLE_TIER, ("stable", self.snap_id, key)
        struck = len(self.quarantined) - quarantined_before
        if struck:
            raise SnapshotCorruptionError(
                f"every surviving copy of snapshot key {key} failed checksum "
                f"verification and was quarantined ({struck} this search); "
                f"there is no further tier"
            )
        row = self._rows[key]
        raise DataLossError(
            f"all {len(row)} in-memory copies of snapshot key "
            f"{key} lost (homes {[pid for _, pid, _ in row]}); "
            f"no parity group can re-derive it and no stable-storage tier holds it"
        )

    def _locate_rederived(self, key: int) -> Optional[Tuple[int, tuple]]:
        """The ladder's rung between memory and disk: a copy of *key*
        rebuilt from *other* data.  Replicas have nothing to derive from."""
        return None

    def _expected_checksum(self, key: int) -> Optional[int]:
        """Ground-truth CRC of *key*, computing a deferred one on demand."""
        pending = self._crc_pending.pop(key, None)
        if pending is not None:
            payload, token = pending
            self._checksums[key] = memoized_checksum(payload, token)
        return self._checksums.get(key)

    def _verify_tier(self, key: int, tier: int) -> bool:
        """Checksum the copy of *key* at *tier*; quarantine and return
        False on mismatch.

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
            _, place_id, heap_key = self._rows[key][tier]
            payload = rt.heap_of(place_id).get(heap_key)
            rt.clock.advance(place_id, rt.cost.checksum(self._nbytes[key]))
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
        """Tiers currently holding a copy of *key*, in ladder order: 0 =
        primary, 1..k = replicas, :data:`STABLE_TIER` = disk."""
        if key not in self._saved_keys:
            return []
        alive, heaps = self.runtime._alive, self.runtime._heaps
        out = [
            tier
            for tier, pid, heap_key in self._rows[key]
            if alive.get(pid, False) and heaps[pid].contains(heap_key)
        ]
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
        if tier not in self.tiers(key):
            return False
        if tier == self.STABLE_TIER:
            self._stable[key] = corrupt_payload(self._stable[key])
        else:
            _, place_id, heap_key = self._rows[key][tier]
            heap = self.runtime.heap_of(place_id)
            heap.put(heap_key, corrupt_payload(heap.get(heap_key)))
        self._verified.discard((key, tier))
        return True

    def fetch(
        self,
        ctx: PlaceContext,
        key: int,
        part: Optional[Hashable] = None,
        cut: Optional[Tuple[int, ...]] = None,
        flops: float = 0.0,
        nbytes: float = 0.0,
    ) -> Any:
        """Load partition *key*, or one piece of it, to the calling place.

        A piece is named, not computed by the caller: *part* picks one block
        of a block-set payload, and *cut* a sub-range of that block (or of
        the whole payload) — ``(lo, hi)`` of a vector, ``(r0, r1, c0, c1)``
        of a matrix, taken by its ``sub_vector`` / ``sub_matrix``.  A block
        named without a cut comes back as a ``freeze_view`` alias.  The
        piece is cut at the *source* place — the paper's repartitioned
        restore, where the owning place cuts out only the overlap region and
        ships just that sub-block — which is charged *flops* of scanning
        (e.g. the sparse non-zero counting pass) and *nbytes* of the copy
        that materializes the piece.

        When no in-memory copy serves the read it comes off the stable
        tier: the restoring place pays the engine's disk read for the
        *whole* partition and cuts the piece locally (there is no owning
        place left to cut it) — the full-reload cost the paper's data-flow
        comparison points at.
        """
        src_id, heap_key = self.locate(key)
        rt = self.runtime
        cost = rt.cost
        piece = part is not None or cut is not None
        if src_id == self.STABLE_TIER:
            payload = self._stable[key]
            rt.engine.stable_read(ctx.place.id, self._nbytes[key])
            if self._rows[key]:
                # A fall-through is only counted where there was a memory
                # tier to fall from; a disk-only store reads disk by design.
                rt.stats.stable_fallback_reads += 1
        else:
            payload = rt._heaps[src_id].get(heap_key)  # locate() found the place alive
            if piece:
                # ``cost.flops(flops) + cost.memcpy(nbytes)``, inlined.
                scale = cost.logical_scale
                charge = cost.flop_time * flops * scale + cost.memcpy_byte_time * nbytes * scale
                if charge:
                    rt.clock.advance(src_id, charge)
        if not piece:
            size = self._nbytes[key]  # measured when the partition was saved
        else:
            if part is not None:
                payload = payload[part]
            if cut is None:
                payload = payload.freeze_view()
            elif len(cut) == 2:
                payload = payload.sub_vector(*cut)
            else:
                payload = payload.sub_matrix(*cut)
            size = FRAMING_BYTES  # ``payload_nbytes(payload)``, inlined
            for name in type(payload).ARRAY_NAMES:
                array = getattr(payload, name)
                if array.dtype == STORED_INDEX:
                    size += array.size * MODELED_INDEX.itemsize
                else:
                    size += array.nbytes
        if src_id == ctx.place.id:
            if not cost.is_zero:  # a zero model's memcpy is a no-op
                ctx.charge_memcpy(size)
        elif src_id != self.STABLE_TIER:
            ctx.read_remote(src_id, heap_key, size)
        elif piece:
            ctx.charge_memcpy(size)  # the local cut of a disk read
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
                clean += self._verify_tier(key, tier)
        return clean, len(self.quarantined) - before

    # -- health -----------------------------------------------------------

    def fully_redundant(self) -> bool:
        """True if every key still has its primary AND all backup copies.

        A snapshot that survived a failure is down to fewer in-memory
        copies for some keys; full redundancy is what the read-only reuse
        optimization requires of snapshots without a stable tier.
        """
        alive, heaps = self.runtime._alive, self.runtime._heaps
        rows = self._rows
        for key in self._saved_keys:
            for _, pid, heap_key in rows[key]:
                if not (alive.get(pid, False) and heaps[pid].contains(heap_key)):
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
        rows = self._rows
        return all(
            pid != rows[key][0][1] for key in self._saved_keys for _, pid, _ in rows[key][1:]
        )

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
        stale = self._rows
        self.group = new_group
        self._rows = self._copy_table()
        # A copy whose home left the table is out of every read's reach (a
        # spare an aborted recovery had installed here, say): free it now, or
        # nothing ever will.
        alive, heaps = self.runtime._alive, self.runtime._heaps
        for was, now in zip(stale, self._rows):
            for (_, pid, heap_key), (_, new_pid, _) in zip(was, now):
                if pid != new_pid and alive.get(pid, False):
                    heaps[pid].pop(heap_key, None)

    def repair(self, new_group: Optional[PlaceGroup] = None) -> int:
        """Scrub hook: re-materialize copies a failure destroyed; returns
        how many.  Lost replicas are not rebuilt in place — the next
        checkpoint's full re-save restores them — so there is nothing to do
        here; the parity store overrides this."""
        return 0

    # -- lifecycle --------------------------------------------------------------

    def delete(self) -> None:
        """Free all surviving copies (old checkpoints are deleted on commit)."""
        alive, heaps = self.runtime._alive, self.runtime._heaps
        # Every row, not only the saved keys: a save that a dead backup home
        # aborted has already written its primary.
        for row in self._rows:
            for _, pid, heap_key in row:
                if alive.get(pid, False):
                    heaps[pid].pop(heap_key, None)
        self._stable.clear()
        self._saved_keys.clear()

    def __repr__(self) -> str:
        return (
            f"DistObjectSnapshot(id={self.snap_id}, keys={sorted(self._saved_keys)}, "
            f"group={self.group.ids}, backups={self.backups}, "
            f"placement={self.placement.name}, stable_fallback={self.stable_fallback})"
        )
