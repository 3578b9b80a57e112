"""Erasure-coded parity tier for the snapshot store (ROADMAP item 1).

Replication pays ``k x`` checkpoint bytes to survive ``k`` losses per key.
ReStore (arXiv:2203.01107) and the extreme-scale multigrid resilience work
(arXiv:1506.06185) both observe that *single* losses — by far the common
case — are recoverable from a parity code at a fraction of that footprint.
:class:`ParityObjectSnapshot` implements the XOR variant: partitions are
grouped in runs of ``g`` consecutive group indices, and each group stores
one parity block — the XOR of the members' serialized bytes, zero-padded
to the longest member — on a place *outside* the group (chosen through
``resolve_offsets``, so the block never co-resides with a member primary).

The store declares exactly two things to the tiered store it extends
(:mod:`repro.resilience.snapshot`): a copy table with the primary alone
(``backups`` is 0), and the ladder's *re-derived* rung — XOR the group's
parity block with every surviving peer.  The ladder for a key is therefore
primary -> **parity-reconstruct** -> stable disk -> ``DataLossError``, walked
by the base ``locate``.  Any single loss per group is absorbed in memory at
``~(1 + 1/g)x`` checkpoint bytes; two losses in one group before a repair
exceed the code's strength and fall through to disk or a documented loss.

Parity blocks are first-class copies of the integrity machinery: they
carry a CRC-32, are verified before any reconstruction, participate in
``verify_all``, and a corrupt block is quarantined with fall-through to
the next tier.  Delta checkpointing composes: XOR is incremental, so an
unchanged group adopts its base parity block by reference at zero virtual
cost, and a partly-dirty group charges transfers for the dirty members
only.  :meth:`ParityObjectSnapshot.repair` is the scrub pass — after a
recovery it re-materializes lost primaries from the parity tier and
rebuilds missing parity blocks so protection does not erode across a long
campaign.

Simulation note: XOR blocks are *really* computed over the members' bytes
(reconstruction re-materializes the payload and is checksum-verified against
the original), while the virtual-time charge follows the cost model's
dirty-bytes accounting — the same wall-work/modeled-cost split the rest of
the store uses.  There is one encoding, for every payload: a member's XOR
operand is the bytes of its backing arrays end to end, in
``payload_arrays()`` order (a block set ``{(rb, cb): block}``: block by
block, in dict order).  A block is therefore a function of the members'
*values* and of nothing the host keeps beside them — not memoized kernel
handles, not version tokens — so a primary refilled from a CRC-verified
reconstruction leaves its group's block valid.  What turns the XORed bytes
back into a payload is a small value-only *template* recorded per key at
build (:func:`_encode`): the dict keys, and per leaf its class, ``shape``
and each array's ``(dtype, shape)``; the classes rebuild themselves through
their ``from_payload_arrays``, the unchecked inverse of ``payload_arrays()``,
behind the two CRC gates of :meth:`ParityObjectSnapshot._locate_rederived`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.resilience.placement import ParityPlacement, ReplicaPlacement
from repro.resilience.snapshot import DistObjectSnapshot
from repro.runtime.comm import point_to_point
from repro.runtime.exceptions import DataLossError
from repro.runtime.place import Place, PlaceGroup
from repro.runtime.runtime import PlaceContext, Runtime
from repro.util.bytesize import FRAMING_BYTES, payload_nbytes
from repro.util.checksum import corrupt_payload, memoized_checksum
from repro.util.validation import require
from repro.util.versioning import freeze_payload

#: Sentinel "tier" for a group's parity block (the stable tier is -1).
PARITY_TIER = -2


def _encode(payload: Any) -> Tuple[np.ndarray, int, tuple]:
    """``(XOR operand, bytes charged and reported, rebuild template)`` of one
    group member.

    The operand is the member's backing arrays as bytes, end to end (zero-copy
    for a single buffer).  The template is what :func:`_decode` needs to cut
    those bytes back into the payload, values only: the dict keys of a block
    set (None for a single leaf) and, per leaf, its class, its ``shape`` and
    each array's ``(dtype, shape)``.

    A single-buffer member is charged at its buffer bytes, a block set or a
    multi-array (sparse) member at its modeled ``payload_nbytes``: the two
    rules are older than this encoding, and unifying them moves parity
    virtual times (ROADMAP item 7).
    """
    keyed = type(payload) is dict
    recipe, flat = [], []
    for leaf in payload.values() if keyed else (payload,):
        specs = []
        for arr in (leaf,) if type(leaf) is np.ndarray else leaf.payload_arrays():
            specs.append((arr.dtype, arr.shape))
            flat.append(np.ascontiguousarray(arr).reshape(-1).view(np.uint8))
        recipe.append((type(leaf), getattr(leaf, "shape", None), specs))
    template = (tuple(payload) if keyed else None, recipe)
    if len(flat) == 1 and not keyed:
        return flat[0], flat[0].size, template
    stream = np.concatenate(flat) if flat else np.zeros(0, dtype=np.uint8)
    return stream, payload_nbytes(payload), template


def _decode(stream: np.ndarray, template: tuple) -> Any:
    """The payload whose :func:`_encode` operand is the head of *stream*.

    Arrays are cut as views of *stream* (which the caller gives up) and each
    leaf is rebuilt by its class's ``from_payload_arrays`` — the inverse of
    ``payload_arrays()``, which validates nothing: the caller checks the
    result against the key's save-time CRC before anyone sees it.
    """
    keys, recipe = template
    leaves, offset = [], 0
    for cls, shape, specs in recipe:
        arrays = []
        for dtype, dims in specs:
            end = offset + dtype.itemsize * math.prod(dims)
            arrays.append(stream[offset:end].view(dtype).reshape(dims))
            offset = end
        leaves.append(
            arrays[0] if cls is np.ndarray else cls.from_payload_arrays(shape, arrays)
        )
    return leaves[0] if keys is None else dict(zip(keys, leaves))


class ParityObjectSnapshot(DistObjectSnapshot):
    """Snapshot whose redundancy is one XOR parity block per key group.

    Keys keep their tier-0 primary; instead of per-key replicas
    (``backups`` is forced to 0) each group of up to ``g`` consecutive
    keys XORs its members into ``("snapp", id, gidx)`` on the group's
    parity place.  Reconstructed payloads are materialized on that place
    under ``("snapr", id, key)`` so ``fetch`` reads them like any other
    in-memory copy.
    """

    def __init__(
        self,
        runtime: Runtime,
        group: PlaceGroup,
        meta: Optional[Dict[str, Any]] = None,
        placement: Optional[ReplicaPlacement] = None,
        stable_fallback: bool = False,
    ):
        placement = placement if placement is not None else ParityPlacement()
        require(
            isinstance(placement, ParityPlacement),
            f"ParityObjectSnapshot requires a ParityPlacement, got {placement!r}",
        )
        super().__init__(
            runtime,
            group,
            meta,
            backups=0,
            placement=placement,
            stable_fallback=stable_fallback,
        )
        #: Members per parity group (capped so a group-external place exists).
        self._span = placement.group_span(group.size)
        #: Group index -> accounted bytes of its built (or adopted) parity
        #: block: the largest charged size among its members
        #: (:func:`_encode`).  Recorded once at build so adoption, drop and
        #: ``stored_nbytes`` all agree on it.
        self._parity: Dict[int, int] = {}
        #: CRC-32 per parity block, recorded at build time.
        self._parity_checksums: Dict[int, int] = {}
        #: Per-key rebuild template (:func:`_encode`), recorded at build
        #: time and carried along by clean adoption.
        self._templates: Dict[int, tuple] = {}
        #: Base snapshot donating clean partitions (delta saves).
        self._parity_base: Optional["ParityObjectSnapshot"] = None
        #: Bytes held in parity blocks (the ~1/g overhead; part of
        #: ``total_nbytes``).
        self.parity_nbytes = 0.0
        #: Reads satisfied by XOR reconstruction instead of a copy.
        self.parity_reads = 0

    # -- group geometry ----------------------------------------------------

    def _parity_key(self, gidx: int) -> tuple:
        return ("snapp", self.snap_id, gidx)

    def _recon_key(self, key: int) -> tuple:
        return ("snapr", self.snap_id, key)

    def _parity_group(self, key: int) -> int:
        return key // self._span

    def _group_members(self, gidx: int) -> List[int]:
        start = gidx * self._span
        return list(range(start, min(start + self._span, self.group.size)))

    def _saved_members(self, gidx: int) -> List[int]:
        return [m for m in self._group_members(gidx) if m in self._saved_keys]

    def _parity_place(self, gidx: int) -> Place:
        members = self._group_members(gidx)
        index = self.placement.parity_index(
            gidx * self._span, len(members), self.group.size
        )
        return self.group[index]

    def _canonical(self, gidx: int) -> Tuple[int, int]:
        """The ``(key, tier)`` bookkeeping entry for a group's parity block
        (anchored to the group's first member)."""
        return (self._group_members(gidx)[0], PARITY_TIER)

    def _groups(self) -> List[int]:
        return sorted({self._parity_group(key) for key in self._saved_keys})

    def _place_holds(self, place: Place, heap_key: tuple) -> bool:
        """True while *place* is alive and its heap holds *heap_key*."""
        rt = self.runtime
        return rt._alive.get(place.id, False) and rt._heaps[place.id].contains(heap_key)

    def _primary_held(self, key: int) -> bool:
        _, pid, heap_key = self._rows[key][0]
        rt = self.runtime
        return rt._alive.get(pid, False) and rt._heaps[pid].contains(heap_key)

    def _block_held(self, gidx: int) -> bool:
        return gidx in self._parity and self._place_holds(
            self._parity_place(gidx), self._parity_key(gidx)
        )

    # -- saving ------------------------------------------------------------

    def save_from(
        self, ctx: PlaceContext, key: int, payload: Any, token: Optional[Any] = None
    ) -> None:
        super().save_from(ctx, key, payload, token)
        self._after_key_saved(key)

    def save_clean_from(
        self, ctx: PlaceContext, key: int, base: "DistObjectSnapshot"
    ) -> None:
        self._parity_base = base
        super().save_clean_from(ctx, key, base)
        self._templates[key] = base._templates[key]
        self._after_key_saved(key)

    def _after_key_saved(self, key: int) -> None:
        """Seal the key's parity group once every member has been saved.

        An all-clean group whose base parity block survives adopts it by
        reference (zero virtual cost — the XOR of unchanged bytes is
        unchanged).  Otherwise the block is rebuilt; with an intact base
        the XOR update is incremental, so only dirty members are charged.
        """
        gidx = self._parity_group(key)
        if gidx in self._parity:
            return
        members = self._group_members(gidx)
        if any(m not in self._saved_keys for m in members):
            return
        base = self._parity_base
        base_ok = base is not None and base._block_held(gidx)
        if base_ok and all(m in self.clean_keys for m in members):
            self._adopt_parity(gidx, base)
            return
        if not self.runtime.is_alive(self._parity_place(gidx).id):
            # No home for the block: the group runs unprotected until a
            # repair pass (key_intact stays False, forcing dirty re-saves).
            return
        dirty = [m for m in members if m not in self.clean_keys]
        self._build_parity(gidx, charge_keys=dirty if base_ok else members)

    def _adopt_parity(self, gidx: int, base: "ParityObjectSnapshot") -> None:
        heap = self.runtime.heap_of(base._parity_place(gidx).id)
        heap.put(self._parity_key(gidx), heap.get(base._parity_key(gidx)))
        self._parity_checksums[gidx] = base._parity_checksums[gidx]
        if base._canonical(gidx) in base._verified:
            self._verified.add(self._canonical(gidx))
        nbytes = self._parity[gidx] = base._parity[gidx]
        self.parity_nbytes += nbytes
        self.total_nbytes += nbytes

    def _ship(self, src_id: int, dst_id: int, nbytes: float) -> None:
        """Move one member's bytes between places through the comm layer
        (a co-resident source moves nothing)."""
        if src_id != dst_id:
            rt = self.runtime
            rt.clock.set_at_least(dst_id, point_to_point(rt, src_id, dst_id, nbytes))

    def _build_parity(self, gidx: int, charge_keys: List[int]) -> None:
        """Compute and store the group's XOR block; charge *charge_keys*.

        The XOR always runs over every member (wall-clock work), but the
        virtual-time charge covers only *charge_keys* — all members on a
        fresh build, the dirty members alone when an intact base block
        makes the update incremental.
        """
        rt = self.runtime
        cost = rt.cost
        parity_place = self._parity_place(gidx)
        encoded = {}
        for m in self._saved_members(gidx):
            _, pid, heap_key = self._rows[m][0]
            encoded[m] = _encode(rt.heap_of(pid).get(heap_key))
        acc = np.zeros(max(e[0].size for e in encoded.values()), dtype=np.uint8)
        sizes = {}
        for m, (stream, nbytes, template) in encoded.items():
            acc[: stream.size] ^= stream
            sizes[m] = nbytes
            self._templates[m] = template
        acc.setflags(write=False)
        charged_bytes = 0
        for m in charge_keys:
            if m in sizes:
                self._ship(self._homes[m][0].id, parity_place.id, sizes[m])
                charged_bytes += sizes[m]
        block_nbytes = max(sizes.values())
        rt.clock.advance(
            parity_place.id, cost.flops(charged_bytes) + cost.checksum(block_nbytes)
        )
        rt.heap_of(parity_place.id).put(self._parity_key(gidx), acc)
        self._parity_checksums[gidx] = memoized_checksum(acc, None)
        self._verified.add(self._canonical(gidx))
        self._parity[gidx] = block_nbytes
        self.parity_nbytes += block_nbytes
        self.total_nbytes += block_nbytes

    def _drop_block(self, gidx: int) -> None:
        """Forget a group's parity block — heap entry, accounting, clean
        verdict — so the next checkpoint or repair pass rebuilds it."""
        nbytes = self._parity.pop(gidx)
        self.parity_nbytes -= nbytes
        self.total_nbytes -= nbytes
        self.runtime.heap_of(self._parity_place(gidx).id).remove_if_present(
            self._parity_key(gidx)
        )
        self._verified.discard(self._canonical(gidx))

    def stored_nbytes(self) -> float:
        """Physical bytes: each partition once, plus the parity blocks
        (the ``~(1 + 1/g)x`` footprint), plus the optional disk copies."""
        logical = self.total_nbytes - self.parity_nbytes
        return self.total_nbytes + (logical if self.stable_fallback else 0.0)

    # -- delta compatibility ----------------------------------------------

    def delta_compatible(self, base: "DistObjectSnapshot") -> bool:
        return super().delta_compatible(base) and base._span == self._span

    def key_intact(self, key: int) -> bool:
        """Conservative: the key's primary, its group's parity block, and
        every peer primary must survive — a degraded group must re-save
        dirty so the next checkpoint rebuilds full protection."""
        gidx = self._parity_group(key)
        return (
            super().key_intact(key)
            and self._block_held(gidx)
            and all(self._primary_held(m) for m in self._saved_members(gidx))
        )

    # -- the ladder's re-derived rung: XOR reconstruction -------------------

    def _verify_tier(self, key: int, tier: int) -> bool:
        """Extends the base hook with :data:`PARITY_TIER`: checksum the
        parity block of *key*'s group; quarantine it on mismatch."""
        if tier != PARITY_TIER:
            return super()._verify_tier(key, tier)
        gidx = self._parity_group(key)
        canon = self._canonical(gidx)
        if canon in self._verified:
            return True
        rt = self.runtime
        parity_place = self._parity_place(gidx)
        block = rt.heap_of(parity_place.id).get(self._parity_key(gidx))
        # Hashed at its accounted size as a bare-array payload.
        rt.clock.advance(
            parity_place.id, rt.cost.checksum(self._parity[gidx] + FRAMING_BYTES)
        )
        if memoized_checksum(block, None) == self._parity_checksums.get(gidx):
            self._verified.add(canon)
            return True
        self._drop_block(gidx)
        self.quarantined.append(canon)
        return False

    def _locate_rederived(self, key: int) -> Optional[Tuple[int, tuple]]:
        """Reconstruct *key* from its group's parity block, if possible.

        Requires the (verified) parity block plus a verified primary for
        every peer; any hole means the loss exceeds the code's strength
        and the ladder falls through to the stable tier.  The payload is
        materialized on the parity place and checked against the key's
        save-time CRC before being offered — a garbled reconstruction is
        quarantined, never returned.
        """
        rt = self.runtime
        gidx = self._parity_group(key)
        parity_place = self._parity_place(gidx)
        recon_key = self._recon_key(key)
        if self._place_holds(parity_place, recon_key):
            return parity_place.id, recon_key
        if not self._block_held(gidx) or not self._verify_tier(key, PARITY_TIER):
            return None
        peers = [m for m in self._saved_members(gidx) if m != key]
        if not all(self._primary_held(m) and self._verify_tier(m, 0) for m in peers):
            return None
        cost = rt.cost
        acc = np.array(
            rt.heap_of(parity_place.id).get(self._parity_key(gidx)), dtype=np.uint8
        )
        xored = self._parity[gidx] + FRAMING_BYTES
        for m in peers:
            _, src, heap_key = self._rows[m][0]
            stream, nbytes, _ = _encode(rt.heap_of(src).get(heap_key))
            acc[: stream.size] ^= stream
            xored += nbytes
            self._ship(src, parity_place.id, nbytes)
        payload = _decode(acc, self._templates[key])
        freeze_payload(payload)
        nbytes = payload_nbytes(payload)
        rt.clock.advance(
            parity_place.id,
            cost.flops(xored) + cost.memcpy(nbytes) + cost.checksum(nbytes),
        )
        if memoized_checksum(payload, None) != self._expected_checksum(key):
            # The block XORed clean but the result does not hash to the
            # partition saved — a silently corrupt peer slipped through.
            # Quarantine the block and fall through to the next tier.
            self._drop_block(gidx)
            self.quarantined.append(self._canonical(gidx))
            return None
        rt.heap_of(parity_place.id).put(recon_key, payload)
        self._verified.add((key, 0))
        self.parity_reads += 1
        rt.stats.parity_reconstructions += 1
        return parity_place.id, recon_key

    # -- corruption / integrity -------------------------------------------

    def tiers(self, key: int) -> List[int]:
        """0 = primary, :data:`PARITY_TIER` = the group's parity block
        (reported on the group's first member only, so a corruption sweep
        strikes each block at per-copy odds), stable last."""
        out = super().tiers(key)
        gidx = self._parity_group(key)
        if key == self._group_members(gidx)[0] and self._block_held(gidx):
            out.insert(1 if 0 in out else 0, PARITY_TIER)
        return out

    def corrupt_copy(self, key: int, tier: int) -> bool:
        if tier != PARITY_TIER:
            return super().corrupt_copy(key, tier)
        gidx = self._parity_group(key)
        if not self._block_held(gidx):
            return False
        heap = self.runtime.heap_of(self._parity_place(gidx).id)
        parity_key = self._parity_key(gidx)
        heap.put(parity_key, corrupt_payload(heap.get(parity_key)))
        self._verified.discard(self._canonical(gidx))
        return True

    # -- health ------------------------------------------------------------

    def fully_redundant(self) -> bool:
        return super().fully_redundant() and all(
            self._block_held(gidx) for gidx in self._groups()
        )

    def recoverable(self) -> bool:
        """Presence-based (no reconstruction side effects): every key has a
        live primary, a stable copy, or a complete parity equation."""
        for key in self._saved_keys:
            if self._primary_held(key) or key in self._stable:
                continue
            gidx = self._parity_group(key)
            block_or_copy = self._block_held(gidx) or (
                gidx in self._parity
                and self._place_holds(self._parity_place(gidx), self._recon_key(key))
            )
            if not block_or_copy or not all(
                self._primary_held(m) for m in self._saved_members(gidx) if m != key
            ):
                return False
        return True

    def placement_ok(self) -> bool:
        if not super().placement_ok():
            return False
        if self.group.size <= 1:
            return True
        return all(
            self._parity_place(gidx) not in [self.group[m] for m in self._saved_members(gidx)]
            for gidx in self._groups()
        )

    # -- scrub / repair -----------------------------------------------------

    def repair(self, new_group: Optional[PlaceGroup] = None) -> int:
        """Re-materialize lost copies after a recovery (the scrub pass).

        With *new_group* (same size, spares installed at the dead members'
        indices) the snapshot is first re-anchored, so lost primaries have
        live homes again.  Each missing primary is refilled from the best
        surviving tier (parity reconstruction or disk), then missing
        parity blocks are rebuilt from the now-complete member set — both
        fully charged through the engine.  Returns the number of copies
        re-materialized; raises ``DeadPlaceException`` if a place dies
        mid-scrub (the executor's retry loop folds that into the next
        recovery round).
        """
        rt = self.runtime
        if new_group is not None:
            if new_group.size == self.group.size and new_group.ids != self.group.ids:
                self.rebind_group(new_group)
            # Scrub mode: the caller installed a fully-live replacement
            # group, so any dead member now means a *new* failure — abort
            # (fail fast) instead of silently leaving holes behind.
            for place in self.group:
                rt.check_alive(place.id)
        repaired = 0
        for key in sorted(self._saved_keys):
            home = self._homes[key][0]
            if not rt.is_alive(home.id) or self._primary_held(key):
                continue
            try:
                src_id, heap_key = self.locate(key)
            except DataLossError:
                continue
            nbytes = self._nbytes[key]
            if src_id == self.STABLE_TIER:
                payload = self._stable[key]
                rt.engine.stable_read(home.id, nbytes)
            else:
                payload = rt.heap_of(src_id).get(heap_key)
                self._ship(src_id, home.id, nbytes)
                rt.clock.advance(home.id, rt.cost.memcpy(nbytes))
            rt.heap_of(home.id).put(self._rows[key][0][2], payload)
            self._verified.add((key, 0))
            repaired += 1
        # A block that survived stays as it is: the refilled primaries hold
        # the bytes the block was built over (module docstring).
        for gidx in self._groups():
            if self._block_held(gidx) or not rt.is_alive(self._parity_place(gidx).id):
                continue
            if gidx in self._parity:
                self._drop_block(gidx)
            members = self._saved_members(gidx)
            if all(self._primary_held(m) for m in members):
                self._build_parity(gidx, charge_keys=members)
                repaired += 1
        return repaired

    # -- lifecycle ----------------------------------------------------------

    def delete(self) -> None:
        rt = self.runtime
        for gidx in self._groups():
            parity_place = self._parity_place(gidx)
            if rt.is_alive(parity_place.id):
                heap = rt.heap_of(parity_place.id)
                heap.remove_if_present(self._parity_key(gidx))
                for m in self._group_members(gidx):
                    heap.remove_if_present(self._recon_key(m))
        self._parity.clear()
        self._templates.clear()
        super().delete()

    def __repr__(self) -> str:
        return (
            f"ParityObjectSnapshot(id={self.snap_id}, "
            f"keys={sorted(self._saved_keys)}, group={self.group.ids}, "
            f"span={self._span}, parity_groups={sorted(self._parity)}, "
            f"stable_fallback={self.stable_fallback})"
        )
