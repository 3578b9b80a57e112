"""Shared machinery of multi-place GML objects.

Every duplicated or distributed GML class stores its per-place payloads in
the owning places' heaps under a unique object id, holds only metadata on
the driver, and supports the resilient-GML lifecycle:

* construction over an **arbitrary place group** (§IV-A1);
* :meth:`remake` — destroy live payloads and reallocate over a new group;
* the :class:`~repro.resilience.snapshot.Snapshottable` interface.
"""

from __future__ import annotations

import itertools
from operator import attrgetter, methodcaller
from typing import Any, Callable, List, Sequence, Tuple

from repro.resilience.protection import Protection
from repro.resilience.snapshot import Snapshottable
from repro.runtime.place import Place, PlaceGroup
from repro.runtime.runtime import Runtime
from repro.util.validation import require
from repro.util.versioning import next_version

_object_counter = itertools.count()
_data_of, _heap_key_of = attrgetter("data"), attrgetter("heap_key")


class MultiPlaceObject(Snapshottable):
    """Base class: payload-per-place storage plus group management."""

    def __init__(self, runtime: Runtime, group: PlaceGroup, name: str):
        require(group.size > 0, "place group must be non-empty")
        for place in group:
            runtime.check_alive(place.id)
        self.runtime = runtime
        self.group = group
        self.name = name
        self.oid = next(_object_counter)
        #: The key under which each member place stores its payload.
        #: A plain attribute (the oid never changes): the heap addressing
        #: paths read it tens of thousands of times per chaos schedule.
        self.heap_key = ("gml", self.oid)

    #: A place's mutation token, read off its live payload (a single-place
    #: numeric's ``version``; ``DistBlockMatrix`` reads its ``BlockSet``'s).
    _token_of = attrgetter("version")

    #: Names of the ``cached_property`` plans a subclass derives from its
    #: layout (group, partition, grid).  One rule: a subclass's ``_allocate``
    #: calls :meth:`_drop_plans` first, as does any method that reassigns the
    #: group without reallocating (``rehome``); fork images never carry them.
    _PLANS: Tuple[str, ...] = ()

    def _drop_plans(self) -> None:
        for name in self._PLANS:
            self.__dict__.pop(name, None)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._PLANS:
            state.pop(name, None)
        return state

    # -- heap addressing ----------------------------------------------------

    def local_payload(self, place: Place) -> Any:
        """Library-internal: this object's payload on one live place."""
        return self.runtime.heap_of(place.id).get(self.heap_key)

    def payload_at_index(self, index: int) -> Any:
        """Library-internal: payload of the place at a group index."""
        return self.runtime.heap_of(self.group[index].id).get(self.heap_key)

    # -- replica-uniform finishes ---------------------------------------------

    def _replica_uniform(
        self,
        operands: Sequence["MultiPlaceObject"],
        fn: Callable[..., Any],
        flops: float,
        label: str,
        ret_bytes: float = 0.0,
    ) -> List[Any]:
        """One finish running ``fn(*replicas)`` at every member place, where
        *replicas* are that place's payloads of the duplicated *operands* —
        computed once per distinct input.

        *fn* may write its first argument in place (through ``touch()``) and
        may return a value; the finish returns the per-place values.  Every
        place runs its own task and is charged *flops* (declared to the
        finish) — only the host arithmetic is shared: replicas that hold
        equal bytes alias one frozen array (``docs/architecture.md``,
        "Payload ownership"), so when all of a place's operand arrays are
        frozen and a place before it in this finish started from *the very
        same arrays*, the place adopts that place's frozen result (and return
        value) instead of recomputing it.  A writable operand is private to
        its place and is computed on in place, as ever.  Nothing is assumed
        equal, only observed identical: the memo is keyed by array identity,
        holds the arrays it names (so an id cannot be recycled) and dies with
        the finish.
        """
        keys = tuple(map(_heap_key_of, operands))
        seen: dict = {}

        def task(ctx) -> Any:
            heap_get = ctx.heap.get
            replicas, ident = [], []
            for key in keys:
                replica = heap_get(key)
                replicas.append(replica)
                ident.append(id(replica.data))
            ident = tuple(ident)
            hit = seen.get(ident)
            if hit is not None:  # only frozen arrays are ever recorded
                arrays, result, value = hit
                if result is not arrays[0]:
                    # ``replicas[0].adopt(result)`` inlined: the replica holds
                    # ``arrays[0]`` (same id) and *result* is already frozen.
                    if result.shape != arrays[0].shape:
                        raise ValueError(
                            f"cannot adopt a {result.shape} array into a "
                            f"{arrays[0].shape} replica"
                        )
                    replica = replicas[0]
                    replica.data = result
                    replica.version = next_version()
            else:
                arrays = tuple(map(_data_of, replicas))
                value = fn(*replicas)
                for array in arrays:
                    if array.flags.writeable:  # private to this place
                        break
                else:
                    result = replicas[0].data
                    result.setflags(write=False)
                    seen[ident] = arrays, result, value
            return value

        return self.runtime.finish_all(
            self.group, task, ret_bytes=ret_bytes, label=f"{self.name}:{label}", flops=flops
        )

    # -- delta checkpointing -------------------------------------------------

    def _snapshot_partitions(
        self,
        meta: dict,
        protection: Protection,
        base,
        view_of=methodcaller("freeze_view"),
    ):
        """The body of every ``make_snapshot``: save each member place's
        payload under its group index, in one finish, into the snapshot tier
        *protection* names.

        ``_token_of(payload)`` is the partition's current mutation token and
        *view_of(payload)* its frozen alias sharing the live arrays
        copy-on-write (the default reads a single-place numeric).  With a
        *base* — the previous committed snapshot, usable only while its group
        and replication layout match (its copies live in the same heaps) —
        partitions it proves clean are adopted by reference
        (:meth:`~repro.resilience.snapshot.DistObjectSnapshot.save_clean_from`);
        every other one is saved in full, so full and delta differ only in
        which.  A snapshot that fails to complete owns no copies: whatever
        the finish wrote before a place died is deleted before the failure
        propagates.
        """
        snap = protection.new_snapshot(self.runtime, self.group, meta)
        if base is not None and not snap.delta_compatible(base):
            base = None
        key, index_by_id, token_of = self.heap_key, self.group._index_by_id, self._token_of

        def save(ctx) -> None:
            index = index_by_id[ctx.place.id]
            payload = ctx.heap.get(key)
            token = token_of(payload)
            if base is not None and base.can_reuse(index, token):
                snap.save_clean_from(ctx, index, base)
            else:
                snap.save_from(ctx, index, view_of(payload), token=token)

        try:
            self.runtime.finish_all(self.group, save, label=f"{self.name}:snapshot")
        except BaseException:
            snap.delete()
            raise
        return snap

    # -- lifecycle ---------------------------------------------------------

    def _release_payloads(self) -> None:
        """Drop payloads on all live member places (dead heaps are gone)."""
        alive, heaps, key = self.runtime._alive, self.runtime._heaps, self.heap_key
        for pid in self.group._index_by_id:
            if alive.get(pid, False):
                heaps[pid].pop(key, None)

    def destroy(self) -> None:
        """Free this object's storage everywhere."""
        self._release_payloads()

    def check_group_alive(self) -> None:
        """Raise ``DeadPlaceException`` if any member place has died."""
        for place in self.group:
            self.runtime.check_alive(place.id)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(oid={self.oid}, group={self.group.ids})"
