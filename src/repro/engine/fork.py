"""Deterministic simulator-state forking (capture / resume).

A chaos campaign re-simulates the *identical* failure-free prefix of every
schedule up to its first kill — for a kill at iteration k of N that is k/N
of the run wasted, per schedule, across hundreds of schedules.  ReStore
(arXiv:2203.01107) shows in-memory state capture is cheap enough to be
routine and the waLBerla checkpointing scheme (arXiv:1708.08286) shows
snapshot/resume of a full simulation can be made exact; this module applies
the same idea to the *simulator itself*: capture the entire world — engine
(:class:`~repro.engine.scheduler.Scheduler`, resources, links, overlap
state), runtime (place heaps, pool/leases, injector, virtual clocks,
detector), resilience stores (replica/parity/disk tiers, reconstruction
store, version tokens) and the executor's loop state — at an
iteration-commit boundary, and resume any number of independent forks from
the frozen image.

Capture is a pickle of the executor's object graph with one twist that
makes it copy-on-write: *frozen* payload arrays (``writeable=False``, the
committed-snapshot CoW convention of :mod:`repro.util.payload`) are
never serialized.  They are parked in a shared side table and every fork
receives a **reference** to the same immutable array — safe because the
live classes' ``touch()`` protocol replaces a frozen backing array before
mutating, so no fork can write through the shared reference.  Only the
writable (by definition dirty) arrays are copied, so a mid-run image costs
O(dirty), not O(world), and successive boundary images of one run share
all committed state.

Two invariants the implementation must keep (and the property suite in
``tests/resilience/test_fork_exactness.py`` checks end to end):

* **Bitwise exactness** — a fork resumed from boundary *b* must produce an
  ``ExecutionReport``, final vectors and virtual times bitwise identical
  to a straight-through run, because floats round-trip exactly through
  pickle and the shared frozen arrays are the very same objects.
* **Token soundness** — mutation-version tokens are globally unique, so a
  fork loaded into a process whose counter lags the image (spawn workers)
  must first advance the counter past every token in the image
  (:func:`repro.util.versioning.ensure_version_floor`); otherwise a fresh
  token could collide with a captured one and delta checkpointing would
  adopt a dirty partition as clean.
"""

from __future__ import annotations

import copyreg
import io
import pickle
from typing import Any, Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.matrix.block import BlockSet
from repro.util.payload import freeze_payload
from repro.util.versioning import ensure_version_floor, next_version


def _freeze_world(root: Any) -> None:
    """Freeze every payload in *root*'s runtime heaps before capture.

    Marking the backing arrays read-only lets the capture share them by
    reference (the CoW convention): the continuing origin world and every
    fork detach via ``touch()`` before their next mutation, so the image
    pays for no bytes of a live vector or matrix, of a snapshot copy or of
    a parity block.  A live ``DistBlockMatrix`` place (a ``BlockSet``) is
    not a payload and is left writable: its blocks are pickled into the
    image by value, and the forks and the origin each own their copy.
    """
    rt = getattr(root, "runtime", None)
    heaps = getattr(rt, "_heaps", None)
    if heaps is None:
        return
    for heap in heaps.values():
        store = getattr(heap, "_store", None)
        if store:
            for value in store.values():
                if type(value) is not BlockSet:
                    freeze_payload(value)


def _shared(slot: int) -> Any:
    """The one global a fork image names for a side-table reference.

    A shared object pickles as ``_shared(slot)``; the name is never called
    — :class:`_ResumeUnpickler` resolves it to the side table's own
    ``__getitem__``, so a reference costs no Python frame at load.
    """
    raise pickle.UnpicklingError("a fork image loads through SimulatorImage.load()")


class _ResumeUnpickler(pickle.Unpickler):
    """Resolves each global once per :class:`ForkContext`, not once per load:
    the context's table starts with ``_shared`` (answered by the side table's
    ``__getitem__``) and remembers what ``pickle``'s import-and-getattr found."""

    def __init__(self, file, resolved: Dict[tuple, Any]):
        super().__init__(file)
        self._resolved = resolved

    def find_class(self, module: str, name: str) -> Any:
        found = self._resolved.get((module, name))
        if found is None:
            found = self._resolved[module, name] = super().find_class(module, name)
        return found


class SimulatorImage:
    """One captured world state, resumable any number of times.

    ``load()`` returns a fresh, fully independent copy of the captured
    object graph (sharing only immutable frozen arrays with the origin
    world and with sibling forks).  ``meta`` carries whatever boundary
    bookkeeping the capturer recorded (iteration, phase, virtual time).
    """

    __slots__ = ("_payload", "_context", "version_floor", "meta")

    def __init__(self, payload: bytes, context: "ForkContext", version_floor: int, meta: Dict[str, Any]):
        self._payload = payload
        self._context = context
        self.version_floor = version_floor
        self.meta = meta

    @property
    def nbytes(self) -> int:
        """Serialized size of the dirty part of the image (shared frozen
        arrays excluded — they are amortized across the whole context)."""
        return len(self._payload)

    def load(self) -> Any:
        ensure_version_floor(self.version_floor)
        return _ResumeUnpickler(io.BytesIO(self._payload), self._context._resolved).load()


class ForkContext:
    """Shared frozen-array pool for a family of related captures.

    All images captured through one context share a single side table of
    immutable arrays, so capturing a run at every iteration boundary costs
    one copy of the *dirty* state per boundary plus one shared copy of all
    committed (frozen) state — the copy-on-write property.

    The context (and its images) pickles cleanly for ``spawn``-style
    process pools; the re-frozen flag on every shared array is restored on
    unpickling because a plain ndarray pickle does not preserve it.
    """

    def __init__(self) -> None:
        self.__setstate__({"frozen": []})

    def capture(self, root: Any, **meta: Any) -> SimulatorImage:
        """Snapshot *root*'s full object graph into a resumable image."""
        _freeze_world(root)
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
        # Dispatch by type, so the C pickler calls back into Python for the
        # one shared type only.  The table is built per capture and its
        # entry is bound to the context, never to the pickler: a pickler
        # reachable from its own table is a cycle, and its memo pins every
        # payload of the world until the collector runs.
        pickler.dispatch_table = {**copyreg.dispatch_table, np.ndarray: self._reduce_array}
        pickler.dump(root)
        return SimulatorImage(buf.getvalue(), self, next_version(), dict(meta))

    def _reduce_array(self, arr: np.ndarray):
        """Writable arrays are copied into the image; frozen ones are shared.

        Frozen arrays that *own* their buffer (``base is None``), and frozen
        views whose ``base`` chain ends in one (full-width link blocks are
        slices of the frozen memoized graph), are shared by reference and
        deduplicated across captures — their bytes can never change again,
        so every boundary image of a run points at the same object.  A
        frozen view of a still-writable (or foreign) base is snapshotted
        (copied and re-frozen) per capture instead; the pickler's own memo
        keeps that to one copy per capture.
        """
        if arr.flags.writeable:
            return arr.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        owner = arr
        while type(owner.base) is np.ndarray:
            owner = owner.base
        if owner.base is None and not owner.flags.writeable:
            slot = self._slot_of.get(id(arr))
            if slot is None:
                slot = self._slot_of[id(arr)] = len(self._frozen)
                self._frozen.append(arr)
            return _shared, (slot,)
        snap = arr.copy()
        snap.setflags(write=False)
        self._frozen.append(snap)
        return _shared, (len(self._frozen) - 1,)

    # -- cross-process transport --------------------------------------------

    def __getstate__(self):
        return {"frozen": self._frozen}

    def __setstate__(self, state):
        """Adopt a side table; everything else is derived from it."""
        self._frozen: List[Any] = state["frozen"]
        for shared in self._frozen:
            if type(shared) is np.ndarray:
                shared.setflags(write=False)
        self._slot_of: Dict[int, int] = {
            id(shared): slot for slot, shared in enumerate(self._frozen)
        }
        #: ``(module, name) -> object`` for every global a load has resolved.
        self._resolved: Dict[tuple, Any] = {
            (__name__, "_shared"): self._frozen.__getitem__
        }


def capture_boundaries(
    executor: Any,
    boundaries: Optional[Iterable[int]] = None,
    observe: Optional[Callable[[int], None]] = None,
) -> Dict[int, SimulatorImage]:
    """Run *executor* and capture an image at iteration-commit boundaries.

    The shared-prefix protocol of the chaos prefix cache, the restore sweeps
    and the failure-point ablation: one reference run under the executor's
    ``boundary_hook``, its images resumed once per variant.  With
    *boundaries* the run captures at exactly those and pauses after the last
    (nothing past it is wanted); without, it captures at every boundary and
    runs to completion.  *observe*, when given, sees each captured boundary
    first — the place to record what a caller locates its variants against.

    Returns ``{boundary: image}``, all in one :class:`ForkContext` that lives
    exactly as long as the images do.  A boundary the run never reached (it
    finished first) is absent.  What a resumed fork may change without
    leaving the reference run's history is anything read only *after* the
    boundary: the executor's restore ``mode`` (read when a failure needs a
    replacement group) and the injector's kills (read at failure polls), so
    arming a kill on the resumed injector is arming it up front.
    """
    wanted = frozenset(boundaries or ())
    last = max(wanted, default=None)
    context = ForkContext()
    images: Dict[int, SimulatorImage] = {}

    def hook(boundary: int) -> bool:
        if not wanted or boundary in wanted:
            if observe is not None:
                observe(boundary)
            images[boundary] = context.capture(executor)
        return boundary != last

    executor.run(boundary_hook=hook)
    return images
