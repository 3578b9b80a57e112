"""What a snapshot payload is: the one definition of the format.

A snapshot is a key/value store (paper §IV-B): each key is a place index
and each value — a *payload* — is that place's partition, in one of three
shapes:

* a **leaf**: an object whose class declares ``ARRAY_NAMES``, the
  attributes holding its backing arrays, in order (``Vector`` and
  ``DenseMatrix``: ``("data",)``; ``SparseCSR`` and ``SparseCSC``:
  ``("indptr", "indices", "values")``).  ``cls.from_payload_arrays(shape,
  arrays)`` is the unvalidated inverse (``docs/api.md``, "Payload
  protocol");
* a **block set** ``{(rb, cb): leaf}``: one ``DistBlockMatrix`` place;
* a bare ``ndarray``: a parity tier's XOR block.

Every entry point raises ``TypeError`` naming the type of anything else —
a live ``BlockSet`` too: it is what a snapshot is taken *of*
(``BlockSet.freeze_view_dict``), not a payload.

Sizing models the X10 sockets transport: each serialized object costs its
element bytes plus :data:`FRAMING_BYTES`.  The snapshot save and fetch walk
the format inline on their hot paths and read the constants here.

The model's bytes are GML's, not the host's: an index is a ``Long``.  Sparse
leaves store ``indptr`` / ``indices`` as :data:`STORED_INDEX` (``int32``,
:mod:`repro.matrix.sparse`), and every reader of a leaf's bytes reads such
an array as :data:`MODELED_INDEX` (``int64``): :func:`payload_nbytes` and
the snapshot save and fetch size it at 8 bytes per element, the CRC
(:mod:`repro.util.checksum`) and the parity XOR stream
(:mod:`repro.resilience.parity`) widen it first.  Virtual time, checksums
and parity blocks are the ones an ``int64``-indexed leaf gives.  Each
reader is a hot path and writes the rule out inline.

:func:`freeze_payload` is the copy-on-write half of versioning
(:mod:`repro.util.versioning`): snapshot arrays are marked read-only, so the
snapshot may share them with the live object, whose ``touch()`` copies a
frozen array out before its next write.  It and :func:`payload_frozen` are
called once per heap value of a fork capture and once per memoized CRC, so
they loop over ``ARRAY_NAMES`` inline rather than through :func:`arrays`.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

#: Fixed framing overhead per serialized object (message header, type tag).
FRAMING_BYTES = 64
#: Serialized size of a block set's ``(rb, cb)`` key: two 8-byte integers.
BLOCK_KEY_NBYTES = FRAMING_BYTES + 16
#: The stored index width, and the width the model reads it at.
STORED_INDEX = np.dtype(np.int32)
MODELED_INDEX = np.dtype(np.int64)


def _names(leaf: Any) -> Tuple[str, ...]:
    """A leaf's ``ARRAY_NAMES``; the ``TypeError`` for anything else."""
    names = getattr(type(leaf), "ARRAY_NAMES", None)
    if names is None:
        raise TypeError(f"{type(leaf).__name__} is not a snapshot payload (repro.util.payload)")
    return names


def leaves(payload: Any) -> Tuple[Optional[tuple], tuple]:
    """``(keys, leaves)``: a block set's keys and leaves in dict order, or
    ``(None, (payload,))`` for a leaf or an ndarray."""
    if type(payload) is dict:
        for leaf in payload.values():
            _names(leaf)
        return tuple(payload), tuple(payload.values())
    if not isinstance(payload, np.ndarray):
        _names(payload)
    return None, (payload,)


def arrays(leaf: Any) -> tuple:
    """A leaf's backing arrays in ``ARRAY_NAMES`` order (an ndarray is its own)."""
    if isinstance(leaf, np.ndarray):
        return (leaf,)
    # ``map`` over the bound lookup: no interpreted frame per call.
    return tuple(map(leaf.__getattribute__, _names(leaf)))


def from_leaves(keys: Optional[tuple], items: list) -> Any:
    """Inverse of :func:`leaves`."""
    return items[0] if keys is None else dict(zip(keys, items))


def payload_nbytes(payload: Any) -> int:
    """Serialized size of *payload* in bytes: its arrays' modeled element
    bytes (a :data:`STORED_INDEX` element counts as a :data:`MODELED_INDEX`
    one), plus :data:`FRAMING_BYTES` per leaf, ndarray and block set, plus
    :data:`BLOCK_KEY_NBYTES` per block key."""
    keys, items = leaves(payload)
    nbytes = FRAMING_BYTES * len(items)
    if keys is not None:
        nbytes += FRAMING_BYTES + BLOCK_KEY_NBYTES * len(keys)
    for leaf in items:
        for arr in arrays(leaf):
            if arr.dtype == STORED_INDEX:
                nbytes += arr.size * MODELED_INDEX.itemsize
            else:
                nbytes += arr.nbytes
    return nbytes


def freeze_payload(payload: Any) -> None:
    """Mark every backing array of *payload* read-only (copy-on-write)."""
    if isinstance(payload, np.ndarray):
        payload.setflags(write=False)
        return
    for leaf in payload.values() if type(payload) is dict else (payload,):
        # ``_names`` only to raise: the lookup stays inline on this hot path.
        for name in getattr(type(leaf), "ARRAY_NAMES", None) or _names(leaf):
            getattr(leaf, name).setflags(write=False)


def payload_frozen(payload: Any) -> bool:
    """True when every backing array of *payload* is read-only.

    The corrupted copies :func:`repro.util.checksum.corrupt_payload` makes
    are writable, so the checksum memo, which trusts only frozen payloads,
    never serves a cached hash for them.
    """
    if isinstance(payload, np.ndarray):
        return not payload.flags.writeable
    for leaf in payload.values() if type(payload) is dict else (payload,):
        # ``_names`` only to raise: the lookup stays inline on this hot path.
        for name in getattr(type(leaf), "ARRAY_NAMES", None) or _names(leaf):
            if getattr(leaf, name).flags.writeable:
                return False
    return True
