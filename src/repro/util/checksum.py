"""Payload checksums and corruption for verified snapshot integrity.

Snapshot replicas are only trustworthy if they can be *verified* before a
restore reads them (ReStore, arXiv:2203.01107, makes the same argument for
in-memory recovery data).  :func:`payload_checksum` computes a structural
CRC-32 over the payload shapes :mod:`repro.util.payload` defines — a leaf
(tagged with its class name, then its arrays), a block set (its size, then
per block the ``(rb, cb)`` key and the leaf) or a bare ndarray; each array
is tagged with its dtype and shape before its bytes, a stored ``int32``
index array widened to ``int64`` first (:mod:`repro.util.payload`'s
modeled width).  The checksum is
recorded at save time and re-computed at locate/restore time; a mismatch
marks the copy corrupt.

:func:`corrupt_payload` is the matching fault injector: it returns a
*corrupted copy* of a payload (the original object is never mutated, so
other replicas holding the same reference stay clean) with at least one bit
flipped, guaranteed to change the checksum of a payload whose first leaf
holds bytes.
"""

from __future__ import annotations

import copy
import zlib
from collections import OrderedDict
from typing import Any, Optional

import numpy as np

from repro.util.payload import (
    MODELED_INDEX,
    STORED_INDEX,
    arrays,
    from_leaves,
    leaves,
    payload_frozen,
)


def _leaf_crc(crc: int, leaf: Any) -> int:
    if not isinstance(leaf, np.ndarray):
        crc = zlib.crc32(b"\x00O" + type(leaf).__name__.encode(), crc)
    for arr in arrays(leaf):
        if arr.dtype == STORED_INDEX:
            arr = arr.astype(MODELED_INDEX)
        crc = zlib.crc32(b"\x00A" + arr.dtype.str.encode() + repr(arr.shape).encode(), crc)
        # Feed the buffer directly — tobytes() would copy the whole array.
        contiguous = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
        crc = zlib.crc32(contiguous.data, crc)
    return crc


def payload_checksum(obj: Any) -> int:
    """Structural CRC-32 of a snapshot payload (type- and shape-tagged)."""
    keys, items = leaves(obj)
    if keys is None:
        return _leaf_crc(0, items[0])
    crc = zlib.crc32(b"\x00D%d" % len(keys))
    for (rb, cb), leaf in zip(keys, items):
        # A key is tagged as a 2-tuple of two ints, the bytes every block-set
        # CRC has been computed over (tests/resilience/test_payload_format.py).
        crc = _leaf_crc(zlib.crc32(b"\x00L2\x00I%d\x00I%d" % (rb, cb), crc), leaf)
    return crc


_CRC_MEMO_CAPACITY = 4096
_crc_memo: "OrderedDict[Any, int]" = OrderedDict()


def memoized_checksum(obj: Any, token: Optional[Any]) -> int:
    """CRC-32 of *obj*, memoized by its mutation-version *token*.

    A token (from :mod:`repro.util.versioning`) identifies one immutable
    byte state: tokens are globally unique and a new one is minted on every
    mutation, so equal tokens imply equal bytes.  The memo is consulted
    only when the payload is fully frozen (read-only backing arrays) —
    a writable payload could have been modified *without* a token bump
    (e.g. the corrupted copies the fault injector plants), so its hash is
    always recomputed.  Capacity-bounded LRU; misses fall through to
    :func:`payload_checksum`.
    """
    if token is None or not payload_frozen(obj):
        return payload_checksum(obj)
    cached = _crc_memo.get(token)
    if cached is not None:
        _crc_memo.move_to_end(token)
        return cached
    crc = payload_checksum(obj)
    _crc_memo[token] = crc
    while len(_crc_memo) > _CRC_MEMO_CAPACITY:
        _crc_memo.popitem(last=False)
    return crc


def _corrupt_leaf(leaf: Any) -> Any:
    """A copy of *leaf* with every bit of its first byte flipped (a plain
    copy if it holds no bytes)."""
    # A leaf is deep-copied, not copied through its ``copy()``: a validating
    # constructor would reject a source that is itself already corrupt (a
    # copy can be struck twice).
    out = leaf.copy() if isinstance(leaf, np.ndarray) else copy.deepcopy(leaf)
    for arr in arrays(out):
        if arr.size:
            arr.reshape(-1).view(np.uint8)[0] ^= 0xFF
            break
    return out


def corrupt_payload(obj: Any) -> Any:
    """Return a corrupted *copy* of a payload (original left untouched).

    At least one bit is flipped in the first non-empty array of the first
    leaf, so :func:`payload_checksum` of the result differs from the
    original's unless that leaf holds no bytes (an empty array, an empty
    block set): then the result is a plain copy.
    """
    keys, items = leaves(obj)
    if not items:
        return {}
    return from_leaves(keys, (_corrupt_leaf(items[0]),) + items[1:])
