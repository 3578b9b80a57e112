"""Estimate the on-the-wire size of payloads moved between places.

The virtual-time cost model charges communication by byte volume.  Payloads
in this reproduction are NumPy arrays, the single-place matrix classes, and
small containers of those; this module computes their serialized size the
way the X10 sockets transport would (raw element bytes plus small framing).
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: Fixed framing overhead per serialized object (message header, type tag).
FRAMING_BYTES = 64


def payload_nbytes(obj: Any) -> int:
    """Return the estimated serialized size of *obj* in bytes.

    Supports ``None``, numbers, strings, NumPy arrays, and (possibly nested)
    lists / tuples / dicts of those, plus any object exposing a ``nbytes``
    attribute or ``payload_nbytes()`` method (the single-place matrix
    classes do).
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + FRAMING_BYTES
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode("utf-8")) + FRAMING_BYTES
    if isinstance(obj, (list, tuple, set, frozenset)):
        return FRAMING_BYTES + sum(payload_nbytes(item) for item in obj)
    if isinstance(obj, dict):
        return FRAMING_BYTES + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    method = getattr(obj, "payload_nbytes", None)
    if callable(method):
        return int(method()) + FRAMING_BYTES
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes) + FRAMING_BYTES
    raise TypeError(f"cannot size payload of type {type(obj).__name__}")
