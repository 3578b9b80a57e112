"""Mutation-version tokens and copy-on-write payload freezing.

Delta checkpointing needs a cheap answer to "has this partition changed
since the last committed snapshot?".  Every mutating method of the
single-place numeric classes stamps its object with a fresh token from
:func:`next_version`; a snapshot records the token it saw at save time and
a later save compares tokens instead of bytes.

Tokens come from one *global* monotonic counter, never per-object counters:
a freshly constructed object (e.g. after ``remake()`` + restore) can then
never collide with a token recorded from a previous incarnation, so token
equality is a sound "unchanged" test.  Tokens are compared for equality
only — their ordering carries no meaning across objects.

:func:`freeze_payload` is the copy-on-write half: snapshot payload arrays
are marked read-only (``ndarray.setflags(write=False)``), so the snapshot
may share arrays with the live object.  The live classes' ``touch()``
methods replace a frozen backing array with a private writable copy before
mutating — the deep copy is deferred to the first mutation, and skipped
entirely for partitions that stay clean (generated inputs and restores
follow the same rule: ``docs/architecture.md``, "Payload ownership").
"""

from __future__ import annotations

import itertools
from typing import Any

import numpy as np

_version_counter = itertools.count(1)

#: ``next_version()`` — a globally unique, monotonically increasing mutation
#: token.  The counter's own C-level ``__next__``: every ``touch()``,
#: ``adopt()`` and ``freeze_view()`` takes one, so a token costs no Python
#: frame.  There is exactly one counter object for the life of the process
#: (:func:`ensure_version_floor` fast-forwards it, never replaces it), so a
#: ``from ... import next_version`` can never go stale.
next_version = _version_counter.__next__


def ensure_version_floor(floor: int) -> None:
    """Advance the global counter to at least *floor*.

    A simulator image captured in one process may be resumed in another
    whose counter lags it (a ``spawn`` pool worker starts from 1).  A fresh
    token colliding with a token recorded inside the image would break the
    "equal tokens imply equal bytes" contract, so every resume first lifts
    the counter past the highest token the image could contain.  Burns one
    token to read the current position — uniqueness is unaffected — and
    consumes the gap, if any, from the same counter at C speed.
    """
    gap = floor - next_version() - 1
    if gap > 0:
        next(itertools.islice(_version_counter, gap, gap), None)


def version_token(payload: Any) -> Any:
    """The current mutation token of *payload*, or ``None`` if untracked.

    Single-place numerics expose a ``version`` attribute; containers
    (``BlockSet``) expose a ``version_token()`` method; snapshot payload
    dicts tokenize per entry.  Anything else is untracked and always
    treated as dirty.
    """
    token = getattr(payload, "version", None)
    if token is not None:
        return token
    fn = getattr(payload, "version_token", None)
    if callable(fn):
        return fn()
    if isinstance(payload, dict):
        return tuple((key, version_token(value)) for key, value in sorted(payload.items()))
    return None


def freeze_payload(payload: Any) -> None:
    """Mark every backing array of a snapshot payload read-only (CoW)."""
    if isinstance(payload, np.ndarray):
        payload.setflags(write=False)
        return
    if isinstance(payload, dict):
        for value in payload.values():
            freeze_payload(value)
        return
    if isinstance(payload, (list, tuple, set, frozenset)):
        for value in payload:
            freeze_payload(value)
        return
    arrays = getattr(payload, "payload_arrays", None)
    if callable(arrays):
        for arr in arrays():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)


def payload_frozen(payload: Any) -> bool:
    """True when every backing array of *payload* is read-only.

    Scalars and strings are immutable, hence trivially frozen.  A payload
    with any writable array is not frozen — in particular the corrupted
    copies :func:`repro.util.checksum.corrupt_payload` produces, whose
    arrays are fresh writable copies; the checksum memo keys off this to
    never trust a cached hash for a copy that could have changed.
    """
    if isinstance(payload, np.ndarray):
        return not payload.flags.writeable
    if isinstance(payload, dict):
        return all(payload_frozen(value) for value in payload.values())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return all(payload_frozen(value) for value in payload)
    arrays = getattr(payload, "payload_arrays", None)
    if callable(arrays):
        return all(
            not arr.flags.writeable
            for arr in arrays()
            if isinstance(arr, np.ndarray)
        )
    return True
