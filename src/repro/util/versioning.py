"""Mutation-version tokens.

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

The copy-on-write half — freezing a snapshot payload's arrays so the live
object's ``touch()`` copies them out before writing — is
:func:`repro.util.payload.freeze_payload`.
"""

from __future__ import annotations

import itertools

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
