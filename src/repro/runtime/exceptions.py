"""Exception types mirroring Resilient X10's failure surface.

Resilient X10 turns the death of a place into a ``DeadPlaceException``
delivered at the enclosing ``finish``; multiple simultaneous failures are
aggregated.  Place zero is immortal by assumption — its death aborts the
whole run — and losing both copies of a snapshot partition is unrecoverable
data loss.
"""

from __future__ import annotations

from typing import List, Sequence


class RuntimeFault(Exception):
    """Base class for all simulator faults."""


class DeadPlaceException(RuntimeFault):
    """A task touched (or was to be spawned on) a dead place.

    Mirrors ``x10.lang.DeadPlaceException``: raised at the enclosing finish
    after all surviving tasks have terminated.
    """

    def __init__(self, place_id: int, message: str = ""):
        self.place_id = place_id
        super().__init__(message or f"place {place_id} is dead")

    @property
    def places(self) -> List[int]:
        """Uniform accessor shared with :class:`MultipleException`."""
        return [self.place_id]


class CommTimeoutError(DeadPlaceException):
    """A message to a place exhausted its retransmission budget.

    Subclasses :class:`DeadPlaceException` deliberately: to the enclosing
    finish, an *unreachable* place is indistinguishable from a dead one —
    only the failure detector, consulted afterwards by the executor, can
    tell a crash from a transient partition or a lossy link.  Carries the
    number of retransmissions attempted before giving up.
    """

    def __init__(self, place_id: int, retries: int = 0):
        self.retries = retries
        super().__init__(
            place_id,
            f"place {place_id} unreachable (no acknowledgement after "
            f"{retries} retransmissions)",
        )


class MultipleException(RuntimeFault):
    """Several tasks of one finish failed (e.g. several places died).

    Mirrors ``x10.lang.MultipleExceptions``; carries the individual
    exceptions so handlers can extract every dead place.
    """

    def __init__(self, exceptions: Sequence[Exception]):
        self.exceptions = list(exceptions)
        super().__init__(f"{len(self.exceptions)} tasks failed: {self.exceptions!r}")

    @property
    def places(self) -> List[int]:
        """Ids of all dead places named by the aggregated exceptions."""
        ids: List[int] = []
        for exc in self.exceptions:
            if isinstance(exc, (DeadPlaceException, MultipleException)):
                ids.extend(exc.places)
        return sorted(set(ids))

    def flattened(self) -> List[Exception]:
        """All leaf exceptions, with nested ``MultipleException`` expanded.

        X10 nests ``MultipleExceptions`` when finishes nest; handlers want
        the flat list of underlying faults regardless of aggregation depth.
        Non-place exceptions (application errors raised inside tasks) are
        preserved in order.
        """
        leaves: List[Exception] = []
        for exc in self.exceptions:
            if isinstance(exc, MultipleException):
                leaves.extend(exc.flattened())
            else:
                leaves.append(exc)
        return leaves


def collapse_failures(failures: Sequence[Exception]) -> Exception:
    """Aggregate task failures the way a finish surfaces them.

    A single failure is raised as itself (no pointless wrapper); several
    are flattened into one :class:`MultipleException` — nested multiples
    from inner finishes are expanded so the result is always one level
    deep.  Raises ``ValueError`` on an empty sequence (a finish with no
    failures has nothing to surface).
    """
    flat: List[Exception] = []
    for exc in failures:
        if isinstance(exc, MultipleException):
            flat.extend(exc.flattened())
        else:
            flat.append(exc)
    if not flat:
        raise ValueError("collapse_failures() needs at least one failure")
    if len(flat) == 1:
        return flat[0]
    return MultipleException(flat)


class PlaceZeroDeadError(RuntimeFault):
    """Place zero died: the whole application fails (X10 assumption)."""

    def __init__(self) -> None:
        super().__init__("place 0 died: resilient X10 cannot survive place zero")


class DataLossError(RuntimeFault):
    """Both the primary and the backup copy of a snapshot entry are gone.

    Happens when two *adjacent* places in a snapshot's place group die
    between a checkpoint and the restore — the double in-memory store only
    protects against non-adjacent failures.
    """


class SnapshotCorruptionError(DataLossError):
    """A snapshot partition was lost to *corruption* rather than crashes.

    Raised only when corruption is unrecoverable — every surviving tier of
    a partition failed checksum verification and was quarantined.  A
    corrupt copy with a clean copy behind it is quarantined silently and
    recovery falls through to the next tier.  Subclasses
    :class:`DataLossError`: to the recovery ladder the partition is gone
    either way, but the type distinguishes "places died" from "bits
    rotted" for reports and campaigns.
    """


class SpareExhaustedError(RuntimeFault):
    """Replace-redundant restoration requested more spare places than remain."""
