"""Contended resources: serial servers with a busy-until frontier.

Every shared piece of hardware the cost story depends on — a place's
communication server, a node's NIC direction, the serialized place-zero
bookkeeping ledger, the stable-storage disk — is one :class:`Resource`: a
single server that serves requests in arrival order.  A request made at
``t_request`` starts when both the requester is ready *and* the server is
free, runs for ``duration`` seconds, and pushes the server's frontier
forward.  This is the classic busy-until discrete-event server; the
simulator's sequential interpreter order is the arrival order.

A :class:`DuplexLink` couples two resources (a transmit side and a receive
side) so a transfer occupies both for its duration — the full-duplex
point-to-point and shared-NIC models of the runtime.

Resources attached to a place can be :meth:`~Resource.retire`-d when the
place dies; scheduling work on a retired resource raises
``DeadPlaceException`` — the engine-level guard against charging time to
hardware that no longer exists.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.runtime.exceptions import DeadPlaceException

#: Signature of the optional acquisition hook: (resource, t_request, start, done).
AcquireHook = Callable[["Resource", float, float, float], None]


class Resource:
    """A serial server: one request at a time, FIFO in arrival order.

    Parameters
    ----------
    key:
        Hashable identity of the resource (e.g. ``("tx", 3)`` or
        ``("ledger",)``); also its display name in event logs.
    owner:
        The place id this resource belongs to, if any.  Used by the
        dead-place guard: acquiring a retired resource raises
        ``DeadPlaceException(owner)``.
    """

    __slots__ = ("key", "owner", "free_at", "retired", "on_acquire")

    def __init__(self, key: Any, owner: Optional[int] = None):
        self.key = key
        self.owner = owner
        #: Virtual time until which the server is busy (the frontier).
        self.free_at = 0.0
        #: True once the owning place died; acquisition then raises.
        self.retired = False
        #: Optional hook invoked after every acquisition (event recording).
        self.on_acquire: Optional[AcquireHook] = None

    def check_live(self) -> None:
        """Raise ``DeadPlaceException`` if this resource has been retired."""
        if self.retired:
            raise DeadPlaceException(
                self.owner if self.owner is not None else -1
            )

    def acquire(self, t_request: float, duration: float) -> float:
        """Serve one request; returns its completion time.

        The request starts at ``max(free_at, t_request)`` and occupies the
        server for *duration* seconds.
        """
        if self.retired:
            self.check_live()
        start = self.free_at
        if t_request > start:
            start = t_request
        done = start + duration
        self.free_at = done
        if self.on_acquire is not None:
            self.on_acquire(self, t_request, start, done)
        return done

    def retire(self) -> None:
        """Mark the owning place dead; further acquisitions raise."""
        self.retired = True

    def __repr__(self) -> str:
        state = "retired" if self.retired else f"free_at={self.free_at:.6f}"
        return f"Resource({self.key!r}, {state})"


class DuplexLink:
    """Two coupled resources occupied together for a transfer's duration.

    Models a full-duplex channel: the sender's transmit side and the
    receiver's receive side are both busy for the whole transfer, so a
    node's outbound traffic serializes per direction while inbound traffic
    flows independently.
    """

    __slots__ = ("tx", "rx")

    def __init__(self, tx: Resource, rx: Resource):
        self.tx = tx
        self.rx = rx

    def acquire(self, t_request: float, duration: float) -> float:
        """Occupy both ends; returns the transfer's completion time."""
        tx, rx = self.tx, self.rx
        if tx.retired:
            tx.check_live()
        if rx.retired:
            rx.check_live()
        start = tx.free_at
        if rx.free_at > start:
            start = rx.free_at
        if t_request > start:
            start = t_request
        done = start + duration
        tx.free_at = done
        rx.free_at = done
        if tx.on_acquire is not None:
            tx.on_acquire(tx, t_request, start, done)
        if rx.on_acquire is not None:
            rx.on_acquire(rx, t_request, start, done)
        return done

    def __repr__(self) -> str:
        return f"DuplexLink(tx={self.tx.key!r}, rx={self.rx.key!r})"
