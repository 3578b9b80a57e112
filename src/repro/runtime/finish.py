"""Resilient finish bookkeeping: the place-zero ledger.

Resilient X10 implements failure-aware ``finish`` by routing task lifecycle
events (spawn and termination) through place zero, which serializes their
processing.  The paper identifies this as the dominant resilience cost and
as "a scalability bottleneck for place-zero-based resilient finish".

:class:`PlaceZeroLedger` models exactly that mechanism: events arrive with
timestamps; a single engine :class:`~repro.engine.resource.Resource`
(rate-limited at ``ledger_event_time`` per event) processes them in arrival
order; a resilient finish cannot complete before the ledger has processed
all of its events.  Because the server runs *concurrently* with the tasks,
bookkeeping for long-running tasks largely hides under the computation —
which is why the paper measures < 5 % overhead for PageRank (few finishes,
long tasks) but ~120 % for LinReg (many short finishes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine loads later)
    from repro.engine.resource import Resource


class PlaceZeroLedger:
    """Serialized bookkeeping server co-located with place zero.

    The ledger has its own timeline (Resilient X10 services bookkeeping
    messages on runtime-internal threads, concurrently with user tasks):
    an engine :class:`~repro.engine.resource.Resource` whose busy-until
    frontier is the time all recorded events have been processed.  The
    runtime passes its scheduler's ledger resource so the events appear in
    the engine's typed event log.
    """

    def __init__(self, event_time: float, resource: "Resource"):
        self.event_time = event_time
        self.resource = resource

    def process(self, arrival_times: List[float]) -> float:
        """Serially process events arriving at the given times.

        Returns the time at which the *last* of these events has been
        processed, which is the earliest time the owning finish may
        terminate.  Events are processed in arrival order; the server may
        already be busy with earlier events (from this or other finishes).

        The drain is one pass over the sorted arrivals, bit-exact to one
        ``Resource.acquire`` per arrival: the frontier advances through the
        identical float operations (zero-cost models collapse it to a max).
        With an ``on_acquire`` hook installed (tracing) it does call
        ``acquire`` per arrival, so the hook sees every event.
        """
        resource = self.resource
        if not arrival_times:
            return resource.free_at
        if resource.retired:
            resource.check_live()
        dt = self.event_time
        if resource.on_acquire is not None:
            done = resource.free_at
            for t in sorted(arrival_times):
                done = resource.acquire(t, dt)
        elif dt == 0.0:
            top = max(arrival_times)
            if top > resource.free_at:
                resource.free_at = top
            done = resource.free_at
        else:
            done = resource.free_at
            for t in sorted(arrival_times):
                if t > done:
                    done = t
                done += dt
            resource.free_at = done
        return done
