"""Per-place virtual clocks.

The simulator computes real numerical results but charges *time* on virtual
clocks, one per place, so that timing is deterministic and reflects the
modeled cluster rather than the host laptop.  A bulk-synchronous GML phase
advances the clocks of the participating places independently and then
synchronizes them at the finish join.
"""

from __future__ import annotations

from typing import Dict, Iterable

_INF = float("inf")


class VirtualClock:
    """Tracks one virtual timeline per place id.

    Times are seconds (floats) since runtime start.  New place ids (spares,
    elastic places) start at the current global maximum so a freshly created
    place cannot appear to be "in the past".
    """

    #: False while every timeline has only ever held 0.0 — the class-level
    #: default also covers clocks unpickled from older captures.  Combined
    #: with ``CostModel.is_zero`` this licenses the zero-time fast paths:
    #: if no charge can be nonzero and nothing external (a detector
    #: heartbeat, a service stream arrival) has moved a clock, every
    #: ``now()`` is provably 0.0 and the bookkeeping that shuffles those
    #: zeros around can be skipped wholesale.  Monotone: any nonzero store
    #: flips it permanently.
    _moved = False

    def __init__(self) -> None:
        #: place id -> seconds.  Only the per-task path indexes this itself
        #: (who, and how ``_moved`` stays exact: docs/architecture.md,
        #: "Dispatch"); everything else calls the methods below.  A charge
        #: that bypasses :meth:`advance` keeps its rule: finite, non-negative.
        self._times: Dict[int, float] = {}
        #: Straggler slowdown factors: work charged to these places takes
        #: ``factor`` times longer (message waits are *not* slowed — a slow
        #: node computes slowly but the network still runs at full speed).
        self._slowdown: Dict[int, float] = {}

    def register(self, place_id: int, at_time: float = 0.0) -> None:
        """Start a timeline for *place_id* at *at_time*."""
        if place_id in self._times:
            raise ValueError(f"place {place_id} already registered")
        if at_time:
            self._moved = True
        self._times[place_id] = at_time

    def now(self, place_id: int) -> float:
        """Current virtual time at *place_id*."""
        return self._times[place_id]

    def set_slowdown(self, place_id: int, factor: float) -> None:
        """Mark *place_id* a straggler: its work charges stretch by *factor*."""
        if factor <= 0:
            raise ValueError(f"slowdown factor must be positive, got {factor}")
        if factor == 1.0:
            self._slowdown.pop(place_id, None)
        else:
            self._slowdown[place_id] = factor

    def slowdown(self, place_id: int) -> float:
        """The straggler factor of a place (1.0 = full speed)."""
        return self._slowdown.get(place_id, 1.0)

    def advance(self, place_id: int, seconds: float) -> float:
        """Charge *seconds* of work to *place_id*'s timeline.

        A straggler's charge is stretched by its slowdown factor.
        """
        if seconds == 0.0:
            # Zero-rate cost models charge 0.0 everywhere; adding 0.0 to a
            # non-negative timeline is a bitwise no-op, so skip the store.
            return self._times[place_id]
        if not 0.0 < seconds < _INF:  # negative, NaN or infinite
            kind = "negative" if seconds < 0 else "non-finite"
            raise ValueError(f"cannot advance clock by {kind} time {seconds}")
        if self._slowdown:
            seconds *= self._slowdown.get(place_id, 1.0)
        self._moved = True
        self._times[place_id] += seconds
        return self._times[place_id]

    def set(self, place_id: int, time: float) -> None:
        """Force a timeline to *time* (runtime-internal: used by the finish
        engine to start concurrent tasks from the phase-start time even
        though the interpreter runs them one after another)."""
        if time:
            self._moved = True
        self._times[place_id] = time

    def set_at_least(self, place_id: int, time: float) -> float:
        """Move *place_id* forward to *time* if it is behind (message wait)."""
        if time > self._times[place_id]:
            self._moved = True
            self._times[place_id] = time
        return self._times[place_id]

    def barrier(self, place_ids: Iterable[int]) -> float:
        """Synchronize the given places to their common maximum time."""
        ids = list(place_ids)
        if not ids:
            return 0.0
        t = max(self._times[i] for i in ids)
        if t:
            self._moved = True
        for i in ids:
            self._times[i] = t
        return t

    def global_time(self) -> float:
        """Maximum time across all registered places."""
        return max(self._times.values()) if self._times else 0.0

    def snapshot(self) -> Dict[int, float]:
        """Copy of all timelines (for assertions in tests)."""
        return dict(self._times)

    def __contains__(self, place_id: int) -> bool:
        return place_id in self._times

    def __repr__(self) -> str:
        return f"VirtualClock({self._times})"
