"""Heartbeat / φ-accrual failure detection in virtual time.

Resilient X10 (and the paper's framework on top of it) assumes an *oracle*
failure model: a dead place is known dead instantly, and nothing else ever
looks dead.  Real deployments detect failures with timeouts over unreliable
links — the layer the GASPI fault-tolerance work (arXiv:1505.04628) builds
explicitly — which means detection is *imperfect*: slow places and lossy
links look like crashes, and crashes take a detection timeout to notice.

:class:`PhiAccrualDetector` reproduces that layer on the discrete-event
engine:

* every monitored place emits a heartbeat to place zero each
  ``heartbeat_interval`` of virtual time; heartbeats ride the engine's real
  communication resources (place zero's communication server absorbs them,
  so detector traffic contends with application traffic) and are subject to
  the runtime's :class:`~repro.runtime.failure.TransientFaultModel` — drops
  and partitions eat heartbeats exactly like they eat data messages;
* a straggler (clock slowdown factor *s*) emits heartbeats *s* times less
  often — the starved-process signature that tricks naive timeout
  detectors;
* suspicion is the φ-accrual level of Hayashibara et al.: with an
  exponential inter-arrival model, ``φ(Δ) = Δ / (μ · ln 10)`` where μ is
  the EWMA of observed inter-arrival times.  Because μ *adapts*, a steady
  8× straggler re-trains the detector (μ → 8 · interval) and never crosses
  the confirmation threshold, while a truly dead place's φ grows without
  bound;
* the state ladder is ``ALIVE → SUSPECTED → CONFIRMED_DEAD``:  SUSPECTED
  (φ ≥ ``PHI_SUSPECT``) means *wait and retry*; CONFIRMED_DEAD (gap ≥
  ``detect_timeout`` in φ terms) means *evict and restore*.  Confirmation
  is sticky — a confirmed place is fenced even if it was a false positive,
  because the group must converge on one membership view.

The detector is lazy: heartbeat arrivals are reconstructed on demand when a
place is polled, so an idle detector costs nothing.  Everything is
deterministic in (seed, schedule): heartbeat losses are hash-drawn per
``(place, seq)``.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.engine.timeline import ServiceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import Runtime

LN10 = math.log(10.0)

#: Payload bytes of one heartbeat message (sequence number + health bits).
HEARTBEAT_NBYTES = 64.0

#: At most this many heartbeat arrivals are materialized per place per
#: poll; older ones are fast-forwarded (they can no longer change φ, which
#: only depends on the recent inter-arrival window).
_MAX_BEATS_PER_POLL = 64

#: φ level at which a place becomes SUSPECTED (the gap is ~2.3× the
#: learned mean inter-arrival).
PHI_SUSPECT = 1.0

#: Weight of the newest inter-arrival gap in the learned mean.
EWMA_ALPHA = 0.2

#: :meth:`PhiAccrualDetector.resolve` waits at most this many
#: ``detect_timeout``\ s for a verdict before fail-safe confirming the
#: remaining suspects.
RESOLVE_WAIT_TIMEOUTS = 2.0


class PlaceHealth(Enum):
    """The detector's view of one monitored place."""

    ALIVE = "alive"
    SUSPECTED = "suspected"
    CONFIRMED_DEAD = "confirmed-dead"


class PhiAccrualDetector:
    """φ-accrual heartbeat detector over the runtime's virtual time.

    Parameters
    ----------
    runtime:
        The runtime to monitor (attach with ``runtime.attach_detector``).
    detect_timeout:
        Heartbeat gap, in virtual seconds, at which a *healthy-history*
        place is confirmed dead.  The paper-facing knob (CLI
        ``--detect-timeout``).
    heartbeat_interval:
        Emission period; defaults to ``detect_timeout / 10``.
    places:
        Restrict monitoring to these place ids (a lease's members, minus
        its driver).  Default: every place except the runtime driver — the
        classic single-job scope.
    start_time:
        Virtual time monitoring begins (a job admitted at time *T* only
        expects heartbeats from *T* on).
    """

    def __init__(
        self,
        runtime: "Runtime",
        detect_timeout: float = 1.0,
        heartbeat_interval: Optional[float] = None,
        places: Optional[Sequence[int]] = None,
        start_time: float = 0.0,
    ):
        if detect_timeout <= 0:
            raise ValueError("detect_timeout must be positive")
        if heartbeat_interval is None:
            heartbeat_interval = detect_timeout / 10.0
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        self.runtime = runtime
        self.detect_timeout = detect_timeout
        self.heartbeat_interval = heartbeat_interval
        #: φ at which a healthy-history place (μ ≈ interval) has been
        #: silent for ``detect_timeout``.
        self.phi_confirm = detect_timeout / (heartbeat_interval * LN10)
        #: Confirmations already reported through :meth:`sweep`.
        self._reported: set = set()
        self._last: Dict[int, float] = {}
        self._mean: Dict[int, float] = {}
        self._next_seq: Dict[int, int] = {}
        self._state: Dict[int, PlaceHealth] = {}
        if places is None:
            places = [
                pid
                for pid in sorted(runtime.all_place_ids())
                if pid != runtime.DRIVER_ID
            ]
        for place_id in sorted(places):
            self.monitor(place_id, from_time=start_time)

    # -- membership ----------------------------------------------------------

    def monitor(self, place_id: int, from_time: float = 0.0) -> None:
        """Start monitoring a place (registration counts as heartbeat 0)."""
        if place_id in self._state:
            return
        self._last[place_id] = from_time
        self._mean[place_id] = self.heartbeat_interval * self.runtime.clock.slowdown(
            place_id
        )
        self._next_seq[place_id] = 1
        self._state[place_id] = PlaceHealth.ALIVE

    def forget(self, place_id: int) -> None:
        """Drop all knowledge of a place (repair re-registers it fresh).

        A revived place is a new process: its old heartbeat history, its
        confirmed-dead verdict and its reported mark are all stale, and
        keeping any of them would make :meth:`monitor` a no-op or condemn
        the fresh incarnation instantly.
        """
        self._state.pop(place_id, None)
        self._last.pop(place_id, None)
        self._mean.pop(place_id, None)
        self._next_seq.pop(place_id, None)
        self._reported.discard(place_id)

    def monitored(self) -> List[int]:
        return sorted(self._state)

    # -- heartbeat reconstruction --------------------------------------------

    def _effective_interval(self, place_id: int) -> float:
        return self.heartbeat_interval * self.runtime.clock.slowdown(place_id)

    def _advance(self, place_id: int, now: float) -> None:
        """Materialize heartbeat arrivals of a place up to time *now*."""
        rt = self.runtime
        interval = self._effective_interval(place_id)
        death = rt.death_time(place_id)
        seq = self._next_seq[place_id]
        # Fast-forward far-past heartbeats: only the last window of beats
        # can still influence φ at *now*.
        horizon = now - _MAX_BEATS_PER_POLL * interval
        if seq * interval < horizon:
            skipped_to = max(seq, int(horizon / interval))
            if death is None or skipped_to * interval <= death:
                seq = skipped_to
        faults = rt.faults
        latency = rt.cost.latency
        server = rt.engine.resource(("srv", rt.DRIVER_ID))
        while True:
            t_emit = seq * interval
            if t_emit > now:
                break
            if death is not None and t_emit > death:
                # The place stopped heartbeating when it died.
                seq += 1
                continue
            if faults is not None and faults.heartbeat_lost(place_id, seq, t_emit):
                seq += 1
                continue
            arrival = t_emit + latency
            # The heartbeat occupies place zero's communication server
            # (contending with real transfers) without blocking its clock.
            server.acquire(arrival, rt.cost.message(HEARTBEAT_NBYTES))
            gap = arrival - self._last[place_id]
            if gap > 0:
                self._mean[place_id] += EWMA_ALPHA * (gap - self._mean[place_id])
                self._last[place_id] = arrival
            seq += 1
        self._next_seq[place_id] = seq

    # -- suspicion -----------------------------------------------------------

    def phi(self, place_id: int, now: Optional[float] = None) -> float:
        """Current φ suspicion level of a place (0 = just heard from it)."""
        rt = self.runtime
        if now is None:
            now = rt.clock.now(rt.DRIVER_ID)
        self._advance(place_id, now)
        gap = now - self._last[place_id]
        if gap <= 0:
            return 0.0
        return gap / (max(self._mean[place_id], 1e-12) * LN10)

    def state(self, place_id: int, now: Optional[float] = None) -> PlaceHealth:
        """The suspicion ladder state of a place at time *now* (sticky
        once CONFIRMED_DEAD — membership decisions are never unwound)."""
        current = self._state[place_id]
        if current is PlaceHealth.CONFIRMED_DEAD:
            return current
        phi = self.phi(place_id, now)
        if phi >= self.phi_confirm:
            state = PlaceHealth.CONFIRMED_DEAD
        elif phi >= PHI_SUSPECT:
            state = PlaceHealth.SUSPECTED
        else:
            state = PlaceHealth.ALIVE
        self._state[place_id] = state
        return state

    def suspicion_levels(self, now: Optional[float] = None) -> Dict[int, float]:
        """``{place id: φ}`` snapshot across all monitored places."""
        return {pid: self.phi(pid, now) for pid in self.monitored()}

    # -- the executor-facing ladder -------------------------------------------

    def sweep(self, now: Optional[float] = None) -> List[int]:
        """Newly CONFIRMED_DEAD places (each reported exactly once).

        The executor polls this between iterations so confirmations that
        fire *without* a failed message (e.g. a partition that silently eats
        heartbeats) still trigger eviction and recovery.
        """
        fresh = []
        for pid in self.monitored():
            if pid in self._reported:
                continue
            if self.state(pid, now) is PlaceHealth.CONFIRMED_DEAD:
                self._reported.add(pid)
                fresh.append(pid)
        return fresh

    def resolve(
        self, place_ids: Sequence[int]
    ) -> Tuple[List[int], List[int], float]:
        """Decide the fate of suspects after a failed communication.

        Waits in *virtual* time (advancing the driver's clock in heartbeat
        intervals — the wait-and-retry rung of the ladder) until every
        place in *place_ids* is either CONFIRMED_DEAD or demonstrably alive
        (a fresh heartbeat arrived after the incident).  Suspects still
        undecided after ``RESOLVE_WAIT_TIMEOUTS`` detection timeouts are
        fail-safe confirmed: the group fences them and moves on rather than
        hanging forever.  A wait that moved the clock is one ``"detector"``
        :class:`~repro.engine.timeline.ServiceEvent` on the timeline.

        Returns ``(confirmed_dead, cleared_alive, waited_seconds)``.
        """
        rt = self.runtime
        driver = rt.DRIVER_ID
        pending = [p for p in place_ids if p in self._state]
        # Unmonitored suspects — place zero (the observer cannot suspect
        # itself; it is immortal by X10 assumption) — are vacuously alive.
        cleared = [p for p in place_ids if p not in self._state]
        confirmed: List[int] = []
        t_incident = rt.clock.now(driver)
        deadline = t_incident + RESOLVE_WAIT_TIMEOUTS * self.detect_timeout
        while pending:
            now = rt.clock.now(driver)
            still: List[int] = []
            for pid in pending:
                verdict = self.state(pid, now)
                if verdict is PlaceHealth.CONFIRMED_DEAD:
                    self._reported.add(pid)
                    confirmed.append(pid)
                elif (
                    verdict is PlaceHealth.ALIVE
                    and self._last[pid] > t_incident
                ):
                    cleared.append(pid)
                else:
                    still.append(pid)
            pending = still
            if not pending:
                break
            if now >= deadline:
                # Fail-safe: fence the undecided rather than hang.
                for pid in pending:
                    self._state[pid] = PlaceHealth.CONFIRMED_DEAD
                    self._reported.add(pid)
                    confirmed.append(pid)
                break
            rt.clock.advance(driver, self.heartbeat_interval)
        t_verdict = rt.clock.now(driver)
        if t_verdict > t_incident:
            rt.engine.timeline.record(ServiceEvent(t_incident, t_verdict, resource="detector"))
        return sorted(confirmed), sorted(cleared), t_verdict - t_incident

    def __repr__(self) -> str:
        states = {pid: self._state[pid].value for pid in self.monitored()}
        return (
            f"PhiAccrualDetector(interval={self.heartbeat_interval:g}, "
            f"timeout={self.detect_timeout:g}, states={states})"
        )
