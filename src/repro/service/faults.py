"""Seeded fault plans for a multi-tenant service run.

Two layers of failure, mirroring what a shared cluster actually sees:

* **per-job crashes** — independent fail-stop kills scripted against one
  tenant's lease (an iteration kill, a kill inside a checkpoint, ...);
  these must never leak outside the lease;
* **pool-level correlated events** — adjacent-pair and rack bursts that
  strike contiguous *physical* ids at an absolute virtual time, blind to
  lease boundaries.  An event may legally straddle leases; the service
  folds the victims each running tenant owns into that tenant's scoped
  injector and kills unleased victims directly.

Everything is a pure function of ``(seed, knobs)``: re-running a campaign
reproduces the exact same kill schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.runtime.failure import ScriptedKill
from repro.runtime.pool import PlaceLease
from repro.service.jobs import JobSpec

#: Places per rack: a rack burst kills the live ids of one aligned run of
#: this many physical ids.
RACK_SIZE = 4


@dataclass(frozen=True)
class PoolFaultEvent:
    """One correlated burst against physical pool ids."""

    time: float
    kind: str  # "pair" | "rack"
    victims: Tuple[int, ...]


class ServiceFaultPlan:
    """The complete, seeded fault schedule of one service run.

    Its knobs are a :class:`~repro.service.ServiceConfig`'s, judged once when
    the config was made; the plan does not judge them again."""

    def __init__(
        self,
        seed: int,
        total_places: int,
        horizon: float,
        crash_rate: float = 0.0,
        pair_rate: float = 0.0,
        rack_rate: float = 0.0,
    ):
        self.seed = seed
        self.total_places = total_places
        self.horizon = horizon
        self.crash_rate = crash_rate
        self._events = self._generate_pool_events(pair_rate, rack_rate)

    # -- pool-level correlated events --------------------------------------

    def _generate_pool_events(self, pair_rate: float, rack_rate: float) -> List[PoolFaultEvent]:
        events: List[PoolFaultEvent] = []
        ids = list(range(1, self.total_places))  # place 0 is immortal
        if len(ids) >= 2 and pair_rate > 0:
            rng = np.random.default_rng([self.seed, 101])
            t = 0.0
            while True:
                t += float(rng.exponential(1.0 / pair_rate))
                if t >= self.horizon:
                    break
                left = int(rng.choice(ids[:-1]))
                events.append(
                    PoolFaultEvent(time=t, kind="pair", victims=(left, left + 1))
                )
        if ids and rack_rate > 0:
            rng = np.random.default_rng([self.seed, 103])
            n_racks = (self.total_places + RACK_SIZE - 1) // RACK_SIZE
            t = 0.0
            while True:
                t += float(rng.exponential(1.0 / rack_rate))
                if t >= self.horizon:
                    break
                rack = int(rng.integers(n_racks))
                victims = tuple(
                    pid
                    for pid in range(rack * RACK_SIZE, (rack + 1) * RACK_SIZE)
                    if 1 <= pid < self.total_places
                )
                if victims:
                    events.append(
                        PoolFaultEvent(time=t, kind="rack", victims=victims)
                    )
        events.sort(key=lambda e: (e.time, e.kind, e.victims))
        return events

    @property
    def pool_events(self) -> List[PoolFaultEvent]:
        return list(self._events)

    # -- per-job crash schedules -------------------------------------------

    def kills_for_job(self, job: JobSpec, lease: PlaceLease) -> List[ScriptedKill]:
        """Independent fail-stop kills scripted against *job*'s lease.

        Deterministic in ``(plan seed, job id)``; victims are lease
        members, never the lease driver.
        """
        rng = np.random.default_rng([self.seed, 11, job.job_id])
        if rng.random() >= self.crash_rate:
            return []
        candidates = sorted(lease.member_ids - {lease.driver.id})
        if not candidates:
            return []
        kills: List[ScriptedKill] = []
        victim = int(rng.choice(candidates))
        kind = rng.random()
        if kind < 0.55:
            kills.append(
                ScriptedKill(
                    place_id=victim,
                    # Executor polls iterations 0..n-1; stay inside that.
                    iteration=int(rng.integers(1, job.iterations)),
                )
            )
        elif kind < 0.8:
            kills.append(
                ScriptedKill(place_id=victim, during="checkpoint", occurrence=1)
            )
        else:
            # A second failure while the first one's restore is in flight —
            # the paper's hardest single-tenant scenario.
            kills.append(
                ScriptedKill(
                    place_id=victim,
                    iteration=int(rng.integers(1, job.iterations)),
                )
            )
            others = [pid for pid in candidates if pid != victim]
            if others:
                kills.append(
                    ScriptedKill(
                        place_id=int(rng.choice(others)),
                        during="restore",
                        occurrence=1,
                    )
                )
        return kills

    def straddling_kills(
        self, lease: PlaceLease, now: float
    ) -> List[ScriptedKill]:
        """Timed kills for future pool events that hit *lease* members.

        An event whose burst straddles this lease contributes its in-lease
        victims as lease-locally timed kills (the out-of-lease victims are
        handled by their own tenants or by the service directly).  The
        lease driver is skipped — per-tenant coordinator immortality.
        """
        kills: List[ScriptedKill] = []
        for event in self._events:
            if event.time < now:
                continue
            for victim in event.victims:
                if victim == lease.driver.id or not lease.owns(victim):
                    continue
                kills.append(ScriptedKill(place_id=victim, time=event.time))
        return kills
