"""Fail-stop failure injection.

The paper's experiments kill one place at a chosen iteration; the framework
must also survive arbitrary additional failures (including failures *during*
checkpoint or restore).  The injector supports:

* scripted kills — "kill place *p* before iteration *n*" or "at the *k*-th
  runtime phase" (a phase is one collective finish), which lets tests kill a
  place in the middle of an iteration or mid-checkpoint;
* **context-triggered** kills — "kill place *p* during the *n*-th
  checkpoint (or restore)": the executor announces entering/leaving those
  phases, and the kill fires at the first finish inside the matching one;
* random kills drawn from an exponential MTTF model, as assumed by Young's
  checkpoint-interval formula.

Correlated bursts (an adjacent pair, a "rack" of consecutive places) are
scripted kills sharing one trigger, drawn by ``repro.chaos.make_schedule``
and ``repro.service.faults.ServiceFaultPlan``.

Scheduling a kill of place zero (immortal by Resilient X10 assumption) or a
second kill of a place that an earlier scripted kill already condemns is
rejected with a clear error — such schedules never fire and silently turn
chaos tests into no-ops.

The injector only *decides* when a place dies; the runtime performs the kill
(destroying the heap) and surfaces ``DeadPlaceException`` at the enclosing
finish, mirroring Resilient X10 semantics.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store ↔ failure)
    from repro.resilience.store import AppResilientStore

#: Context names the executor announces for ``during=`` triggers.
KILL_CONTEXTS = ("checkpoint", "restore", "reconstruct", "scrub")


@dataclass(frozen=True)
class ScriptedKill:
    """One planned failure."""

    place_id: int
    #: Fire before the executor starts this iteration (None = not used).
    iteration: Optional[int] = None
    #: Fire before the runtime executes this phase number (None = not used).
    phase: Optional[int] = None
    #: Fire once virtual global time reaches this value (None = not used).
    time: Optional[float] = None
    #: Fire at the first finish inside this executor context
    #: ("checkpoint", "restore" or "reconstruct"); see ``occurrence``.
    during: Optional[str] = None
    #: With ``during``: fire inside the *occurrence*-th entry of the context
    #: (1 = the first checkpoint/restore, 2 = the second, ...).
    occurrence: int = 1

    def __post_init__(self) -> None:
        if self.place_id == 0:
            raise ValueError(
                "cannot script a kill of place 0: Resilient X10 assumes an "
                "immortal place zero (its death aborts the whole run)"
            )
        triggers = [
            t is not None
            for t in (self.iteration, self.phase, self.time, self.during)
        ]
        if sum(triggers) != 1:
            raise ValueError(
                "exactly one of iteration/phase/time/during must be set"
            )
        if self.during is not None and self.during not in KILL_CONTEXTS:
            raise ValueError(f"during must be one of {KILL_CONTEXTS}")
        if self.occurrence < 1:
            raise ValueError("occurrence must be >= 1")


class FailureInjector:
    """Decides which places die and when.

    The runtime polls :meth:`due_at_phase` at every phase boundary (while
    ``pending_at_finish``) and the executor polls :meth:`due_at_iteration`
    at every iteration boundary.
    The executor additionally brackets checkpoints and restores with
    :meth:`enter_context` / :meth:`exit_context` so ``during=`` kills land
    mid-protocol (while backup transfers or partition reloads are in
    flight).
    """

    def __init__(self, kills: Optional[List[ScriptedKill]] = None):
        #: The schedule, in scripting order.  A tuple, so every kill goes
        #: through :meth:`add` (validation and the ``pending_at_finish``
        #: count): appending to it directly is an ``AttributeError``.
        self.kills: Tuple[ScriptedKill, ...] = ()
        self._fired: Set[int] = set()
        self._active_contexts: List[str] = []
        self._context_counts: Dict[str, int] = {}
        #: Unfired kills a finish entry can fire — phase, time and ``during``
        #: triggers; iteration kills are the executor's.  The runtime polls
        #: :meth:`due_at_phase` only while this is nonzero.  Derived from
        #: ``kills`` and ``_fired``: recounted on load, never pickled.
        self.pending_at_finish = 0
        for kill in kills or []:
            self.add(kill)

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        del state["pending_at_finish"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.pending_at_finish = sum(
            kill.iteration is None for i, kill in enumerate(self.kills) if i not in self._fired
        )

    # -- scripting ----------------------------------------------------------

    def add(self, kill: ScriptedKill) -> "FailureInjector":
        """Schedule one validated kill (duplicates rejected).

        A place dies exactly once under fail-stop semantics: a second
        scripted kill of the same place could never fire and would silently
        weaken the schedule, so it is an error.
        """
        for existing in self.kills:
            if existing.place_id == kill.place_id:
                raise ValueError(
                    f"duplicate scripted kill of place {kill.place_id}: it is "
                    f"already condemned by {existing} and will be dead when "
                    f"this kill fires"
                )
        self.kills += (kill,)
        if kill.iteration is None:
            self.pending_at_finish += 1
        return self

    def kill_at_iteration(self, place_id: int, iteration: int) -> "FailureInjector":
        """Schedule *place_id* to die just before *iteration* starts."""
        return self.add(ScriptedKill(place_id=place_id, iteration=iteration))

    def kill_at_phase(self, place_id: int, phase: int) -> "FailureInjector":
        """Schedule *place_id* to die just before runtime phase *phase*."""
        return self.add(ScriptedKill(place_id=place_id, phase=phase))

    def kill_at_time(self, place_id: int, time: float) -> "FailureInjector":
        """Schedule *place_id* to die once virtual time reaches *time*."""
        return self.add(ScriptedKill(place_id=place_id, time=time))

    def kill_during(
        self, place_id: int, context: str, occurrence: int = 1
    ) -> "FailureInjector":
        """Schedule *place_id* to die inside the *occurrence*-th *context*
        ("checkpoint" or "restore")."""
        return self.add(
            ScriptedKill(place_id=place_id, during=context, occurrence=occurrence)
        )

    # -- executor context tracking -------------------------------------------

    def enter_context(self, name: str) -> None:
        """The executor is entering a checkpoint/restore protocol."""
        self._active_contexts.append(name)
        self._context_counts[name] = self._context_counts.get(name, 0) + 1

    def exit_context(self, name: str) -> None:
        """The executor left the innermost protocol context.

        Enter/exit must nest (strictly balanced, innermost-first): a
        mismatched exit means the executor's protocol bracketing is broken
        and every later ``during=`` trigger would silently fire in the
        wrong context, so it raises immediately, naming the current stack.
        """
        if not self._active_contexts:
            raise RuntimeError(
                f"exit_context({name!r}) with no context active: enter/exit "
                f"calls must be balanced (context stack is empty)"
            )
        if self._active_contexts[-1] != name:
            raise RuntimeError(
                f"exit_context({name!r}) does not match the innermost active "
                f"context {self._active_contexts[-1]!r}; current context "
                f"stack (outermost first): {self._active_contexts}"
            )
        self._active_contexts.pop()

    # -- polling -------------------------------------------------------------

    def due_at_iteration(self, iteration: int) -> List[int]:
        """Place ids that should die before this iteration."""
        due: List[int] = []
        fired = self._fired
        for idx, kill in enumerate(self.kills):
            if idx in fired or kill.iteration is None:
                continue
            if iteration >= kill.iteration:
                fired.add(idx)
                due.append(kill.place_id)
        return due

    def due_at_phase(self, phase: int, global_time: float) -> List[int]:
        """Place ids that should die before this phase (incl. timed and
        context-triggered kills).  Each unfired kill is tested inline: this
        runs at every finish entry while ``pending_at_finish``."""
        due: List[int] = []
        fired = self._fired
        for idx, kill in enumerate(self.kills):
            if idx in fired or kill.iteration is not None:
                continue
            during = kill.during
            if (
                (kill.phase is not None and phase >= kill.phase)
                or (kill.time is not None and global_time >= kill.time)
                or (
                    during is not None
                    and during in self._active_contexts
                    and self._context_counts.get(during, 0) >= kill.occurrence
                )
            ):
                fired.add(idx)
                self.pending_at_finish -= 1
                due.append(kill.place_id)
        return due

    def unfired(self) -> List[ScriptedKill]:
        """Scripted kills that have not fired (yet).

        Exposed through ``ExecutionReport.pending_kills`` so tests notice
        schedules that never triggered.
        """
        return [k for i, k in enumerate(self.kills) if i not in self._fired]

    @property
    def pending(self) -> int:
        """Number of scheduled kills that have not fired yet."""
        return len(self.unfired())


class LeaseScopedInjector(FailureInjector):
    """A per-tenant injector whose clock is the lease driver's clock.

    The runtime polls ``due_at_phase`` with the *global* maximum time,
    which in a shared pool includes every other tenant's progress — a
    time-triggered kill scripted against job A's timeline would fire
    instantly just because job B ran first.  This subclass substitutes the
    owning lease's driver-local time, so ``kill_at_time`` means "at this
    point in *this job's* execution".

    Iteration / context kills are already job-local (the executor polls
    them); service fault plans use those plus lease-local timed kills, and
    never global phase triggers.
    """

    def __init__(self, runtime, lease, kills: Optional[List[ScriptedKill]] = None):
        self.runtime = runtime
        self.lease = lease
        super().__init__(kills)  # routes through add(), checking scope

    def add(self, kill: ScriptedKill) -> "FailureInjector":
        self._check_scope(kill)
        return super().add(kill)

    def _check_scope(self, kill: ScriptedKill) -> None:
        require(
            kill.place_id != self.lease.driver.id,
            f"kill targets lease driver {kill.place_id} — the per-tenant "
            f"coordinator is immortal (the lease analogue of place zero)",
        )
        require(
            kill.place_id in self.lease.ever_ids,
            f"kill targets place {kill.place_id} outside lease "
            f"{self.lease.name!r} (members {sorted(self.lease.ever_ids)}) — "
            f"a scoped injector must not reach into other tenants",
        )

    def due_at_phase(self, phase: int, global_time: float) -> List[int]:
        local_time = self.runtime.clock.now(self.lease.driver.id)
        return super().due_at_phase(phase, local_time)


@dataclass
class ExponentialFailureModel:
    """Random fail-stop model with exponential inter-failure times.

    Used by the Young's-formula utilities and by the random-failure
    integration tests.  Draws (time, victim) pairs over a given set of
    candidate places; place zero is never a victim (immortality assumption).
    """

    mttf: float
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mttf <= 0:
            raise ValueError("mttf must be positive")
        object.__setattr__(self, "_rng", np.random.default_rng(self.seed))

    def schedule(
        self, candidate_ids: List[int], horizon: float
    ) -> List[ScriptedKill]:
        """Sample scripted kills up to virtual time *horizon*."""
        victims = [i for i in candidate_ids if i != 0]
        if not victims:
            return []
        kills: List[ScriptedKill] = []
        t = 0.0
        remaining = list(victims)
        while remaining:
            t += float(self._rng.exponential(self.mttf))
            if t > horizon:
                break
            victim = remaining.pop(int(self._rng.integers(len(remaining))))
            kills.append(ScriptedKill(place_id=victim, time=t))
        return kills


# -- transient faults ---------------------------------------------------------
#
# Everything below injects faults that do NOT kill places: messages that are
# dropped, duplicated or delayed, links that partition and later heal,
# stragglers, and corrupted snapshot copies.  The GASPI fault-tolerance work
# (arXiv:1505.04628) argues these — not clean crash-stops — are what a
# deployable recovery layer must absorb; the runtime pairs them with the
# heartbeat detector (``repro.runtime.detector``) and the retransmission
# machinery in ``repro.runtime.comm`` / the engine scheduler.


@dataclass(frozen=True)
class MessageFate:
    """Outcome drawn for one message transmission attempt."""

    delivered: bool
    duplicated: bool = False
    extra_delay: float = 0.0


#: The two fates almost every attempt draws, shared: a fate is only read.
_DROPPED = MessageFate(delivered=False)
_DELIVERED = MessageFate(delivered=True)


#: Bounded retransmission with exponential backoff (at-most-once): a sender
#: that receives no acknowledgement retransmits after an RTO that grows by
#: ``BACKOFF`` per attempt; after ``MAX_RETRIES`` retransmissions the
#: destination is declared unreachable (``CommTimeoutError``) and the
#: decision escalates to the failure detector.
MAX_RETRIES = 4
BACKOFF = 2.0


def rto(attempt: int, cost, nbytes: float = 0.0) -> float:
    """Retransmission timeout before attempt ``attempt + 1``.

    The base RTO is a few message round-trips of the cost model, which also
    keeps retries free under the all-zero test cost model.
    """
    base = 4.0 * cost.latency + cost.byte_time * cost.scaled_bytes(nbytes)
    return base * BACKOFF**attempt


@dataclass(frozen=True)
class LinkPartition:
    """A temporary network partition between two sets of places.

    Messages (and heartbeats) crossing between ``side_a`` and ``side_b``
    in either direction are lost while ``t_start <= t < t_heal``; the
    partition then *heals* — the transient scenario that a crash-only
    failure model cannot express.
    """

    side_a: frozenset
    side_b: frozenset
    t_start: float
    t_heal: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "side_a", frozenset(self.side_a))
        object.__setattr__(self, "side_b", frozenset(self.side_b))
        if self.t_heal <= self.t_start:
            raise ValueError("t_heal must be after t_start")
        if self.side_a & self.side_b:
            raise ValueError("partition sides must be disjoint")

    def blocks(self, src_id: int, dst_id: int, t: float) -> bool:
        """True if a message src → dst at time *t* is cut by this partition."""
        if not (self.t_start <= t < self.t_heal):
            return False
        return (src_id in self.side_a and dst_id in self.side_b) or (
            src_id in self.side_b and dst_id in self.side_a
        )


class TransientFaultModel:
    """Seeded message-level fault injection: drop / duplicate / delay / cut.

    One model per runtime; the engine scheduler and the collectives consult
    :meth:`fate` for every data-plane transmission attempt, and the failure
    detector consults :meth:`heartbeat_lost` for every heartbeat.  Message
    fates are drawn from a sequential seeded generator (deterministic for a
    given run); heartbeat fates are hash-based on ``(place, seq)`` so they
    do not depend on how lazily the detector evaluates them.

    Counters (``dropped`` / ``duplicates`` / ``retransmissions`` /
    ``timeouts``) accumulate across the run for reports and invariants.
    """

    def __init__(
        self,
        drop_rate: float = 0.0,
        dup_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_seconds: float = 0.0,
        partitions: Sequence[LinkPartition] = (),
        seed: int = 0,
    ):
        for name, rate in (
            ("drop_rate", drop_rate),
            ("dup_rate", dup_rate),
            ("delay_rate", delay_rate),
        ):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")
        self.drop_rate = drop_rate
        self.dup_rate = dup_rate
        self.delay_rate = delay_rate
        self.delay_seconds = delay_seconds
        self.partitions: List[LinkPartition] = list(partitions)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.dropped = 0
        self.duplicates = 0
        self.retransmissions = 0
        self.timeouts = 0

    def partitioned(self, src_id: int, dst_id: int, t: float) -> bool:
        """True if any active partition cuts src → dst at time *t*."""
        return any(p.blocks(src_id, dst_id, t) for p in self.partitions)

    def fate(self, src_id: int, dst_id: int, t: float) -> MessageFate:
        """Draw the fate of one transmission attempt at time *t*."""
        if self.partitions and self.partitioned(src_id, dst_id, t):
            self.dropped += 1
            return _DROPPED
        if self.drop_rate and self._rng.random() < self.drop_rate:
            self.dropped += 1
            return _DROPPED
        duplicated = bool(self.dup_rate) and self._rng.random() < self.dup_rate
        extra = 0.0
        if self.delay_rate and self._rng.random() < self.delay_rate:
            extra = self.delay_seconds * self._rng.random()
        if duplicated:
            self.duplicates += 1
        elif not extra:
            return _DELIVERED
        return MessageFate(delivered=True, duplicated=duplicated, extra_delay=extra)

    def heartbeat_lost(self, place_id: int, seq: int, t_emit: float) -> bool:
        """Whether heartbeat *seq* of a place is lost on its way to place 0.

        Hash-based (not generator-based) so the outcome of a given
        heartbeat is independent of when the detector lazily evaluates it.
        """
        if self.partitioned(place_id, 0, t_emit):
            return True
        if not self.drop_rate:
            return False
        digest = zlib.crc32(f"{self.seed}:{place_id}:{seq}".encode())
        return (digest / 2**32) < self.drop_rate


class CorruptionModel:
    """Seeded bit-rot on committed snapshot copies.

    After each checkpoint commit, every copy (primary, each replica, and
    the disk-tier copy) of every partition of the newly committed snapshot
    is independently corrupted with probability ``rate``.
    """

    def __init__(self, rate: float, seed: int = 0):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"corruption rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = np.random.default_rng(seed)

    def strike(self, store: "AppResilientStore") -> int:
        """Corrupt copies of the latest committed checkpoint; returns count."""
        latest = store.latest()
        if latest is None or not self.rate:
            return 0
        hit = 0
        for snap in list(latest.snapshots.values()) + list(latest.read_only.values()):
            for key in sorted(snap.saved_keys()):
                for tier in snap.tiers(key):
                    if self._rng.random() < self.rate and snap.corrupt_copy(key, tier):
                        hit += 1
        return hit
