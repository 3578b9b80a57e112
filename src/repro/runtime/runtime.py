"""The APGAS runtime simulator — the X10 substrate of this reproduction.

A :class:`Runtime` owns a set of places (each with a private heap and a
virtual clock), executes *finish*-scoped task groups against them, injects
fail-stop failures, and — when resilient — charges the place-zero
bookkeeping ledger that Resilient X10 uses to track task lifecycles.

Execution model
---------------
The simulator is sequential and deterministic: closures run one after
another in the host interpreter, but each is bound to exactly one place's
heap via a :class:`PlaceContext`, and time is charged per place on virtual
clocks.  ``finish_all`` and ``finish_tasks`` are entry points over one
dispatch loop (:meth:`Runtime._finish`; ``docs/architecture.md``,
"Dispatch").  A ``finish_all`` models X10's ubiquitous

.. code-block:: text

    finish for (p in group) at (p) async { body(p); }

pattern (the backbone of every GML collective operation):

1. the caller (the "driver", place zero) serially spawns one task per group
   place — each spawn costs ``task_spawn_time`` plus one message;
2. each task starts when its spawn message arrives, runs ``body`` (which
   charges compute to that place's clock), and sends a termination message
   back;
3. the caller serially processes the termination messages
   (``task_join_time`` each) — the finish join;
4. under resilience, every spawn and termination additionally posts an
   event to the serialized place-zero ledger, and the finish cannot
   complete until the ledger has drained its events.

Tasks addressed to dead places are not run; X10 semantics are preserved by
letting every *live* task complete and then raising ``DeadPlaceException``
(or ``MultipleException``) at the finish.

When every one of those times is provably 0.0 (all-zero cost model, a clock
that never moved, no timeline to feed) the same loop runs the bodies and
the counters only, skipping the arithmetic of steps 1–4.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.engine.scheduler import Scheduler
from repro.engine.timeline import MembershipEvent, Timeline
from repro.runtime.cost import CostModel, validate_cost_model
from repro.runtime.exceptions import (
    DeadPlaceException,
    PlaceZeroDeadError,
    collapse_failures,
)
from repro.runtime.failure import FailureInjector, RetryPolicy, TransientFaultModel
from repro.runtime.finish import FinishReport, PlaceZeroLedger
from repro.runtime.heap import PlaceHeap
from repro.runtime.place import Place, PlaceGroup
from repro.runtime.pool import PlaceLease, PlacePool
from repro.util.validation import check_positive, require

_INF = float("inf")

#: A finish's declared compute: one flop count for every task, or one per task.
Flops = Union[float, Sequence[float]]


@dataclass
class RuntimeStats:
    """Global counters exposed for tests and the overhead benchmarks."""

    finishes: int = 0
    tasks: int = 0
    messages: int = 0
    bytes_sent: float = 0.0
    kills: int = 0
    #: Snapshot restore reads that fell through every in-memory replica
    #: to the stable-storage tier (the last rung of the recovery ladder).
    stable_fallback_reads: int = 0
    #: Partitions rebuilt by XOR from a parity group (the erasure-coded
    #: rung of the ladder, between the replicas and the disk).
    parity_reconstructions: int = 0
    #: Dead places brought back by :meth:`Runtime.revive` (pool repair).
    repairs: int = 0
    finish_reports: List[FinishReport] = field(default_factory=list)

    def reset_reports(self) -> None:
        self.finish_reports.clear()


class PlaceContext:
    """Execution context of one task: bound to a single place's heap.

    Closures receive a context and may only touch their own place's heap
    directly; remote data requires :meth:`read_remote` / :meth:`write_remote`
    (the moral equivalent of X10's ``at``), which charge communication and
    honour failure semantics.
    """

    __slots__ = ("runtime", "place", "heap")

    def __init__(self, runtime: "Runtime", place: Place, heap: PlaceHeap):
        self.runtime = runtime
        self.place = place
        self.heap = heap

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """This place's current virtual time."""
        return self.runtime.clock.now(self.place.id)

    # For work whose size the task only learns from its heap: a count known
    # before dispatch is declared to the finish instead (``flops=``), which
    # charges it with no call at all.  Each charge adds to the clock's storage
    # itself (``CostModel.flops``/``memcpy`` arithmetic verbatim) and leaves
    # what ``VirtualClock.advance`` guards — negative, NaN and infinite
    # charges, stragglers — to it.

    def charge_seconds(self, seconds: float) -> None:
        """Charge raw seconds of work to this place."""
        clock = self.runtime.clock
        if 0.0 < seconds < _INF and not clock._slowdown:
            clock._times[self.place.id] += seconds
            clock._moved = True
        elif seconds != 0.0:
            clock.advance(self.place.id, seconds)

    def charge_flops(self, n: float) -> None:
        """Charge *n* floating-point operations to this place."""
        cost, clock = self.runtime.cost, self.runtime.clock
        dt = cost.flop_time * n * cost.logical_scale
        if 0.0 < dt < _INF and not clock._slowdown:
            clock._times[self.place.id] += dt
            clock._moved = True
        elif dt != 0.0:
            clock.advance(self.place.id, dt)

    def charge_memcpy(self, nbytes: float) -> None:
        """Charge a local memory copy of *nbytes* to this place."""
        cost, clock = self.runtime.cost, self.runtime.clock
        dt = cost.memcpy_byte_time * nbytes * cost.logical_scale
        if 0.0 < dt < _INF and not clock._slowdown:
            clock._times[self.place.id] += dt
            clock._moved = True
        elif dt != 0.0:
            clock.advance(self.place.id, dt)

    # -- remote access --------------------------------------------------------

    def read_remote(self, src_place_id: int, key: Any, nbytes: float) -> Any:
        """Fetch a heap entry from another place (request + reply messages).

        The transfer is served by the owner's *communication server* — it
        runs concurrently with the owner's own task, but concurrent readers
        of one owner serialize behind each other (the NIC/serialization
        bottleneck).  Raises ``DeadPlaceException`` if the owner is dead.
        """
        rt = self.runtime
        if src_place_id == self.place.id:
            return self.heap.get(key)
        rt.check_alive(src_place_id)
        if rt.engine.zero_fast():
            rt.stats.messages += 2
            rt.stats.bytes_sent += rt.cost.scaled_bytes(nbytes)
            return rt.heap_of(src_place_id).get(key)
        cost = rt.cost
        clock = rt.clock
        t_req = self.now + cost.message(0)
        t_reply = rt.transfer(src_place_id, self.place.id, nbytes, t_req)
        clock.set_at_least(self.place.id, t_reply)
        rt.stats.messages += 2
        rt.stats.bytes_sent += cost.scaled_bytes(nbytes)
        return rt.heap_of(src_place_id).get(key)

    def write_remote(self, dst_place_id: int, key: Any, value: Any, nbytes: float) -> None:
        """Push a value into another place's heap (one payload message).

        The receive is served by the destination's communication server:
        concurrent with its task, serialized against other transfers it is
        absorbing.
        """
        rt = self.runtime
        if dst_place_id == self.place.id:
            self.heap.put(key, value)
            return
        rt.check_alive(dst_place_id)
        cost = rt.cost
        clock = rt.clock
        rt.transfer(self.place.id, dst_place_id, nbytes, self.now)
        clock.set_at_least(self.place.id, self.now + cost.message(0))
        rt.stats.messages += 1
        rt.stats.bytes_sent += cost.scaled_bytes(nbytes)
        rt.heap_of(dst_place_id).put(key, value)


class Runtime:
    """A simulated APGAS world of places.

    Parameters
    ----------
    nplaces:
        Number of *active* places (the initial world).
    cost:
        Virtual-time :class:`CostModel`; defaults to all-zero rates.
    resilient:
        When True, every finish pays place-zero bookkeeping — this switch is
        the paper's "resilient X10" vs "non-resilient X10" axis (Figs. 2–4).
    spares:
        Extra *redundant* places started up-front for the replace-redundant
        restoration mode.  They are alive but hold no application data.
    """

    def __init__(
        self,
        nplaces: int,
        cost: Optional[CostModel] = None,
        resilient: bool = False,
        spares: int = 0,
        trace: bool = False,
    ):
        check_positive(nplaces, "nplaces")
        require(spares >= 0, "spares must be >= 0")
        self.cost = cost if cost is not None else CostModel.zero()
        err = validate_cost_model(self.cost)
        require(err is None, err or "")
        self.resilient = resilient

        total = nplaces + spares
        all_places = [Place(i) for i in range(total)]
        self.world = PlaceGroup(all_places[:nplaces])
        #: Ownership bookkeeping: free places, leases, and the spare
        #: reserve all live behind the pool (single-job paths see it as a
        #: degenerate one-lease pool via :attr:`default_lease`).
        self.pool = PlacePool(self, all_places[:nplaces], all_places[nplaces:])
        self._default_lease: Optional[PlaceLease] = None
        #: Every Place object ever created, by id (repair needs the object
        #: back after its pool entry went stale).
        self._places: Dict[int, Place] = {p.id: p for p in all_places}
        self._heaps: Dict[int, PlaceHeap] = {p.id: PlaceHeap(p.id) for p in all_places}
        self._alive: Dict[int, bool] = {p.id: True for p in all_places}
        #: The discrete-event engine: owns the virtual clock, every
        #: contended resource (communication servers, NICs, ledger, disk)
        #: and the typed event timeline.
        self.engine = Scheduler(self.cost, timeline=Timeline(enabled=trace))
        self.clock = self.engine.clock
        for p in all_places:
            self.engine.register_place(p.id)
        self._next_place_id = total

        self.ledger = PlaceZeroLedger(
            self.cost.ledger_event_time, resource=self.engine.ledger
        )
        self.injector = FailureInjector()
        self.stats = RuntimeStats()
        self.phase = 0
        #: Per-place context cache (contexts are stateless beyond their
        #: heap reference; a destroyed/replaced heap invalidates the entry).
        self._ctx_cache: Dict[int, PlaceContext] = {}
        #: Virtual time at which each dead place died (for the detector).
        self._death_times: Dict[int, float] = {}
        #: Heartbeat failure detector (attached by the executor / CLI).
        self.detector = None

    def close(self) -> None:
        """Release the world once its owner has read the results: destroy
        every heap, so payloads die by refcount instead of at some later
        cycle collection and any further heap access raises.  Idempotent."""
        for heap in self._heaps.values():
            heap.destroy()
        self._ctx_cache.clear()

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transient faults ------------------------------------------------------

    @property
    def faults(self) -> Optional[TransientFaultModel]:
        """The transient message-fault model (owned by the engine)."""
        return self.engine.faults

    @property
    def retry_policy(self) -> RetryPolicy:
        return self.engine.retry_policy

    def set_faults(
        self,
        faults: Optional[TransientFaultModel],
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        """Install (or clear) transient message faults on the engine."""
        self.engine.faults = faults
        if retry_policy is not None:
            self.engine.retry_policy = retry_policy

    def set_straggler(self, place_id: int, factor: float) -> None:
        """Make a place compute *factor* times slower (1.0 = full speed).

        The slowdown stretches work charged to the place's clock — compute
        and its share of protocol work — but not network transit; it also
        stretches the place's heartbeat emission interval, which is what a
        starving process looks like to the failure detector.
        """
        self.check_alive(place_id)
        self.clock.set_slowdown(place_id, factor)

    def record_membership(self, op: str, **fields: Any) -> None:
        """Put a :class:`~repro.engine.timeline.MembershipEvent` on the
        engine timeline, at the current global time (nothing while the
        timeline is off)."""
        timeline = self.engine.timeline
        if timeline.enabled:
            now = self.clock.global_time()
            timeline.record(MembershipEvent(now, now, op=op, **fields))

    def attach_detector(self, detector) -> None:
        """Install a failure detector (e.g. ``PhiAccrualDetector(rt)``)."""
        self.detector = detector

    def all_place_ids(self) -> List[int]:
        """Ids of every place ever created (dead or alive, incl. spares)."""
        return sorted(self._alive)

    def death_time(self, place_id: int) -> Optional[float]:
        """Virtual time of a place's death (None while it lives)."""
        return self._death_times.get(place_id)

    # -- place management ------------------------------------------------------

    def is_alive(self, place_id: int) -> bool:
        """True if the place exists and has not been killed."""
        return self._alive.get(place_id, False)

    def check_alive(self, place_id: int) -> None:
        """Raise ``DeadPlaceException`` unless the place is alive."""
        if not self._alive.get(place_id, False):
            raise DeadPlaceException(place_id)

    def heap_of(self, place_id: int) -> PlaceHeap:
        """The heap of a live place (``DeadPlaceException`` otherwise)."""
        if self._alive.get(place_id, False):
            return self._heaps[place_id]
        raise DeadPlaceException(place_id)

    def kill(self, place_id: int) -> None:
        """Fail-stop the place: destroy its heap, mark it dead.

        The engine purges the place's scheduler state (communication-server
        frontiers, deferred overlap arrivals) and retires its resources, so
        scheduling further work on them raises ``DeadPlaceException``.
        Killing place zero aborts the whole run (Resilient X10 assumes an
        immortal place zero).
        """
        if place_id == 0:
            raise PlaceZeroDeadError()
        if not self.is_alive(place_id):
            return
        self._alive[place_id] = False
        self._death_times[place_id] = self.clock.global_time()
        self._heaps[place_id].destroy()
        self.pool.on_place_killed(place_id)
        self.engine.purge_place(place_id)
        self.stats.kills += 1
        self.record_membership("kill", place=place_id)

    def revive(self, place_id: int) -> Place:
        """Repair a dead place: fresh empty heap, clock at the current time.

        Models an operator replacing the failed host (ROADMAP pool repair):
        the place id returns to service with *none* of its old state — heap
        contents died with the process — so it is only useful as a spare
        for future leases/restores.  The pool re-files it where it came
        from (reserve or free list), a detector is told to re-monitor it,
        and a startup message round-trip is charged before it is usable.
        """
        require(
            place_id in self._alive and not self._alive[place_id],
            f"revive requires a dead place, got {place_id}",
        )
        place = self._places[place_id]
        self._alive[place_id] = True
        self._heaps[place_id] = PlaceHeap(place_id)
        self._death_times.pop(place_id, None)
        self.engine.revive_place(place_id)
        self.clock.set_at_least(
            place_id, self.clock.global_time() + self.cost.message(0)
        )
        self.pool.on_place_revived(place)
        if self.detector is not None:
            self.detector.forget(place_id)
            self.detector.monitor(place_id, from_time=self.clock.now(place_id))
        self.stats.repairs += 1
        self.record_membership("repair", place=place_id)
        return place

    def dead_ids(self) -> List[int]:
        """Ids of all places that have died so far."""
        return sorted(pid for pid, alive in self._alive.items() if not alive)

    def live_group(self, group: PlaceGroup) -> PlaceGroup:
        """Survivors of *group*, order preserved, indices shifted."""
        return group.filter_dead(self.dead_ids())

    def claim_spare(self) -> Optional[Place]:
        """Take one live spare place (or ``None`` if exhausted)."""
        return self.pool.claim_reserve()

    @property
    def spares_remaining(self) -> int:
        """Number of live spare places not yet claimed (O(1))."""
        return self.pool.reserve_remaining

    @property
    def default_lease(self) -> PlaceLease:
        """The degenerate whole-world lease used by single-job paths.

        Created lazily: it covers every free place (place zero included,
        which stays the driver) with ``pooled`` access to the global spare
        reserve, so executors that never heard of leases behave exactly as
        before the pool existed.
        """
        if self._default_lease is None or self._default_lease.state != "active":
            self._default_lease = self.pool.lease(
                size=self.pool.free_live,
                name="default",
                economics="pooled",
                include_place_zero=True,
            )
        return self._default_lease

    def add_place(self) -> Place:
        """Elastically create a brand-new place (Replace-Elastic extension).

        The new place starts with an empty heap and a clock at the current
        global time plus a process-startup charge.
        """
        place = Place(self._next_place_id)
        self._next_place_id += 1
        self._places[place.id] = place
        self._heaps[place.id] = PlaceHeap(place.id)
        self._alive[place.id] = True
        # Process spawn is not free: charge one message round-trip of setup.
        self.engine.register_place(
            place.id, self.clock.global_time() + self.cost.message(0)
        )
        self.record_membership("add_place", place=place.id)
        if self.detector is not None:
            self.detector.monitor(place.id, from_time=self.clock.now(place.id))
        return place

    def transfer(self, src_id: int, dst_id: int, nbytes: float, t_request: float) -> float:
        """Topology-aware point-to-point transfer; returns completion time.

        Without node topology (``cost.num_nodes == 0``) this is the plain
        per-place communication server.  With topology, intra-node
        transfers use the shared-memory rate and the destination place's
        server, while cross-node transfers serialize through *both*
        endpoints' node NICs — the contention that makes checkpointing
        4-places-per-node clusters slower than per-place models predict.
        All of it is served by engine resources.
        """
        return self.engine.transfer(src_id, dst_id, nbytes, t_request)

    # -- failure-injection hook ---------------------------------------------

    def _fire_due_failures(self) -> None:
        for victim in self.injector.due_at_phase(self.phase, self.clock.global_time()):
            self.kill(victim)

    def poll_failures(self) -> None:
        """Fire due scripted kills outside a phase boundary.

        Kills normally land at finish entry; protocol code that runs
        *between* finishes for a long stretch (the scrub/repair pass) polls
        explicitly so ``kill_during(context=...)`` triggers can land inside
        it too.
        """
        if not self.injector.all_fired:  # else skip the global-time max + scan
            self._fire_due_failures()

    # -- execution -----------------------------------------------------------

    DRIVER_ID = 0

    @contextmanager
    def job_context(
        self,
        lease: PlaceLease,
        injector: Optional[FailureInjector] = None,
        detector=None,
    ) -> Iterator[PlaceLease]:
        """Run one tenant's job scoped to its lease.

        Inside the context the lease's driver place plays place zero's
        role: ``DRIVER_ID`` (hence finish joins, heartbeat sinks, ``at``
        return paths and barriers) points at the lease driver, and the
        runtime's failure injector / detector are swapped for the
        job-scoped ones, so kills scripted for tenant A cannot fire while
        tenant B is executing.  Everything is restored on exit, even when
        the job aborts.
        """
        require(lease.state == "active", f"lease {lease.name!r} is released")
        self.check_alive(lease.driver.id)
        prev_driver = self.DRIVER_ID
        prev_injector = self.injector
        prev_detector = self.detector
        self.DRIVER_ID = lease.driver.id
        if injector is not None:
            self.injector = injector
        if detector is not None:
            self.detector = detector
        try:
            yield lease
        finally:
            self.DRIVER_ID = prev_driver
            self.injector = prev_injector
            self.detector = prev_detector

    def now(self) -> float:
        """The driver's (place zero's) current virtual time."""
        return self.clock.now(self.DRIVER_ID)

    def context(self, place: Place) -> PlaceContext:
        """Build a context for a live place (library-internal).

        Cached per place id: contexts carry no per-call state, and a kill
        destroys the heap (``heap.destroyed``) while a revive installs a
        *new* heap object — both make the cached entry detectably stale.
        """
        ctx = self._ctx_cache.get(place.id)
        if ctx is not None and not ctx.heap.destroyed:
            return ctx
        ctx = PlaceContext(self, place, self.heap_of(place.id))
        self._ctx_cache[place.id] = ctx
        return ctx

    def at(
        self,
        place: Place,
        fn: Callable[[PlaceContext], Any],
        arg_bytes: float = 0.0,
        ret_bytes: float = 0.0,
    ) -> Any:
        """Run ``fn`` at *place* and return its result to the driver.

        Models ``at (p) { ... }``: ship the closure, run it, ship the result
        back.  Raises ``DeadPlaceException`` if the target is dead.
        """
        self.check_alive(place.id)
        clock, cost = self.clock, self.cost
        driver = self.DRIVER_ID
        if place.id == driver:
            result = fn(self.context(place))
            return result
        t_arrive = max(clock.now(driver), clock.now(place.id)) + cost.message(arg_bytes)
        clock.set_at_least(place.id, t_arrive)
        result = fn(self.context(place))
        t_back = clock.now(place.id) + cost.message(ret_bytes)
        clock.set_at_least(driver, t_back)
        self.stats.messages += 2
        self.stats.bytes_sent += cost.scaled_bytes(arg_bytes + ret_bytes)
        return result

    def finish_all(
        self,
        group: PlaceGroup,
        fn: Callable[[PlaceContext], Any],
        arg_bytes: float = 0.0,
        ret_bytes: float = 0.0,
        label: str = "",
        flops: Optional[Flops] = None,
    ) -> List[Any]:
        """Run ``fn`` once at every place of *group* under one finish.

        Returns the per-place results in group order (``None`` in the slots
        of dead places).  After every live task has completed, raises
        ``DeadPlaceException`` / ``MultipleException`` if any group member
        was dead or died during the phase — exactly X10's finish semantics.

        *flops* declares the compute each task performs — one count for
        every task, or one per task in group order — and the finish charges
        it to the task's place when the body returns, exactly as a
        ``ctx.charge_flops`` at the end of the body would.  A task that
        raises is not charged.  Negative or non-finite counts raise
        ``ValueError`` before any task runs.
        """
        return self._finish(
            zip(group._places, repeat(fn)), group.size, arg_bytes, ret_bytes, label, flops
        )

    def finish_tasks(
        self,
        tasks: Sequence,
        arg_bytes: float = 0.0,
        ret_bytes: float = 0.0,
        label: str = "",
        flops: Optional[Flops] = None,
    ) -> List[Any]:
        """Run an explicit list of ``(place, fn)`` tasks under one finish.

        The general form behind :meth:`finish_all` (and the ``with
        rt.finish()`` sugar): tasks may target any places, including the
        same place several times.  *flops* is as for :meth:`finish_all`,
        per-task counts in task order.
        """
        return self._finish(tasks, len(tasks), arg_bytes, ret_bytes, label, flops)

    def _finish(
        self,
        tasks: Iterable,
        n_tasks: int,
        arg_bytes: float,
        ret_bytes: float,
        label: str,
        flops: Optional[Flops] = None,
    ) -> List[Any]:
        """The dispatch loop: run *n_tasks* ``(place, fn)`` pairs under one finish."""
        cost, clock, engine = self.cost, self.clock, self.engine
        # Declared flops become per-task seconds (``CostModel.flops``
        # arithmetic verbatim), all validated before any task runs.
        charges: Optional[List[float]] = None
        if flops is not None:
            rate, scale = cost.flop_time, cost.logical_scale
            scalar = not hasattr(flops, "__iter__")
            charges = []
            for n in (flops,) if scalar else flops:
                dt = rate * n * scale
                if not (0.0 <= n < _INF and dt < _INF):
                    raise ValueError(f"declared flops must be finite and non-negative, got {n}")
                charges.append(dt)
            if scalar:
                charges *= n_tasks
            elif len(charges) != n_tasks:
                raise ValueError(f"{len(charges)} flop counts declared for {n_tasks} tasks")
            if rate == 0.0:  # every charge is 0.0: a no-op
                charges = None

        self.phase += 1
        if not self.injector.all_fired:
            self._fire_due_failures()

        # Otherwise every time below is provably 0.0 (Scheduler.zero_fast) and
        # no task body can change that: skip the recurrences, for the whole
        # finish, and complete through ``complete_finish_zero``.
        timed = not cost.is_zero or clock._moved or engine._tl_enabled
        driver = self.DRIVER_ID
        alive = self._alive
        stats = self.stats
        resilient = self.resilient
        ctx_cache = self._ctx_cache
        arg_scaled = arg_bytes * cost.logical_scale
        failures: List[Exception] = []
        results: List[Any] = [None] * n_tasks
        n_live = 0
        if timed:
            times = clock._times
            t_start = t_spawn = times[driver]
            spawn_dt = cost.task_spawn_time
            arg_msg = cost.message(arg_bytes)
            latency = cost.latency
            task_ends: List[float] = []
            ledger_arrivals: Optional[List[float]] = [] if resilient else None
            # All tasks of this finish run concurrently: capture every
            # place's phase-start time up front so a message sent by an
            # (interpreter-) earlier task cannot delay a peer task's *start*
            # — only the phase end accounts for such in-flight arrivals (the
            # backlog below).  avail[pid] is when the place's (single)
            # worker can start a task: the phase-start time, then the
            # previous task's end when one finish runs several at a place.
            avail = times.copy()

        for index, (place, fn) in enumerate(tasks):
            pid = place.id
            if not alive.get(pid, False):
                failures.append(DeadPlaceException(pid))
                continue
            n_live += 1
            if pid != driver:
                stats.messages += 1
                stats.bytes_sent += arg_scaled
            if timed:
                # Serial spawn at the caller, then the spawn message travels.
                t_spawn += spawn_dt
                task_begin = t_spawn if pid == driver else t_spawn + arg_msg
                if avail[pid] > task_begin:
                    task_begin = avail[pid]
                # In-phase arrivals recorded so far are merged back at the end.
                backlog = times[pid]
                times[pid] = task_begin
                if resilient:
                    ledger_arrivals.append(task_begin + latency)
            ctx = ctx_cache.get(pid)
            if ctx is None or ctx.heap.destroyed:
                ctx = self.context(place)
            try:
                results[index] = fn(ctx)
            except DeadPlaceException as exc:
                failures.append(exc)
            else:
                # The declared charge: ``PlaceContext.charge_flops`` inlined
                # (``charges`` is only set on a timed finish).
                if charges is not None:
                    dt = charges[index]
                    if dt > 0.0 and not clock._slowdown:
                        times[pid] += dt
                        clock._moved = True
                    elif dt != 0.0:
                        clock.advance(pid, dt)
            if timed:
                t_end = times[pid]
                if backlog > t_end:
                    t_end = times[pid] = backlog
                avail[pid] = t_end
                task_ends.append(t_end)
                if resilient:
                    ledger_arrivals.append(t_end + latency)

        # The finish join (serial termination-message absorption at the
        # caller) and the resilient-ledger wait are completed by the engine.
        dead = (
            [pid for f in failures for pid in getattr(f, "places", [])]
            if failures
            else None
        )
        if timed:
            engine.complete_finish(
                self,
                label,
                t_start,
                task_ends,
                n_live,
                ledger_arrivals,
                t_floor=t_spawn,
                ret_bytes=ret_bytes,
                dead_places=dead,
            )
        else:
            engine.complete_finish_zero(
                self,
                label,
                n_live,
                n_live,
                2 * n_live if resilient else 0,
                ret_bytes=ret_bytes,
                dead_places=dead,
            )
        if failures:
            # No local may keep the raised exc: exc -> traceback -> this frame ->
            # exc is a cycle pinning the whole world (executor, stores) until a GC.
            failures = [collapse_failures(failures)]
            raise failures.pop()
        return results

    def barrier(self, group: PlaceGroup) -> float:
        """Synchronize the clocks of the group's live places (plus driver)."""
        ids = [p.id for p in group if self.is_alive(p.id)]
        ids.append(self.DRIVER_ID)
        return self.clock.barrier(ids)

    # -- convenience -----------------------------------------------------------

    def live_world(self) -> PlaceGroup:
        """Survivors of the initial world."""
        return self.live_group(self.world)

    def __repr__(self) -> str:
        return (
            f"Runtime(world={self.world.size}, spares={self.spares_remaining}, "
            f"resilient={self.resilient}, dead={self.dead_ids()})"
        )
