"""The discrete-event scheduler: owner of virtual time and contended resources.

One :class:`Scheduler` per :class:`~repro.runtime.runtime.Runtime` owns:

* the per-place :class:`~repro.runtime.clock.VirtualClock`;
* every contended :class:`~repro.engine.resource.Resource` — per-place
  communication servers and duplex tx/rx sides, per-node NIC directions,
  the serialized place-zero bookkeeping ledger, the shared stable-storage
  disk;
* the :class:`~repro.engine.timeline.Timeline` of typed events;
* the *overlap scope* that defers transfer arrivals so checkpoint backups
  can run on the communication resources concurrently with the next
  iteration's compute (``checkpoint_mode="overlapped"``).

All virtual-time advancement driven by communication, bookkeeping or disk
flows through here; places' own compute still charges their clocks
directly (a worker core is not a shared resource).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.resource import DuplexLink, Resource
from repro.engine.timeline import (
    DiskEvent,
    FinishEvent,
    ServiceEvent,
    Timeline,
    TransferEvent,
)
from repro.runtime.clock import VirtualClock
from repro.runtime.cost import CostModel
from repro.runtime.exceptions import CommTimeoutError, DeadPlaceException
from repro.runtime.failure import RetryPolicy, TransientFaultModel
from repro.runtime.finish import FinishReport

#: Resource-key tags whose second element is a place id (purged on kill).
_PLACE_TAGS = ("srv", "tx", "rx")


class Scheduler:
    """Schedules work on contended resources and advances virtual time."""

    def __init__(
        self,
        cost: CostModel,
        clock: Optional[VirtualClock] = None,
        timeline: Optional[Timeline] = None,
    ):
        self.cost = cost
        self.clock = clock if clock is not None else VirtualClock()
        self.timeline = timeline if timeline is not None else Timeline(enabled=False)
        self._resources: Dict[Any, Resource] = {}
        #: Cached duplex links (pairs of live resources).  Invalidated
        #: wholesale on place purge/revive — those pop and recreate the
        #: underlying per-place resources.
        self._links: Dict[Any, DuplexLink] = {}
        self._dead: Set[int] = set()
        #: Overlap scope: while > 0, transfer arrivals are deferred.
        self._overlap_depth = 0
        #: place id -> latest deferred completion time.
        self._pending_arrivals: Dict[int, float] = {}
        self.ledger = self.resource(("ledger",))
        # The ledger's recording hook is installed only while the timeline
        # is enabled: a hook-free resource can take the batched ledger fast
        # path (Resource.acquire_batch) with identical virtual times.
        self.timeline.on_toggle(self._sync_ledger_hook)
        # Mirror of ``timeline.enabled`` as a plain attribute: the transfer
        # and finish hot paths test it once per event, and an attribute
        # read is markedly cheaper than the notifying property.
        self.timeline.on_toggle(self._sync_timeline_flag)
        self.disk = self.resource(("disk",))
        #: Transient message-fault model; ``None`` keeps the network
        #: reliable and every transfer bit-exact with the fault-free model.
        self.faults: Optional[TransientFaultModel] = None
        #: Retransmission policy used when ``faults`` is set.
        self.retry_policy: RetryPolicy = RetryPolicy()

    # -- place lifecycle -----------------------------------------------------

    def register_place(self, place_id: int, at_time: float = 0.0) -> None:
        """Start a clock timeline for a new place."""
        self.clock.register(place_id, at_time)

    def purge_place(self, place_id: int) -> None:
        """Drop a dead place's scheduling state.

        Its per-place resources are retired and removed (their busy
        frontiers would otherwise linger forever), any deferred overlap
        arrival is discarded, and future attempts to schedule work on the
        place's resources raise ``DeadPlaceException``.  Shared node NICs
        survive — the node's other places still use them.
        """
        self._dead.add(place_id)
        for tag in _PLACE_TAGS:
            resource = self._resources.pop((tag, place_id), None)
            if resource is not None:
                resource.retire()
        self._links.clear()
        self._pending_arrivals.pop(place_id, None)

    def revive_place(self, place_id: int) -> None:
        """Return a purged place to service (pool repair).

        The place's per-place resources were popped at purge time, so
        :meth:`resource` lazily recreates fresh ones (empty frontiers) on
        first use; all that is needed here is lifting the death mark.  The
        caller re-registers the clock via ``set_at_least`` — the timeline
        itself was never dropped.
        """
        self._dead.discard(place_id)
        self._links.clear()

    def is_place_dead(self, place_id: int) -> bool:
        return place_id in self._dead

    def zero_fast(self) -> bool:
        """True while every virtual-time value is provably 0.0.

        All-zero cost rates mean no charge can move a clock or a resource
        frontier; an unmoved clock means nothing external (a detector
        heartbeat, a service arrival) has either; a reliable network rules
        out retransmission waits; a disabled timeline means no events need
        recording.  Under those four facts the transfer/finish bookkeeping
        only shuffles zeros, so the hot paths skip it — results, stats
        counters and reports stay bit-identical.  The test is cheap and
        rechecked per event because the clock flag can flip mid-run.
        """
        return (
            self.cost.is_zero
            and not self.clock._moved
            and self.faults is None
            and not self._tl_enabled
        )

    def _check_place(self, place_id: int) -> None:
        if place_id in self._dead:
            raise DeadPlaceException(place_id)

    # -- resources -----------------------------------------------------------

    def resource(self, key: Any, owner: Optional[int] = None) -> Resource:
        """Get or lazily create the resource with the given key."""
        res = self._resources.get(key)
        if res is None:
            if (
                isinstance(key, tuple)
                and len(key) == 2
                and key[0] in _PLACE_TAGS
            ):
                owner = key[1]
                self._check_place(owner)
            res = Resource(key, owner=owner)
            self._resources[key] = res
        return res

    def resources(self) -> List[Resource]:
        """All live resources (stable order for reports)."""
        return [self._resources[k] for k in sorted(self._resources, key=repr)]

    def link(self, tx_key: Any, rx_key: Any) -> DuplexLink:
        """The duplex link over two resource keys (cached per pair)."""
        key = (tx_key, rx_key)
        lk = self._links.get(key)
        if lk is None:
            lk = DuplexLink(self.resource(tx_key), self.resource(rx_key))
            self._links[key] = lk
        return lk

    # -- arrivals and the overlap scope ---------------------------------------

    def _arrive(self, place_id: int, t_done: float) -> None:
        """Deliver a completion to a place's timeline.

        Inside an overlap scope the arrival is deferred (recorded as
        pending) instead of advancing the clock — the place keeps
        computing while its communication server absorbs the transfer.
        """
        if self._overlap_depth > 0:
            pending = self._pending_arrivals.get(place_id, 0.0)
            if t_done > pending:
                self._pending_arrivals[place_id] = t_done
        else:
            self.clock.set_at_least(place_id, t_done)

    @contextmanager
    def overlap(self):
        """Scope in which transfer completions do not block place clocks."""
        self._overlap_depth += 1
        try:
            yield self
        finally:
            self._overlap_depth -= 1

    @property
    def overlapping(self) -> bool:
        return self._overlap_depth > 0

    def pending_overlap(self) -> Dict[int, float]:
        """Copy of the deferred completions (place id -> time)."""
        return dict(self._pending_arrivals)

    def drain_overlap(self, sync_place_id: Optional[int] = None) -> float:
        """Apply all deferred completions to the place clocks.

        Returns the largest residual lag — how far a place's clock had to
        jump forward, i.e. the part of the overlapped work that compute
        could not hide.  With *sync_place_id* (the driver, at the end of a
        run) that place is additionally advanced to the latest pending
        completion, modeling the wait for the final checkpoint to become
        durable.
        """
        stall = 0.0
        t_last = 0.0
        for place_id, t_done in self._pending_arrivals.items():
            if place_id in self._dead:
                continue
            t_last = max(t_last, t_done)
            lag = t_done - self.clock.now(place_id)
            if lag > 0:
                stall = max(stall, lag)
                self.clock.set_at_least(place_id, t_done)
        if sync_place_id is not None and t_last > 0.0:
            lag = t_last - self.clock.now(sync_place_id)
            if lag > 0:
                stall = max(stall, lag)
                self.clock.set_at_least(sync_place_id, t_last)
        self._pending_arrivals.clear()
        return stall

    # -- transfers -----------------------------------------------------------

    def serve(self, place_id: int, t_request: float, duration: float) -> float:
        """Schedule work on a place's communication server.

        The server is busy from the request until completion; subsequent
        requests queue behind it.  The served place's timeline is advanced
        to the completion (deferred inside an overlap scope).
        """
        self._check_place(place_id)
        if duration == 0.0 and self.cost.is_zero and not self.clock._moved and not self._tl_enabled:
            return t_request
        done = self.resource(("srv", place_id)).acquire(t_request, duration)
        self._arrive(place_id, done)
        return done

    def transfer(self, src_id: int, dst_id: int, nbytes: float, t_request: float) -> float:
        """Topology-aware point-to-point transfer; returns completion time.

        Without node topology (``cost.places_per_node == 0``) the transfer
        occupies the sender's transmit side and the receiver's receive side
        (full duplex).  With topology, intra-node transfers use the
        shared-memory rate through the destination place's server, while
        cross-node transfers serialize through *both* endpoints' node NICs.

        Under a :class:`~repro.runtime.failure.TransientFaultModel` each
        transmission attempt can be dropped (retransmitted after an
        exponential-backoff RTO, up to ``retry_policy.max_retries``, then
        ``CommTimeoutError``), duplicated (the duplicate burns receive-side
        resource time but is suppressed — at-most-once delivery) or
        delayed in flight.
        """
        self._check_place(src_id)
        self._check_place(dst_id)
        faults = self.faults
        if faults is None:
            if self.cost.is_zero and not self.clock._moved and not self._tl_enabled:
                # Zero-time fast path: the link acquire and the arrival
                # would compute exactly t_request (0.0) back.
                return t_request
            return self._transfer_once(src_id, dst_id, nbytes, t_request)
        policy = self.retry_policy
        t_send = t_request
        attempt = 0
        while True:
            fate = faults.fate(src_id, dst_id, t_send)
            if fate.delivered:
                done = self._transfer_once(
                    src_id, dst_id, nbytes, t_send, extra_delay=fate.extra_delay
                )
                if fate.duplicated:
                    # The duplicate is absorbed at the receiver: it burns
                    # communication-server time but is never delivered
                    # twice (sequence-number suppression).
                    self.resource(("srv", dst_id)).acquire(
                        done, self.cost.message(0)
                    )
                return done
            if attempt >= policy.max_retries:
                faults.timeouts += 1
                raise CommTimeoutError(dst_id, retries=attempt)
            t_send += policy.rto(attempt, self.cost, nbytes)
            attempt += 1
            faults.retransmissions += 1

    def _transfer_once(
        self,
        src_id: int,
        dst_id: int,
        nbytes: float,
        t_request: float,
        extra_delay: float = 0.0,
    ) -> float:
        """One (successful) transmission attempt over the modeled route."""
        cost = self.cost
        if cost.places_per_node <= 0:
            done = self.link(("tx", src_id), ("rx", dst_id)).acquire(
                t_request, cost.message(nbytes)
            )
            route = "p2p"
        else:
            src_node, dst_node = cost.node_of(src_id), cost.node_of(dst_id)
            if src_node == dst_node:
                done = self.resource(("srv", dst_id)).acquire(
                    t_request, cost.shm_message(nbytes)
                )
                route = "shm"
            else:
                done = self.link(("nic-tx", src_node), ("nic-rx", dst_node)).acquire(
                    t_request, cost.message(nbytes)
                )
                route = "nic"
        done += extra_delay
        self._arrive(dst_id, done)
        if self._tl_enabled:
            self.timeline.record(
                TransferEvent(
                    t_start=t_request,
                    t_end=done,
                    src=src_id,
                    dst=dst_id,
                    nbytes=cost.scaled_bytes(nbytes),
                    route=route,
                )
            )
        return done

    def transfer_fanout(
        self, src_id: int, dst_ids: Sequence[int], nbytes: float, t_request: float
    ) -> List[float]:
        """Replica fan-out: one transfer per destination from a common issue
        time.

        The snapshot store's k-replica backup path: the source issues every
        send at *t_request*; its transmit side (or node NIC) serializes the
        sends while distinct destinations absorb them concurrently, so the
        fan-out's critical path grows with contention, not with a synthetic
        send-after-send chain.  Returns the per-destination completion
        times in input order.
        """
        return [
            self.transfer(src_id, dst_id, nbytes, t_request) for dst_id in dst_ids
        ]

    # -- stable storage --------------------------------------------------------

    def stable_write(self, place_id: int, nbytes: float) -> float:
        """Ship *nbytes* from a place to the shared stable store.

        One network message to reach the store, then the write serializes
        on the shared disk.  The writing place waits for the acknowledged
        completion (deferred inside an overlap scope).
        """
        self._check_place(place_id)
        cost = self.cost
        t_request = self.clock.now(place_id) + cost.message(nbytes)
        done = self.disk.acquire(t_request, cost.disk(nbytes))
        self._arrive(place_id, done)
        if self._tl_enabled:
            self.timeline.record(
                DiskEvent(
                    t_start=t_request,
                    t_end=done,
                    place=place_id,
                    nbytes=cost.scaled_bytes(nbytes),
                    op="write",
                )
            )
        return done

    def stable_read(self, place_id: int, nbytes: float) -> float:
        """Read *nbytes* back from the stable store to a place.

        The read serializes on the shared disk, then one network message
        carries the data to the reader, which waits for the arrival.
        """
        self._check_place(place_id)
        cost = self.cost
        t_request = self.clock.now(place_id)
        done = self.disk.acquire(t_request, cost.disk(nbytes))
        arrival = done + cost.message(nbytes)
        self._arrive(place_id, arrival)
        if self._tl_enabled:
            self.timeline.record(
                DiskEvent(
                    t_start=t_request,
                    t_end=arrival,
                    place=place_id,
                    nbytes=cost.scaled_bytes(nbytes),
                    op="read",
                )
            )
        return arrival

    # -- finish completion ------------------------------------------------------

    def complete_finish(
        self,
        runtime,
        label: str,
        t_start: float,
        task_ends: Sequence[float],
        n_tasks: int,
        ledger_arrivals: Optional[List[float]] = None,
        *,
        t_floor: Optional[float] = None,
        ret_bytes: float = 0.0,
        dead_places: Optional[List[int]] = None,
    ) -> FinishReport:
        """Join + bookkeeping shared by the dispatch loop and the collectives.

        The driver serially absorbs one termination message per task; under
        resilience the finish additionally waits for the place-zero ledger
        to drain its events (scheduled on the engine's ledger resource).
        Returns the recorded :class:`FinishReport`; the driver's clock is
        advanced to the finish completion.
        """
        clock, cost = self.clock, self.cost
        times = clock._times
        stats = runtime.stats
        driver = runtime.DRIVER_ID
        t_join = times[driver]
        if t_floor is not None and t_floor > t_join:
            t_join = t_floor
        n_ends = len(task_ends)
        task_end_max = t_start
        if n_ends:
            task_end_max = max(task_ends)
            # Hoisted constants: message cost depends only on ret_bytes and
            # the join overhead is per-task fixed, so the historical
            # `max(t_join, end + msg) + join_dt` recurrence runs with the
            # identical float operations, minus the per-event lookups.
            msg = cost.message(ret_bytes)
            join_dt = cost.task_join_time
            if msg == 0.0 and join_dt == 0.0:
                # The recurrence collapses to a running max — exactly what
                # the loop computes when both costs are zero (chaos runs
                # under CostModel.zero() live here).
                if task_end_max > t_join:
                    t_join = task_end_max
            else:
                for t_end in sorted(task_ends):
                    arrive = t_end + msg
                    if arrive > t_join:
                        t_join = arrive
                    t_join += join_dt
            stats.messages += n_ends
            inc = ret_bytes * cost.logical_scale
            if inc:
                # Repeated addition keeps the accumulator bit-identical to
                # the historical per-task `+=`.
                acc = stats.bytes_sent
                for _ in range(n_ends):
                    acc += inc
                stats.bytes_sent = acc

        ledger_ready = 0.0
        t_finish = t_join
        if runtime.resilient and ledger_arrivals is not None:
            ledger_ready = runtime.ledger.process(ledger_arrivals)
            if ledger_ready > t_finish:
                runtime.ledger.record_stall(ledger_ready - t_finish)
                t_finish = ledger_ready
        if t_finish > times[driver]:
            times[driver] = t_finish
        if t_finish:
            # Also covers the times the dispatch loop stored straight into
            # ``times``: each is bounded by this completion.
            clock._moved = True

        stats.finishes += 1
        stats.tasks += n_tasks
        report = FinishReport(
            label=label,
            start=t_start,
            end=t_finish,
            n_tasks=n_tasks,
            task_end_max=task_end_max,
            ledger_ready=ledger_ready,
            dead_places=list(dead_places or []),
        )
        stats.finish_reports.append(report)
        if self._tl_enabled:
            self.timeline.record(
                FinishEvent(
                    t_start=t_start,
                    t_end=t_finish,
                    label=label,
                    n_tasks=n_tasks,
                    task_end_max=task_end_max,
                    ledger_ready=ledger_ready,
                )
            )
        return report

    def complete_finish_zero(
        self,
        runtime,
        label: str,
        n_ends: int,
        n_tasks: int,
        ledger_events: int,
        ret_bytes: float = 0.0,
        dead_places: Optional[List[int]] = None,
    ) -> FinishReport:
        """Zero-time variant of :meth:`complete_finish`.

        Only valid under :meth:`zero_fast`: every task end, arrival and
        frontier is 0.0, so the join recurrence, the ledger drain and the
        clock update all land back on 0.0.  What remains is exactly the
        observable bookkeeping the slow path performs — stats counters
        (bit-identical accumulation), ledger event counts, and the
        recorded :class:`FinishReport`.  *n_ends* is the number of task
        terminations (``len(task_ends)``), *n_tasks* the live task count,
        *ledger_events* the number of resilient ledger arrivals the slow
        path would have posted (0 when the runtime is non-resilient).
        """
        stats = runtime.stats
        if n_ends:
            stats.messages += n_ends
            inc = ret_bytes * self.cost.logical_scale
            if inc:
                # Repeated addition keeps the accumulator bit-identical to
                # the historical per-task `+=`.
                acc = stats.bytes_sent
                for _ in range(n_ends):
                    acc += inc
                stats.bytes_sent = acc
        if runtime.resilient and ledger_events:
            lstats = runtime.ledger.stats
            lstats.events += ledger_events
            lstats.finishes += 1
        stats.finishes += 1
        stats.tasks += n_tasks
        report = FinishReport(
            label=label,
            start=0.0,
            end=0.0,
            n_tasks=n_tasks,
            task_end_max=0.0,
            ledger_ready=0.0,
            dead_places=list(dead_places or []),
        )
        stats.finish_reports.append(report)
        return report

    # -- event hooks -----------------------------------------------------------

    def _sync_ledger_hook(self, enabled: bool) -> None:
        """Attach/detach the ledger recording hook as tracing toggles."""
        self.ledger.on_acquire = self._record_service if enabled else None

    def _sync_timeline_flag(self, enabled: bool) -> None:
        """Keep the plain-attribute mirror of ``timeline.enabled`` fresh."""
        self._tl_enabled = enabled

    def _record_service(
        self, resource: Resource, t_request: float, start: float, done: float
    ) -> None:
        if self._tl_enabled:
            self.timeline.record(
                ServiceEvent(t_start=t_request, t_end=done, resource=str(resource.key))
            )

    # -- introspection ----------------------------------------------------------

    def utilization(self) -> Dict[Any, Tuple[float, int]]:
        """``{resource key: (busy seconds, requests served)}`` snapshot."""
        return {
            key: (res.busy_time, res.served) for key, res in self._resources.items()
        }

    def __repr__(self) -> str:
        return (
            f"Scheduler(resources={len(self._resources)}, dead={sorted(self._dead)}, "
            f"overlapping={self.overlapping})"
        )
