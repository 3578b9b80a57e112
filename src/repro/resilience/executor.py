"""The resilient iterative executor (paper §V-A3, §V-B).

Runs a :class:`~repro.resilience.iterative.ResilientIterativeApp`:

* calls ``step()`` in a loop until ``is_finished()``;
* calls ``checkpoint(store)`` every *checkpoint_interval* iterations
  (at the beginning of the iteration body);
* on a ``DeadPlaceException``, cancels any half-taken checkpoint and walks
  the **recovery ladder** (:meth:`IterativeExecutor._recover`), rung by rung,
  until one absorbs the failure:

  1. ``_retry_checkpoint`` — every suspect was cleared by the detector (a
     transient fault) and the failure hit a checkpoint: capture never
     mutates application state, so the cancelled checkpoint is retried and
     nothing rolls back;
  2. ``_reconstruct`` (``recovery="reconstruct"``) — rebuild the lost
     partitions in place from published redundancy, zero lost iterations;
     declines (a recorded fallback) on a burst beyond that redundancy, a
     spare shortage or too many aborted attempts;
  3. ``_rollback`` — the paper's scheme: build a new place group according
     to the **restoration mode**, ``restore(new_places, store,
     snapshot_iter)`` onto it, and in replace modes ``_scrub`` the copies
     the failure destroyed;
  4. ``DataLossError`` — no committed checkpoint to roll back to.

Every protocol step runs through one primitive, ``_attempt(context,
action, *args)``: it brackets the action in the injector's ``during=``
context and hands a further failure back to the rung, which charges the
aborted attempt, observes the failure and goes round.  Spares for the dead
indices come from one claim loop, ``_claim_replacements``.

Restoration modes (§V-B):

* ``SHRINK`` — continue on the survivors; a ``DistBlockMatrix`` keeps its
  data grid (fast block-by-block restore, possible load imbalance);
* ``SHRINK_REBALANCE`` — continue on the survivors with a recalculated
  grid (even load, expensive overlap-copy restore);
* ``REPLACE_REDUNDANT`` — substitute pre-started spare places for the dead
  ones at the *same group indices* (no rebalancing needed); falls back to
  a shrink mode when spares run out;
* ``REPLACE_ELASTIC`` — the paper's future-work mode, implemented here as
  an extension: dynamically create brand-new places to replace dead ones.

Checkpoint modes:

* ``"blocking"`` (the paper's scheme) — the application stalls until every
  snapshot partition has reached its backup place;
* ``"overlapped"`` — the snapshot is *captured* synchronously (the local
  copy must be consistent), but the backup transfers are scheduled on the
  engine's communication resources inside an overlap scope and complete
  concurrently with the next iterations' compute.  Deferred completions
  are drained before the next checkpoint (the previous checkpoint must be
  durable before it is superseded) and at the end of the run; only the
  residual that compute could not hide stalls the application — the
  asynchronous-checkpointing win ReStore and Kohl et al. report.

The executor accounts virtual time per segment (step / checkpoint /
restore), which is exactly the decomposition Tables III–IV report, plus
``checkpoint_stall_time`` — the time the application was actually blocked
by checkpointing, the number the overlapped mode drives down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Tuple

from repro.resilience.iterative import (
    ReconstructableIterativeApp,
    ResilientIterativeApp,
    RestoreContext,
)
from repro.resilience.placement import ParityPlacement, ReplicaPlacement
from repro.resilience.reconstruct import ReconstructionStore
from repro.resilience.store import AppResilientStore
from repro.runtime.detector import PhiAccrualDetector
from repro.runtime.exceptions import (
    DataLossError,
    DeadPlaceException,
    MultipleException,
)
from repro.runtime.failure import CorruptionModel
from repro.runtime.place import PlaceGroup
from repro.runtime.pool import PlaceLease
from repro.runtime.runtime import Runtime
from repro.util.validation import check_positive, require


class RestoreMode(Enum):
    """How the application adapts to the loss of places."""

    SHRINK = "shrink"
    SHRINK_REBALANCE = "shrink-rebalance"
    REPLACE_REDUNDANT = "replace-redundant"
    REPLACE_ELASTIC = "replace-elastic"


@dataclass
class ExecutionReport:
    """Timing and event decomposition of one executor run (virtual time)."""

    iterations_executed: int = 0
    useful_iterations: int = 0
    checkpoints: int = 0
    restores: int = 0
    #: Restore attempts that a further failure aborted mid-flight (the
    #: successful retry is counted in ``restores``, not here).
    aborted_restores: int = 0
    failures_observed: int = 0
    step_time: float = 0.0
    checkpoint_time: float = 0.0
    restore_time: float = 0.0
    #: Time the application was blocked by checkpointing: the visible
    #: (synchronous) part of every checkpoint plus any overlap residue the
    #: following compute could not hide.  Equals ``checkpoint_time`` in
    #: blocking mode.
    checkpoint_stall_time: float = 0.0
    #: Time spent in step/checkpoint attempts that a failure aborted.
    lost_time: float = 0.0
    total_time: float = 0.0
    checkpoint_durations: List[float] = field(default_factory=list)
    restore_durations: List[float] = field(default_factory=list)
    #: Durations of restore attempts aborted by a further failure.
    aborted_restore_durations: List[float] = field(default_factory=list)
    #: Iteration each successful restore rolled back to (always the latest
    #: committed checkpoint's iteration — the recovery invariant).
    restored_iterations: List[int] = field(default_factory=list)
    #: Scripted kills that never fired (e.g. the run converged first).
    pending_kills: List = field(default_factory=list)
    #: Recovery reads served by the stable-storage tier because every
    #: in-memory copy of a partition was gone.
    stable_fallback_reads: int = 0
    final_group_size: int = 0
    #: Virtual time spent waiting on the failure detector's verdict
    #: (the SUSPECTED → CONFIRMED_DEAD / cleared ladder).
    detection_wait_time: float = 0.0
    #: Places evicted on a CONFIRMED_DEAD verdict (membership updates).
    evictions: int = 0
    #: Evictions that fenced a place which was actually alive — the cost
    #: of a detector false positive (the run must still converge).
    false_positive_evictions: int = 0
    #: Recoveries (checkpoint retry or rollback) triggered by a transient
    #: fault: all suspects were cleared by the detector, no place evicted.
    transient_restores: int = 0
    #: Snapshot copies quarantined by checksum verification.
    quarantined_copies: int = 0
    #: Transient-network accounting (zero on a reliable network).
    dropped_messages: int = 0
    retransmissions: int = 0
    duplicate_messages: int = 0
    comm_timeouts: int = 0
    #: Delta-checkpointing accounting: partitions adopted clean (by
    #: reference, zero virtual-time cost) vs saved dirty, and the logical
    #: bytes of each.  All partitions count as dirty in full mode.
    ckpt_clean_partitions: int = 0
    ckpt_dirty_partitions: int = 0
    ckpt_clean_bytes: float = 0.0
    ckpt_dirty_bytes: float = 0.0
    #: Checkpoint-free recovery accounting (``recovery="reconstruct"``).
    #: Successful reconstructions — failures survived with **zero** lost
    #: iterations (``restored_iterations`` stays empty for these).
    reconstructions: int = 0
    #: Partitions rebuilt across all successful reconstructions.
    reconstructed_partitions: int = 0
    #: Virtual time spent reconstructing (successful + aborted attempts).
    reconstruct_time: float = 0.0
    #: Durations of successful reconstructions.
    reconstruct_durations: List[float] = field(default_factory=list)
    #: Reconstruction attempts aborted by a further failure mid-recovery.
    aborted_reconstructions: int = 0
    #: Failures the reconstruct path could not absorb (burst beyond the
    #: published redundancy, spare shortage, or no committed generation):
    #: each one fell back to classic checkpoint/restart and shows up in
    #: ``restores`` / ``restored_iterations`` as a rollback.
    fallback_restores: int = 0
    #: Virtual time spent re-publishing redundant state each iteration —
    #: the steady-state overhead reconstruction trades for rollback-free
    #: recovery (the analogue of ``checkpoint_time``).
    redundancy_time: float = 0.0
    #: Logical bytes pushed through redundancy publishing.
    redundancy_bytes: float = 0.0
    #: Static snapshot copies re-replicated after reconstructions.
    repaired_static_keys: int = 0
    #: Restore reads served by XOR-reconstructing a partition from its
    #: parity group (the erasure-coded rung between replicas and disk).
    parity_reconstructions: int = 0
    #: Scrub/repair passes run after replace-mode restores.
    scrubs: int = 0
    #: Scrub passes aborted by a further failure (the restore-retry loop
    #: folds the new deaths into the next recovery round).
    aborted_scrubs: int = 0
    #: Virtual time spent in scrub/repair passes.
    scrub_time: float = 0.0
    #: Copies (primaries + parity blocks) re-materialized by scrubs.
    scrub_repaired_copies: int = 0

    @property
    def checkpoint_pct(self) -> float:
        """Checkpoint share of total runtime (Table IV's C%)."""
        return 100.0 * self.checkpoint_time / self.total_time if self.total_time else 0.0

    @property
    def restore_pct(self) -> float:
        """Restore share of total runtime (Table IV's R%)."""
        return 100.0 * self.restore_time / self.total_time if self.total_time else 0.0

    @property
    def mean_checkpoint_time(self) -> float:
        """Mean duration of one checkpoint (Table III's metric)."""
        if not self.checkpoint_durations:
            return 0.0
        return sum(self.checkpoint_durations) / len(self.checkpoint_durations)


@dataclass
class _LoopState:
    """Every datum of ``IterativeExecutor.run`` that lives across one
    iteration boundary.

    Keeping the loop's working set on the executor (instead of in stack
    locals) is what makes a mid-run executor a picklable object graph: a
    :func:`repro.engine.fork.ForkContext.capture` taken at a boundary hook
    snapshots the loop exactly where it stands, and calling ``run()`` on
    the resumed copy continues bit-for-bit.  Per-attempt temporaries
    (``t_attempt`` and friends) never cross a boundary and stay locals.
    """

    report: ExecutionReport
    iteration: int = 0
    last_checkpoint_iter: Optional[int] = None
    restore_attempts: int = 0
    t_begin: float = 0.0
    #: :meth:`IterativeExecutor._counters` at run start.
    counter_base: Tuple[int, ...] = ()


#: Valid values of ``IterativeExecutor``'s ``checkpoint_mode``.
CHECKPOINT_MODES = ("blocking", "overlapped")

#: Valid values of ``IterativeExecutor``'s ``recovery``:
#: ``"checkpoint"`` is the paper's rollback scheme; ``"reconstruct"`` is
#: checkpoint-free (ABFT) recovery for apps implementing
#: :class:`~repro.resilience.iterative.ReconstructableIterativeApp`, with
#: checkpoint/restart kept as the fallback rung of the recovery ladder.
RECOVERY_MODES = ("checkpoint", "reconstruct")


def check_recovery(
    app_cls: type, recovery: str, placement: Optional[ReplicaPlacement]
) -> None:
    """``ValueError`` unless *recovery* is a scheme *app_cls* and *placement*
    can serve — the one check behind the executor and every configuration
    boundary (``CampaignConfig``), so a bad pair is a one-line error up front
    rather than a traceback from the first schedule."""
    require(
        recovery in RECOVERY_MODES,
        f"recovery must be one of {RECOVERY_MODES}",
    )
    if recovery == "reconstruct":
        require(
            issubclass(app_cls, ReconstructableIterativeApp),
            "recovery='reconstruct' needs a ReconstructableIterativeApp "
            "(publish_redundant/reconstruct)",
        )
        require(
            not isinstance(placement, ParityPlacement),
            "recovery='reconstruct' publishes per-key replicas whose "
            "placement mirrors the checkpoint store's; parity placement "
            "applies to snapshot stores only — use recovery='checkpoint' "
            "with placement=parity[:g]",
        )


#: Report fields recorded as per-run deltas of runtime-global counters, so
#: a report stays per-job when several executors share one runtime.
_RUNTIME_COUNTERS = (
    "stable_fallback_reads", "parity_reconstructions",
    "dropped_messages", "retransmissions", "duplicate_messages", "comm_timeouts",
)

#: Restoration modes that install new places at the dead members' indices
#: (and therefore scrub the restored checkpoint back to full redundancy).
_REPLACE_MODES = (RestoreMode.REPLACE_REDUNDANT, RestoreMode.REPLACE_ELASTIC)


class IterativeExecutor:
    """Drives a resilient iterative application to completion."""

    def __init__(
        self,
        runtime: Runtime,
        app: ResilientIterativeApp,
        store: Optional[AppResilientStore] = None,
        checkpoint_interval: int = 10,
        mode: RestoreMode = RestoreMode.SHRINK,
        spare_fallback: RestoreMode = RestoreMode.SHRINK,
        max_restore_attempts: int = 10,
        checkpoint_mode: str = "blocking",
        replicas: Optional[int] = None,
        placement: Optional[ReplicaPlacement] = None,
        stable_fallback: Optional[bool] = None,
        detector: Optional[PhiAccrualDetector] = None,
        corruption: Optional[CorruptionModel] = None,
        delta: bool = False,
        lease: Optional[PlaceLease] = None,
        recovery: str = "checkpoint",
    ):
        check_positive(checkpoint_interval, "checkpoint_interval")
        require(
            spare_fallback in (RestoreMode.SHRINK, RestoreMode.SHRINK_REBALANCE),
            "spare_fallback must be a shrink mode",
        )
        require(
            checkpoint_mode in CHECKPOINT_MODES,
            f"checkpoint_mode must be one of {CHECKPOINT_MODES}",
        )
        self.runtime = runtime
        self.app = app
        #: The executor's slice of the place pool.  Replacement places are
        #: claimed through the lease, never from the runtime directly —
        #: which spares the lease is entitled to is the pool's business
        #: (dedicated / pooled / borrow economics).  Single-job callers get
        #: the degenerate whole-world lease and the classic behavior.
        self.lease = lease if lease is not None else runtime.default_lease
        if store is None:
            store = AppResilientStore(
                runtime,
                replicas=replicas,
                placement=placement,
                stable_fallback=stable_fallback,
                delta=delta,
            )
        #: The store's replication knobs are the executor's: a caller that
        #: hands in a configured store does not repeat them.
        self.store = store
        check_recovery(type(app), recovery, store.placement)
        self.checkpoint_interval = checkpoint_interval
        self.mode = mode
        self.spare_fallback = spare_fallback
        self.max_restore_attempts = max_restore_attempts
        self.checkpoint_mode = checkpoint_mode
        #: Without a detector, failure knowledge is the oracle model
        #: (exceptions carry ground truth); with one, recovery decisions go
        #: through the SUSPECTED → CONFIRMED_DEAD ladder and pay detection
        #: latency in virtual time.
        self.detector = detector
        if detector is not None:
            runtime.attach_detector(detector)
        #: Post-commit bit-rot injection (chaos campaigns).
        self.corruption = corruption
        #: Redundant-state store for checkpoint-free recovery; replica
        #: count and placement mirror the checkpoint store's knobs.
        self.rstore: Optional[ReconstructionStore] = (
            ReconstructionStore(
                runtime,
                replicas=store.replicas if store.replicas is not None else 1,
                placement=store.placement,
            )
            if recovery == "reconstruct"
            else None
        )
        #: Spares claimed by an aborted reconstruction attempt, kept for
        #: the next attempt (or the fallback restore) — a lease has no
        #: un-claim, so a claimed spare must not leak.
        self._spare_stash: List = []
        #: Live loop state (:class:`_LoopState`) once ``run()`` has
        #: started; the seam simulator forking captures and resumes at.
        self._loop: Optional[_LoopState] = None

    def _evict(self, place_id: int, report: ExecutionReport) -> None:
        """Act on a CONFIRMED_DEAD verdict: fence the place out.

        For a place that really died this is pure bookkeeping; for a false
        positive the group must still converge on one membership view, so
        the live place is killed (fenced) — the cost of imperfect
        detection, paid so that split-brain is impossible.
        """
        if place_id == self.runtime.DRIVER_ID:
            return
        report.evictions += 1
        if self.runtime.is_alive(place_id):
            report.false_positive_evictions += 1
            self.runtime.kill(place_id)

    def _observe(self, failure, report: ExecutionReport) -> Tuple[list, list]:
        """Account one observed failure; returns ``(confirmed, cleared)``.

        With a detector the suspects go through the suspicion ladder: wait
        (in virtual time) until each is either CONFIRMED_DEAD (evicted
        here) or cleared by a fresh heartbeat (a transient fault — the
        group keeps its membership).  Without one, exceptions carry ground
        truth and both lists are empty.
        """
        report.failures_observed += len(failure.places)
        if self.detector is None:
            return [], []
        confirmed, cleared, waited = self.detector.resolve(failure.places)
        report.detection_wait_time += waited
        for pid in confirmed:
            self._evict(pid, report)
        return confirmed, cleared

    def _counters(self) -> Tuple[int, ...]:
        """Current values of the runtime-global counters behind
        :data:`_RUNTIME_COUNTERS`, in that order."""
        stats, faults = self.runtime.stats, self.runtime.faults
        network = (0, 0, 0, 0) if faults is None else (
            faults.dropped, faults.retransmissions, faults.duplicates, faults.timeouts
        )
        return (stats.stable_fallback_reads, stats.parity_reconstructions, *network)

    # -- the one attempt primitive -------------------------------------------

    def _attempt(
        self, context: Optional[str], action: Callable, *args
    ) -> Optional[Exception]:
        """Run ``action(*args)``; return the failure that aborted it, else
        ``None``.

        A named *context* brackets the action in the injector's ``during=``
        context (a kill scripted for it fires inside).  The caller charges
        the aborted attempt before observing the failure; observing after
        the context has closed moves nothing, because the detector's
        verdict wait never polls kills.
        """
        injector = self.runtime.injector
        if context is not None:
            injector.enter_context(context)
        try:
            action(*args)
        except (DeadPlaceException, MultipleException) as failure:
            return failure
        finally:
            if context is not None:
                injector.exit_context(context)
        return None

    def _count_attempt(self, failure: Exception, message: str) -> None:
        """One more consecutive recovery attempt (the count resets after
        every completed step); past ``max_restore_attempts`` the run gives
        up with *message* formatted with the number that failed."""
        state = self._loop
        state.restore_attempts += 1
        if state.restore_attempts > self.max_restore_attempts:
            raise DataLossError(message.format(state.restore_attempts - 1)) from failure

    # -- one iteration ----------------------------------------------------------

    def _checkpoint(self) -> None:
        """Take this iteration's checkpoint and charge it."""
        rt, state = self.runtime, self._loop
        t0 = rt.now()
        if self.checkpoint_mode == "overlapped":
            # The previous checkpoint's backups must be durable before this
            # one supersedes it: apply any deferred completions (the residue
            # propagates into this checkpoint's visible duration), then
            # capture the new snapshot with its backup transfers deferred.
            rt.engine.drain_overlap()
            with rt.engine.overlap():
                self.app.checkpoint(self.store)
        else:
            self.app.checkpoint(self.store)
        dt = rt.now() - t0
        report = state.report
        report.checkpoint_time += dt
        report.checkpoint_stall_time += dt
        report.checkpoint_durations.append(dt)
        report.checkpoints += 1
        state.last_checkpoint_iter = state.iteration
        if self.corruption is not None:
            self.corruption.strike(self.store)

    def _step(self) -> None:
        """One application step, then the redundancy refresh (a failure
        mid-publish leaves the previous generation committed —
        reconstruction then redoes one step)."""
        rt, state = self.runtime, self._loop
        t0 = rt.now()
        self.app.step()
        state.report.step_time += rt.now() - t0
        state.report.iterations_executed += 1
        state.iteration += 1
        state.restore_attempts = 0
        if self.rstore is not None:
            self._publish()

    def _publish(self) -> None:
        """Publish the redundant state of the current boundary."""
        t0 = self.runtime.now()
        self.app.publish_redundant(self.rstore, self._loop.iteration)
        self._loop.report.redundancy_time += self.runtime.now() - t0

    # -- the recovery ladder -------------------------------------------------

    def _recover(self, failure: Exception) -> None:
        """Absorb one failure of an iteration attempt: walk the ladder's
        rungs in order until one recovers; ``DataLossError`` if none can."""
        report = self._loop.report
        failed_in_checkpoint = self.store.in_progress
        if failed_in_checkpoint:
            self.store.cancel_snapshot()
        confirmed, cleared = self._observe(failure, report)
        # Every suspect cleared, none confirmed: a transient fault — the
        # group keeps its membership.
        transient_only = bool(cleared) and not confirmed
        if transient_only:
            report.transient_restores += 1
        for rung, applies in (
            (self._retry_checkpoint, transient_only and failed_in_checkpoint),
            (self._reconstruct, self.rstore is not None),
            (self._rollback, True),
        ):
            if applies and rung(failure):
                return
        raise DataLossError(
            "place failed before the first checkpoint committed; "
            "no recovery point exists"
        ) from failure

    def _retry_checkpoint(self, failure: Exception) -> bool:
        """Rung 1: a purely transient fault during a checkpoint.  Snapshot
        capture reads application state but never mutates it, so the
        cancelled attempt is simply retried at the loop top — bounded like
        restore attempts, so a partition that never heals cannot hang the
        run."""
        self._count_attempt(
            failure, "checkpoint failed {} consecutive times under transient faults"
        )
        return True

    def _reconstruct(self, failure: Exception) -> bool:
        """Rung 2: rebuild the lost partitions in place.

        Recovers once the application is back at the last published
        boundary (zero lost iterations, counter not rolled back).  Declines
        when this failure cannot be absorbed — no committed generation,
        spare shortage, a burst beyond the published redundancy
        (``DataLossError`` from a fetch), or too many attempts aborted by
        further failures; the decline is a recorded fallback, and the
        generation is dropped (a shrinking restore would orphan its group
        binding), to be rebuilt from scratch by the next publish.

        A transient verdict with no confirmed deaths also lands here with
        an empty lost set: every place resets to the boundary from its
        *local* primary copies — consistent recovery from a mid-step
        transient without any communication or rollback.
        """
        rt, state, rstore = self.runtime, self._loop, self.rstore
        report = state.report
        for _ in range(self.max_restore_attempts if rstore.ready else 0):
            # The app's group only advances on success, so the dead set is
            # recomputed from the same base group each attempt; spares from
            # an aborted attempt sit in the stash and are reused.
            group = self.app.places
            dead_idx = [i for i in range(group.size) if not rt.is_alive(group[i].id)]
            new_group = self._claim_replacements(group, dead_idx)
            if new_group is None:
                break
            t0 = rt.now()
            try:
                again = self._attempt(
                    "reconstruct", self.app.reconstruct, new_group, rstore, dead_idx
                )
            except DataLossError as lost:  # a burst beyond the redundancy
                again = lost
            dt = rt.now() - t0
            report.reconstruct_time += dt
            if again is None:
                report.reconstruct_durations.append(dt)
                report.reconstructions += 1
                report.reconstructed_partitions += len(dead_idx)
                state.iteration = rstore.state_iteration
                state.restore_attempts = 0
                return True
            self._spare_stash.extend(new_group[i] for i in dead_idx)
            if isinstance(again, DataLossError):
                break
            # A further failure mid-reconstruction.  Every rebuild primitive
            # (rehome / fetch-reset / re-solve / repair) is idempotent, so
            # the retry simply redoes the recovery over a refreshed group.
            report.aborted_reconstructions += 1
            self._observe(again, report)
        report.fallback_restores += 1
        rstore.invalidate()
        return False

    def _rollback(self, failure: Exception) -> bool:
        """Rung 3, the paper's recovery: restore the latest committed
        checkpoint onto the restoration mode's group.

        Retried until it completes: a failure mid-restore leaves the
        application's objects on inconsistent place groups, so going back
        to ``step()`` is not an option — only a full restore re-establishes
        a consistent state.  Each aborted attempt is accounted separately
        (``aborted_restores``) from the successful one.  Declines only when
        no checkpoint has committed yet.
        """
        rt, state, store = self.runtime, self._loop, self.store
        report = state.report
        if store.latest() is None:
            return False
        while True:
            self._count_attempt(failure, "restore failed {} consecutive times")
            new_group, mode = self._replacement_group(self.app.places)
            require(new_group.size > 0, "no live places remain")
            self.app.restore_context = RestoreContext(
                rebalance=(mode == RestoreMode.SHRINK_REBALANCE)
            )
            t0 = rt.now()
            again = self._attempt(
                "restore", self.app.restore, new_group, store, store.latest_iteration
            )
            dt = rt.now() - t0
            if again is not None:
                # A further failure during restore: the suspects go through
                # the same ladder — a CONFIRMED_DEAD verdict shrinks the next
                # attempt's group, and the resolve wait advances virtual time
                # so a healing partition is eventually ridden out.
                report.restore_time += dt
                report.aborted_restores += 1
                report.aborted_restore_durations.append(dt)
                self._observe(again, report)
            elif mode not in _REPLACE_MODES or self._scrub(new_group):
                break
        report.restore_time += dt
        report.restore_durations.append(dt)
        report.restores += 1
        state.iteration = state.last_checkpoint_iter = store.latest_iteration
        report.useful_iterations = state.iteration
        report.restored_iterations.append(state.iteration)
        return True

    def _scrub(self, group: PlaceGroup) -> bool:
        """The tail of a replace-mode rollback: with new places installed
        at the dead members' indices, re-materialize the copies the failure
        destroyed (missing primaries, lost parity blocks) so the *next*
        failure faces a fully redundant checkpoint again.  Shrink modes
        skip it — the old snapshot's homes are gone for good and the next
        checkpoint over the shrunken group supersedes it.

        Returns ``False`` when a kill aborted the pass: the restored state
        may span the new victims, so the caller goes round — another
        restore, then another scrub.
        """
        rt, report = self.runtime, self._loop.report
        repaired: List[int] = []

        def repair_all() -> None:
            for snap in self.store.latest().all_snapshots():
                # Scrubbing runs between finishes, so due context kills are
                # polled explicitly.
                rt.poll_failures()
                repaired.append(snap.repair(group))

        t0 = rt.now()
        again = self._attempt("scrub", repair_all)
        report.scrub_time += rt.now() - t0
        if again is not None:
            report.aborted_scrubs += 1
            self._observe(again, report)
            return False
        report.scrubs += 1
        report.scrub_repaired_copies += sum(repaired)
        return True

    # -- replacement groups ----------------------------------------------------

    def _claim_replacements(
        self, group: PlaceGroup, dead_idx: List[int], all_or_none: bool = False
    ) -> Optional[PlaceGroup]:
        """*group* with a spare installed at each of *dead_idx*, claimed
        from the stash of aborted-reconstruct claims first (newest first),
        then from the lease; ``None`` on a shortage.

        A shortage found mid-way stashes the spares already claimed (a
        lease has no un-claim, so a claimed spare must not leak).  With
        *all_or_none* the spares are counted before any is claimed, and a
        shortage claims none; the count is exact (the pool's live counters,
        and no virtual time passes between count and claims), so then every
        claim succeeds.
        """
        stash = self._spare_stash = [
            p for p in self._spare_stash if self.runtime.is_alive(p.id)
        ]
        if all_or_none and self.lease.spares_remaining + len(stash) < len(dead_idx):
            return None
        new_group, claimed = group, []
        for i in dead_idx:
            spare = stash.pop() if stash else self.lease.claim_spare()
            if spare is None:
                stash.extend(claimed)
                return None
            claimed.append(spare)
            new_group = new_group.replace(group[i], spare)
        return new_group

    def _replacement_group(self, group: PlaceGroup) -> tuple:
        """New group + effective mode for a rollback after a failure in
        *group*."""
        rt, mode = self.runtime, self.mode
        dead_idx = [i for i in range(group.size) if not rt.is_alive(group[i].id)]
        if mode == RestoreMode.REPLACE_ELASTIC:
            new_group = group
            for i in dead_idx:
                new_group = new_group.replace(group[i], self.lease.add_place())
            return new_group, mode
        if mode == RestoreMode.REPLACE_REDUNDANT:
            # Spares exhausted: fall back to the configured shrink mode
            # without wasting one.
            new_group = self._claim_replacements(group, dead_idx, all_or_none=True)
            if new_group is not None:
                return new_group, mode
            mode = self.spare_fallback
        return rt.live_group(group), mode

    # -- main loop ------------------------------------------------------------

    def run(
        self, boundary_hook: Optional[Callable[[int], bool]] = None
    ) -> Optional[ExecutionReport]:
        """Execute the application to completion; returns the timing report.

        Raises :class:`DataLossError` if a failure strikes before the first
        checkpoint has committed (there is nothing to roll back to) or if
        both copies of a snapshot partition were lost.

        *boundary_hook*, when given, is called at every iteration-commit
        boundary (the loop top, before failure polling) with the upcoming
        iteration number.  Returning ``False`` pauses the run — ``run()``
        returns ``None`` with all loop state parked on the executor, and a
        later ``run()`` call (on this executor or on a fork of it, see
        :mod:`repro.engine.fork`) continues exactly where it stopped.  The
        hook is a plain argument, never stored on the executor, so a
        captured executor stays picklable even when the hook is a closure.
        """
        rt = self.runtime
        state = self._loop
        if state is None:
            state = self._loop = _LoopState(
                ExecutionReport(), t_begin=rt.now(), counter_base=self._counters()
            )
            if self.rstore is not None:
                # The redundant baseline must exist before any scripted kill
                # can fire (they fire at the loop top): from iteration 0 on,
                # reconstruction always has a committed generation.  A kill
                # can still land inside this very first publish (phase/time
                # triggers); the store's atomicity leaves it uncommitted and
                # the ladder takes over on the first iteration attempt.
                t0 = rt.now()
                if self._attempt(None, self._publish) is not None:
                    state.report.lost_time += rt.now() - t0

        report = state.report
        while True:
            if boundary_hook is not None and not boundary_hook(state.iteration):
                return None
            if self.app.is_finished():
                break
            for victim in rt.injector.due_at_iteration(state.iteration):
                rt.kill(victim)
            if self.detector is not None:
                # Background confirmations (e.g. a partition silently eating
                # heartbeats) are acted on even without a failed message.
                for pid in self.detector.sweep():
                    self._evict(pid, report)
            t_attempt = rt.now()
            failure = None
            if (
                state.iteration % self.checkpoint_interval == 0
                and state.iteration != state.last_checkpoint_iter
            ):
                failure = self._attempt("checkpoint", self._checkpoint)
            if failure is None:
                t_attempt = rt.now()
                failure = self._attempt(None, self._step)
            if failure is not None:
                # Any backups still in flight from an overlapped checkpoint
                # must land before recovery timing starts (their residue is
                # part of the failure's cost, not of the restore).
                rt.engine.drain_overlap()
                report.lost_time += rt.now() - t_attempt
                self._recover(failure)

        # The run is only finished once the final checkpoint is durable:
        # drain outstanding overlapped backups and charge the driver the
        # residual wait (blocking mode has nothing pending — no-op).
        report.checkpoint_stall_time += rt.engine.drain_overlap(
            sync_place_id=rt.DRIVER_ID
        )
        report.total_time = rt.now() - state.t_begin
        report.useful_iterations = state.iteration
        report.final_group_size = self.app.places.size
        report.pending_kills = rt.injector.unfired()
        for name, now, base in zip(
            _RUNTIME_COUNTERS, self._counters(), state.counter_base
        ):
            setattr(report, name, now - base)
        report.quarantined_copies = self.store.quarantined_copies()
        report.ckpt_clean_partitions = self.store.delta_clean_partitions
        report.ckpt_dirty_partitions = self.store.delta_dirty_partitions
        report.ckpt_clean_bytes = self.store.delta_clean_bytes
        report.ckpt_dirty_bytes = self.store.delta_dirty_bytes
        if self.rstore is not None:
            report.redundancy_bytes = self.rstore.redundancy_bytes
            report.repaired_static_keys = self.rstore.repaired_keys
        return report


class NonResilientExecutor:
    """Baseline executor: plain loop, no checkpoints, no recovery.

    Used for the "non-resilient (no failure)" baselines of Figs. 5–7 and
    for the non-resilient sides of Figs. 2–4.
    """

    def __init__(self, runtime: Runtime, app):
        self.runtime = runtime
        self.app = app

    def run(self) -> ExecutionReport:
        report = ExecutionReport()
        t_begin = self.runtime.now()
        while not self.app.is_finished():
            t0 = self.runtime.now()
            self.app.step()
            report.step_time += self.runtime.now() - t0
            report.iterations_executed += 1
        report.total_time = self.runtime.now() - t_begin
        report.useful_iterations = report.iterations_executed
        report.final_group_size = self.app.places.size
        return report
