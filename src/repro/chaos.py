"""Seeded chaos campaigns: recovery invariants under randomized failures.

A *campaign* runs one application under hundreds of randomized failure
schedules — single kills, simultaneous adjacent-pair and same-rack bursts,
kills fired in the middle of a checkpoint or a restore — and asserts, for
every schedule, the recovery invariants the paper's framework promises:

* the converged result matches a failure-free run of the non-resilient
  baseline (the resilient framework changes *where* work runs, never the
  answer);
* every restore rolled back to a *committed* checkpoint iteration, never
  past the last commit;
* no snapshot replica is placed on its partition's primary place;
* after any cancelled checkpoint the store is consistent (no attempt left
  open).

Losing every copy of a partition is a documented outcome, not a violation:
without the stable-storage tier a sufficiently vicious burst may exceed
the replication factor and raise ``DataLossError``.  *With* the stable
tier enabled, in-memory loss must be absorbed by the disk fallback, so a
``DataLossError`` for lost copies becomes an invariant violation.

Schedules are generated from a seed, so a violating schedule is
reproducible from its campaign seed + index alone.  Used by the
``chaos`` CLI subcommand and the chaos-smoke CI job.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baseline import failure_free_result
from repro.bench.catalogue import APPS, CHAOS_APP_NAMES
from repro.bench.harness import pmap
from repro.resilience.executor import IterativeExecutor, RestoreMode
from repro.resilience.placement import ParityPlacement, make_placement
from repro.resilience.snapshot import orphaned_copies
from repro.runtime.exceptions import DataLossError, SnapshotCorruptionError
from repro.runtime.failure import LinkPartition, ScriptedKill
from repro.util.validation import check_positive, require
from repro.world import WorldSpec, default_replicas, same_named

#: Event kinds a schedule is drawn from.  "restore" is excluded from the
#: first event (a during-restore kill needs an earlier failure to trigger
#: a restore at all); "double" draws two victims *with replacement* at the
#: same instant — the realistic correlated-failure model that can name the
#: same victim twice, which :func:`dedupe_schedule` resolves.
_EVENT_KINDS = (
    "iteration", "pair", "rack", "checkpoint", "restore", "phase", "double",
)

#: Kinds that need an earlier failure before they can fire at all.
_FOLLOWUP_KINDS = ("restore", "reconstruct")


@dataclass(frozen=True)
class CampaignConfig:
    """One chaos campaign: a base world (:attr:`spec`) plus schedule axes."""

    app: str = "linreg"
    schedules: int = 200
    seed: int = 0
    places: int = 6
    iterations: int = 10
    checkpoint_interval: int = 3
    #: Backup replicas per partition; None: 2, or 1 under parity.
    replicas: Optional[int] = None
    placement: str = "spread"
    stable_fallback: bool = False
    spares: int = 0
    #: Transient-fault axes (all off by default — crash-only campaigns).
    #: Per-message drop / duplication probability on the data plane.
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    #: One random place per schedule computes up to this factor slower
    #: (1.0 = no stragglers).
    straggler_max: float = 1.0
    #: Per-copy probability of bit-rot after each checkpoint commit.
    corrupt_rate: float = 0.0
    #: Failure-detection timeout in virtual seconds; 0 keeps the oracle
    #: failure model (no detector, exceptions carry ground truth).
    detect_timeout: float = 0.0
    #: Probability that a schedule includes a temporary link partition
    #: that heals (requires ``detect_timeout`` > 0 to be survivable).
    partition_rate: float = 0.0
    #: Incremental (dirty-partition-only) checkpointing for every schedule
    #: of the campaign.  Full checkpoints (paper parity) by default.
    ckpt_delta: bool = False
    #: Recovery scheme: "checkpoint" (rollback) or "reconstruct"
    #: (checkpoint-free, apps implementing the reconstructable protocol
    #: only — checkpoint/restart stays as the fallback rung).
    recovery: str = "checkpoint"

    def __post_init__(self) -> None:
        # Judged once, in the parent process: a bad campaign is one usage
        # error, never a traceback from a pool worker's first schedule.
        require(
            self.app in CHAOS_APP_NAMES,
            f"unknown chaos app {self.app!r}; choose from {sorted(CHAOS_APP_NAMES)}",
        )
        self.spec.validate()
        require(self.places >= 2, f"places must be >= 2 (place 0 never dies), got {self.places}")
        require(
            self.iterations >= 2,
            f"iterations must be >= 2 (kills fire at iterations 1..iterations-1), "
            f"got {self.iterations}",
        )
        check_positive(self.schedules, "schedules")
        require(self.straggler_max >= 1, f"straggler_max must be >= 1, got {self.straggler_max}")
        require(0.0 <= self.partition_rate <= 1.0, "partition_rate must be in [0, 1]")

    @cached_property
    def spec(self) -> WorldSpec:
        """The campaign's world before any draw; each schedule's world is
        this with the schedule's kills, modes and transient faults
        (:func:`schedule_spec`)."""
        return same_named(
            WorldSpec,
            self,
            workload="tiny",
            replicas=default_replicas(self.replicas, self.placement),
            spare_fallback=RestoreMode.SHRINK_REBALANCE,
        )

    @property
    def transient(self) -> bool:
        """True when any transient-fault axis is active."""
        return bool(
            self.drop_rate
            or self.dup_rate
            or self.straggler_max > 1.0
            or self.corrupt_rate
            or self.partition_rate
        )


@dataclass
class ScheduleOutcome:
    """Result of one randomized schedule."""

    index: int
    kills: List[str]
    #: "clean" (no kill fired), "recovered", or "data_loss_accepted".
    status: str
    violations: List[str] = field(default_factory=list)
    detail: str = ""


@dataclass
class CampaignResult:
    """All outcomes of one campaign."""

    config: CampaignConfig
    outcomes: List[ScheduleOutcome]

    @property
    def violations(self) -> List[ScheduleOutcome]:
        return [o for o in self.outcomes if o.violations]

    def counts(self) -> Dict[str, int]:
        by_status: Dict[str, int] = {}
        for o in self.outcomes:
            by_status[o.status] = by_status.get(o.status, 0) + 1
        return by_status

    def summary(self) -> str:
        cfg = self.config
        lines = [
            f"chaos campaign: app={cfg.app} schedules={cfg.schedules} "
            f"seed={cfg.seed} places={cfg.places} replicas={cfg.spec.replicas} "
            f"placement={cfg.placement} stable_fallback={cfg.stable_fallback} "
            f"ckpt_delta={cfg.ckpt_delta} recovery={cfg.recovery}",
        ]
        if cfg.transient:
            lines.append(
                f"transient: drop={cfg.drop_rate:g} dup={cfg.dup_rate:g} "
                f"straggler_max={cfg.straggler_max:g} corrupt={cfg.corrupt_rate:g} "
                f"partition={cfg.partition_rate:g} "
                f"detect_timeout={cfg.detect_timeout:g}"
            )
        lines += [
            "outcomes: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items())),
        ]
        bad = self.violations
        if bad:
            lines.append(f"VIOLATIONS in {len(bad)} schedule(s):")
            for o in bad[:10]:
                lines.append(
                    f"  schedule {o.index} (kills: {'; '.join(o.kills)}):"
                )
                for v in o.violations:
                    lines.append(f"    - {v}")
        else:
            lines.append("all recovery invariants held")
        return "\n".join(lines)


def _describe(kill: ScriptedKill) -> str:
    if kill.iteration is not None:
        return f"p{kill.place_id}@iter{kill.iteration}"
    if kill.phase is not None:
        return f"p{kill.place_id}@phase{kill.phase}"
    if kill.time is not None:
        return f"p{kill.place_id}@t={kill.time:g}"
    return f"p{kill.place_id}@{kill.during}#{kill.occurrence}"


def dedupe_schedule(kills: List[ScriptedKill]) -> List[ScriptedKill]:
    """Drop repeat kills of an already-condemned victim.

    Correlated draws (the "double" kind samples *with replacement*) can
    name the same place twice — at the same instant, or after an earlier
    event already condemned it.  A fail-stop place dies once, and the
    injector rejects a second kill for the same victim, so only the first
    kill per place survives; later echoes are dropped.
    """
    seen = set()
    deduped: List[ScriptedKill] = []
    for kill in kills:
        if kill.place_id in seen:
            continue
        seen.add(kill.place_id)
        deduped.append(kill)
    return deduped


def make_schedule(
    rng: np.random.Generator,
    places: int,
    iterations: int,
    kinds: Tuple[str, ...] = _EVENT_KINDS,
) -> List[ScriptedKill]:
    """Draw one randomized failure schedule (1-3 correlated/scripted events).

    Victims never include place zero, and the returned schedule is
    deduplicated: the "double" kind draws its two simultaneous victims
    with replacement, so the raw draw can condemn the same place twice —
    :func:`dedupe_schedule` keeps the first kill only.
    """
    pool = list(range(1, places))
    kills: List[ScriptedKill] = []

    def take(pid: int) -> int:
        pool.remove(pid)
        return pid

    n_events = int(rng.integers(1, 4))
    for event in range(n_events):
        if not pool:
            break
        event_kinds = kinds if event > 0 else tuple(
            k for k in kinds if k not in _FOLLOWUP_KINDS
        )
        kind = str(rng.choice(event_kinds))
        when = int(rng.integers(1, iterations))
        if kind == "pair":
            adjacent = [p for p in pool if p + 1 in pool]
            if adjacent:
                a = int(rng.choice(adjacent))
                kills.append(ScriptedKill(place_id=take(a), iteration=when))
                kills.append(ScriptedKill(place_id=take(a + 1), iteration=when))
                continue
            kind = "iteration"  # no adjacent pair left: degrade to a single
        if kind == "rack":
            # A burst of up to 3 consecutive surviving ids, same instant.
            start = int(rng.choice(pool))
            for pid in range(start, start + 3):
                if pid in pool:
                    kills.append(ScriptedKill(place_id=take(pid), iteration=when))
            continue
        if kind == "double":
            # Two *independent* failures landing at the same instant,
            # drawn with replacement over every killable place — the
            # correlated-failure model that can (and sometimes does) name
            # one victim twice or re-condemn an earlier event's victim.
            for victim in (int(x) for x in rng.integers(1, places, size=2)):
                kills.append(ScriptedKill(place_id=victim, iteration=when))
                if victim in pool:
                    pool.remove(victim)
            continue
        victim = take(int(rng.choice(pool)))
        if kind == "checkpoint":
            occurrence = int(rng.integers(1, 4))
            kills.append(
                ScriptedKill(
                    place_id=victim, during="checkpoint", occurrence=occurrence
                )
            )
        elif kind == "restore":
            kills.append(ScriptedKill(place_id=victim, during="restore"))
        elif kind == "reconstruct":
            kills.append(ScriptedKill(place_id=victim, during="reconstruct"))
        elif kind == "phase":
            kills.append(
                ScriptedKill(place_id=victim, phase=int(rng.integers(3, 60)))
            )
        else:
            kills.append(ScriptedKill(place_id=victim, iteration=when))
    return dedupe_schedule(kills)


def schedule_spec(config: CampaignConfig, index: int) -> WorldSpec:
    """The world of schedule *index*: the campaign's base spec with every
    draw of the schedule — deterministic in (campaign seed, index).  Its
    kills, restore mode and checkpoint mode come from
    ``default_rng([seed, index])``, its transient-fault plan from
    ``default_rng([seed, index, 17])`` in the order straggler, partition,
    message-fault seed, corruption seed."""
    rng = np.random.default_rng([config.seed, index])
    # Reconstruct campaigns also draw kills fired mid-reconstruction.
    kinds = _EVENT_KINDS
    if config.recovery == "reconstruct":
        kinds += ("reconstruct",)
    kills = make_schedule(rng, config.places, config.iterations, kinds=kinds)
    modes = [RestoreMode.SHRINK, RestoreMode.SHRINK_REBALANCE]
    if config.spares > 0:
        modes.append(RestoreMode.REPLACE_REDUNDANT)
    mode = modes[int(rng.integers(len(modes)))]
    checkpoint_mode = "overlapped" if rng.integers(2) else "blocking"

    trng = np.random.default_rng([config.seed, index, 17])
    draws: Dict[str, object] = {}
    if config.straggler_max > 1.0:
        pid = int(trng.integers(1, config.places))
        draws["straggler"] = ((pid, float(trng.uniform(1.0, config.straggler_max))),)
    if config.partition_rate and trng.random() < config.partition_rate:
        # A short partition that heals well inside the detection window —
        # messages and heartbeats across it are lost while it lasts.
        cut = int(trng.integers(1, config.places))
        t0 = float(trng.uniform(0.0, config.detect_timeout))
        heal = t0 + float(trng.uniform(0.1, 0.5)) * max(config.detect_timeout, 1.0)
        draws["partitions"] = (LinkPartition({cut}, set(range(config.places)) - {cut}, t0, heal),)
    if config.drop_rate or config.dup_rate or "partitions" in draws:
        draws["fault_seed"] = int(trng.integers(2**31))
    if config.corrupt_rate:
        draws["corrupt_seed"] = int(trng.integers(2**31))
    return replace(
        config.spec, kills=tuple(kills), mode=mode, checkpoint_mode=checkpoint_mode, **draws
    )


class PrefixCache:
    """Campaign-level cache of shared failure-free prefixes.

    A schedule whose world (:func:`schedule_spec`) equals the campaign's
    once its kills and two mode draws are set aside (:meth:`shares`) runs
    the same simulation as every other such schedule until its first kill
    fires.  The cache simulates that shared prefix once per checkpoint
    mode (the only draw that changes the failure-free world) and forks
    each such schedule from the image at its first-divergence boundary —
    bitwise identical to running from scratch, minus the redundant prefix
    wall-clock.

    Each reference run executes the campaign's world with *no kills
    armed* and captures a :class:`~repro.engine.fork.SimulatorImage` at
    every iteration-commit boundary, alongside the phase counter and
    virtual time observed there (the tables phase-/time-triggered kills
    are located against).  An armed-but-not-due injector is
    indistinguishable from an empty one at every poll, so the prefix of
    any schedule whose first kill fires at boundary *b* or later is
    bitwise identical to the reference run up to boundary *b*.

    A schedule that drew a straggler, a partition, a message-fault or a
    corruption seed lives in another world from iteration zero and runs
    from scratch.  A failure detector draws nothing per schedule: its
    heartbeats are part of the campaign's world, so detector schedules
    fork like crash-only ones.
    """

    def __init__(self, config: CampaignConfig):
        self.config = config
        #: Per checkpoint mode (the only draw that changes the failure-free
        #: world): ``(images, phase_at, time_at)`` — the images by boundary,
        #: and the phase counter and virtual time observed at each
        #: boundary, in boundary order.  Filled by :meth:`build`.
        self._worlds: Dict[str, Tuple[Dict, List[int], List[float]]] = {}

    def shares(self, spec: WorldSpec) -> bool:
        """True when schedule world *spec* is the campaign's world but for
        its kills, restore mode and checkpoint mode."""
        base = self.config.spec
        return base == replace(
            spec, kills=(), mode=base.mode, checkpoint_mode=base.checkpoint_mode
        )

    def build(self) -> "PrefixCache":
        """Simulate both reference prefixes; call before the first
        :meth:`fork` (and before forking a worker pool, so workers inherit
        the images instead of each rebuilding them)."""
        for checkpoint_mode in ("blocking", "overlapped"):
            self._worlds[checkpoint_mode] = self._capture(checkpoint_mode)
        return self

    def _capture(self, checkpoint_mode: str) -> Tuple:
        from repro.engine.fork import capture_boundaries

        executor = replace(self.config.spec, checkpoint_mode=checkpoint_mode).build()[3]
        rt = executor.runtime
        phase_at: List[int] = []
        time_at: List[float] = []

        def observe(boundary: int) -> None:
            phase_at.append(rt.phase)
            time_at.append(rt.clock.global_time())

        with rt:  # the images hold everything a fork needs
            return capture_boundaries(executor, observe=observe), phase_at, time_at

    def fork(self, spec: WorldSpec) -> Optional[IterativeExecutor]:
        """A fresh executor of schedule world *spec* resumed at its
        divergence boundary — the latest boundary no kill of the schedule
        can fire before — with its kills armed; ``None`` when the schedule
        is not forkable (another world, or a kill before the first
        boundary) and runs from scratch.

        Per kill: an iteration trigger fires at the top of its iteration;
        a during-checkpoint trigger at occurrence *o* fires inside the
        *o*-th checkpoint, which (failure-free, by construction of the
        prefix) opens in the body of iteration ``(o-1) * interval``; a
        during-restore/-reconstruct/-scrub trigger needs an earlier
        failure, so the kill that *caused* that failure governs; a phase or
        time trigger is located against the recorded table — both are
        nondecreasing in the boundary, so the last boundary whose value is
        still below the trigger is the latest state the kill provably
        cannot have fired in, and there is none when the trigger falls
        inside world construction or the initial redundancy publish.  The
        schedule's boundary is the minimum over its kills, clamped to the
        boundaries the reference run actually reached (a trigger beyond
        the run's natural end never fires at all).

        The restore mode is patched after resume — it is only read once a
        failure needs a replacement group, strictly after the divergence
        point — and arming the kills on the resumed injector is equivalent
        to arming them up front: an injector's state is only observed at
        failure polls, and no kill of this schedule can fire before the
        resumed boundary.
        """
        if not self.shares(spec):
            return None
        images, phase_at, time_at = self._worlds[spec.checkpoint_mode]
        boundary = max(images)
        for kill in spec.kills:
            if kill.iteration is not None:
                kill_bound = kill.iteration
            elif kill.during == "checkpoint":
                kill_bound = (kill.occurrence - 1) * self.config.checkpoint_interval
            elif kill.during is not None:
                continue
            elif kill.phase is not None:
                kill_bound = bisect_left(phase_at, kill.phase) - 1
            else:
                kill_bound = bisect_left(time_at, kill.time) - 1
            if kill_bound < 0:
                return None
            boundary = min(boundary, kill_bound)
        executor = images[max(0, boundary)].load()
        executor.mode = spec.mode
        for kill in spec.kills:
            executor.runtime.injector.add(kill)
        return executor


def _loop_top_bursts(
    config: CampaignConfig, kills: List[ScriptedKill]
) -> Optional[Dict[int, set]]:
    """Victims per iteration, when *kills* is a pattern whose burst sizes
    are statically knowable; else ``None``.

    Knowable means: at least one kill, every kill landing at a loop top
    (iteration-triggered — a phase/during/time kill can fire mid-recovery
    and compound the in-flight burst), and spares covering every
    replacement.  The "covered" claims of invariants 6-8 are only made for
    such patterns.
    """
    if not kills or len(kills) > config.spares:
        return None
    if any(kill.iteration is None for kill in kills):
        return None
    bursts: Dict[int, set] = {}
    for kill in kills:
        bursts.setdefault(kill.iteration, set()).add(kill.place_id)
    return bursts


def _parity_covered(
    config: CampaignConfig, bursts: Optional[Dict[int, set]], mode: RestoreMode
) -> bool:
    """True when parity alone *must* absorb these loop-top *bursts* in
    memory: a parity campaign with no transient axes, replace-mode spares
    (so the post-restore scrub re-materializes lost copies between
    bursts), and no single burst taking two places of any parity group's
    *recovery set* — its member places plus the place holding its XOR
    block: losing any one of them is recoverable from memory, losing two
    before a repair pass is the documented loss mode."""
    policy = make_placement(config.placement)
    if bursts is None or config.transient or not isinstance(policy, ParityPlacement):
        return False
    if mode is not RestoreMode.REPLACE_REDUNDANT:
        return False
    size = config.places
    span = policy.group_span(size)
    for start in range(0, size, span):
        members = list(range(start, min(start + span, size)))
        recovery_set = set(members) | {policy.parity_index(start, len(members), size)}
        if any(len(recovery_set & victims) > 1 for victims in bursts.values()):
            return False
    return True


def run_schedule(
    config: CampaignConfig,
    index: int,
    spec: WorldSpec,
    baseline: np.ndarray,
    prefix: Optional[PrefixCache] = None,
) -> ScheduleOutcome:
    """Run schedule *index*, whose world is *spec* (:func:`schedule_spec`),
    and check every recovery invariant.

    With a *prefix* cache a schedule that shares the campaign's world
    resumes from the failure-free image at its first-divergence boundary
    instead of simulating the identical prefix again — bitwise identical
    outcome, a fraction of the wall clock.
    """
    executor = None if prefix is None else prefix.fork(spec)
    if executor is None:
        executor = spec.build()[3]
    rt, app, store = executor.runtime, executor.app, executor.store
    kills, mode = spec.kills, spec.mode
    outcome = ScheduleOutcome(
        index=index,
        kills=[_describe(k) for k in kills],
        status="clean",
        detail=f"mode={mode.value} checkpoint_mode={spec.checkpoint_mode}",
    )
    violations = outcome.violations
    with rt:
        try:
            report = executor.run()
        except DataLossError as err:
            report = None
            message = str(err)
            if isinstance(err, SnapshotCorruptionError) and config.corrupt_rate:
                # Independent strikes can legitimately defeat every tier of a
                # partition; the guarantee is that corrupt data is never
                # *silently* restored, and this loud error is exactly that.
                outcome.status = "corruption_loss_accepted"
            elif _parity_covered(config, _loop_top_bursts(config, kills), mode):
                # No burst cost any parity group two places, so every loss was
                # XOR-recoverable: reaching DataLossError anyway is a hole in
                # the parity ladder, not a documented outcome.
                violations.append(
                    f"single-loss-per-group parity schedule lost data: {message}"
                )
                outcome.status = "data_loss"
            elif (
                "no recovery point" in message
                or "consecutive times" in message
                or not config.stable_fallback
            ):
                outcome.status = "data_loss_accepted"
            else:
                # The stable tier exists precisely so in-memory loss is
                # absorbed; reaching DataLossError anyway is a violation.
                violations.append(f"DataLossError despite stable fallback: {message}")
                outcome.status = "data_loss"
        else:
            # Invariant 1: the answer matches the failure-free baseline.
            result = np.asarray(APPS[config.app].result(app))
            if not np.allclose(result, baseline, rtol=1e-8, atol=1e-10):
                worst = float(np.max(np.abs(result - baseline)))
                violations.append(
                    f"converged result deviates from failure-free run (max abs "
                    f"diff {worst:.3e})"
                )

            # Invariant 3: every restore landed on a committed checkpoint,
            # never past the newest commit at the time (commits grow
            # monotonically, so membership in the commit history implies the
            # bound).
            committed = [snap.iteration for snap in store.snapshots]
            for restored in report.restored_iterations:
                if restored not in committed:
                    violations.append(
                        f"restored to iteration {restored}, which was never "
                        f"committed (commits: {committed})"
                    )
                elif restored > max(committed):
                    violations.append(
                        f"restored to iteration {restored} beyond the last "
                        f"committed checkpoint {max(committed)}"
                    )

            # Invariant 4: no replica co-resident with its partition's primary.
            latest = store.latest()
            if latest is not None:
                for snapshot in latest.all_snapshots():
                    if not snapshot.placement_ok():
                        violations.append(
                            f"replica placed on its primary place in {snapshot!r}"
                        )

            # Invariant 5: a slow place is not a failure.  Schedules whose
            # only perturbation is a straggler must not trigger a restore or
            # an eviction — the adaptive detector absorbs even an 8x slowdown.
            straggler_factor = max(map(rt.clock.slowdown, range(config.places)))
            if (
                not kills
                and rt.faults is None
                and executor.corruption is None
                and straggler_factor > 1.0
                and (report.restores or report.evictions)
            ):
                violations.append(
                    f"straggler-only schedule (factor {straggler_factor:.2f}) "
                    f"caused {report.restores} restore(s) and "
                    f"{report.evictions} eviction(s)"
                )

            # "Covered" (invariants 6-8) is derived from the schedule, never
            # from which rung fired: a check that read the executor's
            # decision could not catch a wrong one.
            fired = [k for k in kills if k not in report.pending_kills]
            bursts = _loop_top_bursts(config, fired)

            # Invariants 6-7 (reconstruct campaigns): rollback is never
            # silent — every restore must be a recorded fallback — and a
            # failure pattern inside the published redundancy must be
            # absorbed with *zero* lost iterations (no rollback at all).
            if config.recovery == "reconstruct":
                if report.restores and not report.fallback_restores:
                    violations.append(
                        f"{report.restores} rollback(s) without a recorded "
                        "reconstruct fallback"
                    )
                max_burst = max(map(len, bursts.values())) if bursts else 0
                if bursts and max_burst <= config.spec.replicas:
                    if report.fallback_restores or report.restores:
                        violations.append(
                            f"burst pattern within redundancy (max burst "
                            f"{max_burst} <= {config.spec.replicas} replicas, "
                            f"{len(fired)} kills <= {config.spares} spares) fell "
                            f"back to rollback ({report.fallback_restores} "
                            f"fallback(s), {report.restores} restore(s))"
                        )
                    if not report.reconstructions:
                        violations.append(
                            "fired kills within redundancy produced no "
                            "reconstruction"
                        )
                    if report.restored_iterations:
                        violations.append(
                            f"covered burst lost iterations anyway (rolled back "
                            f"to {report.restored_iterations})"
                        )

            # Invariant 8 (parity campaigns): a schedule whose bursts cost
            # each parity group at most one place recovers from the XOR rung
            # — never from disk — and any restore it needed actually
            # reconstructed.
            if _parity_covered(config, bursts, mode):
                if report.stable_fallback_reads:
                    violations.append(
                        f"parity-covered schedule read the disk tier "
                        f"{report.stable_fallback_reads} time(s)"
                    )
                if report.restores and not report.parity_reconstructions:
                    violations.append(
                        "parity-covered schedule restored without a single XOR "
                        "reconstruction"
                    )

            # Invariant 9: no copy without an owner.  Every snapshot copy in
            # a live heap belongs to a snapshot one of the stores still
            # references.
            owners = store.live_snapshots()
            if executor.rstore is not None:
                owners += executor.rstore.live_snapshots()
            orphans = orphaned_copies(rt, owners)
            if orphans:
                violations.append(
                    f"{len(orphans)} snapshot copies in live heaps belong to no "
                    f"snapshot a store references "
                    f"(kinds {sorted({key[0] for key in orphans})})"
                )

            recovered = (
                report.failures_observed
                or fired
                or report.restores
                or report.reconstructions
                or report.evictions
                or report.quarantined_copies
            )
            outcome.status = "recovered" if recovered else "clean"
            if report.pending_kills:
                outcome.detail += f" pending={len(report.pending_kills)}"

        # Invariant 2, on every exit: the store is consistent (no snapshot
        # attempt left open).
        if store.in_progress:
            violations.append(
                "store left with an open snapshot attempt"
                + (" after data loss" if report is None else "")
            )
        if report is not None and violations:
            outcome.status = "violated"
        return outcome


def _run_drawn(
    config: CampaignConfig,
    baseline: np.ndarray,
    prefix: Optional[PrefixCache],
    drawn: Tuple[int, WorldSpec],
) -> ScheduleOutcome:
    """:func:`run_schedule` on one ``(index, spec)`` of the campaign (a pool item)."""
    return run_schedule(config, *drawn, baseline, prefix=prefix)


def run_campaign(
    config: CampaignConfig,
    jobs: Optional[int] = None,
    prefix_cache: bool = True,
) -> CampaignResult:
    """Run the full campaign; deterministic in ``config.seed``.

    Every schedule's world is drawn up front from ``(seed, index)`` alone
    (:func:`schedule_spec`), never from shared generator state, so with
    ``jobs`` > 1 the schedules fan out over a process pool and the result
    is bitwise identical to the serial run — parallelism only changes the
    wall clock.

    *prefix_cache* (default on) simulates the failure-free prefix once per
    checkpoint mode when some schedule shares the campaign's world, and
    forks each such schedule from the image at its first-divergence
    boundary (see :class:`PrefixCache`); outcomes are bitwise identical
    either way.
    """
    baseline = failure_free_result(APPS[config.app], config.places, config.iterations)
    drawn = [(index, schedule_spec(config, index)) for index in range(config.schedules)]
    prefix = PrefixCache(config)
    if prefix_cache and any(prefix.shares(spec) for _, spec in drawn):
        # Built eagerly in the parent so pool workers inherit (fork) or
        # receive (spawn) ready images instead of each rebuilding them.
        prefix.build()
    else:
        prefix = None
    worker = partial(_run_drawn, config, baseline, prefix)
    return CampaignResult(config, pmap(worker, drawn, jobs))


# ---------------------------------------------------------------------------
# Service campaigns: chaos over multi-tenant job streams
# ---------------------------------------------------------------------------


@dataclass
class ServiceCampaignResult:
    """Aggregated outcome of several seeded multi-job service streams.

    A *stream* is one full :class:`~repro.service.ClusterService` run: a
    seeded arrival process of mixed jobs sharing one place pool under
    chaos.  On top of the per-schedule invariants the single-job campaigns
    check, a service campaign asserts the multi-tenant ones: a kill in one
    tenant's lease must never abort another tenant, and every admitted job
    must either finish with the failure-free answer or die a *scoped*
    death (data loss confined to its own lease).
    """

    streams: List[Dict]
    violations: List[str]

    @property
    def cross_tenant_aborts(self) -> int:
        return sum(s["cross_tenant_aborts"] for s in self.streams)

    def counts(self) -> Dict[str, int]:
        totals = {"completed": 0, "data_loss": 0, "aborted": 0, "rejected": 0}
        for s in self.streams:
            for key in totals:
                totals[key] += s[key]
        return totals

    def summary(self) -> str:
        totals = self.counts()
        jobs = sum(totals.values())
        lines = [
            f"service campaign: {len(self.streams)} stream(s), {jobs} jobs",
            "outcomes: "
            + ", ".join(f"{k}={v}" for k, v in sorted(totals.items())),
            f"cross-tenant aborts: {self.cross_tenant_aborts}",
        ]
        if self.violations:
            lines.append(f"VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"  - {v}" for v in self.violations[:20])
        else:
            lines.append("all multi-tenant invariants held")
        return "\n".join(lines)


def _service_stream(config, stream: int) -> Tuple[Dict, List[str]]:
    """Run stream *stream* of a service campaign (pure in config+index)."""
    from dataclasses import replace

    from repro.service import run_service

    report = run_service(replace(config, seed=config.seed + stream))
    prefixed = [f"stream {stream}: {v}" for v in report.violations]
    return report.to_dict(), prefixed


def run_service_campaign(
    config, streams: int = 1, jobs: Optional[int] = None
) -> ServiceCampaignResult:
    """Run *streams* service runs, varying only the seed; deterministic.

    ``config`` is a :class:`repro.service.ServiceConfig`; stream *i* runs
    with ``seed + i``.  With ``jobs`` > 1 streams fan out over a process
    pool — each stream is a pure function of ``(config, index)``, so the
    outcome is bitwise identical to the serial loop.
    """
    results = pmap(partial(_service_stream, config), range(streams), jobs)
    violations: List[str] = []
    for _, prefixed in results:
        violations.extend(prefixed)
    return ServiceCampaignResult(
        streams=[summary for summary, _ in results], violations=violations
    )
