"""The multi-job cluster service: one pool, many tenants.

:class:`ClusterService` runs a seeded stream of mixed jobs against a
single shared :class:`~repro.runtime.pool.PlacePool`.  The control loop is
a discrete-event simulation over *virtual* time — arrivals, job
completions and pool-level fault bursts are heap-ordered events — while
each admitted job executes eagerly inside ``runtime.job_context``: the
lease's driver place stands in for place zero, the tenant's scoped
injector and detector are swapped in, and per-place virtual clocks make
the jobs overlap in virtual time even though the interpreter runs them one
after another.  Shared contention (the place-zero ledger, the stable-
storage disk) is still charged on the common engine resources, which is
exactly the part of multi-tenancy that should not be independent.

Blast-radius confinement is checked, not assumed: every job records which
places died while it was the active tenant, and the report counts a
cross-tenant abort whenever a job fails without any of its own members
having died — that counter must be zero for a correct pool.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baseline import failure_free_result
from repro.bench.calibration import regression_cost
from repro.bench.catalogue import APPS
from repro.resilience.executor import IterativeExecutor, RestoreMode, check_recovery
from repro.resilience.placement import check_protection, make_placement
from repro.runtime.cost import CostModel
from repro.runtime.detector import PhiAccrualDetector
from repro.runtime.exceptions import (
    DataLossError,
    DeadPlaceException,
    MultipleException,
)
from repro.runtime.factory import make_runtime
from repro.runtime.failure import LeaseScopedInjector, TransientFaultModel
from repro.runtime.pool import DEDICATED, ECONOMICS_MODES, PlaceLease
from repro.service.admission import AdmissionController, JobQueue
from repro.service.faults import PoolFaultEvent, ServiceFaultPlan
from repro.service.jobs import JobResult, JobSpec, generate_jobs
from repro.util.validation import check_positive, require

#: Event priorities at equal virtual time: bursts strike first, finished
#: leases free their places next, then healed places rejoin the pool, and
#: only then do new arrivals queue (so an arrival sees maximum capacity).
_PRI_FAULT, _PRI_COMPLETION, _PRI_REPAIR, _PRI_ARRIVAL = 0, 1, 2, 3


class _RepairEvent:
    """A healed place rejoining the pool at its seeded repair time."""

    __slots__ = ("place_id",)

    def __init__(self, place_id: int):
        self.place_id = place_id


@dataclass(frozen=True)
class ServiceConfig:
    """One service run: pool shape, stream shape, chaos knobs."""

    places: int = 17  # place 0 (coordinator) + 16 workers
    reserve: int = 4
    economics: str = "pooled"
    n_jobs: int = 20
    seed: int = 0
    #: Mean job arrivals per virtual second (Poisson process).
    arrival_rate: float = 1.0
    apps: Tuple[str, ...] = ("linreg", "logreg", "pagerank", "gnmf")
    min_places: int = 2
    max_places: int = 6
    min_iterations: int = 4
    max_iterations: int = 12
    zipf_a: float = 2.2
    checkpoint_interval: int = 3
    #: Reserve places committed per job under ``dedicated`` economics.
    dedicated_spares: int = 1
    replicas: int = 2
    placement: str = "spread"
    #: Recovery mode for CG jobs ("reconstruct" = checkpoint-free ABFT
    #: recovery; "checkpoint" = the classic rollback path).  Only CG
    #: implements the reconstruction protocol, so other apps always run
    #: under checkpoint/restart regardless of this knob.
    cg_recovery: str = "reconstruct"
    #: "calibrated" charges the regression cluster profile so latency and
    #: throughput are meaningful; "zero" runs in zero virtual time (pure
    #: invariant checking).
    cost_profile: str = "calibrated"
    # Chaos knobs.
    crash_rate: float = 0.0
    pair_rate: float = 0.0
    rack_rate: float = 0.0
    rack_size: int = 4
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    detect_timeout: float = 0.0
    #: Mean time to repair (exponential, seeded per place): killed places
    #: rejoin the pool's free set after their repair delay.  0 disables
    #: healing — dead places stay dead, the pool only ever shrinks.
    repair_mttr: float = 0.0
    max_queue: Optional[int] = None

    def __post_init__(self) -> None:
        require(self.places >= 2, "need at least a coordinator and one worker")
        require(self.reserve >= 0, "reserve must be >= 0")
        require(
            self.economics in ECONOMICS_MODES,
            f"economics must be one of {ECONOMICS_MODES}",
        )
        check_positive(self.n_jobs, "n_jobs")
        require(self.arrival_rate > 0, "arrival_rate must be > 0")
        require(
            self.max_places <= self.places - 1,
            "max_places cannot exceed the worker count (places - 1)",
        )
        require(
            self.cost_profile in ("calibrated", "zero"),
            "cost_profile must be 'calibrated' or 'zero'",
        )
        require(self.repair_mttr >= 0, "repair_mttr must be >= 0")
        # Fail fast on a bad placement spec, on parity double-paying, and on
        # a CG recovery scheme the placement cannot serve (otherwise the
        # first CG admission raises mid-stream, after carving a lease).
        policy = make_placement(self.placement)
        check_protection(policy, self.replicas)
        if "cg" in self.apps:
            check_recovery(APPS["cg"].resilient, self.cg_recovery, policy)
        check_positive(self.checkpoint_interval, "checkpoint_interval")
        for app in self.apps:
            require(app in APPS, f"unknown app {app!r}")

    def cost(self) -> CostModel:
        return regression_cost() if self.cost_profile == "calibrated" else CostModel.zero()


@dataclass
class ServiceReport:
    """Per-service metrics over one stream (ISSUE 6's report surface)."""

    config: ServiceConfig
    jobs: List[JobResult] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    makespan: float = 0.0
    #: Completed jobs per virtual second of makespan.
    throughput: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    mean_queue_wait: float = 0.0
    #: Time-weighted mean fraction of the reserve that was out on loan
    #: (or dead), sampled at event boundaries.
    reserve_mean_occupancy: float = 0.0
    reserve_peak_claimed: int = 0
    reserve_size: int = 0
    cross_tenant_aborts: int = 0
    total_kills: int = 0
    borrows: int = 0
    #: Killed places healed back into the pool (``repair_mttr`` > 0).
    repaired_places: int = 0

    @property
    def completed(self) -> int:
        return sum(1 for j in self.jobs if j.status == "completed")

    @property
    def data_loss(self) -> int:
        return sum(1 for j in self.jobs if j.status == "data-loss")

    @property
    def aborted(self) -> int:
        return sum(1 for j in self.jobs if j.status == "aborted")

    @property
    def rejected(self) -> int:
        return sum(1 for j in self.jobs if j.status == "rejected")

    @property
    def admitted(self) -> int:
        return sum(1 for j in self.jobs if j.status != "rejected")

    @property
    def survival_rate(self) -> float:
        """Completed share of admitted jobs."""
        return self.completed / self.admitted if self.admitted else 0.0

    @property
    def reconstructions(self) -> int:
        """Checkpoint-free recoveries across the stream (CG tenants)."""
        return sum(j.reconstructions for j in self.jobs)

    @property
    def degraded(self) -> int:
        """Completed jobs that shrank below their requested width."""
        return sum(
            1
            for j in self.jobs
            if j.status == "completed" and j.final_places < j.places
        )

    def to_dict(self) -> Dict:
        """JSON-ready summary (the BENCH_service.json row shape)."""
        return {
            "economics": self.config.economics,
            "reserve_size": self.reserve_size,
            "n_jobs": self.config.n_jobs,
            "arrival_rate": self.config.arrival_rate,
            "completed": self.completed,
            "data_loss": self.data_loss,
            "aborted": self.aborted,
            "rejected": self.rejected,
            "degraded": self.degraded,
            "survival_rate": self.survival_rate,
            "makespan": self.makespan,
            "throughput": self.throughput,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "mean_queue_wait": self.mean_queue_wait,
            "reserve_mean_occupancy": self.reserve_mean_occupancy,
            "reserve_peak_claimed": self.reserve_peak_claimed,
            "cross_tenant_aborts": self.cross_tenant_aborts,
            "violations": len(self.violations),
            "total_kills": self.total_kills,
            "borrows": self.borrows,
            "reconstructions": self.reconstructions,
            "repaired_places": self.repaired_places,
        }

    def summary(self) -> str:
        lines = [
            f"service: {self.config.n_jobs} jobs, "
            f"{self.config.places - 1} workers + {self.reserve_size} reserve "
            f"({self.config.economics})",
            f"  completed {self.completed}  data-loss {self.data_loss}  "
            f"aborted {self.aborted}  rejected {self.rejected}  "
            f"(survival {self.survival_rate:.0%})",
            f"  makespan {self.makespan:.3f}s  "
            f"throughput {self.throughput:.3f} jobs/s",
            f"  latency p50/p95/p99 {self.latency_p50:.3f}/"
            f"{self.latency_p95:.3f}/{self.latency_p99:.3f}s  "
            f"queue wait {self.mean_queue_wait:.3f}s",
            f"  reserve occupancy {self.reserve_mean_occupancy:.0%} "
            f"(peak {self.reserve_peak_claimed}/{self.reserve_size})  "
            f"kills {self.total_kills}  borrows {self.borrows}  "
            f"repaired {self.repaired_places}",
            f"  cross-tenant aborts {self.cross_tenant_aborts}  "
            f"violations {len(self.violations)}",
        ]
        return "\n".join(lines)


class ClusterService:
    """Runs a job stream against one shared pool (see module docstring)."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.runtime = make_runtime(
            config.places,
            cost=config.cost(),
            resilient=True,
            spares=config.reserve,
            faults=(
                TransientFaultModel(
                    drop_rate=config.drop_rate,
                    dup_rate=config.dup_rate,
                    seed=config.seed + 77,
                )
                if (config.drop_rate or config.dup_rate)
                else None
            ),
        )
        self.pool = self.runtime.pool
        self.queue = JobQueue(max_depth=config.max_queue)
        self.admission = AdmissionController(self.pool, config.economics)
        self.jobs = generate_jobs(
            config.n_jobs,
            seed=config.seed,
            arrival_rate=config.arrival_rate,
            apps=config.apps,
            min_places=config.min_places,
            max_places=config.max_places,
            min_iterations=config.min_iterations,
            max_iterations=config.max_iterations,
            checkpoint_interval=config.checkpoint_interval,
            zipf_a=config.zipf_a,
            dedicated_spares=config.dedicated_spares,
        )
        horizon = 2.0 * self.jobs[-1].arrival + 10.0
        self.plan = ServiceFaultPlan(
            seed=config.seed,
            total_places=config.places + config.reserve,
            horizon=horizon,
            crash_rate=config.crash_rate,
            pair_rate=config.pair_rate,
            rack_rate=config.rack_rate,
            rack_size=config.rack_size,
        )
        self._results: Dict[int, JobResult] = {}
        #: Dead places with a repair event already in flight, and how many
        #: times each place has been repaired (the seed axis, so a place
        #: that dies again after healing draws a fresh repair delay).
        self._repairs_scheduled: set = set()
        self._repair_counts: Dict[int, int] = {}

    # -- the event loop ----------------------------------------------------

    def run(self) -> ServiceReport:
        rt = self.runtime
        heap: List[Tuple[float, int, int, object]] = []
        seq = 0
        for job in self.jobs:
            heapq.heappush(heap, (job.arrival, _PRI_ARRIVAL, seq, job))
            seq += 1
        for event in self.plan.pool_events:
            heapq.heappush(heap, (event.time, _PRI_FAULT, seq, event))
            seq += 1

        occupancy_area = 0.0
        last_t = 0.0
        t = 0.0
        while heap:
            t, _pri, _seq, payload = heapq.heappop(heap)
            occupancy_area += (t - last_t) * (
                self.pool.reserve_size - self.pool.reserve_remaining
            )
            last_t = t
            if isinstance(payload, PoolFaultEvent):
                self._strike(payload)
            elif isinstance(payload, _RepairEvent):
                self._heal(payload.place_id)
            elif isinstance(payload, PlaceLease):
                self.pool.release(payload)
            else:  # arrival
                job = payload
                if not self.queue.offer(job):
                    self._results[job.job_id] = JobResult(
                        job_id=job.job_id,
                        app=job.app,
                        places=job.places,
                        status="rejected",
                        arrival=job.arrival,
                        detail="queue full",
                    )
                    continue
            while True:
                admitted = self.admission.pop_admissible(self.queue)
                if admitted is None:
                    break
                finished_at, lease = self._run_job(admitted, now=t)
                heapq.heappush(heap, (finished_at, _PRI_COMPLETION, seq, lease))
                seq += 1
            seq = self._schedule_repairs(heap, seq, now=t)

        # Jobs still queued can never start (the pool shrank under them or
        # they were always bigger than the free set): starvation, reported
        # as a rejection so every stream entry has an outcome.
        while len(self.queue):
            job = self.queue.pop()
            self._results[job.job_id] = JobResult(
                job_id=job.job_id,
                app=job.app,
                places=job.places,
                status="rejected",
                arrival=job.arrival,
                detail="starved: pool can no longer host this job",
            )

        return self._build_report(makespan=t, occupancy_area=occupancy_area)

    # -- event handlers ----------------------------------------------------

    def _strike(self, event: PoolFaultEvent) -> None:
        """Apply a correlated burst to victims no tenant owns.

        Leased victims are not touched here: the owning tenant's scoped
        injector got them as lease-local timed kills at admission, so the
        kill fires inside the owner's run (where its recovery is defined)
        and never while another tenant is the active job context.
        """
        rt = self.runtime
        for victim in event.victims:
            if not rt.is_alive(victim):
                continue
            lease = self.pool.lease_of(victim)
            if lease is not None:
                continue
            rt.kill(victim)

    def _schedule_repairs(self, heap: List, seq: int, now: float) -> int:
        """Queue a repair event for every newly-dead place (MTTR > 0).

        Each place draws its delay from a seed-derived stream keyed by
        (place, repair count), so the schedule is deterministic in the
        config seed yet a place that dies again after healing draws a
        fresh delay.  Repairs are anchored to the *death* time (clamped to
        now: a job's deaths are only observed once it returns).
        """
        mttr = self.config.repair_mttr
        if mttr <= 0:
            return seq
        rt = self.runtime
        for pid in sorted(rt.dead_ids()):
            if pid in self._repairs_scheduled:
                continue
            self._repairs_scheduled.add(pid)
            count = self._repair_counts.get(pid, 0)
            delay = float(
                np.random.default_rng(
                    [self.config.seed, 31, pid, count]
                ).exponential(mttr)
            )
            died = rt.death_time(pid)
            at = max(now, (died if died is not None else now) + delay)
            heapq.heappush(heap, (at, _PRI_REPAIR, seq, _RepairEvent(pid)))
            seq += 1
        return seq

    def _heal(self, place_id: int) -> None:
        """A repair event fired: revive the place back into the pool."""
        rt = self.runtime
        self._repairs_scheduled.discard(place_id)
        if rt.is_alive(place_id):
            return
        self._repair_counts[place_id] = self._repair_counts.get(place_id, 0) + 1
        rt.revive(place_id)

    def _run_job(self, job: JobSpec, now: float) -> Tuple[float, PlaceLease]:
        """Admit and eagerly execute one job inside its lease."""
        rt = self.runtime
        cfg = self.config
        lease = self.pool.lease(
            size=job.places,
            name=f"job-{job.job_id}",
            economics=cfg.economics,
            dedicated_spares=(
                job.dedicated_spares if cfg.economics == DEDICATED else 0
            ),
        )
        # The job starts at its admission time: members cannot be in the
        # virtual past of the stream that scheduled them.
        for pid in lease.member_ids:
            rt.clock.set_at_least(pid, now)

        kills = self.plan.kills_for_job(job, lease)
        condemned = {k.place_id for k in kills}
        for kill in self.plan.straddling_kills(lease, now):
            if kill.place_id not in condemned:
                kills.append(kill)
                condemned.add(kill.place_id)
        injector = LeaseScopedInjector(rt, lease, kills)
        detector = None
        if cfg.detect_timeout > 0:
            detector = PhiAccrualDetector(
                rt,
                detect_timeout=cfg.detect_timeout,
                places=sorted(lease.member_ids - {lease.driver.id}),
                start_time=now,
            )

        result = JobResult(
            job_id=job.job_id,
            app=job.app,
            places=job.places,
            status="completed",
            arrival=job.arrival,
            admitted=now,
            queue_wait=now - job.arrival,
        )
        dead_before = set(rt.dead_ids())
        entry = APPS[job.app]
        with rt.job_context(lease, injector=injector, detector=detector):
            try:
                app = entry.resilient(
                    rt, entry.tiny_workload(job.iterations), group=lease.group()
                )
                recovery = (
                    cfg.cg_recovery if job.app == "cg" else "checkpoint"
                )
                report = IterativeExecutor(
                    rt,
                    app,
                    checkpoint_interval=job.checkpoint_interval,
                    mode=RestoreMode.REPLACE_REDUNDANT,
                    replicas=cfg.replicas,
                    placement=make_placement(cfg.placement),
                    detector=detector,
                    lease=lease,
                    recovery=recovery,
                ).run()
                result.restores = report.restores
                result.reconstructions = report.reconstructions
                result.failures_observed = report.failures_observed
                result.final_places = report.final_group_size
                baseline = failure_free_result(entry, job.places, job.iterations)
                answer = np.asarray(entry.result(app))
                if report.final_group_size == job.places:
                    # Replace-path recovery preserves the group width, so
                    # the rerun is bit-identical to the failure-free run.
                    result.result_ok = bool(
                        np.allclose(answer, baseline, rtol=1e-8, atol=1e-10)
                    )
                else:
                    # A shrink restore reruns on fewer places: the per-place
                    # partial sums regroup, and iterative methods (CG above
                    # all) amplify that rounding drift with the condition
                    # number as the residual shrinks.  The answer is the
                    # same algorithmic fixed point, just not the same bits.
                    result.result_ok = bool(
                        np.allclose(answer, baseline, rtol=1e-4, atol=1e-8)
                    )
            except DataLossError as exc:
                result.status = "data-loss"
                result.detail = str(exc)
            except (DeadPlaceException, MultipleException) as exc:
                # A failure before the executor's recovery loop could see
                # it (object construction) is unrecoverable-by-design:
                # nothing was checkpointed yet.  Anything else escaping is
                # a scoping bug the report will flag.
                foreign = [p for p in exc.places if p not in lease.ever_ids]
                if foreign:
                    result.status = "aborted"
                    result.detail = f"failure leaked from places {foreign}"
                else:
                    result.status = "data-loss"
                    result.detail = f"failed during construction: {exc}"
            finished = rt.clock.now(lease.driver.id)
        dead_during = sorted(set(rt.dead_ids()) - dead_before)
        result.kills_during_run = dead_during
        result.spares_claimed = lease.spares_claimed
        result.borrows = lease.borrows
        result.finished = finished
        result.latency = finished - job.arrival
        self._results[job.job_id] = result
        return finished, lease

    # -- report ------------------------------------------------------------

    def _check_invariants(self, report: ServiceReport) -> None:
        # Stream level: a released lease hands back empty places, so once the
        # stream is over no live place holds anything of a finished job.
        rt = self.runtime
        leftovers = {
            pid: len(heap._store)
            for pid, heap in rt._heaps.items()
            if heap._store and self.pool.lease_of(pid) is None
        }
        if leftovers:
            report.violations.append(
                f"{sum(leftovers.values())} heap entries of finished jobs left "
                f"on unleased places {sorted(leftovers)}"
            )
        transients_on = bool(self.config.drop_rate or self.config.dup_rate)
        for res in sorted(self._results.values(), key=lambda r: r.job_id):
            lease_ids = self._lease_ever_ids(res.job_id)
            if res.status == "rejected":
                continue
            leaked = [p for p in res.kills_during_run if p not in lease_ids]
            if leaked:
                report.violations.append(
                    f"job {res.job_id}: places {leaked} died during its run "
                    f"but belong to no lease of its tenancy"
                )
            if res.status == "aborted":
                report.cross_tenant_aborts += 1
                report.violations.append(
                    f"job {res.job_id}: aborted ({res.detail})"
                )
            elif res.status == "data-loss":
                own_deaths = [p for p in res.kills_during_run if p in lease_ids]
                if not own_deaths and not transients_on:
                    report.cross_tenant_aborts += 1
                    report.violations.append(
                        f"job {res.job_id}: failed with none of its own "
                        f"members dead — a foreign failure reached it"
                    )
            elif res.status == "completed" and res.result_ok is False:
                report.violations.append(
                    f"job {res.job_id}: converged result differs from the "
                    f"failure-free baseline"
                )

    def _lease_ever_ids(self, job_id: int) -> set:
        for lease in self.pool.leases:
            if lease.name == f"job-{job_id}":
                return set(lease.ever_ids)
        return set()

    def _build_report(self, makespan: float, occupancy_area: float) -> ServiceReport:
        report = ServiceReport(config=self.config)
        report.jobs = [
            self._results[jid] for jid in sorted(self._results)
        ]
        report.reserve_size = self.pool.reserve_size
        report.reserve_peak_claimed = self.pool.reserve_peak_claimed
        report.total_kills = self.runtime.stats.kills
        report.repaired_places = self.runtime.stats.repairs
        report.borrows = sum(j.borrows for j in report.jobs)
        # Completions can land past the last heap event's time only via
        # the completion events themselves, which are in the heap — so
        # *makespan* is the last popped event time.
        report.makespan = makespan
        if makespan > 0:
            report.throughput = report.completed / makespan
            report.reserve_mean_occupancy = (
                occupancy_area / (makespan * self.pool.reserve_size)
                if self.pool.reserve_size
                else 0.0
            )
        latencies = [j.latency for j in report.jobs if j.status == "completed"]
        if latencies:
            report.latency_p50 = float(np.percentile(latencies, 50))
            report.latency_p95 = float(np.percentile(latencies, 95))
            report.latency_p99 = float(np.percentile(latencies, 99))
        waits = [
            j.queue_wait for j in report.jobs if j.status not in ("rejected",)
        ]
        if waits:
            report.mean_queue_wait = float(np.mean(waits))
        self._check_invariants(report)
        return report


def run_service(config: ServiceConfig) -> ServiceReport:
    """Convenience: build and run a :class:`ClusterService`."""
    return ClusterService(config).run()


def _rate_on_common_jobs(
    a: ServiceReport, b: ServiceReport, passed
) -> Tuple[float, float]:
    """Fraction of jobs admitted in *both* runs for which *passed* holds.

    The honest way to compare spare economics on one seed: per-job kill
    schedules are identical across modes, but admission differs (dedicated
    economics throttles the stream when the reserve is committed), and a
    mode must not look "safer" merely because it rejected the jobs whose
    schedules were unsurvivable.
    """
    admitted_a = {j.job_id for j in a.jobs if j.status != "rejected"}
    admitted_b = {j.job_id for j in b.jobs if j.status != "rejected"}
    common = admitted_a & admitted_b
    if not common:
        return 0.0, 0.0

    def rate(report: ServiceReport) -> float:
        done = sum(
            1 for j in report.jobs if j.job_id in common and passed(j)
        )
        return done / len(common)

    return rate(a), rate(b)


def survival_on_common_jobs(
    a: ServiceReport, b: ServiceReport
) -> Tuple[float, float]:
    """Completion rates of two runs over the jobs admitted in both."""
    return _rate_on_common_jobs(a, b, lambda j: j.status == "completed")


def full_width_on_common_jobs(
    a: ServiceReport, b: ServiceReport
) -> Tuple[float, float]:
    """Undegraded-completion rates over the jobs admitted in both.

    A job that shrank still *survives*, so bare survival is insensitive to
    spare capacity — what the reserve actually buys is completing at full
    width.  This is the metric the reserve-sizing sweep must hold equal.
    """
    return _rate_on_common_jobs(
        a,
        b,
        lambda j: j.status == "completed" and j.final_places >= j.places,
    )
