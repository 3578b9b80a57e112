"""One resilient world, specified once: validated in one place, built in one.

In the paper a resilient run is one construction: an application, a
checkpoint interval, a restoration mode and a place group.  A
:class:`WorldSpec` is that construction plus everything this simulator can
inject into it (scripted, random and campaign-drawn kills, stragglers,
message faults, bit-rot, a failure detector).  Every front end goes through
it:

* ``repro run`` is a ``WorldSpec``, field for field;
* a chaos campaign (:class:`repro.chaos.CampaignConfig`) is a base spec plus
  schedule axes, and each schedule is a ``dataclasses.replace`` of the base
  with that schedule's draws;
* a service job (:class:`repro.service.ServiceConfig`) is the config's
  template spec, built inside the job's lease of the shared pool;
* the executor cells of the paper's sweeps (:mod:`repro.bench.harness`).

:meth:`WorldSpec.validate` is the only place a configuration is judged: it
raises one ``ValueError`` line naming the offending flag or field before a
runtime exists.  :meth:`WorldSpec.build` is the only place a world is
assembled, in a fixed order (runtime, application, kills, stragglers,
detector, message faults, corruption, store and executor) that the golden
virtual times depend on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Tuple, Union

from repro.bench.catalogue import APPS
from repro.resilience.executor import (
    IterativeExecutor,
    NonResilientExecutor,
    RestoreMode,
    check_modes,
    check_recovery,
)
from repro.resilience.placement import RingPlacement, make_placement
from repro.resilience.protection import Protection
from repro.runtime.cost import CostModel
from repro.runtime.detector import PhiAccrualDetector
from repro.runtime.factory import make_runtime
from repro.runtime.failure import (
    CorruptionModel,
    ExponentialFailureModel,
    FailureInjector,
    LinkPartition,
    ScriptedKill,
    TransientFaultModel,
)
from repro.runtime.pool import PlaceLease
from repro.util.validation import check_non_negative, check_positive, require

#: The ``repro run`` option of each field whose name is not the option's.
_FLAGS = {
    "checkpoint_interval": "--ckpt-interval",
    "checkpoint_mode": "--ckpt-mode",
    "corrupt_rate": "--corrupt",
    "seed": "--chaos-seed",
}

#: What a non-resilient world reads; every other field must keep its default.
_NONRESILIENT_READS = ("app", "places", "iterations", "workload", "resilient", "trace")


@dataclass(frozen=True)
class WorldSpec:
    """One world: an application on a place group, its protection,
    checkpointing and recovery, and the failures injected into it."""

    app: str
    places: int = 8
    iterations: int = 30
    #: "bench": the paper-scale workload at the app's calibrated cost
    #: (``repro run``, the sweeps); "tiny": a minuscule one at zero cost
    #: (campaigns; service jobs, which run at their pool's cost).
    workload: str = "bench"
    #: False: the plain application under the non-resilient runtime.
    resilient: bool = True
    #: Record the engine's typed event log from construction on.
    trace: bool = False
    #: Pre-started spare places (ids ``places .. places + spares - 1``).
    spares: int = 0
    # -- protection (None: 1 replica, on the ring) ---------------------------
    replicas: Optional[int] = None
    placement: Optional[str] = None
    stable_fallback: bool = False
    # -- checkpointing and recovery -----------------------------------------
    checkpoint_interval: int = 10
    checkpoint_mode: str = "blocking"
    ckpt_delta: bool = False
    mode: Union[str, RestoreMode] = RestoreMode.SHRINK.value
    #: The shrink mode a replace mode falls back to when spares run out.
    spare_fallback: RestoreMode = RestoreMode.SHRINK
    recovery: str = "checkpoint"
    # -- failures -----------------------------------------------------------
    #: Scripted kills: the i-th ``victim`` (default: place ``places // 2``)
    #: dies before iteration ``fail_at[i]``.
    fail_at: Tuple[int, ...] = ()
    victim: Tuple[int, ...] = ()
    #: Any further kills (a chaos schedule's), armed after those.
    kills: Tuple[ScriptedKill, ...] = ()
    #: Random exponential kills with this mean time to failure, timed from
    #: the end of the application's construction.
    mttf: Optional[float] = None
    #: Seeds the ``mttf`` schedule, and the message faults and corruption
    #: unless ``fault_seed`` / ``corrupt_seed`` do.
    seed: int = 0
    # -- transients -----------------------------------------------------------
    #: ``(place, factor)``: the place computes *factor* times slower.
    straggler: Tuple[Tuple[int, float], ...] = ()
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.0
    partitions: Tuple[LinkPartition, ...] = ()
    fault_seed: Optional[int] = None
    #: Per-copy bit-rot probability after each checkpoint commit.
    corrupt_rate: float = 0.0
    corrupt_seed: Optional[int] = None
    #: Heartbeat failure detection timeout; 0 keeps the oracle failure model.
    detect_timeout: float = 0.0
    heartbeat_interval: Optional[float] = None

    def validate(self) -> None:
        """Judge the configuration, building nothing: a ``ValueError`` whose
        one line names the offending flag or field."""
        require(self.app in APPS, f"unknown app {self.app!r}")
        if not self.resilient:
            unread = [
                _FLAGS.get(f.name, "--" + f.name.replace("_", "-"))
                for f in fields(self)
                if f.name not in _NONRESILIENT_READS and getattr(self, f.name) != f.default
            ]
            require(
                not unread,
                f"{', '.join(unread)}: not read by a --non-resilient run "
                "(it injects no failure and runs no resilience framework)",
            )
        check_positive(self.places, "places")
        check_non_negative(self.spares, "spares")
        require(self.workload in ("bench", "tiny"), "workload must be 'bench' or 'tiny'")
        self._workload()  # the workload's own checks (iterations, sizes)
        check_positive(self.checkpoint_interval, "checkpoint_interval")
        check_recovery(APPS[self.app].resilient, self.recovery, self._protection())
        RestoreMode(self.mode)
        check_modes(self.spare_fallback, self.checkpoint_mode)
        world = range(self.places + self.spares)
        require(self.fail_at or not self.victim, "--victim: not read without --fail-at")
        require(
            len(self.victim) <= len(self.fail_at),
            f"--victim given {len(self.victim)} times for {len(self.fail_at)} --fail-at "
            "(the i-th --victim is the place the i-th --fail-at kills)",
        )
        for iteration in self.fail_at:
            require(
                iteration < self.iterations,
                f"--fail-at {iteration} never fires: a run of {self.iterations} "
                f"iterations starts iterations 0..{self.iterations - 1}",
            )
        named = [("--victim", pid) for pid in self.victim]
        named += [("kills: place", kill.place_id) for kill in self.kills]
        named += [("--straggler", pid) for pid, _ in self.straggler]
        for flag, pid in named:
            require(
                pid in world,
                f"{flag} {pid} names no place of this world "
                f"(ids 0..{world[-1]}, spares included)",
            )
        # Place zero and twice-condemned places, as the injector judges them.
        FailureInjector(self._scripted_kills() + list(self.kills) + self._random_kills())
        for _, factor in self.straggler:
            require(factor > 0, f"slowdown factor must be positive, got {factor}")
        self._faults()
        CorruptionModel(self.corrupt_rate)
        require(self.detect_timeout >= 0, f"detect_timeout must be >= 0, got {self.detect_timeout}")
        if self.heartbeat_interval is not None:
            require(
                self.detect_timeout > 0,
                "--heartbeat-interval: not read without --detect-timeout "
                "(no failure detector runs)",
            )
            require(self.heartbeat_interval > 0, "heartbeat_interval must be positive")

    def build(
        self, lease: Optional[PlaceLease] = None, start_time: float = 0.0
    ) -> Tuple:
        """Assemble the world of a validated spec: ``(runtime, app, store,
        executor)`` (no store for a non-resilient world).

        With a *lease* the world is one tenant of a shared pool: it runs on
        the pool's runtime, its application on the lease's group, and its
        detector watches the lease's members from *start_time* on.
        """
        entry = APPS[self.app]
        if lease is not None:
            rt = lease.pool.runtime
        else:
            cost = entry.bench_cost() if self.workload == "bench" else CostModel.zero()
            rt = make_runtime(
                self.places,
                cost=cost,
                resilient=self.resilient,
                spares=self.spares,
                trace=self.trace,
            )
        if not self.resilient:
            app = entry.nonresilient(rt, self._workload())
            return rt, app, None, NonResilientExecutor(rt, app)
        app = entry.resilient(
            rt, self._workload(), group=None if lease is None else lease.group()
        )
        # Kills are armed only after construction: phase-triggered kills then
        # land inside the executor's run, where recovery is defined.
        for kill in self._scripted_kills() + list(self.kills) + self._random_kills(rt.now()):
            rt.injector.add(kill)
        for pid, factor in self.straggler:
            rt.set_straggler(pid, factor)
        detector = None
        if self.detect_timeout > 0:
            watched = None if lease is None else sorted(lease.member_ids - {lease.driver.id})
            detector = PhiAccrualDetector(
                rt,
                detect_timeout=self.detect_timeout,
                heartbeat_interval=self.heartbeat_interval,
                places=watched,
                start_time=start_time,
            )
        if self.drop_rate or self.dup_rate or self.delay_rate or self.partitions:
            rt.set_faults(self._faults())
        corruption = None
        if self.corrupt_rate:
            seed = self.seed if self.corrupt_seed is None else self.corrupt_seed
            corruption = CorruptionModel(self.corrupt_rate, seed=seed)
        executor = IterativeExecutor(
            rt,
            app,
            checkpoint_interval=self.checkpoint_interval,
            mode=RestoreMode(self.mode),
            spare_fallback=self.spare_fallback,
            checkpoint_mode=self.checkpoint_mode,
            protection=self._protection(),
            detector=detector,
            corruption=corruption,
            delta=self.ckpt_delta,
            lease=lease,
            recovery=self.recovery,
        )
        return rt, app, executor.store, executor

    def _protection(self) -> Protection:
        return Protection(
            replicas=1 if self.replicas is None else self.replicas,
            placement=make_placement(self.placement) if self.placement else RingPlacement(),
            stable_fallback=self.stable_fallback,
        )

    def _workload(self):
        entry = APPS[self.app]
        make = entry.bench_workload if self.workload == "bench" else entry.tiny_workload
        return make(self.iterations)

    def _scripted_kills(self) -> List[ScriptedKill]:
        victims = list(self.victim)
        victims += [self.places // 2] * (len(self.fail_at) - len(victims))
        return [
            ScriptedKill(place_id=victim, iteration=iteration)
            for iteration, victim in zip(self.fail_at, victims)
        ]

    def _random_kills(self, t0: float = 0.0) -> List[ScriptedKill]:
        """The ``mttf`` schedule over the non-zero places, timed from *t0*."""
        if self.mttf is None:
            return []
        model = ExponentialFailureModel(self.mttf, seed=self.seed)
        return [
            ScriptedKill(place_id=kill.place_id, time=t0 + kill.time)
            for kill in model.schedule(list(range(1, self.places)), horizon=10.0 * self.mttf)
        ]

    def _faults(self) -> TransientFaultModel:
        return TransientFaultModel(
            drop_rate=self.drop_rate,
            dup_rate=self.dup_rate,
            delay_rate=self.delay_rate,
            delay_seconds=self.delay_seconds,
            partitions=self.partitions,
            seed=self.seed if self.fault_seed is None else self.fault_seed,
        )


def same_named(cls, source, **overrides):
    """``cls(...)`` from the attributes of *source* (an ``argparse``
    namespace, another config) named like *cls*'s fields, a list (an
    ``append`` option's value) as a tuple, then *overrides*."""
    values = {f.name: getattr(source, f.name) for f in fields(cls) if hasattr(source, f.name)}
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in values.items()}
    return cls(**{**values, **overrides})


def default_replicas(replicas: Optional[int], placement: str) -> int:
    """The campaign and service default for *replicas*: 2, or 1 (the
    primary only) under parity, which replaces per-key replicas with one XOR
    block per group."""
    if replicas is None:
        return 1 if placement.split(":", 1)[0] == "parity" else 2
    return replicas

