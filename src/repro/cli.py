"""Command-line interface: run applications and regenerate experiments.

Usage::

    python -m repro list
    python -m repro run pagerank --places 8 --fail-at 15 --mode shrink
    python -m repro sweep fig2
    python -m repro sweep table4

``run`` executes one application on the simulated cluster (optionally with
an injected failure) and prints its timing report; ``sweep`` regenerates a
paper experiment and prints the series (the pytest benchmarks add the
paper-vs-measured assertions on top of the same harness); ``chaos`` runs a
seeded campaign of randomized failure schedules and checks the recovery
invariants (see :mod:`repro.chaos`)::

    python -m repro run linreg --replicas 2 --placement spread --mttf 40
    python -m repro chaos pagerank --schedules 100 --stable-fallback
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Callable, List, Optional

from repro.bench import calibration, figures
from repro.bench.catalogue import APPS, CHAOS_APP_NAMES
from repro.bench.harness import (
    PAPER_FAILURE_ITERATION,
    run_checkpoint_mode_sweep,
    run_checkpoint_sweep,
    run_overhead_sweep,
    run_restore_sweep,
    table4_from_reports,
)
from repro.resilience.executor import (
    CHECKPOINT_MODES,
    RECOVERY_MODES,
    IterativeExecutor,
    NonResilientExecutor,
    RestoreMode,
)
from repro.resilience.placement import PLACEMENTS, make_placement
from repro.runtime.detector import PhiAccrualDetector
from repro.runtime.exceptions import DataLossError
from repro.runtime.failure import (
    CorruptionModel,
    ExponentialFailureModel,
    TransientFaultModel,
)
from repro.runtime.factory import make_runtime

SWEEPS = {
    "fig2": ("overhead", "linreg"),
    "fig3": ("overhead", "logreg"),
    "fig4": ("overhead", "pagerank"),
    "table3": ("checkpoint", None),
    "fig5": ("restore", "linreg"),
    "fig6": ("restore", "logreg"),
    "fig7": ("restore", "pagerank"),
    "table4": ("table4", None),
    "gnmf": ("overhead", "gnmf"),
    "overlap": ("ckpt-mode", "linreg"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resilient GML reproduction: run apps / regenerate experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list applications and experiments")

    run = sub.add_parser("run", help="run one application on the simulated cluster")
    run.add_argument("app", choices=sorted(APPS))
    run.add_argument("--places", type=int, default=8)
    run.add_argument("--iterations", type=int, default=30)
    run.add_argument("--non-resilient", action="store_true", help="plain run, no framework")
    run.add_argument("--ckpt-interval", type=int, default=10)
    run.add_argument(
        "--mode",
        choices=[m.value for m in RestoreMode],
        default=RestoreMode.SHRINK.value,
    )
    run.add_argument("--spares", type=int, default=0)
    run.add_argument(
        "--fail-at",
        type=int,
        action="append",
        default=None,
        metavar="ITER",
        help="script a failure at this iteration (repeatable: pair each "
        "occurrence with a --victim to kill several places)",
    )
    run.add_argument(
        "--victim",
        type=int,
        action="append",
        default=None,
        metavar="PLACE",
        help="place to kill for the matching --fail-at (repeatable)",
    )
    run.add_argument(
        "--profile", action="store_true", help="print a per-operation time profile"
    )
    run.add_argument(
        "--timeline", action="store_true", help="print an ASCII finish timeline"
    )
    run.add_argument(
        "--recovery",
        choices=list(RECOVERY_MODES),
        default="checkpoint",
        help="recovery scheme: checkpoint rollback or checkpoint-free "
        "reconstruction (reconstructable apps only, e.g. cg)",
    )
    run.add_argument(
        "--ckpt-mode",
        choices=list(CHECKPOINT_MODES),
        default="blocking",
        help="blocking (paper) or overlapped (backups hidden behind compute)",
    )
    run.add_argument(
        "--ckpt-delta",
        action="store_true",
        help="incremental checkpoints: unchanged partitions are adopted "
        "by reference and only dirty bytes are copied/charged",
    )
    run.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help="dump the engine's typed event log to PATH as JSON lines",
    )
    run.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="K",
        help="in-memory backup replicas per snapshot partition (default: 1)",
    )
    run.add_argument(
        "--placement",
        type=str,
        default=None,
        metavar="POLICY",
        help="replica placement policy, optionally parameterized "
        f"({', '.join(sorted(PLACEMENTS))}; e.g. stride:3, parity:4 — "
        "parity stores one XOR block per g partitions instead of replicas; "
        "default: ring, the paper's scheme)",
    )
    run.add_argument(
        "--stable-fallback",
        action="store_true",
        help="also write checkpoints to the disk tier; restores fall back "
        "to it when every in-memory copy of a partition is lost",
    )
    run.add_argument(
        "--mttf",
        type=float,
        default=None,
        metavar="SECONDS",
        help="inject random exponential failures with this mean time to "
        "failure (virtual seconds)",
    )
    run.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the --mttf failure schedule and transient faults",
    )
    run.add_argument(
        "--detect-timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="enable the heartbeat failure detector with this detection "
        "timeout (virtual seconds); 0 keeps the oracle failure model",
    )
    run.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="heartbeat emission period (default: detect-timeout / 10)",
    )
    run.add_argument(
        "--drop-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="drop each data-plane message with this probability "
        "(retransmitted with exponential backoff, at-most-once delivery)",
    )
    run.add_argument(
        "--dup-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="duplicate each delivered message with this probability",
    )
    run.add_argument(
        "--delay-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="delay each delivered message with this probability",
    )
    run.add_argument(
        "--delay-seconds",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="maximum extra delay for --delay-rate messages",
    )
    run.add_argument(
        "--straggler",
        type=str,
        action="append",
        default=None,
        metavar="PLACE:FACTOR",
        help="slow one place down by FACTOR (repeatable), e.g. 3:8 makes "
        "place 3 compute 8x slower",
    )
    run.add_argument(
        "--corrupt",
        type=float,
        default=0.0,
        metavar="P",
        help="corrupt each committed snapshot copy with this probability "
        "(verified checksums quarantine corrupt copies on restore)",
    )

    sweep = sub.add_parser("sweep", help="regenerate one paper experiment")
    sweep.add_argument("experiment", choices=sorted(SWEEPS))
    sweep.add_argument("--max-places", type=int, default=44)
    sweep.add_argument("--iterations", type=int, default=30)
    sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="fan the place axis out over N worker processes (default: "
        "all cores; results are identical to a serial run)",
    )

    chaos = sub.add_parser(
        "chaos", help="run a seeded campaign of randomized failure schedules"
    )
    chaos.add_argument("app", choices=list(CHAOS_APP_NAMES))
    chaos.add_argument("--schedules", type=int, default=50)
    chaos.add_argument("--chaos-seed", type=int, default=0)
    chaos.add_argument("--places", type=int, default=6)
    chaos.add_argument("--iterations", type=int, default=10)
    chaos.add_argument("--ckpt-interval", type=int, default=3)
    chaos.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="K",
        help="backup replicas per partition (default: 2, or 1 with parity)",
    )
    chaos.add_argument(
        "--placement",
        type=str,
        default="spread",
        metavar="POLICY",
        help="placement policy, optionally parameterized (e.g. parity:4)",
    )
    chaos.add_argument("--stable-fallback", action="store_true")
    chaos.add_argument("--spares", type=int, default=0)
    chaos.add_argument("--drop-rate", type=float, default=0.0, metavar="P")
    chaos.add_argument("--dup-rate", type=float, default=0.0, metavar="P")
    chaos.add_argument(
        "--straggler-max",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="each schedule slows one random place by up to this factor",
    )
    chaos.add_argument("--corrupt", type=float, default=0.0, metavar="P")
    chaos.add_argument(
        "--detect-timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="heartbeat detection timeout; 0 keeps the oracle failure model",
    )
    chaos.add_argument(
        "--partition-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="probability a schedule includes a healing link partition",
    )
    chaos.add_argument(
        "--ckpt-delta",
        action="store_true",
        help="run every schedule with incremental (dirty-partition-only) "
        "checkpointing",
    )
    chaos.add_argument(
        "--recovery",
        choices=list(RECOVERY_MODES),
        default="checkpoint",
        help="recovery scheme: rollback to a checkpoint, or checkpoint-free "
        "reconstruction (apps implementing the reconstructable protocol, "
        "e.g. cg; rollback stays as the fallback rung)",
    )
    chaos.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="fan schedules out over N worker processes (default: all "
        "cores; outcomes are bitwise identical to a serial run)",
    )

    serve = sub.add_parser(
        "serve",
        help="run a multi-job stream against one shared place pool",
    )
    serve.add_argument("--jobs-count", type=int, default=20, metavar="N")
    serve.add_argument("--streams", type=int, default=1, metavar="N")
    serve.add_argument("--service-seed", type=int, default=0)
    serve.add_argument("--places", type=int, default=17)
    serve.add_argument("--reserve", type=int, default=4)
    serve.add_argument(
        "--economics",
        choices=["dedicated", "pooled", "borrow"],
        default="pooled",
        help="spare economics: per-lease commitment, shared FCFS reserve, "
        "or shared reserve plus borrow-from-idle",
    )
    serve.add_argument("--arrival-rate", type=float, default=1.0, metavar="R")
    serve.add_argument("--max-job-places", type=int, default=6)
    serve.add_argument("--ckpt-interval", type=int, default=3)
    serve.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="K",
        help="backup replicas per partition (default: 2, or 1 with parity)",
    )
    serve.add_argument(
        "--placement",
        type=str,
        default="spread",
        metavar="POLICY",
        help="placement policy, optionally parameterized (e.g. parity:4)",
    )
    serve.add_argument(
        "--repair-mttr",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="heal killed places back into the pool after a seeded "
        "exponential mean-time-to-repair (0 = places stay dead)",
    )
    serve.add_argument("--crash-rate", type=float, default=0.0, metavar="P")
    serve.add_argument("--pair-rate", type=float, default=0.0, metavar="R")
    serve.add_argument("--rack-rate", type=float, default=0.0, metavar="R")
    serve.add_argument("--drop-rate", type=float, default=0.0, metavar="P")
    serve.add_argument("--dup-rate", type=float, default=0.0, metavar="P")
    serve.add_argument(
        "--detect-timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="per-lease heartbeat detection timeout; 0 keeps the oracle model",
    )
    serve.add_argument(
        "--parallel-streams",
        type=int,
        default=None,
        metavar="N",
        help="fan streams out over N worker processes (outcomes are "
        "bitwise identical to a serial run)",
    )
    serve.add_argument(
        "--per-job",
        action="store_true",
        help="also print one line per job (status, latency, kills)",
    )
    return parser


def _cmd_list() -> int:
    print("applications:", ", ".join(sorted(APPS)))
    print("experiments: ", ", ".join(sorted(SWEEPS)))
    return 0


def _resolve_replicas(replicas: Optional[int], placement: str) -> int:
    """Default ``--replicas`` per placement policy: parity replaces per-key
    replicas with one XOR block per group, so it defaults to 1 (the primary
    only) where replica placements default to 2."""
    if replicas is None:
        return 1 if placement.split(":", 1)[0] == "parity" else 2
    return replicas


def _parse_stragglers(specs: Optional[List[str]]) -> List[tuple]:
    """Parse repeated ``--straggler PLACE:FACTOR`` values."""
    parsed = []
    for spec in specs or []:
        try:
            pid_text, factor_text = spec.split(":", 1)
            parsed.append((int(pid_text), float(factor_text)))
        except ValueError:
            raise SystemExit(
                f"error: --straggler expects PLACE:FACTOR (e.g. 3:8), got {spec!r}"
            )
    return parsed


#: ``run`` flags only the resilient world reads (failures, protection,
#: checkpointing, recovery, detection, transient faults).
_RESILIENT_ONLY = (
    "--fail-at", "--victim", "--mttf", "--spares", "--replicas", "--placement",
    "--stable-fallback", "--ckpt-interval", "--ckpt-mode", "--ckpt-delta", "--mode",
    "--recovery", "--detect-timeout", "--heartbeat-interval", "--drop-rate",
    "--dup-rate", "--delay-rate", "--delay-seconds", "--straggler", "--corrupt",
    "--chaos-seed",
)


def _check_flags_read(args: argparse.Namespace) -> None:
    """A flag set away from its default that the chosen world never reads
    is a usage error (a ``ValueError``, see :func:`main`), not a silent
    no-op."""
    defaults = vars(_build_parser().parse_args(["run", args.app]))
    changed = {dest for dest, value in vars(args).items() if value != defaults[dest]}
    if args.non_resilient:
        unread = [f for f in _RESILIENT_ONLY if f[2:].replace("-", "_") in changed]
        if unread:
            raise ValueError(
                f"{', '.join(unread)}: not read by a --non-resilient run "
                "(it injects no failure and runs no resilience framework)"
            )
    elif args.heartbeat_interval is not None and args.detect_timeout <= 0:
        raise ValueError(
            "--heartbeat-interval: not read without --detect-timeout "
            "(no failure detector runs)"
        )


def _build_run(args: argparse.Namespace) -> Callable[[], int]:
    """Build the world of one ``run``; the returned call executes it."""
    _check_flags_read(args)
    resilient = not args.non_resilient
    cost = APPS[args.app].bench_cost()
    rt = make_runtime(args.places, cost=cost, resilient=resilient, spares=args.spares)
    try:
        if args.trace_out:
            rt.engine.timeline.enabled = True
        app, executor = _build_world(args, rt)
    except ValueError:
        rt.close()
        raise
    return partial(_run_world, args, rt, app, executor)


def _check_place(flag: str, pid: int, world: List[int]) -> None:
    """A place a flag names must exist in this world (a ``ValueError`` here
    is a usage error, see :func:`main`)."""
    if pid not in world:
        raise ValueError(
            f"{flag} {pid} names no place of this world "
            f"(ids 0..{world[-1]}, spares included)"
        )


def _build_world(args: argparse.Namespace, rt):
    entry = APPS[args.app]
    workload = entry.bench_workload(args.iterations)
    if args.non_resilient:
        app = entry.nonresilient(rt, workload)
        executor = NonResilientExecutor(rt, app)
    else:
        app = entry.resilient(rt, workload)
        world = rt.all_place_ids()
        if args.fail_at:
            victims = args.victim or []
            for i, fail_at in enumerate(args.fail_at):
                victim = victims[i] if i < len(victims) else args.places // 2
                _check_place("--victim", victim, world)
                rt.injector.kill_at_iteration(victim, iteration=fail_at)
        if args.mttf is not None:
            model = ExponentialFailureModel(args.mttf, seed=args.chaos_seed)
            candidates = [pid for pid in rt.world.ids if pid != 0]
            # Event times are relative to the start of the run, not to the
            # virtual time already spent constructing the application.
            t0 = rt.now()
            for kill in model.schedule(candidates, horizon=10.0 * args.mttf):
                rt.injector.kill_at_time(kill.place_id, t0 + kill.time)
        for pid, factor in _parse_stragglers(args.straggler):
            _check_place("--straggler", pid, world)
            rt.set_straggler(pid, factor)
        if args.drop_rate or args.dup_rate or args.delay_rate:
            rt.set_faults(
                TransientFaultModel(
                    drop_rate=args.drop_rate,
                    dup_rate=args.dup_rate,
                    delay_rate=args.delay_rate,
                    delay_seconds=args.delay_seconds,
                    seed=args.chaos_seed,
                )
            )
        detector = None
        if args.detect_timeout > 0:
            detector = PhiAccrualDetector(
                rt,
                detect_timeout=args.detect_timeout,
                heartbeat_interval=args.heartbeat_interval,
            )
        corruption = (
            CorruptionModel(args.corrupt, seed=args.chaos_seed)
            if args.corrupt
            else None
        )
        executor = IterativeExecutor(
            rt,
            app,
            checkpoint_interval=args.ckpt_interval,
            mode=RestoreMode(args.mode),
            checkpoint_mode=args.ckpt_mode,
            replicas=args.replicas,
            placement=make_placement(args.placement) if args.placement else None,
            stable_fallback=args.stable_fallback or None,
            detector=detector,
            corruption=corruption,
            delta=args.ckpt_delta,
            recovery=args.recovery,
        )
    return app, executor


def _run_world(args: argparse.Namespace, rt, app, executor) -> int:
    with rt:
        try:
            report = executor.run()
        except DataLossError as exc:
            print(f"unrecoverable: {exc}", file=sys.stderr)
            print(
                "hint: raise --replicas, use --placement spread, or add "
                "--stable-fallback",
                file=sys.stderr,
            )
            return 1
        return _print_report(args, rt, app, report)


def _print_report(args: argparse.Namespace, rt, app, report) -> int:
    print(f"app:                  {args.app} on {args.places} places")
    print(f"iterations executed:  {report.iterations_executed}")
    print(f"checkpoints/restores: {report.checkpoints}/{report.restores}")
    print(f"failures observed:    {report.failures_observed}")
    if report.aborted_restores:
        print(f"aborted restores:     {report.aborted_restores}")
    if report.stable_fallback_reads:
        print(f"disk fallback reads:  {report.stable_fallback_reads}")
    if report.dropped_messages or report.retransmissions or report.duplicate_messages:
        print(
            f"transient network:    {report.dropped_messages} dropped, "
            f"{report.retransmissions} retransmitted, "
            f"{report.duplicate_messages} duplicated, "
            f"{report.comm_timeouts} timeouts"
        )
    if report.evictions or report.transient_restores:
        print(
            f"detector verdicts:    {report.evictions} evictions "
            f"({report.false_positive_evictions} false positive), "
            f"{report.transient_restores} transient recoveries, "
            f"{report.detection_wait_time:.4f} s waited"
        )
    if report.quarantined_copies:
        print(f"quarantined copies:   {report.quarantined_copies}")
    if report.ckpt_clean_partitions:
        print(
            f"delta checkpointing:  {report.ckpt_clean_partitions} clean / "
            f"{report.ckpt_dirty_partitions} dirty partitions "
            f"({report.ckpt_clean_bytes:.0f} B skipped, "
            f"{report.ckpt_dirty_bytes:.0f} B copied)"
        )
    if report.reconstructions or report.fallback_restores:
        print(
            f"reconstructions:      {report.reconstructions} "
            f"({report.reconstructed_partitions} partitions, "
            f"{report.aborted_reconstructions} aborted, "
            f"{report.fallback_restores} fell back to rollback)"
        )
        print(
            f"redundancy overhead:  {report.redundancy_time:.4f} s, "
            f"{report.redundancy_bytes:.0f} B published, "
            f"{report.repaired_static_keys} static copies repaired"
        )
    if report.pending_kills:
        print(f"kills never fired:    {len(report.pending_kills)}")
    print(f"virtual total:        {report.total_time:.4f} s")
    print(
        f"  = step {report.step_time:.4f} + checkpoint {report.checkpoint_time:.4f}"
        f" + restore {report.restore_time:.4f} + lost {report.lost_time:.4f}"
        + (
            f" + reconstruct {report.reconstruct_time:.4f}"
            f" + redundancy {report.redundancy_time:.4f}"
            if report.reconstruct_time or report.redundancy_time
            else ""
        )
    )
    print(f"final place group:    {app.places.ids}")
    if args.profile:
        from repro.bench.timeline import render_profile

        print("\nper-operation profile:")
        print(render_profile(rt.stats.finish_reports))
    if args.timeline:
        from repro.bench.timeline import render_timeline

        print("\nfinish timeline:")
        print(render_timeline(rt.stats.finish_reports))
    if args.trace_out:
        try:
            n = rt.engine.timeline.dump_jsonl(args.trace_out)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace_out}: {exc}", file=sys.stderr)
            return 1
        print(f"engine trace:         {n} events -> {args.trace_out}")
    return 0


def _resolve_jobs(requested: Optional[int]) -> Optional[int]:
    """``--jobs`` semantics: explicit N wins, otherwise all cores."""
    if requested is not None:
        return requested
    return os.cpu_count()


def _restore_sweep(app: str, axis: List[int], iterations: int, jobs: int) -> dict:
    """The Figs. 5-7 protocol at the CLI's sizes.  ``--iterations`` is the
    only knob forwarded, so a kill it puts out of reach (the
    :func:`run_restore_sweep` ``ValueError``) is reported as a usage error
    here rather than as a traceback."""
    if iterations <= PAPER_FAILURE_ITERATION:
        print(
            "error: the restore protocol kills a place at iteration "
            f"{PAPER_FAILURE_ITERATION}; --iterations must be at least "
            f"{PAPER_FAILURE_ITERATION + 1}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return run_restore_sweep(app, places_list=axis, iterations=iterations, jobs=jobs)


def _cmd_sweep(args: argparse.Namespace) -> int:
    kind, app = SWEEPS[args.experiment]
    axis = calibration.places_axis(args.max_places)
    jobs = _resolve_jobs(args.jobs)
    if kind == "overhead":
        series = run_overhead_sweep(
            app, places_list=axis, iterations=args.iterations, jobs=jobs
        )
        print(figures.series_table(series.places, series.values, header_unit="ms/iteration"))
    elif kind == "checkpoint":
        values = {}
        for name in ("linreg", "logreg", "pagerank"):
            sweep = run_checkpoint_sweep(
                name, places_list=axis, iterations=args.iterations, jobs=jobs
            )
            values[name] = sweep.values["mean checkpoint (ms)"]
        print(figures.series_table(axis, values, header_unit="ms/checkpoint"))
    elif kind == "restore":
        out = _restore_sweep(app, axis, args.iterations, jobs)
        series = out["series"]
        print(
            figures.series_table(
                series.places, series.values, value_format="{:10.2f}", header_unit="total s"
            )
        )
    elif kind == "ckpt-mode":
        out = run_checkpoint_mode_sweep(
            app, places_list=axis, iterations=args.iterations, jobs=jobs
        )
        series = out["series"]
        print(
            figures.series_table(
                series.places, series.values, header_unit="see row labels"
            )
        )
    elif kind == "table4":
        for name in ("linreg", "logreg", "pagerank"):
            out = _restore_sweep(name, [args.max_places], args.iterations, jobs)
            rows = table4_from_reports(out["reports"], places=args.max_places)
            for mode, row in rows.items():
                print(f"{name:<10s} {mode:<18s} C% {row['C%']:5.1f}  R% {row['R%']:5.1f}")
    return 0


def _build_chaos(args: argparse.Namespace) -> Callable[[], int]:
    from repro.chaos import CampaignConfig

    config = CampaignConfig(
        app=args.app,
        schedules=args.schedules,
        seed=args.chaos_seed,
        places=args.places,
        iterations=args.iterations,
        checkpoint_interval=args.ckpt_interval,
        replicas=_resolve_replicas(args.replicas, args.placement),
        placement=args.placement,
        stable_fallback=args.stable_fallback,
        spares=args.spares,
        drop_rate=args.drop_rate,
        dup_rate=args.dup_rate,
        straggler_max=args.straggler_max,
        corrupt_rate=args.corrupt,
        detect_timeout=args.detect_timeout,
        partition_rate=args.partition_rate,
        ckpt_delta=args.ckpt_delta,
        recovery=args.recovery,
    )
    return partial(_run_chaos, args, config)


def _run_chaos(args: argparse.Namespace, config) -> int:
    from repro.chaos import run_campaign

    result = run_campaign(config, jobs=_resolve_jobs(args.jobs))
    print(result.summary())
    return 1 if result.violations else 0


def _build_serve(args: argparse.Namespace) -> Callable[[], int]:
    from repro.service import ServiceConfig

    config = ServiceConfig(
        places=args.places,
        reserve=args.reserve,
        economics=args.economics,
        n_jobs=args.jobs_count,
        seed=args.service_seed,
        arrival_rate=args.arrival_rate,
        max_places=args.max_job_places,
        checkpoint_interval=args.ckpt_interval,
        replicas=_resolve_replicas(args.replicas, args.placement),
        placement=args.placement,
        repair_mttr=args.repair_mttr,
        crash_rate=args.crash_rate,
        pair_rate=args.pair_rate,
        rack_rate=args.rack_rate,
        drop_rate=args.drop_rate,
        dup_rate=args.dup_rate,
        detect_timeout=args.detect_timeout,
    )
    return partial(_run_serve, args, config)


def _run_serve(args: argparse.Namespace, config) -> int:
    from repro.chaos import run_service_campaign
    from repro.service import run_service

    if args.streams > 1:
        result = run_service_campaign(
            config, streams=args.streams, jobs=args.parallel_streams
        )
        print(result.summary())
        return 1 if (result.violations or result.cross_tenant_aborts) else 0
    report = run_service(config)
    print(report.summary())
    if args.per_job:
        for job in report.jobs:
            kills = ",".join(str(p) for p in job.kills_during_run) or "-"
            print(
                f"  job {job.job_id:>3d} {job.app:<8s} places={job.places} "
                f"{job.status:<9s} wait={job.queue_wait:.3f}s "
                f"latency={job.latency:.3f}s kills={kills}"
            )
    for violation in report.violations:
        print(f"VIOLATION: {violation}")
    return 1 if (report.violations or report.cross_tenant_aborts) else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "sweep":
        return _cmd_sweep(args)
    build = {"run": _build_run, "chaos": _build_chaos, "serve": _build_serve}[args.command]
    try:
        # Configuration and world construction only (config dataclass,
        # kills, store, executor): a ValueError there is the user's.  What
        # the command then runs stays outside, so an internal bug is never
        # relabelled a usage error.
        execute = build(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return execute()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
