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

Every option is declared once, in :data:`_OPTIONS`.  Its ``dest`` is the
field it fills of the verb's configuration — a :class:`~repro.world.WorldSpec`
for ``run``, a :class:`~repro.chaos.CampaignConfig` for ``chaos``, a
:class:`~repro.service.ServiceConfig` for ``serve`` — and the field's default
is the option's, so a verb turns its arguments into its configuration by
field name (:func:`repro.world.same_named`).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from functools import partial
from typing import Callable, List, Optional, Tuple

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
from repro.chaos import CampaignConfig, run_campaign, run_service_campaign
from repro.resilience.executor import CHECKPOINT_MODES, RECOVERY_MODES, RestoreMode
from repro.resilience.iterative import ReconstructableIterativeApp
from repro.resilience.placement import PLACEMENTS
from repro.runtime.exceptions import DataLossError
from repro.runtime.pool import ECONOMICS_MODES
from repro.service import ServiceConfig, run_service
from repro.util.validation import check_positive
from repro.world import WorldSpec, same_named

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


def _straggler(spec: str) -> Tuple[int, float]:
    """One ``--straggler PLACE:FACTOR`` value."""
    try:
        pid_text, factor_text = spec.split(":", 1)
        return int(pid_text), float(factor_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects PLACE:FACTOR (e.g. 3:8), got {spec!r}"
        ) from None


#: Every option of every verb, declared once.
_OPTIONS = {
    "--places": dict(type=int),
    "--iterations": dict(type=int),
    "--non-resilient": dict(dest="resilient", action="store_false", help="plain run, no framework"),
    "--ckpt-interval": dict(dest="checkpoint_interval", type=int, metavar="CKPT_INTERVAL"),
    "--mode": dict(choices=[m.value for m in RestoreMode]),
    "--spares": dict(type=int),
    "--fail-at": dict(
        type=int, action="append", metavar="ITER", help="script a failure at this iteration "
        "(repeatable: pair each occurrence with a --victim to kill several places)"
    ),
    "--victim": dict(
        type=int, action="append", metavar="PLACE",
        help="place to kill for the matching --fail-at (repeatable; default: the middle place)",
    ),
    "--profile": dict(action="store_true", help="print a per-operation time profile"),
    "--timeline": dict(action="store_true", help="print an ASCII finish timeline"),
    "--recovery": dict(
        choices=list(RECOVERY_MODES), help="checkpoint rollback, or checkpoint-free "
        "reconstruction (reconstructable apps, e.g. cg; rollback stays the fallback rung)"
    ),
    "--ckpt-mode": dict(
        dest="checkpoint_mode", choices=list(CHECKPOINT_MODES),
        help="blocking (paper) or overlapped (backups hidden behind compute)",
    ),
    "--ckpt-delta": dict(
        action="store_true", help="incremental checkpoints: unchanged partitions are "
        "adopted by reference and only dirty bytes are copied/charged"
    ),
    "--trace-out": dict(
        metavar="PATH", help="dump the engine's typed event log to PATH as JSON lines"
    ),
    "--replicas": dict(
        type=int, metavar="K", help="in-memory backup replicas per snapshot partition "
        "(default: 1 for run; 2, or 1 with parity, for chaos and serve)"
    ),
    "--placement": dict(
        metavar="POLICY", help="replica placement policy, optionally parameterized "
        f"({', '.join(sorted(PLACEMENTS))}; e.g. stride:3, parity:4 — parity stores one "
        "XOR block per g partitions instead of replicas; default: ring, or spread for "
        "chaos and serve)"
    ),
    "--stable-fallback": dict(
        action="store_true", help="also write checkpoints to the disk tier; restores "
        "fall back to it when every in-memory copy of a partition is lost"
    ),
    "--mttf": dict(
        type=float, metavar="SECONDS",
        help="inject random exponential failures with this mean time to failure",
    ),
    "--chaos-seed": dict(
        dest="seed", type=int, metavar="CHAOS_SEED",
        help="seed of the random failures, transient faults and schedules",
    ),
    "--detect-timeout": dict(
        type=float, metavar="SECONDS", help="run the heartbeat failure detector with "
        "this detection timeout; 0 keeps the oracle failure model"
    ),
    "--heartbeat-interval": dict(
        type=float, metavar="SECONDS",
        help="heartbeat emission period (default: detect-timeout / 10)",
    ),
    "--drop-rate": dict(
        type=float, metavar="P", help="drop each data-plane message with this "
        "probability (retransmitted with exponential backoff, at-most-once delivery)"
    ),
    "--dup-rate": dict(
        type=float, metavar="P", help="duplicate each delivered message with this probability"
    ),
    "--delay-rate": dict(
        type=float, metavar="P", help="delay each delivered message with this probability"
    ),
    "--delay-seconds": dict(
        type=float, metavar="SECONDS", help="maximum extra delay for --delay-rate messages"
    ),
    "--straggler": dict(
        type=_straggler, action="append", metavar="PLACE:FACTOR",
        help="slow one place down by FACTOR (repeatable), e.g. 3:8: place 3 is 8x slower",
    ),
    "--corrupt": dict(
        dest="corrupt_rate", type=float, metavar="P", help="corrupt each committed "
        "snapshot copy with this probability (checksums quarantine it on restore)"
    ),
    "--max-places": dict(type=int, default=44),
    "--jobs": dict(
        type=int, metavar="N", help="fan the place axis (sweep) or the schedules (chaos) "
        "out over N worker processes (default: all cores; results equal a serial run)"
    ),
    "--schedules": dict(type=int),
    "--straggler-max": dict(
        type=float, metavar="FACTOR",
        help="each schedule slows one random place by up to this factor",
    ),
    "--partition-rate": dict(
        type=float, metavar="P", help="probability a schedule includes a healing link partition"
    ),
    "--jobs-count": dict(dest="n_jobs", type=int, metavar="N"),
    "--streams": dict(type=int, default=1, metavar="N"),
    "--service-seed": dict(dest="seed", type=int, metavar="SERVICE_SEED"),
    "--reserve": dict(type=int),
    "--economics": dict(
        choices=list(ECONOMICS_MODES), help="spare economics: per-lease commitment, "
        "shared FCFS reserve, or shared reserve plus borrow-from-idle"
    ),
    "--arrival-rate": dict(type=float, metavar="R"),
    "--max-job-places": dict(dest="max_places", type=int, metavar="MAX_JOB_PLACES"),
    "--repair-mttr": dict(
        type=float, metavar="SECONDS", help="heal killed places back into the pool after "
        "a seeded exponential mean-time-to-repair (0 = places stay dead)"
    ),
    "--crash-rate": dict(type=float, metavar="P"),
    "--pair-rate": dict(type=float, metavar="R"),
    "--rack-rate": dict(type=float, metavar="R"),
    "--parallel-streams": dict(
        type=int, metavar="N", help="fan streams out over N worker processes "
        "(outcomes are bitwise identical to a serial run)"
    ),
    "--per-job": dict(
        action="store_true", help="also print one line per job (status, latency, kills)"
    ),
}

#: Each verb: its help, its positional, its configuration, its options in
#: order, and the defaults it does not take from its configuration's fields.
_VERBS = {
    "run": (
        "run one application on the simulated cluster",
        ("app", sorted(APPS)),
        WorldSpec,
        "--places --iterations --non-resilient --ckpt-interval --mode --spares "
        "--fail-at --victim --profile --timeline --recovery --ckpt-mode "
        "--ckpt-delta --trace-out --replicas --placement --stable-fallback --mttf "
        "--chaos-seed --detect-timeout --heartbeat-interval --drop-rate --dup-rate "
        "--delay-rate --delay-seconds --straggler --corrupt",
        {},
    ),
    "sweep": (
        "regenerate one paper experiment",
        ("experiment", sorted(SWEEPS)),
        WorldSpec,
        "--max-places --iterations --jobs",
        {},
    ),
    "chaos": (
        "run a seeded campaign of randomized failure schedules",
        ("app", list(CHAOS_APP_NAMES)),
        CampaignConfig,
        "--schedules --chaos-seed --places --iterations --ckpt-interval --replicas "
        "--placement --stable-fallback --spares --drop-rate --dup-rate "
        "--straggler-max --corrupt --detect-timeout --partition-rate --ckpt-delta "
        "--recovery --jobs",
        {"schedules": 50},
    ),
    "serve": (
        "run a multi-job stream against one shared place pool",
        None,
        ServiceConfig,
        "--jobs-count --streams --service-seed --places --reserve --economics "
        "--arrival-rate --max-job-places --ckpt-interval --replicas --placement "
        "--repair-mttr --crash-rate --pair-rate --rack-rate --drop-rate --dup-rate "
        "--detect-timeout --parallel-streams --per-job",
        {},
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resilient GML reproduction: run apps / regenerate experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list applications and experiments")
    for verb, (help_text, positional, config, flags, defaults) in _VERBS.items():
        verb_parser = sub.add_parser(verb, help=help_text)
        if positional is not None:
            verb_parser.add_argument(positional[0], choices=positional[1])
        field_defaults = {f.name: f.default for f in fields(config)}
        for flag in flags.split():
            option = dict(_OPTIONS[flag])
            dest = option.get("dest", flag[2:].replace("-", "_"))
            if dest in defaults or dest in field_defaults:
                default = defaults.get(dest, field_defaults.get(dest))
                # An ``append`` option appends to a copy of a list default.
                option["default"] = list(default) if isinstance(default, tuple) else default
            verb_parser.add_argument(flag, **option)
    return parser


def _cmd_list() -> int:
    print("applications:", ", ".join(sorted(APPS)))
    print("experiments: ", ", ".join(sorted(SWEEPS)))
    return 0


def _prepare_run(args: argparse.Namespace) -> Callable[[], int]:
    spec = same_named(
        WorldSpec, args, trace=bool(args.trace_out or args.profile or args.timeline)
    )
    spec.validate()
    return partial(_run_world, args, spec)


def _run_world(args: argparse.Namespace, spec: WorldSpec) -> int:
    rt, app, _, executor = spec.build()
    with rt:
        try:
            report = executor.run()
        except DataLossError as exc:
            print(f"unrecoverable: {exc}", file=sys.stderr)
            if executor.store.latest() is not None:
                hint = "raise --replicas, use --placement spread, or add --stable-fallback"
            else:
                hint = "no protection flag helps a failure before the first checkpoint commits"
                if isinstance(app, ReconstructableIterativeApp):
                    hint += "; --recovery reconstruct with --spares recovers without one"
            print(f"hint: {hint}", file=sys.stderr)
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
        print(render_profile(rt.engine.timeline.of_kind("finish")))
    if args.timeline:
        from repro.bench.timeline import render_timeline

        print("\nfinish timeline:")
        print(render_timeline(rt.engine.timeline.of_kind("finish")))
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


def _prepare_sweep(args: argparse.Namespace) -> Callable[[], int]:
    """Judge every world the sweep will build: each app of the experiment
    at each place count of its axis, with the restore protocol's kill."""
    kind, app = SWEEPS[args.experiment]
    restore = kind in ("restore", "table4")
    if restore and args.iterations <= PAPER_FAILURE_ITERATION:
        raise ValueError(
            "the restore protocol kills a place at iteration "
            f"{PAPER_FAILURE_ITERATION}; --iterations must be at least "
            f"{PAPER_FAILURE_ITERATION + 1}"
        )
    axis = [args.max_places] if kind == "table4" else calibration.places_axis(args.max_places)
    for name in [app] if app else ["linreg", "logreg", "pagerank"]:
        for places in axis:
            WorldSpec(
                name,
                places=places,
                iterations=args.iterations,
                spares=1 if restore else 0,
                fail_at=(PAPER_FAILURE_ITERATION,) if restore else (),
            ).validate()
    return partial(_run_sweep, args, kind, app, axis)


def _run_sweep(args: argparse.Namespace, kind: str, app: str, axis: List[int]) -> int:
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
        series = run_restore_sweep(
            app, places_list=axis, iterations=args.iterations, jobs=jobs
        )["series"]
        print(
            figures.series_table(
                series.places, series.values, value_format="{:10.2f}", header_unit="total s"
            )
        )
    elif kind == "ckpt-mode":
        series = run_checkpoint_mode_sweep(
            app, places_list=axis, iterations=args.iterations, jobs=jobs
        )["series"]
        print(
            figures.series_table(
                series.places, series.values, header_unit="see row labels"
            )
        )
    elif kind == "table4":
        for name in ("linreg", "logreg", "pagerank"):
            out = run_restore_sweep(
                name, places_list=axis, iterations=args.iterations, jobs=jobs
            )
            rows = table4_from_reports(out["reports"], places=args.max_places)
            for mode, row in rows.items():
                print(f"{name:<10s} {mode:<18s} C% {row['C%']:5.1f}  R% {row['R%']:5.1f}")
    return 0


def _prepare_chaos(args: argparse.Namespace) -> Callable[[], int]:
    return partial(_run_chaos, args, same_named(CampaignConfig, args))


def _run_chaos(args: argparse.Namespace, config: CampaignConfig) -> int:
    result = run_campaign(config, jobs=_resolve_jobs(args.jobs))
    print(result.summary())
    return 1 if result.violations else 0


def _prepare_serve(args: argparse.Namespace) -> Callable[[], int]:
    check_positive(args.streams, "streams")
    return partial(_run_serve, args, same_named(ServiceConfig, args))


def _run_serve(args: argparse.Namespace, config: ServiceConfig) -> int:
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
    prepare = {
        "run": _prepare_run,
        "sweep": _prepare_sweep,
        "chaos": _prepare_chaos,
        "serve": _prepare_serve,
    }[args.command]
    try:
        # Configuration only: the verb's configuration is built and judged
        # here, before any runtime exists, so a ValueError is the user's.
        # What the verb then runs stays outside, so an internal bug is never
        # relabelled a usage error.
        execute = prepare(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return execute()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
