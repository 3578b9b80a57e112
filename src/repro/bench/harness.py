"""Sweep drivers regenerating the paper's experiments.

Each function runs one experiment protocol over a list of place counts and
returns structured results; the ``benchmarks/`` targets print them as
paper-style tables/series and compare against the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import world
from repro.baseline import failure_free_time
from repro.bench import calibration
from repro.bench.catalogue import APPS
from repro.engine.fork import capture_boundaries
from repro.resilience.executor import ExecutionReport, RestoreMode
from repro.runtime.factory import make_runtime

#: §VII's restore protocol kills one place at iteration 15 of 30.
PAPER_FAILURE_ITERATION = 15

#: The paper's three restoration modes, in the figures' column order.
_PAPER_MODES = tuple(
    m.value
    for m in (RestoreMode.SHRINK_REBALANCE, RestoreMode.SHRINK, RestoreMode.REPLACE_REDUNDANT)
)


def pmap(fn: Callable, items: Sequence, jobs: Optional[int]) -> List:
    """Map *fn* over *items*, optionally on a process pool — the one pool of
    the sweeps, the chaos campaigns and the service campaigns.

    Each item is an independent simulation (a sweep cell, a schedule, a
    stream: its own Runtime, its randomness derived from its own index), so
    fan-out cannot change any result; ``pool.map`` preserves input order,
    keeping the output identical to the serial loop.  ``jobs`` of None or
    1 stays serial — the default, and what the golden-timing tests pin — and
    never imports :mod:`multiprocessing`.
    """
    items = list(items)
    if jobs is None or jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(min(jobs, len(items))) as pool:
        return pool.map(fn, items)


@dataclass
class SweepSeries:
    """One experiment series over the place axis."""

    places: List[int]
    values: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)


def _overhead_cell(
    app_name: str, iterations: int, places: int
) -> List[Tuple[str, float]]:
    """One place-count cell of the Figs. 2-4 protocol (picklable)."""
    entry = APPS[app_name]
    wl, cost = entry.bench_workload(iterations), entry.bench_cost()
    nonres_total = failure_free_time(entry.nonresilient, wl, cost, places)
    with make_runtime(places, cost=cost, resilient=True) as rt:
        app = entry.nonresilient(rt, wl)
        t0 = rt.now()
        app.run()
        res_total = rt.now() - t0
    return [
        ("non-resilient finish", nonres_total / iterations * 1e3),
        ("resilient finish", res_total / iterations * 1e3),
    ]


def run_overhead_sweep(
    app_name: str,
    places_list: Optional[List[int]] = None,
    iterations: int = 30,
    jobs: Optional[int] = None,
) -> SweepSeries:
    """Figs. 2-4 protocol: time/iteration, resilient vs non-resilient X10.

    The *same* non-resilient GML benchmark runs under both runtimes (no
    checkpointing involved); the difference is pure resilient-finish
    bookkeeping.  ``jobs`` > 1 fans the place axis out over processes
    without changing any value.
    """
    places_list = places_list or calibration.places_axis()
    series = SweepSeries(places=list(places_list))
    cells = pmap(partial(_overhead_cell, app_name, iterations), places_list, jobs)
    for cell in cells:
        for label, per_iter_ms in cell:
            series.add(label, per_iter_ms)
    return series


def _resilient_cell(
    app_name: str, iterations: int, places: int, **fields
) -> ExecutionReport:
    """One failure-free resilient run at one place count (picklable): the
    paper-sized world of *app_name* with the protocol's *fields*."""
    rt, _, _, executor = world.WorldSpec(
        app_name, places=places, iterations=iterations, **fields
    ).build()
    with rt:
        return executor.run()


def run_checkpoint_sweep(
    app_name: str,
    places_list: Optional[List[int]] = None,
    iterations: int = 30,
    checkpoint_interval: int = 10,
    jobs: Optional[int] = None,
    delta: bool = False,
) -> SweepSeries:
    """Table III protocol: mean checkpoint time, no failures.

    30 iterations with a checkpoint every 10 → three checkpoints per run;
    read-only inputs are saved only in the first one.  ``delta`` switches
    on incremental (dirty-partition-only) checkpointing.
    """
    places_list = places_list or calibration.places_axis()
    series = SweepSeries(places=list(places_list))
    cell = partial(
        _resilient_cell,
        app_name,
        iterations,
        checkpoint_interval=checkpoint_interval,
        ckpt_delta=delta,
    )
    reports = pmap(cell, places_list, jobs)
    for report in reports:
        series.add("mean checkpoint (ms)", report.mean_checkpoint_time * 1e3)
        series.add("checkpoints", float(report.checkpoints))
    return series


def _checkpoint_mode_cell(
    app_name: str,
    iterations: int,
    checkpoint_interval: int,
    places: int,
) -> Dict[str, ExecutionReport]:
    """One place-count cell of the blocking-vs-overlapped protocol."""
    run = partial(_resilient_cell, app_name, iterations, places)
    return {
        ckpt_mode: run(checkpoint_interval=checkpoint_interval, checkpoint_mode=ckpt_mode)
        for ckpt_mode in ("blocking", "overlapped")
    }


def run_checkpoint_mode_sweep(
    app_name: str,
    places_list: Optional[List[int]] = None,
    iterations: int = 30,
    checkpoint_interval: int = 5,
    jobs: Optional[int] = None,
) -> Dict[str, object]:
    """Blocking vs overlapped checkpointing, no failures.

    The same resilient application runs twice per place count: once with
    the paper's blocking checkpoints and once with the engine's overlapped
    mode (backup transfers scheduled on the communication resources
    concurrently with the next iterations' compute).  The series report
    the checkpoint *stall* — the time the application was actually blocked
    by checkpointing — and the end-to-end total, per mode.

    Returns ``{"series": SweepSeries, "reports": {mode: {places: report}}}``.
    """
    places_list = places_list or calibration.places_axis()
    series = SweepSeries(places=list(places_list))
    reports: Dict[str, Dict[int, ExecutionReport]] = {
        "blocking": {},
        "overlapped": {},
    }
    cells = pmap(
        partial(_checkpoint_mode_cell, app_name, iterations, checkpoint_interval),
        places_list,
        jobs,
    )
    for places, cell in zip(places_list, cells):
        for ckpt_mode in ("blocking", "overlapped"):
            report = cell[ckpt_mode]
            series.add(f"{ckpt_mode} stall (ms)", report.checkpoint_stall_time * 1e3)
            series.add(f"{ckpt_mode} total (s)", report.total_time)
            reports[ckpt_mode][places] = report
    return {"series": series, "reports": reports}


def _restore_cell(
    app_name: str,
    iterations: int,
    checkpoint_interval: int,
    failure_iteration: int,
    places: int,
) -> Dict[str, object]:
    """One place-count cell of the Figs. 5-7 protocol (picklable).

    The modes' runs are one simulation until the kill fires, so the cell
    simulates that prefix once: a reference world runs failure-free to the
    failure boundary, is captured there, and every mode resumes its own
    fork of the image with the kill armed.  The reference world carries
    the spare replace-redundant needs; an idle spare is invisible to the
    shrink modes.  The image dies with the cell.
    """
    entry = APPS[app_name]
    wl, cost = entry.bench_workload(iterations), entry.bench_cost()
    victim = places // 2  # a mid-axis non-zero place
    unreached = (
        f"{app_name} at {places} places finished before the failure at "
        f"iteration {failure_iteration} could fire; nothing was restored"
    )
    executor = world.WorldSpec(
        app_name,
        places=places,
        iterations=iterations,
        checkpoint_interval=checkpoint_interval,
        spares=1,
    ).build()[3]
    with executor.runtime:
        images = capture_boundaries(executor, [failure_iteration])
    if failure_iteration not in images:
        raise ValueError(unreached)
    reports: Dict[str, ExecutionReport] = {}
    for mode_value in _PAPER_MODES:
        fork = images[failure_iteration].load()
        fork.mode = RestoreMode(mode_value)
        with fork.runtime as rt:
            rt.injector.kill_at_iteration(victim, iteration=failure_iteration)
            report = reports[mode_value] = fork.run()
        if not report.failures_observed:
            raise ValueError(unreached)
    return {
        "reports": reports,
        "baseline": failure_free_time(entry.nonresilient, wl, cost, places),
    }


def run_restore_sweep(
    app_name: str,
    places_list: Optional[List[int]] = None,
    iterations: int = 30,
    checkpoint_interval: int = 10,
    failure_iteration: int = PAPER_FAILURE_ITERATION,
    jobs: Optional[int] = None,
) -> Dict[str, SweepSeries]:
    """Figs. 5-7 protocol: total runtime for 30 iterations with a single
    place failure at iteration 15 and checkpoints every 10 iterations,
    under each restoration mode, plus the non-resilient no-failure
    baseline.

    Returns ``{series_label: SweepSeries}`` with one series per mode; the
    per-point ExecutionReports (for Table IV) ride along in ``reports``.
    """
    if not 1 <= failure_iteration < iterations:
        raise ValueError(
            f"the restore protocol kills a place at iteration "
            f"{failure_iteration}, which a run of {iterations} iterations "
            "cannot restore from (need 1 <= failure_iteration < iterations)"
        )
    places_list = places_list or calibration.places_axis()
    series = SweepSeries(places=list(places_list))
    reports: Dict[str, Dict[int, ExecutionReport]] = {m: {} for m in _PAPER_MODES}

    cells = pmap(
        partial(
            _restore_cell,
            app_name,
            iterations,
            checkpoint_interval,
            failure_iteration,
        ),
        places_list,
        jobs,
    )
    for places, cell in zip(places_list, cells):
        for mode_value in _PAPER_MODES:
            report = cell["reports"][mode_value]
            series.add(mode_value, report.total_time)
            reports[mode_value][places] = report
        series.add("non-resilient (no failure)", cell["baseline"])

    return {"series": series, "reports": reports}


def table4_from_reports(
    reports: Dict[str, Dict[int, ExecutionReport]], places: int = 44
) -> Dict[str, Dict[str, float]]:
    """Table IV: C% and R% of total time at the given place count."""
    out: Dict[str, Dict[str, float]] = {}
    for mode, by_places in reports.items():
        report = by_places[places]
        out[mode] = {
            "C%": report.checkpoint_pct,
            "R%": report.restore_pct,
        }
    return out
