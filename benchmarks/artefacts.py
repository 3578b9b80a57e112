"""The pinned artefacts: every committed table, figure and contract file.

Each entry of :data:`REGISTRY` is one artefact — a table or figure of the
paper's §VII (Figs. 2-7, Tables II-IV), an ablation or extension of it, or a
contract file (campaign fingerprints, CLI flows) — and holds:

* its name;
* the repo-relative paths it writes (none for a shape-only experiment);
* its generator, which reruns the experiment, rewrites those paths in place
  and returns the entry's result;
* its named shape predicates, each a pure function of that result.

Everything is virtual time, so every output is a pure function of the code
under ``src/``.  ``benchmarks/test_artefacts.py`` regenerates each entry,
evaluates its predicates and compares each output byte for byte with
``HEAD``::

    PYTHONPATH=src python -m pytest benchmarks/test_artefacts.py -q [-n auto] [-k <entry>]

Worlds are built by :meth:`repro.world.WorldSpec.build` wherever a spec can
express them; each hand-built world says which spec field it lacks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.apps.data import RegressionWorkload
from repro.apps.nonresilient import LinRegNonResilient
from repro.apps.resilient import LinRegResilient, LogRegResilient, PageRankResilient
from repro.bench import figures
from repro.bench.calibration import (
    REGRESSION_SCALE,
    cluster_2015,
    cluster_2015_with_nodes,
    pagerank_bench_workload,
    pagerank_cost,
    places_axis,
    regression_bench_workload,
    regression_cost,
)
from repro.bench.catalogue import APPS
from repro.bench.harness import (
    run_checkpoint_mode_sweep,
    run_checkpoint_sweep,
    run_overhead_sweep,
    run_restore_sweep,
    table4_from_reports,
)
from repro.chaos import CampaignConfig, run_campaign
from repro.cli import main as repro_main
from repro.engine.fork import capture_boundaries
from repro.matrix.distblock import DistBlockMatrix
from repro.matrix.random import LinkMatrix
from repro.resilience.executor import IterativeExecutor, RestoreMode
from repro.resilience.placement import make_placement
from repro.resilience.stable import use_stable_storage
from repro.resilience.store import AppResilientStore
from repro.resilience.young import optimal_interval_iterations
from repro.runtime.detector import PhiAccrualDetector
from repro.runtime.exceptions import DataLossError
from repro.runtime.factory import make_runtime
from repro.runtime.failure import ExponentialFailureModel, TransientFaultModel
from repro.service import (
    ServiceConfig,
    full_width_on_common_jobs,
    run_service,
    survival_on_common_jobs,
)
from repro.util.loc import AppLocRow, count_loc, loc_of_object
from repro.world import WorldSpec

ROOT = Path(__file__).resolve().parent.parent

MODES = ("shrink", "shrink-rebalance", "replace-redundant")


@dataclass(frozen=True)
class Artefact:
    """One pinned artefact: what it writes, how, and what must hold of it."""

    name: str
    #: Repo-relative output paths, handed to the generator as absolute ones.
    outputs: Tuple[str, ...]
    generator: Callable
    #: ``name -> holds(result)``.
    predicates: Dict[str, Callable[[Any], bool]]

    def generate(self):
        """Rerun the experiment, rewrite the outputs; returns the result."""
        return self.generator(*(str(ROOT / path) for path in self.outputs))

    def failed(self, result) -> List[str]:
        """The names of the predicates *result* does not satisfy."""
        return [name for name, holds in self.predicates.items() if not holds(result)]


REGISTRY: Dict[str, Artefact] = {}


def artefact(name: str, *outputs: str, **predicates):
    """Register the decorated generator as the entry *name*."""

    def decorate(generator):
        REGISTRY[name] = Artefact(name, outputs, generator, predicates)
        return generator

    return decorate


def _increasing(values) -> bool:
    values = list(values)
    return all(a < b for a, b in zip(values, values[1:]))


def _write_json(path: str, value) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=2)


def _run(spec: WorldSpec):
    """Run a spec's world to its report; the runtime is closed after."""
    rt, _, _, executor = spec.build()
    with rt:
        return executor.run()


# -- Figs. 2-4: resilient-finish overhead --------------------------------------
#
# The non-resilient GML benchmark, 30 iterations, weak scaling, under the
# non-resilient and the resilient runtime; time per iteration over 2-44
# places.  Paper: LinReg 60 -> 180 ms non-resilient, 60 -> 400 ms resilient
# (~2x at 44 places); LogReg 110 -> 295 / 595 ms; PageRank 38 -> 360 ms with
# by far the smallest resilient overhead (< 5 %; the simulator, charging
# uniform per-task bookkeeping, lands at ~15-20 %, still ~6x below LinReg's).


def overhead(app: str, csv: str):
    series = run_overhead_sweep(app, iterations=30)
    figures.write_csv(csv, series.places, series.values)
    return series


def overhead_shapes(growth: float, low, high: float) -> Dict[str, Callable]:
    """Non-resilient time grows more than *growth*-fold from 2 to 44 places;
    resilient time is never below it; at 44 places *low* < resilient /
    non-resilient < *high* (no lower bound when *low* is None)."""

    def nonres(series):
        return series.values["non-resilient finish"]

    def ratio(series):
        return series.values["resilient finish"][-1] / nonres(series)[-1]

    return dict(
        nonresilient_grows=lambda s: nonres(s)[-1] > growth * nonres(s)[0],
        resilient_never_below=lambda s: all(
            r >= n for r, n in zip(s.values["resilient finish"], nonres(s))
        ),
        resilient_overhead=lambda s: (low is None or low < ratio(s)) and ratio(s) < high,
    )


for _app, _bounds in {
    "linreg": (2.0, 1.5, 3.0),
    "logreg": (1.8, 1.4, 3.0),
    "pagerank": (4.0, None, 1.35),
}.items():
    artefact(f"overhead_{_app}", f"results/{_app}_overhead.csv", **overhead_shapes(*_bounds))(
        partial(overhead, _app)
    )


# -- Figs. 5-7: restore modes --------------------------------------------------
#
# 30 iterations, checkpoints every 10, one place killed at iteration 15;
# total runtime per restoration mode plus the failure-free non-resilient
# baseline.


def restore_modes(app: str, csv: str):
    series = run_restore_sweep(app)["series"]
    figures.write_csv(csv, series.places, series.values)
    return series.values


for _app in ("linreg", "logreg", "pagerank"):
    artefact(
        f"restore_modes_{_app}",
        f"results/{_app}_restore_modes.csv",
        # A failure costs every mode more than the failure-free baseline.
        modes_above_baseline=lambda v: all(
            m > b for mode in MODES for m, b in zip(v[mode], v["non-resilient (no failure)"])
        ),
        rebalance_costliest_at_scale=lambda v: (
            v["shrink-rebalance"][-1] >= v["replace-redundant"][-1]
        ),
    )(partial(restore_modes, _app))


# -- Table II: lines of code ---------------------------------------------------
#
# Resilience adds a few tens of lines (checkpoint ~7-11, restore ~10-20,
# isFinished 3).  Each resilient app subclasses its non-resilient program,
# so what resilience adds is exactly the subclass module.


@artefact(
    "table2_loc",
    resilience_adds_under_100_lines=lambda rows: all(
        0 < row.resilient_total - row.nonresilient_total < 100 for row, _ in rows
    ),
    checkpoint_at_most_15_lines=lambda rows: all(row.checkpoint_loc <= 15 for row, _ in rows),
    restore_at_most_30_lines=lambda rows: all(row.restore_loc <= 30 for row, _ in rows),
    # LinReg's isFinished carries the optional convergence-tolerance check.
    is_finished_at_most_6_lines=lambda rows: all(loc <= 6 for _, loc in rows),
)
def table2_loc():
    """``(AppLocRow, isFinished LOC)`` per paper app."""

    def module_loc(cls) -> int:
        return count_loc(inspect.getsource(inspect.getmodule(cls)))

    rows = []
    for name, app in (("LinReg", "linreg"), ("LogReg", "logreg"), ("PageRank", "pagerank")):
        nonres, res = APPS[app].nonresilient, APPS[app].resilient
        row = AppLocRow(
            application=name,
            nonresilient_total=module_loc(nonres),
            resilient_total=module_loc(nonres) + module_loc(res),
            checkpoint_loc=loc_of_object(res.checkpoint),
            restore_loc=loc_of_object(res.restore),
        )
        rows.append((row, loc_of_object(res.is_finished)))
    return rows


# -- Table III: time per checkpoint --------------------------------------------
#
# 30 iterations, a checkpoint every 10, no failures: the mean of three
# checkpoints over 2-44 places.  Paper: the regressions' checkpoints are a
# few times PageRank's and grow < 20 % from 12 to 44 places.  PageRank's
# duplicated rank vector grows with the place count, which the simulator
# shows as ~35 % growth (paper: 18 %; same mechanism, smaller constant).


def _at(sweep, places: int) -> float:
    return sweep.values["mean checkpoint (ms)"][sweep.places.index(places)]


@artefact(
    "table3_checkpoint",
    "results/table3_checkpoint.csv",
    regressions_grow_under_20pct=lambda s: all(
        _at(s[app], 44) < 1.2 * _at(s[app], 12) for app in ("linreg", "logreg")
    ),
    pagerank_grows_under_45pct=lambda s: _at(s["pagerank"], 44) < 1.45 * _at(s["pagerank"], 12),
    three_checkpoints_per_run=lambda s: all(
        sweep.values["checkpoints"] == [3.0] * len(sweep.places) for sweep in s.values()
    ),
    linreg_over_twice_pagerank=lambda s: _at(s["linreg"], 44) > 2.0 * _at(s["pagerank"], 44),
    logreg_over_twice_pagerank=lambda s: _at(s["logreg"], 44) > 2.0 * _at(s["pagerank"], 44),
)
def table3_checkpoint(csv: str):
    """``{app: SweepSeries}``."""
    axis = places_axis()
    sweeps = {
        app: run_checkpoint_sweep(app, places_list=axis, iterations=30)
        for app in ("linreg", "logreg", "pagerank")
    }
    figures.write_csv(
        csv, axis, {app: s.values["mean checkpoint (ms)"] for app, s in sweeps.items()}
    )
    return sweeps


# -- Table IV: C% / R% at 44 places --------------------------------------------
#
# The Figs. 5-7 runs at 44 places.  Paper: shrink-rebalance has the highest
# restore share, replace-redundant the lowest.


@artefact(
    "table4_ckpt_restore_pct",
    rebalance_restores_most=lambda t: all(
        t[app]["shrink-rebalance"]["R%"] >= t[app]["shrink"]["R%"] for app in t
    ),
    replace_restores_least=lambda t: all(
        t[app]["shrink"]["R%"] >= t[app]["replace-redundant"]["R%"] for app in t
    ),
    checkpoint_share_visible_not_dominant=lambda t: all(
        2.0 < t[app][m]["C%"] < 50.0 for app in t for m in MODES
    ),
    pagerank_checkpoint_share_below_linreg=lambda t: (
        t["pagerank"]["shrink"]["C%"] < t["linreg"]["shrink"]["C%"]
    ),
)
def table4_ckpt_restore_pct():
    """``{app: {mode: {"C%", "R%"}}}``."""
    return {
        app: table4_from_reports(
            run_restore_sweep(app, places_list=[44], iterations=30)["reports"], places=44
        )
        for app in ("linreg", "logreg", "pagerank")
    }


# -- Ablation: where the failure lands between checkpoints ---------------------
#
# PageRank at 24 places, checkpoints every 10: the total runtime is a
# sawtooth over the failure iteration — it grows with the rework since the
# last checkpoint and resets after the next one.


@artefact(
    "ablation_failure_point",
    "results/ablation_failure_point.csv",
    rework_grows_within_the_period=lambda t: _increasing(t[i] for i in (11, 13, 15, 17, 19)),
    sawtooth_resets_after_the_checkpoint=lambda t: t[21] < t[19],
)
def ablation_failure_point(csv: str):
    """``{failure iteration: total s}``: one failure-free reference run
    captured at every failure point, each point resuming its own fork with
    the kill armed there."""
    points = [11, 13, 15, 17, 19, 21]  # 21 is just past the checkpoint at 20
    executor = WorldSpec("pagerank", places=24).build()[3]
    with executor.runtime:
        images = capture_boundaries(executor, points)
    totals = {}
    for iteration in points:
        fork = images[iteration].load()
        with fork.runtime as rt:
            rt.injector.kill_at_iteration(12, iteration=iteration)
            totals[iteration] = fork.run().total_time
    figures.write_csv(csv, points, {"total_s": [totals[i] for i in points]})
    return totals


# -- Ablation: per-node NIC contention and the Table III residual -------------
#
# The paper's checkpoint times jump ~1.8x from 2 to 12 places and then stay
# flat; its testbed ran 4 places per node on 11 nodes, so past 11 places
# several places' backups share one NIC.  The Table III protocol on LinReg
# under the plain profile and the node-topology profile.

NIC_AXIS = [2, 8, 12, 24, 44]
PAPER_TABLE3_LINREG = {2: 1284, 8: 1917, 12: 2292, 24: 2336, 44: 2464}


def _nic_checkpoint_ms(places: int, nodes: bool) -> float:
    if not nodes:
        return _run(WorldSpec("linreg", places=places)).mean_checkpoint_time * 1e3
    # WorldSpec has no cost field: the node-topology profile is built by hand.
    cost = cluster_2015_with_nodes().with_scale(REGRESSION_SCALE)
    with make_runtime(places, cost=cost, resilient=True) as rt:
        app = LinRegResilient(rt, regression_bench_workload(30))
        return IterativeExecutor(rt, app).run().mean_checkpoint_time * 1e3


def _growth(series, frm: int, to: int) -> float:
    return series[NIC_AXIS.index(to)] / series[NIC_AXIS.index(frm)]


@artefact(
    "ablation_nic",
    "results/ablation_nic.csv",
    per_place_links_flat=lambda v: _growth(v["per-place links"], 2, 12) < 1.15,
    shared_nic_jumps=lambda v: _growth(v["11 nodes x 4 places (NIC shared)"], 2, 12) > 1.5,
    shared_nic_saturates=lambda v: _growth(v["11 nodes x 4 places (NIC shared)"], 12, 44) < 1.6,
    paper_saturates=lambda v: _growth(v["paper (LinReg)"], 12, 44) < 1.2,
)
def ablation_nic(csv: str):
    values = {
        "per-place links": [_nic_checkpoint_ms(p, nodes=False) for p in NIC_AXIS],
        "11 nodes x 4 places (NIC shared)": [_nic_checkpoint_ms(p, nodes=True) for p in NIC_AXIS],
        "paper (LinReg)": [float(PAPER_TABLE3_LINREG[p]) for p in NIC_AXIS],
    }
    figures.write_csv(csv, NIC_AXIS, values)
    return values


# -- Ablation: keep-grid (Fig. 1-b) vs regrid (Fig. 1-c) restore ---------------
#
# Snapshot once, then restore the same DistBlockMatrix after a kill under
# both policies, for dense and sparse payloads: regridding balances load
# but pays overlap-region sub-block copies.


def _regrid_restore(kind: str, regrid: bool) -> Dict[str, float]:
    places, m = 24, 24_000
    cost = regression_cost() if kind == "dense" else pagerank_cost()
    # A bare matrix world: a WorldSpec always builds an application.
    rt = make_runtime(places, cost=cost, resilient=True)
    if kind == "dense":
        g = DistBlockMatrix.make_dense(rt, m, 100, places * 2, 1).init_random(3)
    else:
        g = DistBlockMatrix.make_sparse(rt, m, m, places * 2, 1)
        g.init_link_matrix(LinkMatrix(m, 20, seed=3))
    snap = g.make_snapshot()
    rt.kill(places // 2)
    survivors = rt.live_world()
    new_grid = (
        DistBlockMatrix.default_regrid(g.m, g.n, g.grid.num_col_blocks, survivors.size)
        if regrid
        else None
    )
    g.remake(survivors, new_grid=new_grid)
    t0 = rt.now()
    g.restore_snapshot(snap)
    restore_s = rt.now() - t0
    loads = g.blocks_per_place()
    return {"restore_s": restore_s, "imbalance": max(loads) / max(1, min(loads))}


@artefact(
    "ablation_regrid",
    "results/ablation_regrid.csv",
    regrid_restores_slower=lambda r: all(
        r[f"{k}/regrid"]["restore_s"] > r[f"{k}/keep-grid"]["restore_s"]
        for k in ("dense", "sparse")
    ),
    regrid_balances_better=lambda r: all(
        r[f"{k}/regrid"]["imbalance"] <= r[f"{k}/keep-grid"]["imbalance"]
        for k in ("dense", "sparse")
    ),
)
def ablation_regrid(csv: str):
    results = {
        f"{kind}/{'regrid' if regrid else 'keep-grid'}": _regrid_restore(kind, regrid)
        for kind in ("dense", "sparse")
        for regrid in (False, True)
    }
    rows = list(results.values())
    figures.write_csv(
        csv,
        list(range(len(rows))),
        {col: [row[col] for row in rows] for col in ("restore_s", "imbalance")},
    )
    return results


# -- Ablation: snapshot replication level --------------------------------------
#
# The paper's double store keeps one backup on the next place.  With k
# backups (ring placement) on LinReg at 24 places: the full checkpoint's
# cost, and the longest burst of consecutive failures a committed
# checkpoint survives (analytically k).

ABLATION_KS = [0, 1, 2, 3]


def _survives_burst(k: int, burst: int) -> bool:
    spec = WorldSpec(
        "linreg",
        places=24,
        iterations=6,
        checkpoint_interval=3,
        replicas=k,
        fail_at=(4,) * burst,
        victim=tuple(range(3, 3 + burst)),
    )
    try:
        _run(spec)
        return True
    except DataLossError:
        return False


@artefact(
    "ablation_replication",
    "results/ablation_replication.csv",
    checkpoint_cost_grows_with_k=lambda r: _increasing(r["checkpoint"][k] for k in ABLATION_KS),
    no_backup_survives_nothing=lambda r: r["tolerance"][0] == 0,
    k_backups_survive_k_burst=lambda r: all(r["tolerance"][k] == k for k in (1, 2, 3)),
)
def ablation_replication(csv: str):
    checkpoint = {
        k: _run(
            WorldSpec("linreg", places=24, iterations=10, checkpoint_interval=5, replicas=k)
        ).checkpoint_durations[0]  # the full (first) checkpoint
        for k in ABLATION_KS
    }
    tolerance = {}
    for k in ABLATION_KS:
        survived = 0
        for burst in range(1, 5):
            if not _survives_burst(k, burst):
                break
            survived = burst
        tolerance[k] = survived
    figures.write_csv(
        csv,
        ABLATION_KS,
        {
            "checkpoint_s": [checkpoint[k] for k in ABLATION_KS],
            "burst_tolerance": [float(tolerance[k]) for k in ABLATION_KS],
        },
    )
    return {"checkpoint": checkpoint, "tolerance": tolerance}


# -- Ablation: double in-memory store cost profile (§IV-B1) ---------------------
#
# Saving is uniform (one local + one remote copy); loading is cheap when
# the key is local and pays a transfer otherwise; a read-only object's
# second checkpoint is nearly free.


def _snapshot_store_matrix():
    # A bare matrix world: a WorldSpec always builds an application.
    rt = make_runtime(16, cost=regression_cost(), resilient=True)
    return rt, DistBlockMatrix.make_dense(rt, 16_000, 100, 32, 1).init_random(1)


def _elapsed(rt, action) -> float:
    t0 = rt.now()
    action()
    return rt.now() - t0


@artefact(
    "ablation_snapshot_store",
    remote_load_costs_more=lambda r: r["remote_load_s"] > r["local_load_s"],
    save_pays_the_remote_copy=lambda r: r["save_s"] > r["local_load_s"],
    read_only_reuse_50x_cheaper=lambda r: (
        r["reused_readonly_ckpt_s"] < r["first_readonly_ckpt_s"] / 50
    ),
)
def ablation_snapshot_store():
    rt, g = _snapshot_store_matrix()
    t0 = rt.now()
    snap = g.make_snapshot()
    save_s = rt.now() - t0
    g.remake(rt.world)  # every key restores on its own place
    local_load_s = _elapsed(rt, lambda: g.restore_snapshot(snap))
    rt.kill(8)  # orphaned blocks come from backups and shifted owners
    g.remake(rt.live_world())
    remote_load_s = _elapsed(rt, lambda: g.restore_snapshot(snap))

    rt, g = _snapshot_store_matrix()
    store = AppResilientStore(rt)

    def read_only_checkpoint(iteration):
        store.start_new_snapshot()
        store.save_read_only(g)
        store.commit(iteration)

    return {
        "save_s": save_s,
        "local_load_s": local_load_s,
        "remote_load_s": remote_load_s,
        "first_readonly_ckpt_s": _elapsed(rt, lambda: read_only_checkpoint(0)),
        "reused_readonly_ckpt_s": _elapsed(rt, lambda: read_only_checkpoint(1)),
    }


# -- Ablation: in-memory double store vs reliable stable storage --------------
#
# PageRank at 24 places over ~100 MB/s shared stable storage: checkpoint
# cost of the two stores, the paper's protocol (in memory, every 10) vs a
# Hadoop-style one (stable storage, every iteration), and the adjacent
# double failure only stable storage survives.


def _stable_protocol(stable: bool, interval: int, double_failure: bool = False):
    """The run's report, or None when it lost data."""
    # WorldSpec has no cost field (the disk rate) and no stable primary tier.
    cost = pagerank_cost().with_rates(disk_byte_time=1.0e-8)
    rt = make_runtime(24, cost=cost, resilient=True)
    app = PageRankResilient(rt, pagerank_bench_workload(30))
    if stable:
        use_stable_storage(app.G, app.U, app.P)
    if double_failure:
        rt.injector.kill_at_iteration(5, iteration=15)
        rt.injector.kill_at_iteration(6, iteration=15)
    try:
        return IterativeExecutor(rt, app, checkpoint_interval=interval).run()
    except DataLossError:
        return None


@artefact(
    "ablation_stable_storage",
    stable_checkpoint_costs_more=lambda r: (
        r["stable every 10"].checkpoint_time > r["in-memory every 10"].checkpoint_time
    ),
    # Our Hadoop style still reuses the read-only graph snapshot; true
    # MapReduce would also rewrite the inputs and look far worse.
    hadoop_style_checkpoints_3x=lambda r: (
        r["stable every iteration"].checkpoint_time > 3.0 * r["in-memory every 10"].checkpoint_time
    ),
    hadoop_style_total_15pct_slower=lambda r: (
        r["stable every iteration"].total_time > 1.15 * r["in-memory every 10"].total_time
    ),
    in_memory_loses_adjacent_pair=lambda r: r["in-memory, adjacent pair killed"] is None,
    stable_survives_adjacent_pair=lambda r: r["stable, adjacent pair killed"] is not None,
)
def ablation_stable_storage():
    return {
        "in-memory every 10": _stable_protocol(False, 10),
        "stable every 10": _stable_protocol(True, 10),
        "stable every iteration": _stable_protocol(True, 1),
        "in-memory, adjacent pair killed": _stable_protocol(False, 10, double_failure=True),
        "stable, adjacent pair killed": _stable_protocol(True, 10, double_failure=True),
    }


# -- Campaign outcome fingerprints ----------------------------------------------
#
# 43 seeded chaos campaigns (5,020 schedules, the 600 of the prefix cells
# once more with the cache off).  ``campaign_fingerprints.txt``: per
# campaign, the sha256 (first 16 hex) of its json-dumped per-schedule
# outcomes and its status counts.  ``campaign_reports.txt``: per campaign
# (and per prefix cell with the cache off), the sha256 of every
# ``IterativeExecutor.run`` it made, in order — ``json.dumps(asdict(report),
# sort_keys=True, default=repr)``, or for a run that raised the exception's
# type and text and the partial report — so a moved report field shows.

SHAPES = {
    "parity2": dict(placement="parity:2", replicas=1, spares=2),
    "parity4-disk-delta": dict(placement="parity:4", replicas=1, places=8, spares=2,
                               stable_fallback=True, ckpt_delta=True),
    "spread2-disk-corrupt": dict(replicas=2, placement="spread", stable_fallback=True,
                                 corrupt_rate=0.05),
    "ring-delta": dict(replicas=1, placement="ring", ckpt_delta=True),
    "transient-full": dict(drop_rate=0.05, dup_rate=0.02, straggler_max=4.0,
                           corrupt_rate=0.02, detect_timeout=0.5, partition_rate=0.3),
    "parity2-corrupt": dict(placement="parity:2", replicas=1, spares=2, corrupt_rate=0.2),
}

#: The prefix-cache cells: (app, recovery), all valid pairs.
PREFIX_CELLS = (("linreg", "checkpoint"), ("cg", "checkpoint"), ("cg", "reconstruct"))


def fingerprint(result) -> str:
    blob = json.dumps([dataclasses.asdict(o) for o in result.outcomes], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def campaigns():
    """Every (name, config) of the set, in output order."""
    for app in ("cg", "linreg", "pagerank"):
        for shape, kw in SHAPES.items():
            yield f"{app}-{shape}", CampaignConfig(app=app, schedules=100, seed=7, **kw)
    for spares, schedules in ((6, 200), (2, 100)):
        yield f"cg-reconstruct-spares{spares}", CampaignConfig(
            app="cg", schedules=schedules, seed=13, places=8, spares=spares,
            recovery="reconstruct",
        )
    for app, recovery in PREFIX_CELLS:
        yield f"prefix-{app}-{recovery}", CampaignConfig(
            app=app, schedules=200, seed=13, places=8, iterations=10, spares=2,
            recovery=recovery,
        )
    for app in ("linreg", "logreg", "pagerank", "cg"):
        for g in (2, 4):
            for variant, kw in (("full", {}),
                                ("delta-disk", dict(ckpt_delta=True, stable_fallback=True))):
                yield f"{app}-parity{g}-{variant}", CampaignConfig(
                    app=app, schedules=120, seed=1234, places=8, spares=2,
                    placement=f"parity:{g}", replicas=1, **kw,
                )
        yield f"{app}-parity2-corrupt-detector", CampaignConfig(
            app=app, schedules=100, seed=1234, places=8, spares=2,
            placement="parity:2", replicas=1, corrupt_rate=0.05, detect_timeout=0.5,
        )


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


def _recording(sink: list):
    """``IterativeExecutor.run``, appending one JSON record per run to *sink*.

    Installed on the class, not on instances: the prefix cache loads its
    executors from pickled images.  A run parked at a boundary returns no
    report and records nothing.
    """
    run = IterativeExecutor.run

    def recorded(self, boundary_hook=None):
        try:
            report = run(self, boundary_hook)
        except Exception as exc:
            sink.append(_dumps([type(exc).__name__, str(exc), dataclasses.asdict(self._loop.report)]))
            raise
        if report is not None:
            sink.append(_dumps(dataclasses.asdict(report)))
        return report

    return recorded


@artefact(
    "campaign_fingerprints",
    "results/campaign_fingerprints.txt",
    "results/campaign_reports.txt",
    prefix_cache_off_matches_on=lambda r: all(r["prefix_cells_equal"]),
    no_invariant_violations=lambda r: not any(result.violations for _, _, result in r["rows"]),
    forty_three_campaigns=lambda r: len(r["rows"]) == 43,
)
def campaign_fingerprints(fingerprints_txt: str, reports_txt: str):
    rows, reports, sink, prefix_cells_equal = [], [], [], []

    def digest(name: str) -> None:
        blob = "\n".join(sink).encode()
        reports.append(f"{name} {hashlib.sha256(blob).hexdigest()[:16]} runs={len(sink)}\n")
        sink.clear()

    run = IterativeExecutor.run
    IterativeExecutor.run = _recording(sink)
    try:
        for name, config in campaigns():
            result = run_campaign(config)
            digest(name)
            if name.startswith("prefix-"):
                off = run_campaign(config, prefix_cache=False)
                digest(f"{name}-cache-off")
                prefix_cells_equal.append(fingerprint(off) == fingerprint(result))
            rows.append((name, config.schedules, result))
    finally:
        IterativeExecutor.run = run
    with open(reports_txt, "w", encoding="utf-8") as fh:
        fh.writelines(reports)
    lines = []
    for name, _, result in rows:
        counts = " ".join(f"{k}={v}" for k, v in sorted(Counter(
            o.status for o in result.outcomes).items()))
        lines.append(f"{name} {fingerprint(result)} {counts}")
    lines.append(f"campaigns {len(rows)} schedules {sum(n for _, n, _ in rows)}")
    with open(fingerprints_txt, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return {"rows": rows, "prefix_cells_equal": prefix_cells_equal}


# -- The command-line contract ----------------------------------------------------
#
# ``repro`` in-process on every flow of the verify notes at small sizes,
# every usage-error argv of ``tests/test_cli.py`` and the misconfigurations
# that once escaped as a traceback or ran silently.  Per argv: the exit
# code, the sha256 (first 16 hex) of stdout and the first stderr line
# (``-`` when empty).

SMALL = "--places 4 --iterations 4"
PARITY_RUN = (
    "run {app} --places 9 --spares 2 --iterations 12 --ckpt-interval 3 --fail-at 5 "
    "--victim 3 --fail-at 9 --victim 6 --placement {placement} --replicas 1 --mode {mode}"
)
CG_RECONSTRUCT = (
    "run cg --places 6 --iterations 12 --ckpt-interval 4 --fail-at 6 --victim 2 "
    "--fail-at 6 --victim 3 --replicas 2 --placement spread --spares 2 "
    "--mode replace-redundant"
)
LADDER = "run linreg --places 6 --iterations 8 --ckpt-interval 3 --fail-at 5 --victim 2 --fail-at 5 --victim 3"

FLOWS = [
    "list",
    f"{CG_RECONSTRUCT} --recovery reconstruct",
    CG_RECONSTRUCT,
    "chaos cg --recovery reconstruct --spares 6 --schedules 10",
    "chaos cg --recovery reconstruct --spares 2 --schedules 10 --chaos-seed 13",
    "chaos cg --recovery reconstruct --spares 2 --schedules 10 --chaos-seed 99",
    "run linreg --places 8 --iterations 12 --ckpt-interval 4",
    "run linreg --places 8 --iterations 12 --ckpt-interval 4 --ckpt-mode overlapped",
    "run linreg --places 4 --iterations 8 --ckpt-interval 4 --fail-at 5 --victim 2",
    "run linreg --places 4 --iterations 6 --fail-at 5",
    "run linreg --places 4 --iterations 8 --ckpt-interval 4 --trace-out t.jsonl",
    "run linreg --places 4 --iterations 8 --ckpt-interval 4 --fail-at 5 --victim 2 "
    "--trace-out t.jsonl",
    "sweep overlap --max-places 8 --iterations 8 --jobs 1",
    LADDER,
    f"{LADDER} --replicas 2 --placement spread",
    f"{LADDER} --stable-fallback",
    "chaos linreg --schedules 10 --replicas 2 --placement spread",
    "serve --jobs-count 12 --crash-rate 0.5 --pair-rate 0.05 --per-job",
    PARITY_RUN.format(app="linreg", placement="parity:2", mode="replace-redundant"),
    PARITY_RUN.format(app="linreg", placement="parity:4", mode="replace-redundant"),
    PARITY_RUN.format(app="linreg", placement="parity:2", mode="replace-redundant")
    + " --ckpt-delta",
    PARITY_RUN.format(app="linreg", placement="parity:2", mode="shrink"),
    PARITY_RUN.format(app="pagerank", placement="parity:2", mode="replace-redundant"),
    "run linreg --places 6 --iterations 8 --ckpt-interval 3 --mttf 20 --chaos-seed 3",
    "run linreg --places 4 --iterations 8 --ckpt-interval 3 --drop-rate 0.05 "
    "--dup-rate 0.02 --delay-rate 0.1 --delay-seconds 0.01 --straggler 2:4 --corrupt 0.1 "
    "--detect-timeout 1 --heartbeat-interval 0.1 --chaos-seed 5",
    "run pagerank --places 3 --iterations 3 --non-resilient --profile --timeline",
    "run linreg --places 4 --iterations 12 --fail-at 6 --victim 2 --profile --timeline",
    "run pagerank --places 4 --iterations 6 --ckpt-interval 3 --fail-at 4 --victim 1 "
    "--mode replace-redundant --spares 1",
    f"run linreg {SMALL} --spares 1 --fail-at 3 --victim 4",
    "sweep fig2 --max-places 4 --iterations 2 --jobs 1",
    "sweep table3 --max-places 4 --iterations 4 --jobs 1",
    "sweep fig7 --max-places 4 --iterations 16 --jobs 1",
    "sweep table4 --max-places 4 --iterations 16 --jobs 1",
    "chaos linreg --schedules 6 --ckpt-delta --jobs 2",
    "chaos pagerank --schedules 5 --chaos-seed 4 --replicas 1 --placement ring "
    "--stable-fallback",
    "chaos linreg --placement parity:2 --spares 2 --schedules 6",
    "chaos linreg --schedules 6 --drop-rate 0.05 --dup-rate 0.02 --straggler-max 4 "
    "--corrupt 0.05 --detect-timeout 0.5 --partition-rate 0.3",
    "serve --streams 2 --jobs-count 6",
    "serve --jobs-count 8 --drop-rate 0.05 --dup-rate 0.02 --detect-timeout 0.5",
    "serve --jobs-count 8 --economics dedicated --crash-rate 0.3 --repair-mttr 2",
    "serve --jobs-count 8 --economics borrow --crash-rate 0.3 --rack-rate 0.1",
    "serve --jobs-count 6 --placement parity:2",
]

#: The usage-error argv of ``tests/test_cli.py``.
TEST_USAGE_ERRORS = [
    "run nosuchapp",
    "sweep fig99",
    "chaos nosuchapp",
    "run linreg --ckpt-mode bogus",
    "run linreg --placement mirror",
    "sweep fig5 --max-places 4 --iterations 12",
    "sweep table4 --max-places 4 --iterations 12",
    "chaos linreg --recovery reconstruct --schedules 2",
    "chaos cg --recovery reconstruct --placement parity --spares 2 --schedules 2",
    f"run linreg {SMALL} --recovery reconstruct",
    f"run cg {SMALL} --recovery reconstruct --placement parity",
    f"run linreg {SMALL} --ckpt-interval 0",
    "chaos linreg --ckpt-interval 0",
    "serve --ckpt-interval 0",
    f"run linreg {SMALL} --fail-at 3 --victim 0",
    f"run linreg {SMALL} --fail-at 3 --victim 9",
    "serve --places 3 --max-job-places 6",
    f"run linreg {SMALL} --placement parity --replicas 2",
    "chaos linreg --placement parity --replicas 2",
    "serve --placement parity --replicas 2",
    f"run linreg {SMALL} --straggler 99:2",
    "chaos linreg --iterations 1",
    f"run linreg {SMALL} --non-resilient --fail-at 3 --victim 2",
    *(
        f"run linreg {SMALL} --non-resilient {flag}"
        for flag in (
            "--mttf 20", "--spares 1", "--replicas 2", "--placement spread",
            "--stable-fallback", "--ckpt-interval 3", "--ckpt-mode overlapped",
            "--ckpt-delta", "--mode replace-redundant", "--recovery reconstruct",
            "--detect-timeout 1", "--heartbeat-interval 0.1", "--drop-rate 0.1",
            "--dup-rate 0.1", "--delay-rate 0.1", "--delay-seconds 0.1",
            "--straggler 2:4", "--corrupt 0.1", "--chaos-seed 3",
        )
    ),
    f"run linreg {SMALL} --heartbeat-interval 0.1",
]

#: Misconfigurations that escaped the usage-error boundary as a traceback,
#: or ran silently with the offending value ignored.
MISCONFIGURATIONS = [
    f"run linreg {SMALL} --replicas -1",
    "chaos linreg --replicas -1",
    "serve --replicas -1",
    "chaos linreg --spares -1",
    "chaos linreg --drop-rate 2",
    "chaos linreg --corrupt 2",
    "serve --crash-rate 5",
    "serve --drop-rate 2",
    "serve --max-job-places 1",
    "sweep fig2 --iterations 0",
    "chaos linreg --schedules 0",
    "chaos linreg --schedules -2",
    "chaos linreg --places 1",
    f"run linreg {SMALL} --detect-timeout -1",
    "chaos linreg --detect-timeout -1",
    "serve --detect-timeout -1",
    "chaos linreg --straggler-max 0.5",
    f"run linreg {SMALL} --victim 2",
    f"run linreg {SMALL} --fail-at 3 --victim 1 --victim 2",
    "run linreg --places 4 --iterations 6 --fail-at 6",
    "serve --streams 0",
]


def run_cli(argv):
    """``python -m repro *argv*`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = repro_main(argv)
        except SystemExit as exc:
            code = exc.code
            if isinstance(code, str):
                print(code, file=sys.stderr)
                code = 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code or 0, out.getvalue(), err.getvalue()


@artefact(
    "cli_flows",
    "results/cli_flows.txt",
    one_row_per_argv=lambda lines: (
        len(lines) == len(FLOWS) + len(TEST_USAGE_ERRORS) + len(MISCONFIGURATIONS)
    ),
)
def cli_flows(txt: str):
    """One tab-separated line per argv, in a fixed order."""
    lines = []
    saved = os.environ.get("COLUMNS"), os.getcwd()
    # argparse wraps its usage line at the terminal width.
    os.environ["COLUMNS"] = "80"
    try:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)  # --trace-out writes beside the relative path
            for line in FLOWS + TEST_USAGE_ERRORS + MISCONFIGURATIONS:
                code, out, err = run_cli(line.split())
                digest = hashlib.sha256(out.encode()).hexdigest()[:16]
                first = err.splitlines()[0] if err else "-"
                lines.append(f"repro {line}\t{code}\t{digest}\t{first}")
    finally:
        os.chdir(saved[1])
        if saved[0] is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved[0]
    with open(txt, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return lines


# -- Detection timeout: false positives vs time-to-recovery ---------------------
#
# The detection timeout swept as a multiple of the heartbeat interval under
# hostile but survivable noise: every run gets a straggler whose slowdown
# begins after the detector calibrated, plus 15 % heartbeat loss.  Per
# ratio: the share of kill-free runs that evicted a live place, and the
# mean detection wait + restore when one place really dies.  The default
# ratio (10) must absorb an 8x straggler with no spurious eviction.

DETECTION_RATIOS = [2, 5, 10, 20, 40]
DETECTION_RUNS = 12


def _detection_run(interval=None, ratio: int = 0, seed: int = 0, kill: bool = False):
    """One seeded run: its ExecutionReport, or the DataLossError it raised.
    Without an *interval*, the failure-free run that sets the time scale."""
    # WorldSpec has no workload-size field: a 64-example LinReg at bench cost.
    rt = make_runtime(8, cost=regression_cost(), resilient=True)
    workload = RegressionWorkload(
        features=8, examples_per_place=64, blocks_per_place=2, iterations=12
    )
    app = LinRegResilient(rt, workload)
    options = {}
    if interval is not None:
        rng = np.random.default_rng([seed, ratio, int(kill)])
        detector = PhiAccrualDetector(
            rt, detect_timeout=ratio * interval, heartbeat_interval=interval
        )
        # Straggler onset *after* the detector calibrated on healthy gaps.
        straggler = int(rng.integers(1, 8))
        rt.set_straggler(straggler, float(rng.uniform(4.0, 8.0)))
        rt.set_faults(TransientFaultModel(drop_rate=0.15, seed=seed))
        if kill:
            victim = int(rng.choice([p for p in range(1, 8) if p != straggler]))
            rt.injector.kill_at_iteration(victim, iteration=6)
        options = dict(
            mode=RestoreMode.SHRINK_REBALANCE,
            replicas=2,
            placement=make_placement("spread"),
            detector=detector,
        )
    try:
        return IterativeExecutor(rt, app, checkpoint_interval=4, **options).run()
    except DataLossError as err:
        return err


def _mean(values) -> float:
    return sum(values) / len(values) if values else math.nan


@artefact(
    "detection",
    "results/detection.csv",
    default_and_conservative_ratios_never_evict=lambda rows: all(
        row["fp_rate"] == 0.0 for row in rows if row["ratio"] in (10, 20, 40)
    ),
    aggressive_ratio_pays_in_false_positives=lambda rows: rows[0]["fp_rate"] >= rows[-1]["fp_rate"],
    conservative_ratio_pays_in_detection_wait=lambda rows: (
        rows[-1]["detect_wait_s"] > rows[0]["detect_wait_s"]
    ),
)
def detection(csv: str):
    interval = _detection_run().total_time / 100.0
    rows = []
    for ratio in DETECTION_RATIOS:
        false_positives, lost, waits, recoveries = 0, 0, [], []
        for seed in range(DETECTION_RUNS):
            quiet = _detection_run(interval, ratio, seed, kill=False)
            if isinstance(quiet, DataLossError):
                # An eviction storm defeated the replication level.
                false_positives += 1
                lost += 1
            elif quiet.false_positive_evictions:
                false_positives += 1
            noisy = _detection_run(interval, ratio, seed, kill=True)
            if isinstance(noisy, DataLossError):
                lost += 1
                continue
            waits.append(noisy.detection_wait_time)
            recoveries.append(
                noisy.detection_wait_time
                + (_mean(noisy.restore_durations) if noisy.restore_durations else 0.0)
            )
        rows.append(
            {
                "ratio": ratio,
                "timeout_s": ratio * interval,
                "fp_rate": false_positives / DETECTION_RUNS,
                "detect_wait_s": _mean(waits),
                "recovery_s": _mean(recoveries),
                "data_loss": float(lost),
            }
        )
    figures.write_csv(
        csv,
        DETECTION_RATIOS,
        {
            col: [row[col] for row in rows]
            for col in ("timeout_s", "fp_rate", "detect_wait_s", "recovery_s", "data_loss")
        },
    )
    return rows


# -- Extension: GNMF under the framework -----------------------------------------
#
# A fourth application with a different communication pattern (distributed
# Gram products, duplicated-matrix updates) through the Figs. 2-4 overhead
# protocol and the Figs. 5-7 restore protocol at 44 places.


@artefact(
    "extension_gnmf",
    "results/gnmf_overhead.csv",
    resilient_never_below=lambda r: all(
        res >= nonres
        for res, nonres in zip(r["overhead"]["resilient finish"], r["overhead"]["non-resilient finish"])
    ),
    resilient_overhead_under_3x=lambda r: (
        r["overhead"]["resilient finish"][-1] / r["overhead"]["non-resilient finish"][-1] < 3.0
    ),
    rebalance_restores_more_than_replace=lambda r: (
        r["table4"]["shrink-rebalance"]["R%"] >= r["table4"]["replace-redundant"]["R%"]
    ),
)
def extension_gnmf(csv: str):
    overhead = run_overhead_sweep("gnmf", places_list=[2, 8, 16, 24, 32, 44], iterations=30)
    restore = run_restore_sweep("gnmf", places_list=[44], iterations=30)
    figures.write_csv(csv, overhead.places, overhead.values)
    return {"overhead": overhead.values, "table4": table4_from_reports(restore["reports"], 44)}


# -- Extension: strong scaling ----------------------------------------------------
#
# A fixed 44k-example total over a growing place count: per-place compute
# shrinks like 1/P while finish fan-out and place-zero bookkeeping grow like
# P, so time per iteration is U-shaped and the resilient runtime's sweet
# spot sits at fewer places.

STRONG_AXIS = [2, 4, 8, 16, 24, 32, 44]


def _strong_ms_per_iteration(places: int, resilient: bool) -> float:
    workload = RegressionWorkload(
        features=100, examples_per_place=44_000 // places, blocks_per_place=2, iterations=10
    )
    # WorldSpec has no workload-size field, and runs a non-resilient app
    # only under the non-resilient runtime.
    rt = make_runtime(places, cost=regression_cost(), resilient=resilient)
    app = LinRegNonResilient(rt, workload)
    t0 = rt.now()
    app.run()
    return (rt.now() - t0) / 10 * 1e3


def _sweet_spot(series) -> int:
    return STRONG_AXIS[series.index(min(series))]


@artefact(
    "extension_strong_scaling",
    "results/strong_scaling.csv",
    more_places_first_help=lambda v: min(v["non-resilient finish"]) < v["non-resilient finish"][0],
    then_hurt=lambda v: v["non-resilient finish"][-1] > min(v["non-resilient finish"]),
    resilient_sweet_spot_no_later=lambda v: (
        _sweet_spot(v["resilient finish"]) <= _sweet_spot(v["non-resilient finish"])
    ),
    resilient_penalty_explodes_at_scale=lambda v: (
        v["resilient finish"][-1] / v["non-resilient finish"][-1] > 1.5
    ),
)
def extension_strong_scaling(csv: str):
    values = {
        "non-resilient finish": [_strong_ms_per_iteration(p, False) for p in STRONG_AXIS],
        "resilient finish": [_strong_ms_per_iteration(p, True) for p in STRONG_AXIS],
    }
    figures.write_csv(csv, STRONG_AXIS, values)
    return values


# -- Extension: Young's checkpoint interval (§V) ------------------------------------
#
# Measure LogReg's checkpoint cost and iteration time, derive Young's
# sqrt(2 T_ckpt MTTF) interval, then compare mean total runtime under
# random exponential failures (24 seeds) at that interval, at 1 and at 8x.

YOUNG_WORKLOAD = RegressionWorkload(
    features=60, examples_per_place=400, iterations=60, blocks_per_place=2
)


def _young_report(interval: int, mttf=None, seed: int = 0, t_iter: float = 0.0):
    """LogReg checkpointing every *interval* iterations, under random
    exponential failures when *mttf* is given (they may raise DataLossError)."""
    # WorldSpec has no cost or workload-size field: a small LogReg at the
    # unscaled cluster profile.
    rt = make_runtime(6, cost=cluster_2015(), resilient=True)
    app = LogRegResilient(rt, YOUNG_WORKLOAD)
    if mttf is not None:
        horizon = YOUNG_WORKLOAD.iterations * t_iter * 3
        for kill in ExponentialFailureModel(mttf, seed=seed).schedule(rt.world.ids, horizon):
            rt.injector.add(kill)  # the model draws each victim at most once
    return IterativeExecutor(rt, app, checkpoint_interval=interval).run()


def _young_mean_total(interval: int, mttf: float, t_iter: float) -> float:
    totals = []
    for seed in range(24):
        try:
            totals.append(_young_report(interval, mttf, seed, t_iter).total_time)
        except DataLossError:
            continue  # unrecoverable seeds (adjacent double failure) skipped
    return float(np.mean(totals))


@artefact(
    "extension_young",
    young_beats_checkpointing_every_iteration=lambda r: r["means"][r["k_opt"]] < r["means"][1],
    young_within_2pct_of_best=lambda r: (
        r["means"][r["k_opt"]] <= min(r["means"].values()) * 1.02
    ),
)
def extension_young():
    report = _young_report(10)
    t_iter = report.step_time / report.iterations_executed
    t_ckpt = report.checkpoint_durations[-1]  # steady state (read-only reused)
    mttf = 300 * t_iter
    k_opt = optimal_interval_iterations(t_ckpt, mttf, t_iter)
    means = {k: _young_mean_total(k, mttf, t_iter) for k in sorted({1, k_opt, 8 * k_opt})}
    return {"k_opt": k_opt, "means": means}


# -- Incremental (dirty-block) checkpointing ------------------------------------------
#
# pagerank-saveall saves the link graph, the teleport and the rank vector
# all as mutable objects (no saveReadOnly): only the rank vector changes,
# so delta mode must cut the mean and steady-state checkpoint cost >= 5x.
# LinReg's checkpoint saves only state that mutates every iteration, so
# delta mode must cost the same as full mode.  A small chaos campaign runs
# serially and on a 2-process pool with identical outcomes.

INCREMENTAL_CONFIG = {"places": 8, "iterations": 60, "interval": 5}  # 12 checkpoints


class SaveAllPageRank(PageRankResilient):
    """PageRank saving *everything* mutably — no ``saveReadOnly`` hints."""

    def checkpoint(self, store) -> None:
        store.start_new_snapshot()
        store.save(self.G)
        store.save(self.U)
        store.save(self.P)
        store.commit(iteration=self.iteration)


def _incremental_run(app: str, delta: bool) -> dict:
    if app == "linreg":
        report = _run(
            WorldSpec("linreg", places=8, iterations=60, checkpoint_interval=5, ckpt_delta=delta)
        )
    else:
        # WorldSpec builds only catalogue apps, not this subclass.
        rt = make_runtime(8, cost=pagerank_cost(), resilient=True)
        saveall = SaveAllPageRank(rt, pagerank_bench_workload(60))
        report = IterativeExecutor(rt, saveall, checkpoint_interval=5, delta=delta).run()
    return {
        "checkpoints": report.checkpoints,
        "ckpt_total_s": report.checkpoint_time,
        "ckpt_mean_s": report.mean_checkpoint_time,
        "ckpt_steady_s": report.checkpoint_durations[-1],
        "clean_partitions": report.ckpt_clean_partitions,
        "dirty_partitions": report.ckpt_dirty_partitions,
        "clean_bytes": report.ckpt_clean_bytes,
        "dirty_bytes": report.ckpt_dirty_bytes,
    }


@artefact(
    "incremental_ckpt",
    "results/incremental_ckpt.csv",
    "BENCH_ckpt.json",
    parallel_campaign_matches_serial=lambda r: r["serial"].summary() == r["parallel"].summary(),
    campaign_holds_every_invariant=lambda r: not r["serial"].violations,
    saveall_mean_delta_5x=lambda r: r["delta_speedup"]["pagerank-saveall"]["mean"] >= 5.0,
    saveall_steady_delta_5x=lambda r: r["delta_speedup"]["pagerank-saveall"]["steady"] >= 5.0,
    all_dirty_delta_never_dearer=lambda r: (
        r["runs"]["linreg:delta"]["ckpt_total_s"] <= r["runs"]["linreg:full"]["ckpt_total_s"] * 1.001
    ),
    same_checkpoints_either_way=lambda r: all(
        r["runs"][f"{app}:full"]["checkpoints"] == r["runs"][f"{app}:delta"]["checkpoints"]
        for app in ("pagerank-saveall", "linreg")
    ),
)
def incremental_ckpt(csv: str, bench_json: str):
    runs = {
        f"{app}:{mode}": _incremental_run(app, mode == "delta")
        for app in ("pagerank-saveall", "linreg")
        for mode in ("full", "delta")
    }
    speedup = {
        app: {
            "mean": runs[f"{app}:full"]["ckpt_mean_s"] / runs[f"{app}:delta"]["ckpt_mean_s"],
            "steady": runs[f"{app}:full"]["ckpt_steady_s"] / runs[f"{app}:delta"]["ckpt_steady_s"],
        }
        for app in ("pagerank-saveall", "linreg")
    }
    campaign = CampaignConfig(
        app="pagerank", schedules=16, seed=5, replicas=2, placement="spread", ckpt_delta=True
    )
    serial, parallel = run_campaign(campaign), run_campaign(campaign, jobs=2)
    columns = ("ckpt_total_s", "ckpt_mean_s", "ckpt_steady_s", "clean_partitions",
               "dirty_partitions", "clean_bytes", "dirty_bytes")
    figures.write_csv(
        csv, list(runs), {col: [run[col] for run in runs.values()] for col in columns},
        x_name="app:mode",
    )
    _write_json(
        bench_json,
        {
            "config": INCREMENTAL_CONFIG,
            "runs": runs,
            "delta_speedup": speedup,
            "campaign_wallclock": {"schedules": campaign.schedules, "jobs": 2},
        },
    )
    return {"runs": runs, "delta_speedup": speedup, "serial": serial, "parallel": parallel}


# -- Overlapped vs blocking checkpointing ------------------------------------------
#
# LinReg, 30 iterations, a checkpoint every 5, no failures, once per
# checkpoint mode.  Overlapped mode schedules the backup transfers
# concurrently with the next iterations' compute, so its stall is a
# fraction of the blocking stall, and the share hidden grows with scale.


def _stalls(out):
    """``(blocking, overlapped)`` stall ms per place count."""
    values = out["series"].values
    return list(zip(values["blocking stall (ms)"], values["overlapped stall (ms)"]))


def _hidden(out, i: int) -> float:
    blocking, overlapped = _stalls(out)[i]
    return 1.0 - overlapped / blocking


def _mode_pairs(out):
    """``(blocking, overlapped)`` reports per place count."""
    reports = out["reports"]
    return [(reports["blocking"][p], reports["overlapped"][p]) for p in out["series"].places]


@artefact(
    "overlap_checkpoint",
    "results/overlap_checkpoint.csv",
    same_iterations_either_way=lambda out: all(
        o.iterations_executed == b.iterations_executed for b, o in _mode_pairs(out)
    ),
    same_checkpoints_either_way=lambda out: all(
        o.checkpoints == b.checkpoints for b, o in _mode_pairs(out)
    ),
    overlap_hides_15pct_of_stall=lambda out: all(o < 0.85 * b for b, o in _stalls(out)),
    overlap_shortens_total=lambda out: all(o.total_time < b.total_time for b, o in _mode_pairs(out)),
    blocking_stall_is_checkpoint_time=lambda out: all(
        abs(b.checkpoint_stall_time - b.checkpoint_time) < 1e-9 for b, _ in _mode_pairs(out)
    ),
    hidden_share_grows_with_scale=lambda out: _hidden(out, -1) > _hidden(out, 0),
)
def overlap_checkpoint(csv: str):
    out = run_checkpoint_mode_sweep(
        "linreg", places_list=places_axis(), iterations=30, checkpoint_interval=5
    )
    figures.write_csv(csv, out["series"].places, out["series"].values)
    return out


# -- Checkpoint-free recovery: reconstruction vs rollback ---------------------------
#
# ABFT CG.  Burst axis: at each place count k = 1..3 places die at once at
# iteration 15 of 30; reconstruction rebuilds exactly the k lost partitions
# (no rolled-back iteration, the failure-free answer to 1e-8) while
# checkpoint/restart rolls back, and reconstruction cost scales with k.
# Rollback-depth axis: the failure slides 1, 5, 9 iterations past the
# checkpoint; restore cost grows with the depth, reconstruction is flat.

RECONSTRUCT_CONFIG = {
    "places": [8, 16, 32, 64],
    "failures": [1, 2, 3],
    "iterations": 30,
    "interval": 10,
    "fail_at": 15,
    "replicas": 3,  # every k <= 3 burst keeps at least one copy of each partition
    "depth_fail_at": [11, 15, 19],  # rollback depths 1, 5, 9 past the checkpoint at 10
}


def _reconstruct_cell(places: int, k: int, recovery: str, fail_at: int = 15, interval: int = 10):
    spec = WorldSpec(
        "cg",
        places=places,
        spares=k,
        checkpoint_interval=interval,
        mode="replace-redundant",
        replicas=3,
        placement="spread",
        recovery=recovery,
        fail_at=(fail_at,) * k,
        # k distinct non-zero victims spread across the group
        victim=tuple(max(1, (i + 1) * places // (k + 1)) for i in range(k)),
    )
    rt, app, _, executor = spec.build()
    with rt:
        report = executor.run()
        solution = np.asarray(app.solution())
    return {
        "total_s": report.total_time,
        "step_s": report.step_time,
        "reconstruct_s": report.reconstruct_time,
        "restore_s": report.restore_time,
        "redundancy_s": report.redundancy_time,
        "checkpoint_s": report.checkpoint_time,
        "reconstructions": report.reconstructions,
        "reconstructed_partitions": report.reconstructed_partitions,
        "restores": report.restores,
        "rolled_back_iterations": len(report.restored_iterations),
        "solution": solution,
    }


def _failure_free_solution(places: int) -> np.ndarray:
    rt, app, _, executor = WorldSpec("cg", places=places, resilient=False).build()
    with rt:
        executor.run()
        return np.asarray(app.solution())


def _bursts(r, recovery: str):
    """``(places, k, cell)`` over the burst axis."""
    return [(p, k, r["burst"][(p, k, recovery)]) for p in RECONSTRUCT_CONFIG["places"]
            for k in RECONSTRUCT_CONFIG["failures"]]


def _depth(r, recovery: str, key: str):
    return [r["depth"][(f, recovery)][key] for f in RECONSTRUCT_CONFIG["depth_fail_at"]]


@artefact(
    "reconstruct",
    "results/reconstruct.csv",
    "BENCH_recovery.json",
    reconstructs=lambda r: all(c["reconstructions"] >= 1 for _, _, c in _bursts(r, "reconstruct")),
    no_rolled_back_iteration=lambda r: all(
        c["rolled_back_iterations"] == 0 for _, _, c in _bursts(r, "reconstruct")
    ),
    no_restore=lambda r: all(c["restores"] == 0 for _, _, c in _bursts(r, "reconstruct")),
    rebuilds_exactly_the_lost_partitions=lambda r: all(
        c["reconstructed_partitions"] == k for _, k, c in _bursts(r, "reconstruct")
    ),
    answer_is_the_failure_free_one=lambda r: all(
        np.allclose(c["solution"], r["baselines"][p], rtol=1e-8, atol=1e-8)
        for p, _, c in _bursts(r, "reconstruct")
    ),
    checkpoint_path_rolls_back=lambda r: all(
        c["rolled_back_iterations"] >= 1 for _, _, c in _bursts(r, "checkpoint")
    ),
    reconstruct_cost_grows_with_k=lambda r: all(
        _increasing(r["burst"][(p, k, "reconstruct")]["reconstruct_s"]
                    for k in RECONSTRUCT_CONFIG["failures"])
        for p in RECONSTRUCT_CONFIG["places"]
    ),
    restore_total_grows_with_depth=lambda r: _increasing(_depth(r, "checkpoint", "total_s")),
    reconstruct_total_flat_over_depth=lambda r: (
        max(_depth(r, "reconstruct", "total_s")) - min(_depth(r, "reconstruct", "total_s"))
        < 0.05 * min(_depth(r, "reconstruct", "total_s"))
    ),
    reconstruction_cheaper_than_restore=lambda r: all(
        rec < res for rec, res in zip(_depth(r, "reconstruct", "reconstruct_s"),
                                      _depth(r, "checkpoint", "restore_s"))
    ),
    # At interval 10 the classic path can be cheaper end to end on a shallow
    # failure: it bought less protection.
    beats_checkpointing_every_iteration=lambda r: (
        r["depth"][(15, "reconstruct")]["total_s"] < r["equal_protection"]["total_s"]
    ),
)
def reconstruct(csv: str, bench_json: str):
    config = RECONSTRUCT_CONFIG
    burst = {
        (places, k, recovery): _reconstruct_cell(places, k, recovery)
        for places in config["places"]
        for k in config["failures"]
        for recovery in ("reconstruct", "checkpoint")
    }
    depth = {
        (fail_at, recovery): _reconstruct_cell(16, 1, recovery, fail_at=fail_at)
        for fail_at in config["depth_fail_at"]
        for recovery in ("reconstruct", "checkpoint")
    }
    # The only checkpoint/restart configuration that also bounds the lost
    # work to ~zero checkpoints every iteration.
    equal_protection = _reconstruct_cell(16, 1, "checkpoint", interval=1)
    result = {
        "burst": burst,
        "depth": depth,
        "equal_protection": equal_protection,
        "baselines": {places: _failure_free_solution(places) for places in config["places"]},
    }
    cells = [(f"p{p}:k{k}", burst[(p, k, "reconstruct")], burst[(p, k, "checkpoint")])
             for p in config["places"] for k in config["failures"]]
    series = {
        f"reconstruct:{col}": [rec[col] for _, rec, _ in cells]
        for col in ("reconstruct_s", "redundancy_s", "checkpoint_s",
                    "reconstructed_partitions", "rolled_back_iterations", "total_s")
    }
    series["restore:total_s"] = [cls["total_s"] for _, _, cls in cells]
    series["restore:rolled_back_iterations"] = [cls["rolled_back_iterations"] for _, _, cls in cells]
    figures.write_csv(csv, [key for key, _, _ in cells], series, x_name="places:k")

    def strip(cell: dict) -> dict:
        return {n: cell[n] for n in cell if n != "solution"}

    _write_json(
        bench_json,
        {
            "config": config,
            "burst": {f"p{p}:k{k}:{r}": strip(cell) for (p, k, r), cell in burst.items()},
            "depth": {f"fail{f}:{r}": strip(cell) for (f, r), cell in depth.items()},
            "equal_protection_interval1": strip(equal_protection),
        },
    )
    return result


# -- Tiered store: checkpoint cost and recovery vs replication level K ---------------
#
# LinReg at 12 places.  Cost: the full checkpoint with the spread placement
# grows with K.  Recovery: an adjacent-pair kill; K >= 2 (spread) recovers
# in memory, K < 2 (ring) only through the stable-storage tier, and either
# way recovering beats restarting from scratch.

REPLICATION_KS = [0, 1, 2, 3]


def _linreg12(replicas: int, placement: str, **fields) -> WorldSpec:
    return WorldSpec(
        "linreg", places=12, checkpoint_interval=3, replicas=replicas, placement=placement,
        **fields,
    )


def _replication_recovery(k: int) -> dict:
    """Adjacent-pair kill; K < 2 (ring) leans on the stable-storage tier."""
    spec = _linreg12(k, "ring" if k < 2 else "spread", stable_fallback=k < 2,
                     fail_at=(4, 4), victim=(6, 7))
    report = _run(spec)
    return {
        "restores": report.restores,
        "recovery_s": report.restore_time + report.lost_time,
        "total_s": report.total_time,
        "disk_reads": report.stable_fallback_reads,
    }


@artefact(
    "replication",
    "results/replication.csv",
    checkpoint_cost_grows_with_k=lambda r: _increasing(r["checkpoint"][k] for k in REPLICATION_KS),
    recovers_from_adjacent_pair=lambda r: all(c["restores"] >= 1 for c in r["recovery"].values()),
    disk_tier_only_below_k2=lambda r: all(
        (c["disk_reads"] > 0) == (k < 2) for k, c in r["recovery"].items()
    ),
    recovery_beats_restart=lambda r: all(
        c["recovery_s"] < r["baseline"] for c in r["recovery"].values()
    ),
)
def replication(csv: str):
    checkpoint = {k: _run(_linreg12(k, "spread")).checkpoint_durations[0] for k in REPLICATION_KS}
    recovery = {k: _replication_recovery(k) for k in REPLICATION_KS}
    figures.write_csv(
        csv,
        REPLICATION_KS,
        {
            "checkpoint_s": [checkpoint[k] for k in REPLICATION_KS],
            "recovery_s": [recovery[k]["recovery_s"] for k in REPLICATION_KS],
            "total_s": [recovery[k]["total_s"] for k in REPLICATION_KS],
            "disk_fallback_reads": [float(recovery[k]["disk_reads"]) for k in REPLICATION_KS],
        },
        x_name="replicas",
    )
    # failure-free total at the paper's configuration (k=1 ring)
    return {"checkpoint": checkpoint, "recovery": recovery, "baseline": _run(_linreg12(1, "ring")).total_time}


# -- Bytes-vs-recoverability frontier: replicas K vs parity groups G ------------------
#
# Replication multiplies checkpoint bytes by K+1 to survive K losses per
# key; one XOR block per G partitions survives any single loss per group
# at ~(1 + 1/G)x.  Each configuration's physical checkpoint bytes, then the
# same single-kill schedules: "survived" means the run finished, "in memory"
# that it never read the stable-storage tier.

FRONTIER = [
    ("k=1", 1, "spread"),
    ("k=2", 2, "spread"),
    ("k=3", 3, "spread"),
    ("parity:2", 1, "parity:2"),
    ("parity:4", 1, "parity:4"),
    ("parity:8", 1, "parity:8"),
]
SINGLE_KILL_VICTIMS = [1, 3, 6, 9, 11]


def _stored_bytes(replicas: int, placement: str) -> dict:
    """Failure-free run: physical checkpoint footprint across all tiers."""
    rt, _, store, executor = _linreg12(replicas, placement, mode="replace-redundant").build()
    with rt:
        report = executor.run()
        return {"stored_bytes": store.total_stored_bytes(),
                "checkpoint_s": report.checkpoint_durations[0]}


def _single_kill(replicas: int, placement: str, victim: int) -> dict:
    spec = _linreg12(replicas, placement, mode="replace-redundant", spares=1,
                     fail_at=(4,), victim=(victim,))
    try:
        report = _run(spec)
    except DataLossError:  # the code was too weak for the kill
        return {"survived": False, "in_memory": False, "recovery_s": None}
    return {
        "survived": True,
        "in_memory": report.stable_fallback_reads == 0,
        "recovery_s": report.restore_time + report.lost_time,
        "parity_reconstructions": report.parity_reconstructions,
    }


def _parity_kills(cells):
    return [cells[f"parity:{g}"]["kills"][victim] for g in (2, 4, 8) for victim in SINGLE_KILL_VICTIMS]


@artefact(
    "parity_frontier",
    "results/parity.csv",
    "BENCH_parity.json",
    replication_pays_k_plus_1=lambda c: all(
        c[f"k={k}"]["bytes_ratio"] == pytest.approx(k + 1) for k in (1, 2, 3)
    ),
    parity8_below_parity4=lambda c: c["parity:8"]["bytes_ratio"] < c["parity:4"]["bytes_ratio"],
    parity4_below_parity2=lambda c: c["parity:4"]["bytes_ratio"] < c["parity:2"]["bytes_ratio"],
    parity2_below_k1=lambda c: c["parity:2"]["bytes_ratio"] < c["k=1"]["bytes_ratio"],
    parity4_at_most_1_35x=lambda c: c["parity:4"]["bytes_ratio"] <= 1.35,
    k2_survives_every_single_kill_in_memory=lambda c: all(
        kill["survived"] and kill["in_memory"] for kill in c["k=2"]["kills"].values()
    ),
    parity_survives_every_single_kill_in_memory=lambda c: all(
        kill["survived"] and kill["in_memory"] for kill in _parity_kills(c)
    ),
    parity_recovers_by_xor=lambda c: all(
        kill.get("parity_reconstructions", 0) >= 1 for kill in _parity_kills(c)
    ),
)
def parity_frontier(csv: str, bench_json: str):
    baseline = _stored_bytes(0, "spread")["stored_bytes"]  # 1x logical bytes
    cells = {}
    for name, replicas, placement in FRONTIER:
        cell = cells[name] = _stored_bytes(replicas, placement)
        cell["bytes_ratio"] = cell["stored_bytes"] / baseline
        cell["kills"] = {
            victim: _single_kill(replicas, placement, victim) for victim in SINGLE_KILL_VICTIMS
        }
    names = [name for name, _, _ in FRONTIER]

    def count(name: str, key: str) -> float:
        return float(sum(kill[key] for kill in cells[name]["kills"].values()))

    figures.write_csv(
        csv,
        names,
        {
            "bytes_ratio": [cells[n]["bytes_ratio"] for n in names],
            "checkpoint_s": [cells[n]["checkpoint_s"] for n in names],
            "survived_single_kills": [count(n, "survived") for n in names],
            "in_memory_recoveries": [count(n, "in_memory") for n in names],
        },
        x_name="config",
    )
    _write_json(
        bench_json,
        {
            "config": {
                "places": 12,
                "iterations": 30,
                "interval": 3,
                "victims": SINGLE_KILL_VICTIMS,
                "baseline_bytes": baseline,
            },
            "frontier": cells,
        },
    )
    return cells


# -- Service layer: offered load and spare economics -----------------------------------
#
# Seeded 30-job mixed streams on one shared 16-worker pool under chaos.
# Offered-load sweep: 0.5-4 jobs/s under dedicated and pooled spares.
# Reserve economics: the pooled reserve swept down to the smallest size
# whose survival (on the jobs both runs admitted) still matches dedicated
# economics with a 4-place reserve — it must be strictly smaller; the
# smallest reserve also holding full-width (no shrink) completion level is
# recorded.  No run anywhere may abort a job across tenants.

SERVICE_RATES = (0.5, 1.0, 2.0, 4.0)
SERVICE_CHAOS = dict(crash_rate=0.4, pair_rate=0.03)
DEDICATED_RESERVE = 4


def _stream(economics: str, rate: float, reserve: int):
    return run_service(
        ServiceConfig(
            n_jobs=30, seed=42, arrival_rate=rate, economics=economics, reserve=reserve,
            **SERVICE_CHAOS,
        )
    )


def _reserve_economics(pooled_runs: list) -> dict:
    """Smallest pooled reserve matching dedicated survival on one stream;
    every pooled report goes to *pooled_runs*."""
    dedicated = _stream("dedicated", 1.5, DEDICATED_RESERVE)
    chosen = full_width_parity = None
    sweep = []
    for reserve in range(DEDICATED_RESERVE, -1, -1):
        pooled = _stream("pooled", 1.5, reserve)
        pooled_runs.append(pooled.to_dict())
        surv_ded, surv_pool = survival_on_common_jobs(dedicated, pooled)
        full_ded, full_pool = full_width_on_common_jobs(dedicated, pooled)
        sweep.append(
            {
                "reserve": reserve,
                "survival_common_pooled": surv_pool,
                "survival_common_dedicated": surv_ded,
                "full_width_common_pooled": full_pool,
                "full_width_common_dedicated": full_ded,
                "admitted": pooled.admitted,
                "degraded": pooled.degraded,
                "peak_claimed": pooled.reserve_peak_claimed,
            }
        )
        matches = surv_pool >= surv_ded and pooled.admitted >= dedicated.admitted
        if reserve < DEDICATED_RESERVE and matches:
            chosen = {"reserve": reserve, "report": pooled.to_dict(),
                      "survival_common": surv_pool,
                      "full_width_common": full_pool}
        # Shrink recovery keeps survival flat all the way down, so
        # full-width completion is what extra reserve places buy.
        if matches and full_pool >= full_ded:
            full_width_parity = reserve
    return {
        "dedicated": dedicated.to_dict(),
        "dedicated_reserve": DEDICATED_RESERVE,
        "pooled_equal_survival": chosen,
        "reserve_savings": None if chosen is None else DEDICATED_RESERVE - chosen["reserve"],
        "full_width_parity_reserve": full_width_parity,
        "sweep": sweep,
    }


def _chosen(r):
    return r["economics"]["pooled_equal_survival"]


@artefact(
    "service",
    "results/service.csv",
    "BENCH_service.json",
    load_sweep_no_cross_tenant_abort=lambda r: all(
        row["cross_tenant_aborts"] == 0 for row in r["load"].values()
    ),
    load_sweep_no_violation=lambda r: all(row["violations"] == 0 for row in r["load"].values()),
    dedicated_no_cross_tenant_abort=lambda r: (
        r["economics"]["dedicated"]["cross_tenant_aborts"] == 0
    ),
    pooled_no_cross_tenant_abort=lambda r: all(
        row["cross_tenant_aborts"] == 0 for row in r["pooled"]
    ),
    pooled_no_violation=lambda r: all(row["violations"] == 0 for row in r["pooled"]),
    some_pooled_reserve_matches_dedicated_survival=lambda r: _chosen(r) is not None,
    matching_pooled_reserve_is_smaller=lambda r: (
        _chosen(r) is not None and _chosen(r)["reserve"] < DEDICATED_RESERVE
    ),
    some_pooled_reserve_holds_full_width=lambda r: (
        r["economics"]["full_width_parity_reserve"] is not None
    ),
)
def service(csv: str, bench_json: str):
    load = {
        f"{economics}:{rate:g}": _stream(economics, rate, DEDICATED_RESERVE).to_dict()
        for economics in ("dedicated", "pooled")
        for rate in SERVICE_RATES
    }
    pooled: list = []
    economics = _reserve_economics(pooled)
    columns = ("throughput", "latency_p50", "latency_p95", "latency_p99", "mean_queue_wait",
               "survival_rate", "completed", "data_loss", "rejected", "reserve_peak_claimed",
               "reserve_mean_occupancy", "cross_tenant_aborts")
    figures.write_csv(
        csv, list(load), {col: [row[col] for row in load.values()] for col in columns},
        x_name="economics:rate",
    )
    _write_json(
        bench_json,
        {
            "config": {"n_jobs": 30, "seed": 42, "rates": SERVICE_RATES, "workers": 16,
                       **SERVICE_CHAOS},
            "load_sweep": load,
            "reserve_economics": economics,
        },
    )
    return {"load": load, "economics": economics, "pooled": pooled}
