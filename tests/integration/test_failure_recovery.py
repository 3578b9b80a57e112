"""End-to-end failure recovery: every app × every restoration mode.

The central correctness claim of the framework: a run that loses a place
and restores from the latest checkpoint produces the same result as a
failure-free run.  Replace-redundant and replace-elastic keep the exact
data layout, so results match *bitwise*; the shrink modes change partition
and reduction grouping, so results match to floating-point roundoff.
"""

import numpy as np
import pytest

from repro.apps.data import PageRankWorkload, RegressionWorkload
from repro.apps.nonresilient import (
    LinRegNonResilient,
    LogRegNonResilient,
    PageRankNonResilient,
)
from repro.apps.resilient import LinRegResilient, LogRegResilient, PageRankResilient
from repro.resilience.executor import IterativeExecutor, RestoreMode
from repro.resilience.placement import SpreadPlacement
from repro.resilience.protection import Protection
from repro.runtime import CostModel, Runtime

ITER = 12
REG_WL = RegressionWorkload(
    features=10, examples_per_place=48, iterations=ITER, blocks_per_place=2
)
PR_WL = PageRankWorkload(
    nodes_per_place=36, out_degree=4, iterations=ITER, blocks_per_place=2
)

APPS = [
    ("linreg", LinRegNonResilient, LinRegResilient, REG_WL, lambda a: a.model()),
    ("logreg", LogRegNonResilient, LogRegResilient, REG_WL, lambda a: a.model()),
    ("pagerank", PageRankNonResilient, PageRankResilient, PR_WL, lambda a: a.ranks()),
]

MODES = [
    RestoreMode.SHRINK,
    RestoreMode.SHRINK_REBALANCE,
    RestoreMode.REPLACE_REDUNDANT,
    RestoreMode.REPLACE_ELASTIC,
]

EXACT_MODES = {RestoreMode.REPLACE_REDUNDANT, RestoreMode.REPLACE_ELASTIC}


def baseline(NonRes, wl, get, places=4):
    rt = Runtime(places, cost=CostModel.zero())
    app = NonRes(rt, wl)
    app.run()
    return get(app)


@pytest.mark.parametrize("name,NonRes,Res,wl,get", APPS, ids=[a[0] for a in APPS])
@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
def test_single_failure_matches_failure_free_run(name, NonRes, Res, wl, get, mode):
    ref = baseline(NonRes, wl, get)
    spares = 1 if mode == RestoreMode.REPLACE_REDUNDANT else 0
    rt = Runtime(4, cost=CostModel.zero(), resilient=True, spares=spares)
    app = Res(rt, wl)
    rt.injector.kill_at_iteration(2, iteration=7)
    report = IterativeExecutor(rt, app, checkpoint_interval=5, mode=mode).run()
    assert report.restores == 1
    result = get(app)
    if mode in EXACT_MODES:
        assert np.array_equal(result, ref)
    else:
        assert np.allclose(result, ref, atol=1e-8)


@pytest.mark.parametrize("kill_at", [1, 5, 9, 11])
def test_failure_at_any_iteration(kill_at):
    ref = baseline(PageRankNonResilient, PR_WL, lambda a: a.ranks())
    rt = Runtime(4, cost=CostModel.zero(), resilient=True)
    app = PageRankResilient(rt, PR_WL)
    rt.injector.kill_at_iteration(3, iteration=kill_at)
    IterativeExecutor(rt, app, checkpoint_interval=5).run()
    assert np.allclose(app.ranks(), ref, atol=1e-8)


@pytest.mark.parametrize("victim", [1, 2, 3])
def test_any_nonzero_place_can_die(victim):
    ref = baseline(LinRegNonResilient, REG_WL, lambda a: a.model())
    rt = Runtime(4, cost=CostModel.zero(), resilient=True)
    app = LinRegResilient(rt, REG_WL)
    rt.injector.kill_at_iteration(victim, iteration=6)
    IterativeExecutor(rt, app, checkpoint_interval=5).run()
    assert np.allclose(app.model(), ref, atol=1e-8)


def test_sequential_failures_shrink_to_two_places():
    ref = baseline(PageRankNonResilient, PR_WL, lambda a: a.ranks())
    rt = Runtime(4, cost=CostModel.zero(), resilient=True)
    app = PageRankResilient(rt, PR_WL)
    rt.injector.kill_at_iteration(1, iteration=3)
    rt.injector.kill_at_iteration(3, iteration=8)
    report = IterativeExecutor(rt, app, checkpoint_interval=3).run()
    assert report.restores == 2
    assert app.places.ids == [0, 2]
    assert np.allclose(app.ranks(), ref, atol=1e-8)


def test_failure_during_checkpoint_rolls_back_to_previous():
    ref = baseline(LinRegNonResilient, REG_WL, lambda a: a.model())
    rt = Runtime(4, cost=CostModel.zero(), resilient=True)
    app = LinRegResilient(rt, REG_WL)
    executor = IterativeExecutor(rt, app, checkpoint_interval=4)
    # Find the phase at which the second checkpoint starts: run until
    # iteration 4 manually, then schedule a phase kill just after.
    store = executor.store
    app.checkpoint(store)
    for _ in range(4):
        app.step()
    # Kill during the next checkpoint's snapshot finishes.
    rt.injector.kill_at_phase(2, phase=rt.phase + 3)
    report = executor.run()
    assert report.restores >= 1
    assert np.allclose(app.model(), ref, atol=1e-8)
    assert not store.in_progress


def test_spares_used_then_fallback_to_shrink():
    ref = baseline(PageRankNonResilient, PR_WL, lambda a: a.ranks())
    rt = Runtime(4, cost=CostModel.zero(), resilient=True, spares=1)
    app = PageRankResilient(rt, PR_WL)
    rt.injector.kill_at_iteration(1, iteration=3)  # replaced by spare (id 4)
    rt.injector.kill_at_iteration(2, iteration=8)  # spares exhausted → shrink
    report = IterativeExecutor(
        rt, app, checkpoint_interval=3, mode=RestoreMode.REPLACE_REDUNDANT
    ).run()
    assert report.restores == 2
    assert app.places.size == 3
    assert 4 in app.places.ids
    assert np.allclose(app.ranks(), ref, atol=1e-8)


def test_failed_spare_is_skipped():
    rt = Runtime(3, cost=CostModel.zero(), resilient=True, spares=2)
    app = PageRankResilient(rt, PR_WL)
    rt.kill(3)  # first spare dies before ever being used
    rt.injector.kill_at_iteration(1, iteration=4)
    IterativeExecutor(
        rt, app, checkpoint_interval=3, mode=RestoreMode.REPLACE_REDUNDANT
    ).run()
    assert app.places.ids == [0, 4, 2]  # second spare took over


def test_elastic_mode_grows_fresh_places_repeatedly():
    rt = Runtime(3, cost=CostModel.zero(), resilient=True)
    app = PageRankResilient(rt, PR_WL)
    rt.injector.kill_at_iteration(1, iteration=3)
    rt.injector.kill_at_iteration(2, iteration=7)
    report = IterativeExecutor(
        rt, app, checkpoint_interval=3, mode=RestoreMode.REPLACE_ELASTIC
    ).run()
    assert report.restores == 2
    assert app.places.size == 3
    assert set(app.places.ids) == {0, 3, 4}


def test_virtual_time_restore_modes_ordering():
    """The Table IV ordering at benchmark scale: shrink-rebalance
    (repartitioning + sub-block overlap copies) costs the most restore
    time and replace-redundant (same-index block reload, only the spare
    fetches remotely) the least."""
    from repro.bench import calibration

    wl = calibration.regression_bench_workload(iterations=8)
    times = {}
    for mode in (RestoreMode.SHRINK, RestoreMode.SHRINK_REBALANCE, RestoreMode.REPLACE_REDUNDANT):
        spares = 1 if mode == RestoreMode.REPLACE_REDUNDANT else 0
        rt = Runtime(24, cost=calibration.regression_cost(), resilient=True, spares=spares)
        app = LinRegResilient(rt, wl)
        rt.injector.kill_at_iteration(11, iteration=4)
        report = IterativeExecutor(rt, app, checkpoint_interval=3, mode=mode).run()
        times[mode] = report.restore_time
    assert times[RestoreMode.SHRINK_REBALANCE] > times[RestoreMode.SHRINK]
    assert times[RestoreMode.SHRINK] > times[RestoreMode.REPLACE_REDUNDANT]


def test_failure_mid_overlapped_checkpoint_recovers():
    # The kill lands inside the second checkpoint's capture while the
    # first checkpoint's backup transfers are still deferred in the
    # overlap scope: the attempt is cancelled, the deferred transfers are
    # drained, and recovery proceeds from the previous commit.
    ref = baseline(LinRegNonResilient, REG_WL, lambda a: a.model())
    rt = Runtime(4, cost=CostModel.zero(), resilient=True)
    app = LinRegResilient(rt, REG_WL)
    rt.injector.kill_during(2, "checkpoint", occurrence=2)
    executor = IterativeExecutor(
        rt, app, checkpoint_interval=4, checkpoint_mode="overlapped"
    )
    report = executor.run()
    assert report.restores == 1
    assert not executor.store.in_progress
    assert executor.store.latest_iteration >= 0
    assert np.allclose(app.model(), ref, atol=1e-8)


def test_spare_exhaustion_falls_back_to_shrink_rebalance():
    # Two consecutive failures (no re-checkpoint in between) with one
    # spare: the first is replaced, the second exhausts the pool and the
    # executor degrades to the configured SHRINK_REBALANCE fallback.  The
    # k=2 spread store keeps a copy of every partition alive through both
    # kills — the k=1 ring scheme would lose data here.
    ref = baseline(LinRegNonResilient, REG_WL, lambda a: a.model())
    rt = Runtime(4, cost=CostModel.zero(), resilient=True, spares=1)
    app = LinRegResilient(rt, REG_WL)
    rt.injector.kill_at_iteration(1, iteration=4)  # replaced by spare (id 4)
    rt.injector.kill_at_iteration(2, iteration=5)  # spares exhausted
    report = IterativeExecutor(
        rt,
        app,
        checkpoint_interval=3,
        mode=RestoreMode.REPLACE_REDUNDANT,
        spare_fallback=RestoreMode.SHRINK_REBALANCE,
        protection=Protection(replicas=2, placement=SpreadPlacement()),
    ).run()
    assert report.restores == 2
    assert app.places.size == 3
    assert 4 in app.places.ids and 2 not in app.places.ids
    assert report.stable_fallback_reads == 0  # survived purely in memory
    assert np.allclose(app.model(), ref, atol=1e-8)


def test_aborted_restore_is_accounted():
    # A second failure strikes in the middle of the restore: the executor
    # records the aborted attempt separately and retries until recovery
    # completes, rolling back to a committed iteration.
    ref = baseline(LinRegNonResilient, REG_WL, lambda a: a.model())
    rt = Runtime(4, cost=CostModel.zero(), resilient=True)
    app = LinRegResilient(rt, REG_WL)
    rt.injector.kill_at_iteration(1, iteration=4)
    rt.injector.kill_during(2, "restore")
    report = IterativeExecutor(
        rt,
        app,
        checkpoint_interval=3,
        protection=Protection(replicas=2, placement=SpreadPlacement()),
    ).run()
    assert report.aborted_restores == 1
    assert len(report.aborted_restore_durations) == 1
    assert report.restores == 1
    assert report.restored_iterations == [3]
    assert report.failures_observed >= 2
    assert report.pending_kills == []
    assert app.places.ids == [0, 3]
    assert np.allclose(app.model(), ref, atol=1e-8)


def test_unfired_kills_reported_as_pending():
    rt = Runtime(4, cost=CostModel.zero(), resilient=True)
    app = LinRegResilient(rt, REG_WL)
    rt.injector.kill_at_iteration(2, iteration=999)  # never reached
    report = IterativeExecutor(rt, app, checkpoint_interval=3).run()
    assert len(report.pending_kills) == 1
    assert report.pending_kills[0].place_id == 2
    assert report.failures_observed == 0
