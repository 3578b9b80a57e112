"""Incremental checkpointing under chaos, and the parallel campaign runner.

Acceptance bar for the delta-checkpointing PR:

* 200-schedule campaigns per app run entirely in delta mode with zero
  recovery-invariant violations — a delta restore is indistinguishable
  from a full one under arbitrary kill schedules;
* a property sweep over random kill schedules shows the delta-mode final
  state is **bitwise** identical to full mode for every app, replication
  level k in {1, 2} and the stable-storage tier;
* the process-pool campaign runner produces bitwise-identical outcomes
  to the serial loop (parallelism changes wall clock only).
"""

import numpy as np
import pytest

from repro.bench.catalogue import APPS, CHAOS_APP_NAMES
from repro.chaos import (
    CampaignConfig,
    make_schedule,
    run_campaign,
)
from repro.resilience.executor import (
    IterativeExecutor,
    NonResilientExecutor,
    RestoreMode,
)
from repro.resilience.protection import Protection
from repro.runtime.cost import CostModel
from repro.runtime.exceptions import DataLossError
from repro.runtime.runtime import Runtime

SCHEDULES = 200


def _assert_clean(result):
    assert result.violations == [], "\n".join(
        f"#{o.index} [{o.kills}] {o.detail}" for o in result.violations
    )
    assert len(result.outcomes) == SCHEDULES
    assert result.counts().get("recovered", 0) > 0


@pytest.mark.parametrize("app", ["linreg", "pagerank"])
def test_delta_campaign_in_memory(app):
    result = run_campaign(
        CampaignConfig(
            app=app,
            schedules=SCHEDULES,
            seed=11,
            replicas=2,
            placement="spread",
            ckpt_delta=True,
        )
    )
    _assert_clean(result)


@pytest.mark.parametrize("app", ["linreg", "pagerank"])
def test_delta_campaign_stable_fallback(app):
    result = run_campaign(
        CampaignConfig(
            app=app,
            schedules=SCHEDULES,
            seed=23,
            replicas=1,
            placement="ring",
            stable_fallback=True,
            ckpt_delta=True,
        )
    )
    _assert_clean(result)
    assert result.counts().get("data_loss", 0) == 0


def test_delta_campaign_matches_full_campaign_statuses():
    # Delta checkpointing changes what a checkpoint costs, never what it
    # contains: the same schedules succeed, recover or lose data.
    base = run_campaign(
        CampaignConfig(app="linreg", schedules=60, seed=19, replicas=2,
                       placement="spread")
    )
    delta = run_campaign(
        CampaignConfig(app="linreg", schedules=60, seed=19, replicas=2,
                       placement="spread", ckpt_delta=True)
    )
    assert delta.violations == []
    assert [o.status for o in delta.outcomes] == [o.status for o in base.outcomes]


# -- delta == full, bitwise, under random kills -------------------------------


def _outcome(app_name, config_kw, kills, mode, checkpoint_mode, delta):
    """Final result of one resilient run (or the DataLossError message)."""
    entry = APPS[app_name]
    rt = Runtime(6, cost=CostModel.zero(), resilient=True)
    app = entry.resilient(rt, entry.tiny_workload(30))
    for kill in kills:
        rt.injector.add(kill)
    executor = IterativeExecutor(
        rt,
        app,
        checkpoint_interval=5,
        mode=mode,
        checkpoint_mode=checkpoint_mode,
        delta=delta,
        protection=Protection(**config_kw),
    )
    try:
        report = executor.run()
    except DataLossError as err:
        return ("loss", str(err))
    return ("ok", np.asarray(entry.result(app)), report.restores, report.checkpoints)


STORE_CONFIGS = [
    {"replicas": 1},
    {"replicas": 2},
    {"replicas": 1, "stable_fallback": True},
]


@pytest.mark.parametrize("app_name", sorted(CHAOS_APP_NAMES))
@pytest.mark.parametrize("config_kw", STORE_CONFIGS, ids=["k1", "k2", "k1+disk"])
def test_delta_restore_bitwise_equals_full(app_name, config_kw):
    # Random mutation patterns (the apps' own 30-iteration trajectories)
    # with kills at arbitrary points: the delta-mode run must end in a
    # final state bitwise identical to the full-mode run, restores and
    # checkpoint counts included.
    for index in range(4):
        rng = np.random.default_rng([97, index])
        kills = make_schedule(rng, places=6, iterations=30)
        mode = (RestoreMode.SHRINK, RestoreMode.SHRINK_REBALANCE)[
            int(rng.integers(2))
        ]
        checkpoint_mode = "overlapped" if rng.integers(2) else "blocking"
        full = _outcome(app_name, config_kw, kills, mode, checkpoint_mode, False)
        delta = _outcome(app_name, config_kw, kills, mode, checkpoint_mode, True)
        assert full[0] == delta[0], (index, full, delta)
        if full[0] == "ok":
            assert np.array_equal(full[1], delta[1]), index
            assert full[2:] == delta[2:], index


def test_failure_free_delta_matches_nonresilient_baseline():
    for app_name in sorted(CHAOS_APP_NAMES):
        entry = APPS[app_name]
        rt = Runtime(6, cost=CostModel.zero())
        base_app = entry.nonresilient(rt, entry.tiny_workload(30))
        NonResilientExecutor(rt, base_app).run()
        rt2 = Runtime(6, cost=CostModel.zero(), resilient=True)
        app = entry.resilient(rt2, entry.tiny_workload(30))
        IterativeExecutor(rt2, app, checkpoint_interval=5, delta=True).run()
        assert np.allclose(
            np.asarray(entry.result(app)), np.asarray(entry.result(base_app)),
            rtol=1e-12, atol=0,
        )


# -- parallel campaign runner --------------------------------------------------


def _flatten(result):
    return [
        (o.index, o.kills, o.status, o.violations, o.detail)
        for o in result.outcomes
    ]


@pytest.mark.parametrize("ckpt_delta", [False, True], ids=["full", "delta"])
def test_parallel_campaign_bitwise_identical_to_serial(ckpt_delta):
    cfg = CampaignConfig(
        app="pagerank",
        schedules=24,
        seed=5,
        replicas=2,
        placement="spread",
        ckpt_delta=ckpt_delta,
    )
    serial = run_campaign(cfg)
    parallel = run_campaign(cfg, jobs=2)
    assert _flatten(serial) == _flatten(parallel)
    assert serial.summary() == parallel.summary()


def test_parallel_campaign_oversubscribed_pool():
    # More workers than schedules must neither deadlock nor reorder.
    cfg = CampaignConfig(app="linreg", schedules=3, seed=8)
    assert _flatten(run_campaign(cfg, jobs=8)) == _flatten(run_campaign(cfg))
