"""Simultaneous multi-place failures under classic checkpoint/restart.

The reconstruct work surfaced a family of burst patterns (adjacent pairs,
racks, kills landing inside a restore) that the *existing* rollback path
must also survive: one restore handles every death the triggering event
reported, the restore-retry loop absorbs kills landing mid-recovery, and
a detector must be able to confirm two deaths from a single event.
"""

import numpy as np
import pytest

from repro.apps.data import PageRankWorkload, RegressionWorkload
from repro.apps.nonresilient import LinRegNonResilient, PageRankNonResilient
from repro.apps.resilient import LinRegResilient, PageRankResilient
from repro.resilience.executor import IterativeExecutor, RestoreMode
from repro.resilience.placement import ParityPlacement, SpreadPlacement
from repro.resilience.protection import Protection
from repro.runtime import CostModel, DataLossError, Runtime
from repro.runtime.detector import PhiAccrualDetector

PLACES = 6
ITER = 12
REG_WL = RegressionWorkload(
    features=8, examples_per_place=32, iterations=ITER, blocks_per_place=2
)
PR_WL = PageRankWorkload(
    nodes_per_place=24, out_degree=4, iterations=ITER, blocks_per_place=2
)


def baseline(NonRes, wl, get, places=PLACES):
    rt = Runtime(places, cost=CostModel.zero())
    app = NonRes(rt, wl)
    app.run()
    return get(app)


@pytest.mark.parametrize("victims", [(2, 3), (1, 4)], ids=["adjacent", "spread"])
def test_pair_kill_one_restore(victims):
    # Two deaths in one iteration arrive as one MultipleException: a
    # single restore (with two spares installed) must recover both.
    ref = baseline(LinRegNonResilient, REG_WL, lambda a: a.model())
    rt = Runtime(PLACES, cost=CostModel.zero(), resilient=True, spares=2)
    app = LinRegResilient(rt, REG_WL)
    for victim in victims:
        rt.injector.kill_at_iteration(victim, iteration=6)
    report = IterativeExecutor(
        rt,
        app,
        checkpoint_interval=4,
        mode=RestoreMode.REPLACE_REDUNDANT,
        protection=Protection(replicas=2, placement=SpreadPlacement()),
    ).run()
    assert report.restores == 1
    assert report.failures_observed >= 2
    assert report.final_group_size == PLACES
    assert np.array_equal(app.model(), ref)


def test_rack_kill_shrinks_once():
    # A three-place rack burst with no spares: one shrink restore drops
    # all three victims together, not one at a time.
    ref = baseline(PageRankNonResilient, PR_WL, lambda a: a.ranks())
    rt = Runtime(PLACES, cost=CostModel.zero(), resilient=True)
    app = PageRankResilient(rt, PR_WL)
    for victim in (2, 3, 4):
        rt.injector.kill_at_iteration(victim, iteration=6)
    report = IterativeExecutor(
        rt,
        app,
        checkpoint_interval=4,
        mode=RestoreMode.SHRINK_REBALANCE,
        protection=Protection(replicas=3, placement=SpreadPlacement()),
    ).run()
    assert report.restores == 1
    assert report.final_group_size == PLACES - 3
    assert np.allclose(app.ranks(), ref, atol=1e-8)


def test_pair_kill_during_restore_retries():
    # A second pair landing inside the restore itself: the retry loop
    # must fold the new deaths into the next attempt.  The aborted
    # attempt's two claimed spares cannot be returned, so the retry needs
    # three fresh ones: 5 in the pool keeps the group at full width.
    ref = baseline(PageRankNonResilient, PR_WL, lambda a: a.ranks())
    rt = Runtime(PLACES, cost=CostModel.zero(), resilient=True, spares=5)
    app = PageRankResilient(rt, PR_WL)
    for victim in (1, 2):
        rt.injector.kill_at_iteration(victim, iteration=5)
    rt.injector.kill_during(4, context="restore")
    report = IterativeExecutor(
        rt,
        app,
        checkpoint_interval=3,
        mode=RestoreMode.REPLACE_REDUNDANT,
        protection=Protection(replicas=3, placement=SpreadPlacement()),
    ).run()
    assert report.restores == 1
    assert report.aborted_restores >= 1
    assert report.final_group_size == PLACES
    assert np.array_equal(app.ranks(), ref)


def test_detector_confirms_two_deaths_in_one_event():
    # With a detector attached, a simultaneous pair must be confirmed and
    # evicted as two deaths of one recovery round — no split restores, no
    # false positives.
    ref = baseline(LinRegNonResilient, REG_WL, lambda a: a.model())
    rt = Runtime(PLACES, cost=CostModel(latency=0.01), resilient=True, spares=2)
    app = LinRegResilient(rt, REG_WL)
    for victim in (2, 4):
        rt.injector.kill_at_iteration(victim, iteration=6)
    detector = PhiAccrualDetector(rt, detect_timeout=1.0)
    report = IterativeExecutor(
        rt,
        app,
        checkpoint_interval=4,
        mode=RestoreMode.REPLACE_REDUNDANT,
        protection=Protection(replicas=2, placement=SpreadPlacement()),
        detector=detector,
    ).run()
    assert report.evictions == 2
    assert report.false_positive_evictions == 0
    assert report.restores == 1
    assert report.detection_wait_time > 0.0
    np.testing.assert_allclose(app.model(), ref, atol=1e-8)


# -- parity snapshot tier under burst kills ----------------------------------
#
# With ``placement=parity:2`` over 6 places the recovery sets (members plus
# the group-external parity holder) are {0,1,2}, {2,3,4} and {4,5,0}: any
# burst taking at most one place per set reconstructs in memory; two places
# of one set before a scrub exceeds the code.


def parity_executor(rt, app, stable_fallback=False):
    return IterativeExecutor(
        rt,
        app,
        checkpoint_interval=4,
        mode=RestoreMode.REPLACE_REDUNDANT,
        protection=Protection(
            replicas=1, placement=ParityPlacement(group=2), stable_fallback=stable_fallback
        ),
    )


def test_pair_kill_one_loss_per_group_recovers_in_memory():
    # Victims 1 and 4 each sit in different recovery sets: both partitions
    # come back via XOR reconstruction, never touching disk.
    ref = baseline(LinRegNonResilient, REG_WL, lambda a: a.model())
    rt = Runtime(PLACES, cost=CostModel.zero(), resilient=True, spares=2)
    app = LinRegResilient(rt, REG_WL)
    for victim in (1, 4):
        rt.injector.kill_at_iteration(victim, iteration=6)
    report = parity_executor(rt, app).run()
    assert report.restores == 1
    assert report.parity_reconstructions > 0
    assert report.stable_fallback_reads == 0
    assert report.scrubs >= 1
    assert report.final_group_size == PLACES
    assert np.array_equal(app.model(), ref)


def test_pair_kill_straddling_a_group_falls_through_to_disk():
    # Victims 2 and 3 are both members of the middle parity group: the XOR
    # block cannot solve for two unknowns, so recovery must fall through
    # to the stable tier — and still finish bit-exact.
    ref = baseline(LinRegNonResilient, REG_WL, lambda a: a.model())
    rt = Runtime(PLACES, cost=CostModel.zero(), resilient=True, spares=2)
    app = LinRegResilient(rt, REG_WL)
    for victim in (2, 3):
        rt.injector.kill_at_iteration(victim, iteration=6)
    report = parity_executor(rt, app, stable_fallback=True).run()
    assert report.restores == 1
    assert report.stable_fallback_reads > 0
    assert report.final_group_size == PLACES
    assert np.array_equal(app.model(), ref)


def test_pair_kill_straddling_a_group_without_disk_is_data_loss():
    # The same straddling pair with no stable tier behind the parity code
    # is a documented loss: the run must fail loudly, not return garbage.
    rt = Runtime(PLACES, cost=CostModel.zero(), resilient=True, spares=2)
    app = LinRegResilient(rt, REG_WL)
    for victim in (2, 3):
        rt.injector.kill_at_iteration(victim, iteration=6)
    with pytest.raises(DataLossError, match="parity group"):
        parity_executor(rt, app).run()


def test_rack_kill_under_parity_recovers_via_disk():
    # A three-place rack burst defeats every parity group it straddles;
    # with the stable tier on, one replace-restore still recovers.
    ref = baseline(PageRankNonResilient, PR_WL, lambda a: a.ranks())
    rt = Runtime(PLACES, cost=CostModel.zero(), resilient=True, spares=3)
    app = PageRankResilient(rt, PR_WL)
    for victim in (2, 3, 4):
        rt.injector.kill_at_iteration(victim, iteration=6)
    report = parity_executor(rt, app, stable_fallback=True).run()
    assert report.restores == 1
    assert report.stable_fallback_reads > 0
    assert report.final_group_size == PLACES
    assert np.array_equal(app.ranks(), ref)


def test_sequential_same_group_kills_survive_via_scrub():
    # Places 2 and 3 share a group, but the kills land in different
    # iterations: the scrub after the first restore re-materializes the
    # lost copies, so the second kill is again a single loss.
    ref = baseline(LinRegNonResilient, REG_WL, lambda a: a.model())
    rt = Runtime(PLACES, cost=CostModel.zero(), resilient=True, spares=2)
    app = LinRegResilient(rt, REG_WL)
    rt.injector.kill_at_iteration(2, iteration=5)
    rt.injector.kill_at_iteration(3, iteration=9)
    report = parity_executor(rt, app).run()
    assert report.restores == 2
    assert report.scrubs == 2
    assert report.stable_fallback_reads == 0
    assert np.array_equal(app.model(), ref)


def test_mid_scrub_kill_retries_and_recovers():
    # A kill landing inside the scrub pass itself: the scrub aborts, the
    # retry loop folds the new death in, and the next round recovers fully
    # in memory.  Place 6 is the spare installed by the first restore.
    ref = baseline(LinRegNonResilient, REG_WL, lambda a: a.model())
    rt = Runtime(PLACES, cost=CostModel.zero(), resilient=True, spares=4)
    app = LinRegResilient(rt, REG_WL)
    rt.injector.kill_at_iteration(2, iteration=5)
    rt.injector.kill_during(6, context="scrub")
    report = parity_executor(rt, app).run()
    assert report.aborted_scrubs == 1
    assert report.scrubs >= 1
    assert report.stable_fallback_reads == 0
    assert report.final_group_size == PLACES
    assert np.array_equal(app.model(), ref)
