"""End-to-end recovery under imperfect failure detection.

Without a detector the executor learns of failures from exceptions that
carry ground truth (an oracle).  With a :class:`PhiAccrualDetector`
attached, every suspicion must climb the SUSPECTED → CONFIRMED_DEAD
ladder in virtual time, and three imperfections become possible:

* **detection latency** — real deaths are confirmed only after the
  accrual window, and the wait is charged to the run;
* **false negatives avoided for stragglers** — a slow-but-alive place
  must never trigger a spurious restore at the default timeout;
* **false positives survive** — a live place fenced by the fail-safe is
  evicted, and the run must still converge to the failure-free answer.

Transient network faults (drops, healing partitions) ride the same
ladder: suspects cleared by a fresh heartbeat roll back or retry without
any membership change.
"""

import numpy as np
import pytest

from repro.apps.data import PageRankWorkload, RegressionWorkload
from repro.apps.nonresilient import LinRegNonResilient, PageRankNonResilient
from repro.apps.resilient import LinRegResilient, PageRankResilient
from repro.resilience.executor import IterativeExecutor
from repro.resilience.placement import SpreadPlacement
from repro.resilience.protection import Protection
from repro.runtime import CostModel, Runtime
from repro.runtime.detector import PhiAccrualDetector
from repro.runtime.failure import LinkPartition, TransientFaultModel

PLACES = 6
ITER = 12
REG_WL = RegressionWorkload(
    features=8, examples_per_place=32, iterations=ITER, blocks_per_place=2
)
PR_WL = PageRankWorkload(
    nodes_per_place=24, out_degree=4, iterations=ITER, blocks_per_place=2
)

# Non-zero latency so virtual time moves: heartbeat gaps, retry backoff
# and partition windows are all meaningless on a free network.
COST = CostModel(latency=0.01)


def reg_baseline():
    rt = Runtime(PLACES, cost=CostModel.zero())
    app = LinRegNonResilient(rt, REG_WL)
    app.run()
    return app.model()


def make_executor(rt, app, detect_timeout=1.0, **kwargs):
    detector = PhiAccrualDetector(rt, detect_timeout=detect_timeout)
    executor = IterativeExecutor(
        rt,
        app,
        checkpoint_interval=4,
        protection=Protection(replicas=2, placement=SpreadPlacement()),
        detector=detector,
        **kwargs,
    )
    return executor


class TestRealDeath:
    def test_dead_place_confirmed_evicted_and_recovered(self):
        ref = reg_baseline()
        rt = Runtime(PLACES, cost=COST, resilient=True)
        app = LinRegResilient(rt, REG_WL)
        rt.injector.kill_at_iteration(2, iteration=6)
        report = make_executor(rt, app).run()
        assert report.evictions == 1
        assert report.false_positive_evictions == 0
        assert report.restores >= 1
        # Confirmation is not free: the ladder waited in virtual time.
        assert report.detection_wait_time > 0.0
        np.testing.assert_allclose(app.model(), ref, atol=1e-8)

    def test_pagerank_survives_detected_death(self):
        rt0 = Runtime(PLACES, cost=CostModel.zero())
        base = PageRankNonResilient(rt0, PR_WL)
        base.run()
        rt = Runtime(PLACES, cost=COST, resilient=True)
        app = PageRankResilient(rt, PR_WL)
        rt.injector.kill_at_iteration(4, iteration=7)
        report = make_executor(rt, app).run()
        assert report.evictions == 1
        np.testing.assert_allclose(app.ranks(), base.ranks(), atol=1e-8)


class TestStragglers:
    def test_straggler_onset_causes_no_spurious_recovery(self):
        # The slowdown begins *after* the detector calibrated on healthy
        # heartbeat gaps — the hardest case for a φ-accrual detector.
        ref = reg_baseline()
        rt = Runtime(PLACES, cost=COST, resilient=True)
        app = LinRegResilient(rt, REG_WL)
        executor = make_executor(rt, app)
        rt.set_straggler(3, 8.0)
        report = executor.run()
        assert report.evictions == 0
        assert report.restores == 0
        assert report.transient_restores == 0
        # A straggler slows clocks, never results: bitwise identical.
        assert np.array_equal(app.model(), ref)

    def test_pre_calibrated_straggler_is_equally_harmless(self):
        rt = Runtime(PLACES, cost=COST, resilient=True)
        app = LinRegResilient(rt, REG_WL)
        rt.set_straggler(5, 8.0)
        report = make_executor(rt, app).run()
        assert report.evictions == 0 and report.restores == 0


class TestFalsePositive:
    def test_fenced_live_place_still_converges(self):
        # A permanent partition silently cuts place 2 off mid-run (after
        # the first checkpoint commits, around t=0.9 at this latency).
        # The place is alive but unreachable; the fail-safe confirms it
        # so the group can make progress.  That is a *false positive* —
        # and the run must still converge to the failure-free answer.
        ref = reg_baseline()
        rt = Runtime(PLACES, cost=COST, resilient=True)
        app = LinRegResilient(rt, REG_WL)
        cut = LinkPartition({2}, set(range(PLACES)) - {2}, 1.0, 1e9)
        rt.set_faults(TransientFaultModel(partitions=[cut]))
        report = make_executor(rt, app).run()
        assert report.evictions == 1
        assert report.false_positive_evictions == 1
        assert report.comm_timeouts >= 1
        np.testing.assert_allclose(app.model(), ref, atol=1e-8)


class TestTransientFaults:
    def test_lossy_network_converges_without_evictions(self):
        # 20% message loss — the acceptance bar: retransmission absorbs
        # every drop and the result matches the failure-free run.
        ref = reg_baseline()
        rt = Runtime(PLACES, cost=COST, resilient=True)
        app = LinRegResilient(rt, REG_WL)
        rt.set_faults(TransientFaultModel(drop_rate=0.2, seed=13))
        report = make_executor(rt, app).run()
        assert report.retransmissions > 0
        assert report.evictions == 0
        np.testing.assert_allclose(app.model(), ref, atol=1e-8)

    def test_healing_partition_clears_as_transient(self):
        # The partition outlasts the retry budget (CommTimeoutError) but
        # heals before the accrual window closes: every suspect is
        # cleared by a fresh heartbeat, membership is untouched, and the
        # failed attempt is simply retried.  Zero-cost network, so the
        # detector's deliberation is the only thing advancing the clock
        # past the heal point — exactly the chaos-campaign regime.
        ref = reg_baseline()
        rt = Runtime(PLACES, cost=CostModel.zero(), resilient=True)
        app = LinRegResilient(rt, REG_WL)
        cut = LinkPartition({2}, set(range(PLACES)) - {2}, 0.0, 0.5)
        rt.set_faults(TransientFaultModel(partitions=[cut]))
        report = make_executor(rt, app).run()
        assert report.comm_timeouts >= 1
        assert report.transient_restores >= 1
        assert report.evictions == 0
        np.testing.assert_allclose(app.model(), ref, atol=1e-8)


class TestDetectionLatencyKnob:
    @pytest.mark.parametrize("detect_timeout", [0.5, 2.0])
    def test_converges_across_timeouts(self, detect_timeout):
        ref = reg_baseline()
        rt = Runtime(PLACES, cost=COST, resilient=True)
        app = LinRegResilient(rt, REG_WL)
        rt.injector.kill_at_iteration(1, iteration=5)
        report = make_executor(rt, app, detect_timeout=detect_timeout).run()
        assert report.evictions >= 1
        np.testing.assert_allclose(app.model(), ref, atol=1e-8)
