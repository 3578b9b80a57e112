"""Unit tests for the φ-accrual heartbeat failure detector."""

import pytest

from repro.runtime.cost import CostModel
from repro.runtime.detector import (
    PHI_SUSPECT,
    RESOLVE_WAIT_TIMEOUTS,
    PhiAccrualDetector,
    PlaceHealth,
)
from repro.runtime.failure import LinkPartition, TransientFaultModel
from repro.runtime.runtime import Runtime

PLACES = 4


def make_rt(**kwargs):
    return Runtime(PLACES, cost=CostModel.zero(), resilient=True, **kwargs)


class TestConfiguration:
    def test_interval_defaults_to_a_tenth_of_the_timeout(self):
        det = PhiAccrualDetector(make_rt(), detect_timeout=2.0)
        assert det.heartbeat_interval == pytest.approx(0.2)

    def test_invalid_parameters_rejected(self):
        rt = make_rt()
        with pytest.raises(ValueError, match="detect_timeout"):
            PhiAccrualDetector(rt, detect_timeout=0.0)
        with pytest.raises(ValueError, match="heartbeat_interval"):
            PhiAccrualDetector(rt, detect_timeout=1.0, heartbeat_interval=-0.1)

    def test_monitors_every_place_except_zero(self):
        det = PhiAccrualDetector(make_rt(), detect_timeout=1.0)
        assert det.monitored() == list(range(1, PLACES))

    def test_elastically_added_place_is_monitored(self):
        rt = make_rt()
        det = PhiAccrualDetector(rt, detect_timeout=1.0)
        rt.attach_detector(det)
        new_place = rt.add_place()
        assert new_place.id in det.monitored()


class TestSuspicionLadder:
    def test_healthy_place_stays_alive(self):
        rt = make_rt()
        det = PhiAccrualDetector(rt, detect_timeout=1.0)
        rt.clock.advance(0, 5.0)
        for pid in det.monitored():
            assert det.state(pid) is PlaceHealth.ALIVE
            assert det.phi(pid) < PHI_SUSPECT  # heard from within the last gap

    def test_dead_place_is_confirmed_and_swept_once(self):
        rt = make_rt()
        det = PhiAccrualDetector(rt, detect_timeout=1.0)
        rt.kill(2)
        rt.clock.advance(0, 3.0)
        assert det.state(2) is PlaceHealth.CONFIRMED_DEAD
        assert det.sweep() == [2]
        assert det.sweep() == []  # reported exactly once

    def test_confirmation_is_sticky_after_a_partition_heals(self):
        rt = make_rt()
        # Place 1 is cut off long enough to be confirmed, then heals.
        faults = TransientFaultModel(
            partitions=[LinkPartition({1}, set(range(PLACES)) - {1}, 0.0, 1.5)]
        )
        rt.set_faults(faults)
        det = PhiAccrualDetector(rt, detect_timeout=1.0)
        rt.clock.advance(0, 1.4)
        assert det.state(1) is PlaceHealth.CONFIRMED_DEAD
        rt.clock.advance(0, 2.0)  # heartbeats flow again — too late
        assert det.state(1) is PlaceHealth.CONFIRMED_DEAD

    def test_pre_calibrated_straggler_never_suspected(self):
        rt = make_rt()
        rt.set_straggler(3, 8.0)
        det = PhiAccrualDetector(rt, detect_timeout=1.0)
        rt.clock.advance(0, 10.0)
        assert det.state(3) is PlaceHealth.ALIVE

    def test_straggler_onset_absorbed_at_default_ratio(self):
        # The slowdown begins after the detector calibrated on healthy
        # gaps: φ rises toward SUSPECTED but must never reach confirmation
        # (an 8x straggler is not a failure at the default timeout).
        rt = make_rt()
        det = PhiAccrualDetector(rt, detect_timeout=1.0)
        rt.set_straggler(3, 8.0)
        for _ in range(100):
            rt.clock.advance(0, 0.05)
            assert det.state(3) is not PlaceHealth.CONFIRMED_DEAD

    def test_lost_heartbeats_raise_suspicion(self):
        levels = []
        for faults in (None, TransientFaultModel(drop_rate=0.5, seed=11)):
            rt = make_rt()
            rt.set_faults(faults)
            det = PhiAccrualDetector(rt, detect_timeout=1.0)
            rt.clock.advance(0, 5.0)
            levels.append(det.suspicion_levels())
        lossless, lossy = levels
        assert all(lossy[pid] >= lossless[pid] for pid in lossless)
        assert lossy != lossless


class TestResolve:
    def test_dead_place_confirmed_within_the_wait_budget(self):
        rt = make_rt()
        det = PhiAccrualDetector(rt, detect_timeout=1.0)
        rt.kill(1)
        confirmed, cleared, waited = det.resolve([1])
        assert confirmed == [1]
        assert cleared == []
        budget = RESOLVE_WAIT_TIMEOUTS * det.detect_timeout
        assert 0.0 < waited <= budget + det.heartbeat_interval

    def test_transient_suspect_cleared_by_fresh_heartbeat(self):
        rt = make_rt()
        faults = TransientFaultModel(
            partitions=[LinkPartition({2}, set(range(PLACES)) - {2}, 0.0, 0.35)]
        )
        rt.set_faults(faults)
        det = PhiAccrualDetector(rt, detect_timeout=1.0)
        rt.clock.advance(0, 0.5)
        confirmed, cleared, waited = det.resolve([2])
        assert confirmed == []
        assert cleared == [2]
        assert waited < RESOLVE_WAIT_TIMEOUTS * det.detect_timeout

    def test_unmonitored_place_zero_is_vacuously_alive(self):
        rt = make_rt()
        det = PhiAccrualDetector(rt, detect_timeout=1.0)
        confirmed, cleared, _ = det.resolve([0])
        assert confirmed == []
        assert cleared == [0]

    def test_fail_safe_confirms_a_silent_but_live_place(self):
        # A partition that outlasts the resolve budget: the place is alive
        # but unreachable; the group fences it rather than hanging.
        rt = make_rt()
        faults = TransientFaultModel(
            partitions=[LinkPartition({2}, set(range(PLACES)) - {2}, 0.0, 1e9)]
        )
        rt.set_faults(faults)
        det = PhiAccrualDetector(rt, detect_timeout=1.0)
        rt.clock.advance(0, 0.5)
        confirmed, cleared, waited = det.resolve([2])
        assert confirmed == [2]
        assert cleared == []
        assert rt.is_alive(2)  # fenced, not actually dead
        assert waited >= det.heartbeat_interval

    def test_mixed_verdicts(self):
        rt = make_rt()
        det = PhiAccrualDetector(rt, detect_timeout=1.0)
        rt.clock.advance(0, 0.5)
        rt.kill(1)
        confirmed, cleared, _ = det.resolve([1, 2])
        assert confirmed == [1]
        assert cleared == [2]
