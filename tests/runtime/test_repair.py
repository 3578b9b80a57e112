"""Pool repair: ``Runtime.revive`` returns killed places to service.

A revived place models an operator swapping the failed host: same id,
empty heap, clock at the current virtual time plus a startup round-trip.
The pool re-files it where it came from (free list or spare reserve), so
later restores and leases can use it again.
"""

import pytest

from repro.runtime import CostModel, Runtime
from repro.runtime.detector import PhiAccrualDetector
from repro.runtime.exceptions import DeadPlaceException
from repro.service.service import ClusterService, ServiceConfig


def make_rt(n=6, spares=0, **kw):
    return Runtime(n, cost=CostModel.zero(), resilient=True, spares=spares, **kw)


class TestReviveSemantics:
    def test_revive_restores_liveness_with_empty_heap(self):
        rt = make_rt(4)
        rt.heap_of(2).put("x", 1)
        rt.kill(2)
        with pytest.raises(DeadPlaceException):
            rt.heap_of(2)
        place = rt.revive(2)
        assert place.id == 2
        assert rt.is_alive(2)
        assert len(rt.heap_of(2)) == 0  # state died with the process
        assert rt.death_time(2) is None
        assert rt.stats.repairs == 1

    def test_revive_requires_a_dead_place(self):
        rt = make_rt(4)
        with pytest.raises(ValueError, match="dead place"):
            rt.revive(2)

    def test_revived_clock_charges_a_startup_roundtrip(self):
        rt = Runtime(4, cost=CostModel(latency=0.5), resilient=True)
        rt.kill(2)
        rt.finish_all(rt.live_group(rt.world), lambda ctx: None)
        t = rt.clock.global_time()
        rt.revive(2)
        assert rt.clock.now(2) >= t  # no time travel into the past

    def test_revived_place_schedules_work_again(self):
        rt = make_rt(4)
        rt.kill(2)
        rt.revive(2)
        hits = []
        rt.finish_all(rt.world, lambda ctx: hits.append(ctx.place.id))
        assert sorted(hits) == [0, 1, 2, 3]

    def test_double_death_and_repair(self):
        rt = make_rt(4)
        for _ in range(2):
            rt.kill(3)
            rt.revive(3)
        assert rt.is_alive(3)
        assert rt.stats.repairs == 2


class TestPoolRefiling:
    def test_free_place_returns_to_free(self):
        rt = make_rt(6)
        before = rt.pool.free_live
        rt.kill(4)
        assert rt.pool.free_live == before - 1
        rt.revive(4)
        assert rt.pool.free_live == before
        assert 4 in rt.pool._free_ids

    def test_dead_spare_returns_to_reserve(self):
        rt = make_rt(6, spares=2)
        spare_ids = set(rt.pool._reserve_ids)
        victim = sorted(spare_ids)[0]
        rt.kill(victim)
        assert rt.spares_remaining == 1
        rt.revive(victim)
        assert rt.spares_remaining == 2
        # And the revived spare is claimable.
        claimed = {rt.claim_spare().id, rt.claim_spare().id}
        assert claimed == spare_ids

    def test_leased_place_rejoins_free_at_release(self):
        rt = make_rt(6)
        lease = rt.pool.lease(size=3)
        victim = sorted(lease.member_ids - {lease.driver.id})[0]
        rt.kill(victim)
        rt.revive(victim)
        # Still leased: not in the free list until the lease ends.
        assert victim not in rt.pool._free_ids
        lease.release()
        assert victim in rt.pool._free_ids

    def test_detector_remonitors_revived_place(self):
        rt = make_rt(4)
        detector = PhiAccrualDetector(rt, detect_timeout=1.0)
        rt.detector = detector
        for pid in range(1, 4):
            detector.monitor(pid)
        rt.kill(2)
        rt.revive(2)
        assert 2 in detector.monitored()


class TestServiceRepair:
    def _config(self, mttr, seed=3):
        return ServiceConfig(
            places=10,
            n_jobs=12,
            seed=seed,
            crash_rate=0.08,
            pair_rate=0.02,
            repair_mttr=mttr,
        )

    def test_mttr_heals_killed_places(self):
        report = ClusterService(self._config(mttr=2.0)).run()
        assert report.total_kills > 0
        assert report.repaired_places > 0
        assert report.repaired_places <= report.total_kills

    def test_zero_mttr_disables_repair(self):
        report = ClusterService(self._config(mttr=0.0)).run()
        assert report.total_kills > 0
        assert report.repaired_places == 0

    def test_repair_is_deterministic(self):
        a = ClusterService(self._config(mttr=2.0)).run()
        b = ClusterService(self._config(mttr=2.0)).run()
        assert a.repaired_places == b.repaired_places
        assert a.to_dict() == b.to_dict()

    def test_negative_mttr_rejected(self):
        with pytest.raises(ValueError, match="repair_mttr"):
            self._config(mttr=-1.0)
