"""Multi-tenant chaos: blast-radius confinement and spare economics.

The acceptance campaign for ISSUE 6 lives here: a seeded mixed-workload
stream under independent crashes, adjacent-pair bursts, and transient
faults must finish with zero cross-tenant aborts, every admitted job
either completing with the failure-free answer or dying a scoped death,
and pooled spares surviving the same kill schedules as dedicated ones
with strictly fewer reserve places.
"""

import dataclasses

import pytest

from repro.runtime.failure import LeaseScopedInjector, ScriptedKill
from repro.service import (
    ClusterService,
    ServiceConfig,
    ServiceFaultPlan,
    run_service,
    survival_on_common_jobs,
)


def chaos_config(**overrides):
    base = dict(
        n_jobs=15,
        seed=42,
        arrival_rate=1.5,
        crash_rate=0.6,
        pair_rate=0.05,
        economics="pooled",
    )
    base.update(overrides)
    return ServiceConfig(**base)


class TestConfinement:
    def test_zero_cross_tenant_aborts_under_chaos(self):
        report = run_service(chaos_config())
        assert report.cross_tenant_aborts == 0
        assert report.violations == []
        # The chaos actually happened.
        assert report.total_kills > 0
        assert any(j.kills_during_run for j in report.jobs)

    def test_every_job_has_scoped_outcome(self):
        report = run_service(chaos_config(seed=7))
        assert len(report.jobs) == 15
        for job in report.jobs:
            assert job.status in ("completed", "data-loss", "rejected")
            if job.status == "completed":
                assert job.result_ok is True

    def test_kills_confined_to_own_lease(self):
        svc = ClusterService(chaos_config(seed=9))
        report = svc.run()
        assert report.violations == []
        for job in report.jobs:
            if job.status == "rejected":
                continue
            lease_ids = svc._lease_ever_ids(job.job_id)
            for pid in job.kills_during_run:
                assert pid in lease_ids, (
                    f"job {job.job_id} saw place {pid} die outside its lease"
                )

    def test_recovered_jobs_match_failure_free_baseline(self):
        report = run_service(chaos_config(seed=13))
        recovered = [
            j for j in report.jobs if j.status == "completed" and j.restores > 0
        ]
        assert recovered, "chaos produced no recovered job at this seed"
        for job in recovered:
            assert job.result_ok is True

    def test_transient_faults_do_not_break_invariants(self):
        report = run_service(
            chaos_config(seed=21, drop_rate=0.02, dup_rate=0.01)
        )
        assert report.cross_tenant_aborts == 0
        assert report.violations == []

    def test_rack_bursts_confined(self):
        report = run_service(chaos_config(seed=5, pair_rate=0.0, rack_rate=0.02))
        assert report.cross_tenant_aborts == 0
        assert report.violations == []

    def test_detector_mode_confined(self):
        report = run_service(chaos_config(seed=3, detect_timeout=0.5))
        assert report.cross_tenant_aborts == 0
        assert report.violations == []


class TestScopedInjector:
    def _lease(self, n=6, spares=0):
        from repro.runtime import CostModel, Runtime

        rt = Runtime(n, cost=CostModel.zero(), resilient=True, spares=spares)
        return rt, rt.pool.lease(size=3)

    def test_rejects_foreign_victim(self):
        rt, lease = self._lease()
        foreign = max(rt.all_place_ids())
        assert foreign not in lease.member_ids
        with pytest.raises(ValueError):
            LeaseScopedInjector(rt, lease, [ScriptedKill(place_id=foreign, iteration=1)])

    def test_rejects_lease_driver(self):
        rt, lease = self._lease()
        with pytest.raises(ValueError):
            LeaseScopedInjector(
                rt, lease, [ScriptedKill(place_id=lease.driver.id, iteration=1)]
            )

    def test_accepts_member_victim(self):
        rt, lease = self._lease()
        victim = sorted(lease.member_ids - {lease.driver.id})[0]
        inj = LeaseScopedInjector(rt, lease, [ScriptedKill(place_id=victim, iteration=1)])
        assert inj.due_at_iteration(1) == [victim]

    def test_timed_kill_uses_driver_local_clock(self):
        rt, lease = self._lease()
        victim = sorted(lease.member_ids - {lease.driver.id})[0]
        inj = LeaseScopedInjector(rt, lease, [ScriptedKill(place_id=victim, time=5.0)])
        # Another tenant's clock races ahead; ours hasn't reached t=5.
        other = max(rt.all_place_ids())
        rt.clock.advance(other, 100.0)
        assert inj.due_at_phase("step", rt.clock.global_time()) == []
        rt.clock.advance(lease.driver.id, 6.0)
        assert inj.due_at_phase("step", rt.clock.global_time()) == [victim]


class TestStraddlingEvents:
    def test_straddling_kills_split_by_lease(self):
        from repro.runtime import CostModel, Runtime

        rt = Runtime(9, cost=CostModel.zero(), resilient=True)
        a = rt.pool.lease(size=3)  # places 1..3
        b = rt.pool.lease(size=3)  # places 4..6
        plan = ServiceFaultPlan(
            seed=0, total_places=9, horizon=10.0, pair_rate=0.2
        )
        for event in plan.pool_events:
            in_a = [v for v in event.victims if a.owns(v)]
            in_b = [v for v in event.victims if b.owns(v)]
            kills_a = {
                k.place_id for k in plan.straddling_kills(a, now=0.0)
                if k.time == event.time
            }
            kills_b = {
                k.place_id for k in plan.straddling_kills(b, now=0.0)
                if k.time == event.time
            }
            for v in in_a:
                assert (v in kills_a) == (v != a.driver.id)
                assert v not in kills_b
            for v in in_b:
                assert (v in kills_b) == (v != b.driver.id)
                assert v not in kills_a

    def test_past_events_not_replayed(self):
        from repro.runtime import CostModel, Runtime

        rt = Runtime(9, cost=CostModel.zero(), resilient=True)
        lease = rt.pool.lease(size=5)
        plan = ServiceFaultPlan(seed=1, total_places=9, horizon=50.0, pair_rate=0.2)
        events = plan.pool_events
        assert len(events) >= 2
        cutoff = events[0].time + 1e-9
        kills = plan.straddling_kills(lease, now=cutoff)
        assert all(k.time >= cutoff for k in kills)

    def test_plan_deterministic(self):
        a = ServiceFaultPlan(seed=3, total_places=12, horizon=30.0, pair_rate=0.1,
                             rack_rate=0.05)
        b = ServiceFaultPlan(seed=3, total_places=12, horizon=30.0, pair_rate=0.1,
                             rack_rate=0.05)
        assert a.pool_events == b.pool_events


class TestSpareEconomics:
    def test_pooled_survives_like_dedicated_with_smaller_reserve(self):
        """The reserve-economics headline: pooled needs fewer places.

        Per-job kill schedules are identical across modes, so survival is
        compared on the jobs admitted in *both* runs — dedicated economics
        rejects jobs once the reserve is committed, and must not look
        safer merely for having skipped the hard schedules.
        """
        kwargs = dict(n_jobs=12, seed=42, arrival_rate=1.5, crash_rate=0.6,
                      pair_rate=0.03)
        dedicated = run_service(
            ServiceConfig(economics="dedicated", reserve=4, **kwargs)
        )
        pooled = run_service(
            ServiceConfig(economics="pooled", reserve=2, **kwargs)
        )
        assert dedicated.cross_tenant_aborts == 0
        assert pooled.cross_tenant_aborts == 0
        assert pooled.reserve_size < dedicated.reserve_size
        surv_ded, surv_pool = survival_on_common_jobs(dedicated, pooled)
        assert surv_pool >= surv_ded
        # And the pooled run admitted at least as much of the stream.
        assert pooled.admitted >= dedicated.admitted

    def test_borrow_mode_survives_dry_reserve(self):
        report = run_service(
            chaos_config(seed=17, economics="borrow", reserve=0, crash_rate=0.8)
        )
        assert report.cross_tenant_aborts == 0
        assert report.violations == []
        assert report.borrows > 0

    def test_peak_reserve_occupancy_bounded(self):
        report = run_service(chaos_config(seed=42))
        assert 0 <= report.reserve_peak_claimed <= report.reserve_size
        assert 0.0 <= report.reserve_mean_occupancy <= 1.0


class TestAcceptanceCampaign:
    """The ISSUE-6 acceptance bar, scaled for the unit suite (the CI
    ``service-smoke`` job runs the full 50-job stream)."""

    def test_mixed_stream_full_chaos(self):
        cfg = ServiceConfig(
            n_jobs=25,
            seed=2026,
            arrival_rate=1.2,
            crash_rate=0.5,
            pair_rate=0.04,
            drop_rate=0.01,
            dup_rate=0.005,
            economics="pooled",
        )
        report = run_service(cfg)
        assert report.cross_tenant_aborts == 0
        assert report.violations == []
        statuses = {j.status for j in report.jobs}
        assert statuses <= {"completed", "data-loss", "rejected"}
        assert report.completed >= 0.6 * cfg.n_jobs
        # Determinism of the whole campaign.
        assert run_service(cfg).to_dict() == report.to_dict()
