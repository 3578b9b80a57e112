"""Tests for the service layer: streams, admission, the event loop."""

import pytest

from repro.baseline import failure_free_result
from repro.bench.catalogue import APPS
from repro.runtime import CostModel, Runtime
from repro.service import (
    AdmissionController,
    ClusterService,
    JobQueue,
    JobSpec,
    ServiceConfig,
    generate_jobs,
    run_service,
)


class TestGenerateJobs:
    def test_deterministic(self):
        a = generate_jobs(10, seed=4, arrival_rate=1.0)
        b = generate_jobs(10, seed=4, arrival_rate=1.0)
        assert a == b

    def test_seed_changes_stream(self):
        a = generate_jobs(10, seed=4, arrival_rate=1.0)
        b = generate_jobs(10, seed=5, arrival_rate=1.0)
        assert a != b

    def test_bounds(self):
        jobs = generate_jobs(
            50, seed=1, arrival_rate=2.0, min_places=2, max_places=5,
            min_iterations=3, max_iterations=7,
        )
        assert len(jobs) == 50
        for job in jobs:
            assert 2 <= job.places <= 5
            assert 3 <= job.iterations <= 7
        arrivals = [j.arrival for j in jobs]
        assert arrivals == sorted(arrivals)
        assert all(t > 0 for t in arrivals)

    def test_zipf_favors_small_jobs(self):
        jobs = generate_jobs(200, seed=2, arrival_rate=1.0, min_places=2, max_places=6)
        small = sum(1 for j in jobs if j.places == 2)
        assert small > len(jobs) / 2  # heavy head of tiny tenants

    def test_mixed_apps(self):
        jobs = generate_jobs(60, seed=3, arrival_rate=1.0)
        assert {j.app for j in jobs} == {"linreg", "logreg", "pagerank", "gnmf"}

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            JobSpec(job_id=0, app="nope", places=2, iterations=4, arrival=0.0)
        with pytest.raises((ValueError, TypeError)):
            JobSpec(job_id=0, app="linreg", places=0, iterations=4, arrival=0.0)


class TestJobQueue:
    def _job(self, jid):
        return JobSpec(job_id=jid, app="linreg", places=2, iterations=4, arrival=0.0)

    def test_fifo(self):
        q = JobQueue()
        for jid in range(3):
            assert q.offer(self._job(jid))
        assert q.pop().job_id == 0
        assert q.head().job_id == 1
        assert len(q) == 2
        assert q.peak_depth == 3

    def test_bounded_rejects(self):
        q = JobQueue(max_depth=2)
        assert q.offer(self._job(0))
        assert q.offer(self._job(1))
        assert not q.offer(self._job(2))
        assert [j.job_id for j in q.rejected] == [2]
        assert len(q) == 2


class TestAdmission:
    def test_blocks_until_capacity(self):
        rt = Runtime(4, cost=CostModel.zero(), resilient=True)
        ctl = AdmissionController(rt.pool, economics="pooled")
        q = JobQueue()
        q.offer(JobSpec(job_id=0, app="linreg", places=4, iterations=4, arrival=0.0))
        assert ctl.pop_admissible(q) is None  # only 3 workers, place 0 excluded
        rt2 = Runtime(5, cost=CostModel.zero(), resilient=True)
        ctl2 = AdmissionController(rt2.pool, economics="pooled")
        job = ctl2.pop_admissible(q)
        assert job is not None and job.job_id == 0

    def test_fifo_head_of_line(self):
        rt = Runtime(4, cost=CostModel.zero(), resilient=True)
        ctl = AdmissionController(rt.pool, economics="pooled")
        q = JobQueue()
        q.offer(JobSpec(job_id=0, app="linreg", places=9, iterations=4, arrival=0.0))
        q.offer(JobSpec(job_id=1, app="linreg", places=2, iterations=4, arrival=0.0))
        # The small job must NOT jump the blocked head.
        assert ctl.pop_admissible(q) is None

    def test_dedicated_needs_reserve(self):
        rt = Runtime(6, cost=CostModel.zero(), resilient=True, spares=0)
        ctl = AdmissionController(rt.pool, economics="dedicated")
        q = JobQueue()
        q.offer(
            JobSpec(
                job_id=0, app="linreg", places=2, iterations=4, arrival=0.0,
                dedicated_spares=1,
            )
        )
        assert ctl.pop_admissible(q) is None  # no reserve to commit


class TestFailureFreeService:
    def test_all_jobs_complete_and_match_baselines(self):
        cfg = ServiceConfig(n_jobs=10, seed=11, arrival_rate=2.0)
        report = run_service(cfg)
        assert report.completed == 10
        assert report.cross_tenant_aborts == 0
        assert report.violations == []
        for job in report.jobs:
            assert job.status == "completed"
            assert job.result_ok is True
            assert job.latency >= 0
            assert job.finished >= job.admitted >= job.arrival

    def test_deterministic(self):
        cfg = ServiceConfig(n_jobs=8, seed=5, arrival_rate=1.5)
        assert run_service(cfg).to_dict() == run_service(cfg).to_dict()

    def test_queue_wait_under_load(self):
        # A small pool with fast arrivals must queue someone.
        cfg = ServiceConfig(
            places=5, reserve=0, n_jobs=12, seed=2, arrival_rate=50.0,
            min_places=3, max_places=4,
        )
        report = run_service(cfg)
        assert report.completed + report.rejected == 12
        assert any(j.queue_wait > 0 for j in report.jobs if j.status == "completed")
        assert report.mean_queue_wait > 0

    def test_metrics_populated(self):
        cfg = ServiceConfig(n_jobs=6, seed=7, arrival_rate=1.0)
        report = run_service(cfg)
        assert report.makespan > 0
        assert report.throughput > 0
        assert 0 < report.latency_p50 <= report.latency_p95 <= report.latency_p99
        d = report.to_dict()
        assert d["completed"] == 6
        assert d["cross_tenant_aborts"] == 0
        assert "service:" in report.summary()

    def test_jobs_overlap_in_virtual_time(self):
        # With concurrent capacity, distinct tenants must overlap: the
        # makespan is far below the sum of individual latencies.
        cfg = ServiceConfig(n_jobs=8, seed=3, arrival_rate=5.0)
        report = run_service(cfg)
        total_latency = sum(j.latency for j in report.jobs)
        assert report.makespan < total_latency + max(
            j.arrival for j in report.jobs
        )

    def test_zero_cost_profile(self):
        cfg = ServiceConfig(n_jobs=4, seed=1, arrival_rate=1.0, cost_profile="zero")
        report = run_service(cfg)
        assert report.completed == 4
        for job in report.jobs:
            assert job.result_ok is True

    @pytest.mark.parametrize("crash_rate", [0.0, 0.4])
    def test_finished_jobs_leave_nothing_in_live_heaps(self, crash_rate):
        """A released lease hands back empty places: after the stream no live
        heap holds a payload or a snapshot copy of any job, and while it runs
        no tenant starts on a place that still holds a predecessor's data."""
        cfg = ServiceConfig(
            n_jobs=40, seed=3, arrival_rate=2.0, places=17, reserve=4,
            economics="pooled", crash_rate=crash_rate, repair_mttr=5.0,
        )
        service = ClusterService(cfg)
        inherited = []
        lease = service.pool.lease

        def lease_and_look(*args, **kwargs):
            made = lease(*args, **kwargs)
            inherited.extend(
                len(service.runtime.heap_of(place.id)) for place in made.members
            )
            return made

        service.pool.lease = lease_and_look
        report = service.run()
        assert report.completed >= 30 and report.violations == []
        assert inherited and not any(inherited)
        assert [len(heap._store) for heap in service.runtime._heaps.values()] == [0] * 21

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(economics="imaginary")
        with pytest.raises(ValueError):
            ServiceConfig(places=5, max_places=6)
        with pytest.raises(ValueError):
            ServiceConfig(apps=("linreg", "nope"))
        # CG jobs reconstruct by default, which parity placement cannot
        # serve: rejected here rather than at the first CG admission.
        with pytest.raises(ValueError, match="parity placement applies"):
            ServiceConfig(n_jobs=6, apps=("cg",), placement="parity:2", replicas=1,
                          cost_profile="zero")
        with pytest.raises(ValueError, match="recovery must be one of"):
            ServiceConfig(apps=("cg",), cg_recovery="rewind")
        # Without a CG job, or with CG rolling back, the pair is servable.
        ServiceConfig(apps=("linreg",), placement="parity:2", replicas=1)
        ServiceConfig(apps=("cg",), placement="parity:2", replicas=1,
                      cg_recovery="checkpoint")


class TestBaselineCache:
    """The failure-free answers a job is judged against: the process-wide
    memo of ``repro.baseline``, read by the service and the campaigns alike."""

    def test_memoizes(self):
        a = failure_free_result(APPS["linreg"], 3, 5)
        b = failure_free_result(APPS["linreg"], 3, 5)
        assert a is b  # same array object: computed once

    def test_distinct_shapes_distinct_results(self):
        a = failure_free_result(APPS["pagerank"], 2, 5)
        b = failure_free_result(APPS["pagerank"], 3, 5)
        assert a.shape != b.shape or (a != b).any()


class TestServiceCampaign:
    def test_campaign_aggregates(self):
        from repro.chaos import run_service_campaign

        cfg = ServiceConfig(n_jobs=4, seed=0, arrival_rate=1.5)
        result = run_service_campaign(cfg, streams=2)
        assert len(result.streams) == 2
        assert result.cross_tenant_aborts == 0
        assert result.violations == []
        assert result.counts()["completed"] == 8
        assert "service campaign" in result.summary()

    def test_parallel_streams_bitwise_identical(self):
        from repro.chaos import run_service_campaign

        cfg = ServiceConfig(
            n_jobs=4, seed=0, arrival_rate=1.5, crash_rate=0.5, pair_rate=0.05
        )
        serial = run_service_campaign(cfg, streams=2)
        parallel = run_service_campaign(cfg, streams=2, jobs=2)
        assert serial.streams == parallel.streams
        assert serial.violations == parallel.violations
