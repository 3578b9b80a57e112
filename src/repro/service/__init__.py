"""Multi-job service layer: shared place pool, admission, spare economics.

Builds the ISSUE-6 tentpole on top of :mod:`repro.runtime.pool`: a
:class:`ClusterService` admits a seeded stream of mixed iterative jobs
(linreg / logreg / pagerank / gnmf) against one shared :class:`PlacePool`,
carving a :class:`~repro.runtime.pool.PlaceLease` per tenant, scoping
failures per lease, and settling replacement places from the shared spare
reserve under configurable economics.
"""

from repro.service.admission import AdmissionController, JobQueue
from repro.service.faults import PoolFaultEvent, ServiceFaultPlan
from repro.service.jobs import (
    JobResult,
    JobSpec,
    generate_jobs,
)
from repro.service.service import (
    ClusterService,
    ServiceConfig,
    ServiceReport,
    full_width_on_common_jobs,
    run_service,
    survival_on_common_jobs,
)

__all__ = [
    "AdmissionController",
    "ClusterService",
    "JobQueue",
    "JobResult",
    "JobSpec",
    "PoolFaultEvent",
    "ServiceConfig",
    "ServiceFaultPlan",
    "ServiceReport",
    "full_width_on_common_jobs",
    "generate_jobs",
    "run_service",
    "survival_on_common_jobs",
]
