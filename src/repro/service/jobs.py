"""Job specifications and the mixed-workload stream.

A *job* is one iterative application (linreg / logreg / pagerank / gnmf)
at a given place count and iteration budget.  The stream generator draws
job sizes from a Zipf distribution (many small tenants, a heavy tail of
big ones — the shape shared clusters actually see) and arrival times from
a Poisson process, all deterministically from the service seed.

Jobs run the catalogue's tiny workloads, like the chaos campaigns: a
service run executes dozens of full jobs and what matters is scheduling,
recovery and confinement — per-iteration numerics are already covered
elsewhere.  Every catalogue app can be a tenant; CG rides along as the
checkpoint-free one: ``ServiceConfig`` opts it into the stream (the default
apps tuple leaves it out, so existing seeded streams stay bit-identical)
and runs it under ``recovery="reconstruct"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.bench.catalogue import APPS
from repro.util.validation import check_positive, require


@dataclass(frozen=True)
class JobSpec:
    """One admitted-or-queued unit of work."""

    job_id: int
    app: str
    places: int
    iterations: int
    arrival: float
    checkpoint_interval: int = 3
    #: Reserve places committed up-front under ``dedicated`` economics.
    dedicated_spares: int = 1

    def __post_init__(self) -> None:
        require(self.app in APPS, f"unknown app {self.app!r}")
        check_positive(self.places, "places")
        check_positive(self.iterations, "iterations")
        require(self.arrival >= 0, "arrival must be >= 0")


@dataclass
class JobResult:
    """Outcome and per-job metrics of one stream entry."""

    job_id: int
    app: str
    places: int
    #: "completed" | "data-loss" | "rejected" | "aborted"
    status: str
    arrival: float
    admitted: float = 0.0
    finished: float = 0.0
    queue_wait: float = 0.0
    latency: float = 0.0
    restores: int = 0
    #: Checkpoint-free recoveries (CG under ``recovery="reconstruct"``).
    reconstructions: int = 0
    failures_observed: int = 0
    spares_claimed: int = 0
    borrows: int = 0
    #: Place count at completion (< ``places`` when recovery shrank).
    final_places: int = 0
    #: Ids killed while this job was the active tenant.
    kills_during_run: List[int] = field(default_factory=list)
    #: True when the converged answer matched the failure-free baseline.
    result_ok: Optional[bool] = None
    detail: str = ""

    @property
    def survived(self) -> bool:
        return self.status == "completed"


def generate_jobs(
    n: int,
    seed: int,
    arrival_rate: float,
    apps: Tuple[str, ...] = ("linreg", "logreg", "pagerank", "gnmf"),
    min_places: int = 2,
    max_places: int = 6,
    min_iterations: int = 4,
    max_iterations: int = 12,
    checkpoint_interval: int = 3,
    zipf_a: float = 2.2,
    dedicated_spares: int = 1,
) -> List[JobSpec]:
    """A seeded stream of *n* mixed jobs.

    Sizes follow ``min_places + (Zipf(a) - 1)`` clipped to *max_places*;
    inter-arrival gaps are exponential with mean ``1 / arrival_rate``
    (virtual seconds).  Pure in ``(seed, n, knobs)``.
    """
    check_positive(n, "n")
    require(arrival_rate > 0, "arrival_rate must be > 0")
    require(min_places >= 1, "min_places must be >= 1")
    require(max_places >= min_places, "max_places must be >= min_places")
    for app in apps:
        require(app in APPS, f"unknown app {app!r}")
    rng = np.random.default_rng([seed, 9001])
    jobs: List[JobSpec] = []
    t = 0.0
    for job_id in range(n):
        t += float(rng.exponential(1.0 / arrival_rate))
        size = min_places + int(rng.zipf(zipf_a)) - 1
        size = min(size, max_places)
        jobs.append(
            JobSpec(
                job_id=job_id,
                app=str(rng.choice(list(apps))),
                places=size,
                iterations=int(rng.integers(min_iterations, max_iterations + 1)),
                arrival=t,
                checkpoint_interval=checkpoint_interval,
                dedicated_spares=dedicated_spares,
            )
        )
    return jobs
