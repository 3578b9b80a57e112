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


#: Zipf exponent of the job-size draw: most tenants are small, a few big.
ZIPF_A = 2.2
#: The stream's fixed shape: the narrowest job, and the closed range its
#: iteration budgets are drawn from (a config sets only the widest job).
MIN_PLACES = 2
MIN_ITERATIONS = 4
MAX_ITERATIONS = 12
#: Reserve places each job commits up-front under ``dedicated`` economics.
DEDICATED_SPARES = 1


@dataclass(frozen=True)
class JobSpec:
    """One admitted-or-queued unit of work."""

    job_id: int
    app: str
    places: int
    iterations: int
    arrival: float

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
    max_places: int = 6,
) -> List[JobSpec]:
    """A seeded stream of *n* mixed jobs.

    Sizes follow ``MIN_PLACES + (Zipf(ZIPF_A) - 1)`` clipped to
    *max_places*; iteration budgets are uniform over ``MIN_ITERATIONS ..
    MAX_ITERATIONS``; inter-arrival gaps are exponential with mean
    ``1 / arrival_rate`` (virtual seconds).  Pure in ``(seed, n, knobs)``;
    the knobs are a :class:`~repro.service.ServiceConfig`'s, judged when it
    was made.
    """
    rng = np.random.default_rng([seed, 9001])
    jobs: List[JobSpec] = []
    t = 0.0
    for job_id in range(n):
        t += float(rng.exponential(1.0 / arrival_rate))
        size = MIN_PLACES + int(rng.zipf(ZIPF_A)) - 1
        size = min(size, max_places)
        jobs.append(
            JobSpec(
                job_id=job_id,
                app=str(rng.choice(list(apps))),
                places=size,
                iterations=int(rng.integers(MIN_ITERATIONS, MAX_ITERATIONS + 1)),
                arrival=t,
            )
        )
    return jobs
