"""The application catalogue: one entry per app, read by field name.

Everything a harness needs to know about an application to build, run and
judge it is declared here once — the sweeps (``repro.bench.harness``), the
CLI's ``run``, the chaos campaigns (``repro.chaos``) and the multi-job
service (``repro.service``) all look the app up by name and read the
fields they need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.apps.data import (
    CGWorkload,
    GnmfWorkload,
    PageRankWorkload,
    RegressionWorkload,
)
from repro.apps.nonresilient import (
    CGNonResilient,
    GnmfNonResilient,
    LinRegNonResilient,
    LogRegNonResilient,
    PageRankNonResilient,
)
from repro.apps.resilient import (
    CGResilient,
    GnmfResilient,
    LinRegResilient,
    LogRegResilient,
    PageRankResilient,
)
from repro.bench import calibration


@dataclass(frozen=True)
class AppEntry:
    """What the harnesses know about one application."""

    nonresilient: type
    resilient: type
    #: ``result(app)`` → the converged answer as an array, the quantity a
    #: recovered run is compared with the failure-free run on.
    result: Callable
    #: ``bench_workload(iterations)`` → the physical workload the paper's
    #: sweeps and ``repro run`` simulate, charged at ``bench_cost()``.
    bench_workload: Callable
    bench_cost: Callable
    #: ``tiny_workload(iterations)`` → a deliberately minuscule workload: a
    #: campaign or a service stream runs hundreds of full failure/recovery
    #: cycles and only scheduling, recovery and correctness matter there.
    tiny_workload: Callable


def _tiny_regression(iterations: int) -> RegressionWorkload:
    return RegressionWorkload(
        features=8, examples_per_place=32, blocks_per_place=2, iterations=iterations
    )


def _tiny_pagerank(iterations: int) -> PageRankWorkload:
    return PageRankWorkload(
        nodes_per_place=18, out_degree=3, blocks_per_place=2, iterations=iterations
    )


def _tiny_gnmf(iterations: int) -> GnmfWorkload:
    return GnmfWorkload(
        rows_per_place=24,
        cols=12,
        rank=4,
        density=0.2,
        blocks_per_place=2,
        iterations=iterations,
    )


def _tiny_cg(iterations: int) -> CGWorkload:
    return CGWorkload(rows_per_place=24, stride=7, iterations=iterations)


APPS: Dict[str, AppEntry] = {
    "linreg": AppEntry(
        nonresilient=LinRegNonResilient,
        resilient=LinRegResilient,
        result=lambda app: app.model(),
        bench_workload=calibration.regression_bench_workload,
        bench_cost=calibration.regression_cost,
        tiny_workload=_tiny_regression,
    ),
    "logreg": AppEntry(
        nonresilient=LogRegNonResilient,
        resilient=LogRegResilient,
        result=lambda app: app.model(),
        bench_workload=calibration.regression_bench_workload,
        bench_cost=calibration.regression_cost,
        tiny_workload=_tiny_regression,
    ),
    "pagerank": AppEntry(
        nonresilient=PageRankNonResilient,
        resilient=PageRankResilient,
        result=lambda app: app.ranks(),
        bench_workload=calibration.pagerank_bench_workload,
        bench_cost=calibration.pagerank_cost,
        tiny_workload=_tiny_pagerank,
    ),
    # Extension application (not in the paper's evaluation).
    "gnmf": AppEntry(
        nonresilient=GnmfNonResilient,
        resilient=GnmfResilient,
        result=lambda app: app.factors()[0],
        bench_workload=calibration.gnmf_bench_workload,
        bench_cost=calibration.gnmf_cost,
        tiny_workload=_tiny_gnmf,
    ),
    # Extension application: ABFT PCG, the checkpoint-free recovery app.
    "cg": AppEntry(
        nonresilient=CGNonResilient,
        resilient=CGResilient,
        result=lambda app: app.solution(),
        bench_workload=calibration.cg_bench_workload,
        bench_cost=calibration.cg_cost,
        tiny_workload=_tiny_cg,
    ),
}

#: The apps ``repro chaos`` campaigns; ``run`` and ``serve`` take every entry.
CHAOS_APP_NAMES: Tuple[str, ...] = ("cg", "linreg", "logreg", "pagerank")
