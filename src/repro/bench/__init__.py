"""Benchmark harness regenerating the paper's evaluation.

* :mod:`repro.bench.calibration` — the cost-model rates, how they were
  fixed from the paper's measured points, the physical→logical scales and
  the paper's headline targets;
* :mod:`repro.bench.catalogue` — the one table of applications every
  harness reads;
* :mod:`repro.bench.harness` — the Figs. 2-7 / Tables III-IV sweep
  protocols;
* :mod:`repro.bench.figures` — plain-text/CSV renderers.
"""

from repro.bench.calibration import (
    PaperTargets,
    cluster_2015,
    pagerank_bench_workload,
    pagerank_cost,
    places_axis,
    regression_bench_workload,
    regression_cost,
)
from repro.bench.harness import (
    SweepSeries,
    run_checkpoint_sweep,
    run_overhead_sweep,
    run_restore_sweep,
    table4_from_reports,
)
from repro.bench.timeline import profile_finishes, render_profile, render_timeline

__all__ = [
    "PaperTargets",
    "cluster_2015",
    "pagerank_bench_workload",
    "pagerank_cost",
    "places_axis",
    "regression_bench_workload",
    "regression_cost",
    "SweepSeries",
    "run_checkpoint_sweep",
    "run_overhead_sweep",
    "run_restore_sweep",
    "table4_from_reports",
    "profile_finishes",
    "render_profile",
    "render_timeline",
]
