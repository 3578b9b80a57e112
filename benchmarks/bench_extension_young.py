"""Extension — empirical validation of Young's checkpoint interval (§V).

The paper cites Young's first-order optimum sqrt(2·T_ckpt·MTTF) for
choosing the checkpoint interval.  This benchmark validates it inside the
framework: measure the real checkpoint cost and iteration time of LogReg,
derive the optimal interval for a given MTTF, then run the application
under randomly injected exponential failures at the derived interval and
at a much shorter and a much longer one, comparing mean total runtime over
a fixed set of seeds.
"""

import numpy as np

from _common import emit
from repro.apps.data import RegressionWorkload
from repro.apps.resilient import LogRegResilient
from repro.bench.calibration import cluster_2015
from repro.resilience.executor import IterativeExecutor
from repro.resilience.young import optimal_interval_iterations
from repro.runtime import Runtime
from repro.runtime.failure import ExponentialFailureModel

PLACES = 6
WORKLOAD = RegressionWorkload(
    features=60, examples_per_place=400, iterations=60, blocks_per_place=2
)
SEEDS = range(24)


def measure_app_rates():
    rt = Runtime(PLACES, cost=cluster_2015(), resilient=True)
    app = LogRegResilient(rt, WORKLOAD)
    report = IterativeExecutor(rt, app, checkpoint_interval=10).run()
    t_iter = report.step_time / report.iterations_executed
    t_ckpt = report.checkpoint_durations[-1]  # steady state (read-only reused)
    return t_iter, t_ckpt


def mean_total_under_failures(interval: int, mttf: float, t_iter: float):
    totals = []
    for seed in SEEDS:
        rt = Runtime(PLACES, cost=cluster_2015(), resilient=True)
        app = LogRegResilient(rt, WORKLOAD)
        horizon = WORKLOAD.iterations * t_iter * 3
        for kill in ExponentialFailureModel(mttf, seed=seed).schedule(rt.world.ids, horizon):
            rt.injector.add(kill)  # the model draws each victim at most once
        try:
            report = IterativeExecutor(rt, app, checkpoint_interval=interval).run()
            totals.append(report.total_time)
        except Exception:
            continue  # unrecoverable seeds (adjacent double failure) skipped
    return float(np.mean(totals)), len(totals)


def run_validation():
    t_iter, t_ckpt = measure_app_rates()
    mttf = 300 * t_iter
    k_opt = optimal_interval_iterations(t_ckpt, mttf, t_iter)
    candidates = sorted({1, k_opt, 8 * k_opt})
    results = {k: mean_total_under_failures(k, mttf, t_iter) for k in candidates}
    return t_iter, t_ckpt, mttf, k_opt, results


def test_extension_young_interval(benchmark):
    t_iter, t_ckpt, mttf, k_opt, results = benchmark.pedantic(
        run_validation, rounds=1, iterations=1
    )
    lines = [
        f"measured: {t_iter * 1e3:.2f} ms/iteration, {t_ckpt * 1e3:.2f} ms/checkpoint",
        f"MTTF {mttf * 1e3:.1f} ms → Young-optimal interval = {k_opt} iterations",
        "",
        "mean total runtime under random exponential failures:",
    ]
    for interval, (mean_total, runs) in results.items():
        mark = "  ← Young" if interval == k_opt else ""
        lines.append(f"  interval {interval:3d}: {mean_total * 1e3:9.1f} ms over {runs} runs{mark}")
    emit("Extension — Young's checkpoint-interval formula, validated", "\n".join(lines))

    young_total = results[k_opt][0]
    # First-order optimum: never worse than the extremes by any margin, and
    # strictly better than constant checkpointing (interval 1).
    assert young_total < results[1][0]
    assert young_total <= min(m for m, _ in results.values()) * 1.02
