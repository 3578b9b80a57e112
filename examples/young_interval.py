"""Choosing the checkpoint interval with Young's formula.

The paper cites Young's first-order optimum, sqrt(2 * T_ckpt * MTTF), for
balancing checkpoint overhead against post-failure rework.  This example
measures the framework's actual checkpoint cost and time per iteration for
the LogReg benchmark, derives the optimal interval for a range of MTTFs,
and then *validates* the choice empirically: it runs the application under
randomly injected failures with the derived interval vs. a much shorter
and a much longer one, comparing total virtual runtime.

Run:  python examples/young_interval.py
"""

import numpy as np

from repro import Runtime
from repro.apps import LogRegResilient, RegressionWorkload
from repro.bench.calibration import cluster_2015
from repro.resilience import IterativeExecutor, optimal_interval_iterations
from repro.runtime.failure import ExponentialFailureModel

workload = RegressionWorkload(
    features=60, examples_per_place=400, iterations=60, blocks_per_place=2
)
PLACES = 6

# -- measure the app's checkpoint cost and iteration time once -------------
probe_rt = Runtime(PLACES, cost=cluster_2015(), resilient=True)
probe = LogRegResilient(probe_rt, workload)
report = IterativeExecutor(probe_rt, probe, checkpoint_interval=10).run()
t_iter = report.step_time / report.iterations_executed
t_ckpt = report.checkpoint_durations[-1]  # steady-state (read-only reused)
print(f"measured: {t_iter * 1e3:.2f} ms/iteration, {t_ckpt * 1e3:.2f} ms/checkpoint")

for mttf in (50 * t_iter, 200 * t_iter, 1000 * t_iter):
    k = optimal_interval_iterations(t_ckpt, mttf, t_iter)
    print(f"MTTF {mttf * 1e3:8.1f} ms → Young-optimal interval: every {k} iterations")

# -- validate empirically under random failures ------------------------------
mttf = 300 * t_iter
k_opt = optimal_interval_iterations(t_ckpt, mttf, t_iter)
candidates = sorted({1, k_opt, 50})
print(f"\nvalidating intervals {candidates} under MTTF = {mttf * 1e3:.1f} ms (20 seeds):")
for interval in candidates:
    totals = []
    for seed in range(20):
        rt = Runtime(PLACES, cost=cluster_2015(), resilient=True)
        app = LogRegResilient(rt, workload)
        horizon = workload.iterations * t_iter * 3
        for kill in ExponentialFailureModel(mttf, seed=seed).schedule(
            rt.world.ids, horizon
        ):
            rt.injector.add(kill)  # the model draws each victim at most once
        try:
            rep = IterativeExecutor(rt, app, checkpoint_interval=interval).run()
            totals.append(rep.total_time)
        except Exception:
            continue  # e.g. adjacent double failure: unrecoverable seed
    label = " (Young)" if interval == k_opt else ""
    print(
        f"  interval {interval:3d}{label:8s}: mean total "
        f"{np.mean(totals) * 1e3:8.1f} ms over {len(totals)} runs"
    )
