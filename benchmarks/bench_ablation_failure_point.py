"""Ablation — where the failure lands between checkpoints.

With checkpoints every 10 iterations, a failure at iteration 11 loses one
iteration of work while a failure at iteration 19 loses nine — the rework
term of Young's trade-off.  This ablation sweeps the failure iteration
across one checkpoint period (PageRank at 24 places) and verifies the
total-runtime sawtooth: cost grows with the distance from the last
checkpoint and resets after the next one.
"""

from _common import emit, results_path
from repro.bench import figures
from repro.bench.calibration import pagerank_bench_workload, pagerank_cost
from repro.apps.resilient import PageRankResilient
from repro.engine.fork import capture_boundaries
from repro.resilience.executor import IterativeExecutor
from repro.runtime.factory import make_runtime

PLACES = 24
FAILURE_POINTS = [11, 13, 15, 17, 19, 21]  # 21 is just past the ckpt at 20


def run_sweep():
    """One failure-free reference run captured at the six failure points;
    each point resumes its own fork with the kill armed there."""
    with make_runtime(PLACES, cost=pagerank_cost(), resilient=True) as rt:
        app = PageRankResilient(rt, pagerank_bench_workload(30))
        images = capture_boundaries(
            IterativeExecutor(rt, app, checkpoint_interval=10), FAILURE_POINTS
        )
    totals = {}
    for iteration in FAILURE_POINTS:
        fork = images[iteration].load()
        with fork.runtime as rt:
            rt.injector.kill_at_iteration(PLACES // 2, iteration=iteration)
            totals[iteration] = fork.run().total_time
    return totals


def test_ablation_failure_point(benchmark):
    totals = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    lines = ["failure @ iter   total (s)   rework (iters past last ckpt)"]
    for it, total in totals.items():
        rework = it % 10
        lines.append(f"{it:14d}   {total:9.3f}   {rework}")
    csv = figures.write_csv(
        results_path("ablation_failure_point.csv"),
        FAILURE_POINTS,
        {"total_s": [totals[i] for i in FAILURE_POINTS]},
    )
    lines.append(f"series written to {csv}")
    emit(
        "Ablation — failure position within the checkpoint period (sawtooth)",
        "\n".join(lines),
    )

    # Monotone within the period: more iterations since the checkpoint →
    # more rework → longer total runtime.
    within = [totals[i] for i in (11, 13, 15, 17, 19)]
    assert all(a < b for a, b in zip(within, within[1:]))
    # The sawtooth resets after the next checkpoint: failing at 21 (1 iter
    # past the ckpt at 20) costs less than failing at 19 (9 iters past 10).
    assert totals[21] < totals[19]
