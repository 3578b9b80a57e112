"""Ablation — block-by-block vs repartitioned restore (Fig. 1-b vs 1-c).

The paper's central data-layout decision (PAPER.md §1, item 2):
keeping the data grid allows whole-block restores but unbalances load;
recalculating it balances load but forces overlap-region sub-block copies
(with an extra non-zero counting pass for sparse blocks).  This ablation
isolates the *restore operation itself* — snapshot once, then restore the
same DistBlockMatrix under both policies — for dense and sparse payloads.
"""

from _common import emit, results_path
from repro.bench import figures
from repro.bench.calibration import pagerank_cost, regression_cost
from repro.matrix.distblock import DistBlockMatrix
from repro.matrix.random import LinkMatrix
from repro.runtime import Runtime

PLACES = 24
M = 24_000  # rows (dense case); graph order (sparse case)


def one_restore(kind: str, regrid: bool) -> dict:
    cost = regression_cost() if kind == "dense" else pagerank_cost()
    rt = Runtime(PLACES, cost=cost, resilient=True)
    if kind == "dense":
        g = DistBlockMatrix.make_dense(rt, M, 100, PLACES * 2, 1).init_random(3)
    else:
        g = DistBlockMatrix.make_sparse(rt, M, M, PLACES * 2, 1)
        g.init_link_matrix(LinkMatrix(M, 20, seed=3))
    snap = g.make_snapshot()
    rt.kill(PLACES // 2)
    survivors = rt.live_world()
    new_grid = (
        DistBlockMatrix.default_regrid(g.m, g.n, g.grid.num_col_blocks, survivors.size)
        if regrid
        else None
    )
    g.remake(survivors, new_grid=new_grid)
    t0 = rt.now()
    g.restore_snapshot(snap)
    restore_s = rt.now() - t0
    loads = g.blocks_per_place()
    return {
        "restore_s": restore_s,
        "imbalance": max(loads) / max(1, min(loads)),
    }


def run_ablation():
    results = {}
    for kind in ("dense", "sparse"):
        for regrid in (False, True):
            label = f"{kind}/{'regrid' if regrid else 'keep-grid'}"
            results[label] = one_restore(kind, regrid)
    return results


def test_ablation_keep_grid_vs_regrid(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    lines = ["policy                restore(s)   block imbalance (max/min)"]
    for label, r in results.items():
        lines.append(f"{label:<22s} {r['restore_s']:9.3f}   {r['imbalance']:6.2f}")
    rows = list(results)
    csv = figures.write_csv(
        results_path("ablation_regrid.csv"),
        list(range(len(rows))),
        {
            "restore_s": [results[r]["restore_s"] for r in rows],
            "imbalance": [results[r]["imbalance"] for r in rows],
        },
    )
    lines.append(f"series written to {csv}")
    emit("Ablation — keep-grid (Fig. 1-b) vs regrid (Fig. 1-c) restore", "\n".join(lines))

    for kind in ("dense", "sparse"):
        keep = results[f"{kind}/keep-grid"]
        regrid = results[f"{kind}/regrid"]
        # The trade the paper describes: regridding costs more restore time
        # but achieves (weakly) better block balance.
        assert regrid["restore_s"] > keep["restore_s"]
        assert regrid["imbalance"] <= keep["imbalance"]
