"""Reproduce the paper's evaluation in one run (scaled-down axis).

Runs every experiment of §VII — the Figs. 2-4 overhead sweeps, Table II's
lines-of-code comparison, Table III's checkpoint times, and the Figs. 5-7 /
Table IV restore protocol — on a reduced place axis so the whole thing
finishes in about a minute, and prints paper-style summaries.  The full
44-place axis with assertions lives in ``benchmarks/``.

Run:  python examples/reproduce_paper.py
"""

import inspect

from repro.bench import figures
from repro.bench.harness import (
    run_checkpoint_sweep,
    run_overhead_sweep,
    run_restore_sweep,
    table4_from_reports,
)
from repro.util.loc import count_loc, loc_of_object

AXIS = [2, 8, 16, 24]
TOP = 24  # the largest place count of this scaled-down run


def banner(text: str) -> None:
    print("\n" + "=" * 72 + f"\n{text}\n" + "=" * 72)


# -- Figures 2-4: resilient X10 overhead -------------------------------------
for fig, app in (("Figure 2", "linreg"), ("Figure 3", "logreg"), ("Figure 4", "pagerank")):
    series = run_overhead_sweep(app, places_list=AXIS, iterations=10)
    banner(f"{fig} — {app}: time per iteration (ms), resilient vs non-resilient X10")
    print(figures.series_table(series.places, series.values, header_unit="ms/iteration"))
    nonres = series.values["non-resilient finish"][-1]
    res = series.values["resilient finish"][-1]
    print(f"resilient overhead @ {TOP} places: {100 * (res - nonres) / nonres:.0f}%")

# -- Table II: lines of code ----------------------------------------------------
from repro.apps.nonresilient import linreg as nr_lin, logreg as nr_log, pagerank as nr_pr
from repro.apps.resilient import (
    LinRegResilient,
    LogRegResilient,
    PageRankResilient,
)

banner("Table II — lines of code, non-resilient vs resilient")
# A resilient app subclasses its non-resilient program: "res" counts both modules.
print(f"{'app':<10s} {'non-res':>8s} {'res':>6s} {'ckpt':>5s} {'restore':>8s}")
for name, module, cls in (
    ("LinReg", nr_lin, LinRegResilient),
    ("LogReg", nr_log, LogRegResilient),
    ("PageRank", nr_pr, PageRankResilient),
):
    nonres = count_loc(inspect.getsource(module))
    added = count_loc(inspect.getsource(inspect.getmodule(cls)))
    print(
        f"{name:<10s} {nonres:>8d} {nonres + added:>6d} "
        f"{loc_of_object(cls.checkpoint):>5d} {loc_of_object(cls.restore):>8d}"
    )

# -- Table III: checkpoint times ----------------------------------------------
banner("Table III — mean time per checkpoint (ms), 3 checkpoints per run")
values = {}
for app in ("linreg", "logreg", "pagerank"):
    sweep = run_checkpoint_sweep(app, places_list=AXIS, iterations=30)
    values[app] = sweep.values["mean checkpoint (ms)"]
print(figures.series_table(AXIS, values, header_unit="ms/checkpoint"))

# -- Figures 5-7 + Table IV: restore protocol ----------------------------------
for fig, app in (("Figure 5", "linreg"), ("Figure 6", "logreg"), ("Figure 7", "pagerank")):
    out = run_restore_sweep(app, places_list=AXIS, iterations=30)
    series = out["series"]
    banner(
        f"{fig} — {app}: total runtime (s), 30 iterations, failure @ 15, "
        "checkpoints every 10"
    )
    print(figures.series_table(series.places, series.values, value_format="{:10.2f}"))
    t4 = table4_from_reports(out["reports"], places=TOP)
    print(f"\nTable IV slice @ {TOP} places:")
    for mode, row in t4.items():
        print(f"  {mode:<20s} C% {row['C%']:5.1f}   R% {row['R%']:5.1f}")

print("\nDone. Full-axis runs with paper-vs-measured assertions:")
print("  pytest benchmarks/ --benchmark-only")
