"""Table II — lines of code: non-resilient vs resilient applications.

The paper's productivity claim: adding resilience to a GML application
costs only a few tens of lines — a ``checkpoint`` method (~7-11 LOC), a
``restore`` method (~10-20 LOC) and an ``isFinished`` (3 LOC).  We count
our own application sources with the same convention (non-blank,
non-comment lines).  Each resilient app subclasses its non-resilient
program, so the non-resilient total is the base module, the resilient
total is the base module plus the subclass module, and what resilience
adds is exactly the subclass module.
"""

import inspect

from _common import emit
from repro.apps.nonresilient import (
    LinRegNonResilient,
    LogRegNonResilient,
    PageRankNonResilient,
)
from repro.apps.resilient import LinRegResilient, LogRegResilient, PageRankResilient
from repro.util.loc import AppLocRow, count_loc, loc_of_object, loc_report

PAPER_TABLE2 = {
    # app: (nonres total, res total, checkpoint LOC, restore LOC)
    "LinReg": (66, 96, 10, 16),
    "LogReg": (166, 222, 11, 20),
    "PageRank": (72, 94, 7, 10),
}

APPS = [
    ("LinReg", LinRegNonResilient, LinRegResilient),
    ("LogReg", LogRegNonResilient, LogRegResilient),
    ("PageRank", PageRankNonResilient, PageRankResilient),
]


def _module_loc(cls) -> int:
    return count_loc(inspect.getsource(inspect.getmodule(cls)))


def measure_rows():
    rows = []
    for name, nonres_cls, res_cls in APPS:
        nonres_total = _module_loc(nonres_cls)
        rows.append(
            AppLocRow(
                application=name,
                nonresilient_total=nonres_total,
                resilient_total=nonres_total + _module_loc(res_cls),
                checkpoint_loc=loc_of_object(res_cls.checkpoint),
                restore_loc=loc_of_object(res_cls.restore),
            )
        )
    return rows


def test_table2_loc(benchmark):
    rows = benchmark.pedantic(measure_rows, rounds=1, iterations=1)
    lines = [loc_report(rows), "", "paper's Table II for comparison:"]
    for app, (nt, rt, c, r) in PAPER_TABLE2.items():
        lines.append(f"  {app:<9s} non-res {nt:4d}  res {rt:4d}  checkpoint {c:3d}  restore {r:3d}")
    emit("Table II — lines of code, non-resilient vs resilient", "\n".join(lines))

    for row in rows:
        # The paper's claim: resilience adds a modest amount of code —
        # tens of lines, concentrated in checkpoint/restore.
        added = row.resilient_total - row.nonresilient_total
        assert 0 < added < 100
        assert row.checkpoint_loc <= 15
        assert row.restore_loc <= 30
        # isFinished is 3 LOC in the paper; ours is comparable (LinReg's
        # carries the optional convergence-tolerance check the paper's
        # description of isFinished mentions).
        res_cls = {a[0]: a[2] for a in APPS}[row.application]
        assert loc_of_object(res_cls.is_finished) <= 6
