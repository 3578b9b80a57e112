"""One shared memo of failure-free reference answers.

Both verification paths — the chaos campaigns and the multi-job service —
need the same thing: the answer a non-resilient run of the application
produces on a zero-cost runtime, to compare a recovered run against.  This
module is the single memo behind both, so multi-stream serves and
back-to-back campaigns compute each distinct baseline once.

Results depend only on the non-resilient class, the workload parameters
and the group size — never on the cost model, on failures, or on which
concrete place ids ran the job — so the memo key is exactly that triple.
Workloads are frozen dataclasses, so their ``repr`` is a canonical,
process-stable description of every data-generation parameter.

Cached arrays are frozen (``writeable=False``): every caller compares
against the baseline, nobody may mutate the shared copy.

The sweeps need the other failure-free reference: the *virtual time* the
non-resilient application takes on a non-resilient runtime — the
"non-resilient finish" side of Figs. 2-4 and the "non-resilient (no
failure)" line of Figs. 5-7, which are the same run.  That one does depend
on the cost model, so :func:`failure_free_time` keys on (non-resilient
class, workload, cost model, places) — frozen dataclasses compared by
value, so a changed calibration can never hit a stale entry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from repro.resilience.executor import NonResilientExecutor
from repro.runtime.cost import CostModel
from repro.runtime.factory import make_runtime

if TYPE_CHECKING:  # the catalogue's package imports this module
    from repro.bench.catalogue import AppEntry

_memo: Dict[Tuple[str, int, str], np.ndarray] = {}
_time_memo: Dict[Tuple[type, object, CostModel, int], float] = {}


def failure_free_result(entry: "AppEntry", places: int, iterations: int) -> np.ndarray:
    """The failure-free answer of one catalogue *entry* at this shape, on
    its tiny workload."""
    workload = entry.tiny_workload(iterations)
    key = (entry.nonresilient.__qualname__, places, repr(workload))
    cached = _memo.get(key)
    if cached is None:
        with make_runtime(places, cost=CostModel.zero()) as rt:
            instance = entry.nonresilient(rt, workload)
            NonResilientExecutor(rt, instance).run()
            cached = np.asarray(entry.result(instance))
        cached.setflags(write=False)
        _memo[key] = cached
    return cached


def failure_free_time(
    nonres_cls: type, workload: object, cost: CostModel, places: int
) -> float:
    """Virtual seconds of the failure-free non-resilient run at this shape:
    *nonres_cls* over *workload*, run to completion on a non-resilient
    runtime of *places* places charging *cost*."""
    key = (nonres_cls, workload, cost, places)
    total = _time_memo.get(key)
    if total is None:
        with make_runtime(places, cost=cost, resilient=False) as rt:
            app = nonres_cls(rt, workload)
            t0 = rt.now()
            app.run()
            total = _time_memo[key] = rt.now() - t0
    return total


def clear() -> None:
    """Drop every memoized baseline (test isolation)."""
    _memo.clear()
    _time_memo.clear()
