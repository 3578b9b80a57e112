"""One shared memo of failure-free reference answers.

Both verification paths need the same thing: the answer a non-resilient
run of the application produces on a zero-cost runtime, to compare a
recovered run against.  The chaos campaigns used to recompute it per
campaign (``repro.chaos._failure_free_result``) while the multi-job
service kept its own per-instance ``BaselineCache`` — so multi-stream
serves and back-to-back campaigns recomputed identical baselines.  This
module is the single memo behind both.

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

from typing import Callable, Dict, Tuple

import numpy as np

from repro.resilience.executor import NonResilientExecutor
from repro.runtime.cost import CostModel
from repro.runtime.factory import make_runtime

_memo: Dict[Tuple[str, int, str], np.ndarray] = {}
_time_memo: Dict[Tuple[type, object, CostModel, int], float] = {}


def failure_free_result(
    registry: Dict[str, Tuple[type, type, Callable, Callable]],
    app: str,
    places: int,
    iterations: int,
) -> np.ndarray:
    """The failure-free answer of *app* from *registry* at this shape.

    *registry* is an app table in the shared ``(non-resilient class,
    resilient class, workload factory, result accessor)`` convention —
    ``repro.chaos.CHAOS_APPS`` and ``repro.service.jobs.SERVICE_APPS``
    both qualify; their different workload factories key to different
    memo entries even for the same app name.
    """
    nonres_cls, _, wl_factory, result_of = registry[app]
    workload = wl_factory(iterations)
    key = (nonres_cls.__qualname__, places, repr(workload))
    cached = _memo.get(key)
    if cached is None:
        with make_runtime(places, cost=CostModel.zero()) as rt:
            instance = nonres_cls(rt, workload)
            NonResilientExecutor(rt, instance).run()
            cached = np.asarray(result_of(instance))
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
