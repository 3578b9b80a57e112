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
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.resilience.executor import NonResilientExecutor
from repro.runtime.cost import CostModel
from repro.runtime.factory import make_runtime

_memo: Dict[Tuple[str, int, str], np.ndarray] = {}


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


def clear() -> None:
    """Drop every memoized baseline (test isolation)."""
    _memo.clear()
