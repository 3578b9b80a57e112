"""Call budget of the simulated-task path: the tier-1 stand-in for the
benchmark's ``py_calls_m``.

Every Python-level frame LinReg and PageRank execute is the repo's own (NumPy
and scipy's sparse routines run in C), so the counts are exact and independent
of library versions.
"""

import cProfile
import os
import pstats

from repro.apps.nonresilient.linreg import LinRegNonResilient
from repro.apps.nonresilient.pagerank import PageRankNonResilient
from repro.bench.calibration import (
    pagerank_bench_workload,
    pagerank_cost,
    regression_bench_workload,
    regression_cost,
)
from repro.matrix.dupvector import DupVector
from repro.runtime.factory import make_runtime

#: LinReg: 3,443 calls / 1,100 tasks (3.13).  Dense kernels declare their
#: flops to the finish (no charge call per task), a replica-uniform memo hit
#: rebinds without an ``adopt`` call and the matvec's routing makes no call
#: per segment; with all three per-task it was 5,892 / 1,100 (5.36).
MAX_CALLS_PER_TASK = 4
#: PageRank's SpMV loop: 2,223 calls / 300 tasks (7.41); 2,789 (9.30) with
#: the per-task charge of its duplicated-vector updates.  Through scipy's
#: operator stack (a cached handle per block, ``@`` and its dispatch) it was
#: 5,695 / 300 (18.98), 2,209 of them scipy's frames.
MAX_PAGERANK_CALLS_PER_TASK = 8
#: A replica-uniform operation on coherent replicas: the task itself, and
#: nothing else at the places that take a memo hit — the arithmetic runs once
#: per finish, the finish charges the declared flops, the rebind and its
#: version token cost no frame (1.38).  A per-task charge and ``adopt`` call
#: made this 2.86; one array per place and a Python ``next_version``, 5.31.
MAX_CALLS_PER_UNIFORM_TASK = 1.5


def test_linreg_python_calls_per_simulated_task():
    with make_runtime(20, cost=regression_cost(), resilient=True) as rt:
        app = LinRegNonResilient(rt, regression_bench_workload(5))
        tasks_before = rt.stats.tasks
        profile = cProfile.Profile(builtins=False)
        profile.runcall(app.run)
        tasks = rt.stats.tasks - tasks_before
    calls = pstats.Stats(profile).total_calls
    assert tasks == 1100
    assert calls / tasks <= MAX_CALLS_PER_TASK, f"{calls} calls / {tasks} tasks"


def test_pagerank_python_calls_per_simulated_task():
    with make_runtime(12, cost=pagerank_cost(), resilient=True) as rt:
        app = PageRankNonResilient(rt, pagerank_bench_workload(5))
        tasks_before = rt.stats.tasks
        profile = cProfile.Profile(builtins=False)
        profile.runcall(app.run)
        tasks = rt.stats.tasks - tasks_before
    stats = pstats.Stats(profile)
    scipy_frames = [key for key in stats.stats if f"{os.sep}scipy{os.sep}" in key[0]]
    assert not scipy_frames, scipy_frames[:5]
    calls = stats.total_calls
    assert tasks == 300
    assert calls / tasks <= MAX_PAGERANK_CALLS_PER_TASK, f"{calls} calls / {tasks} tasks"


def test_duplicated_vector_python_calls_per_simulated_task():
    with make_runtime(44, cost=regression_cost(), resilient=True) as rt:
        x = DupVector.make(rt, 100).init(1.0)
        y = DupVector.make(rt, 100).init(2.0)
        tasks_before = rt.stats.tasks

        def ten_pairs():
            for _ in range(10):
                y.axpy(0.5, x)
                y.dot(x)

        profile = cProfile.Profile(builtins=False)
        profile.runcall(ten_pairs)
        tasks = rt.stats.tasks - tasks_before
    calls = pstats.Stats(profile).total_calls
    assert tasks == 880
    assert calls / tasks <= MAX_CALLS_PER_UNIFORM_TASK, f"{calls} calls / {tasks} tasks"
