"""Call budget of the simulated-task path: the tier-1 stand-in for the
benchmark's ``py_calls_m``.

Every Python-level frame LinReg and PageRank execute is the repo's own (NumPy
and scipy's sparse routines run in C), so the counts are exact and independent
of library versions.  Calls are counted per code object (``callcount.py``):
dataclass-generated methods count too.
"""

import cProfile
import os

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
from tests.runtime.callcount import calls_by_code

#: LinReg: 2,948 calls / 1,100 tasks (2.68).  Dense kernels declare their
#: flops to the finish, a replica-uniform memo hit rebinds without an
#: ``adopt`` call, the matvec's routing makes no call per segment, and a timed
#: finish, collective and argument check cost no helper call; with helper
#: calls in the last three it was 3,398 (3.09), with per-task charges and
#: adopts 5.36.
MAX_CALLS_PER_TASK = 3
#: PageRank's SpMV loop: 1,647 calls / 300 tasks (5.49); 1,905 (6.35) with
#: helper calls on the timed finish, collective and argument-check paths.
#: Through scipy's operator stack (a cached handle per block, ``@`` and its
#: dispatch) it was 18.98.
MAX_PAGERANK_CALLS_PER_TASK = 6
#: A replica-uniform operation on coherent replicas: the task itself, and
#: nothing else at the places that take a memo hit — the arithmetic runs once
#: per finish, the finish charges the declared flops, the rebind and its
#: version token cost no frame (1,092 / 880 = 1.24; 1.35 with a helper-call
#: finish).  A per-task charge and ``adopt`` call made this 2.86; one array
#: per place and a Python ``next_version``, 5.31.
MAX_CALLS_PER_UNIFORM_TASK = 1.3


def test_linreg_python_calls_per_simulated_task():
    with make_runtime(20, cost=regression_cost(), resilient=True) as rt:
        app = LinRegNonResilient(rt, regression_bench_workload(5))
        tasks_before = rt.stats.tasks
        profile = cProfile.Profile(builtins=False)
        profile.runcall(app.run)
        tasks = rt.stats.tasks - tasks_before
    calls = sum(calls_by_code(profile).values())
    assert tasks == 1100
    assert calls / tasks <= MAX_CALLS_PER_TASK, f"{calls} calls / {tasks} tasks"


def test_pagerank_python_calls_per_simulated_task():
    with make_runtime(12, cost=pagerank_cost(), resilient=True) as rt:
        app = PageRankNonResilient(rt, pagerank_bench_workload(5))
        tasks_before = rt.stats.tasks
        profile = cProfile.Profile(builtins=False)
        profile.runcall(app.run)
        tasks = rt.stats.tasks - tasks_before
    counts = calls_by_code(profile)
    scipy_frames = [code for code in counts if f"{os.sep}scipy{os.sep}" in code.co_filename]
    assert not scipy_frames, scipy_frames[:5]
    calls = sum(counts.values())
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
    calls = sum(calls_by_code(profile).values())
    assert tasks == 880
    assert calls / tasks <= MAX_CALLS_PER_UNIFORM_TASK, f"{calls} calls / {tasks} tasks"
