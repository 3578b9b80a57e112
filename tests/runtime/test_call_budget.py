"""Call budget of the simulated-task path: the tier-1 stand-in for the
benchmark's ``py_calls_m``.

Every Python-level frame LinReg executes is the repo's own (NumPy runs in C),
so the count is exact and independent of library versions.
"""

import cProfile
import pstats

from repro.apps.nonresilient.linreg import LinRegNonResilient
from repro.bench.calibration import regression_bench_workload, regression_cost
from repro.runtime.factory import make_runtime

MAX_CALLS_PER_TASK = 12


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
