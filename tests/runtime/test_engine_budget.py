"""Call budget of the engine's timed event path: a resilient finish, a
transfer and a collective, under the regression benchmarks' cost model.

The tier-1 stand-in for the benchmark's ``py_calls_m`` on ``service_stream``,
beside ``test_call_budget.py`` (the task path) and
``test_data_plane_budget.py`` (the snapshot data plane).  Calls are counted
per code object (``callcount.py``), so dataclass-generated ``__init__``s
(``MessageFate``, ``TransferEvent``) count.  Every event is measured after one
warm-up event, so the cost model's memos and the route table are filled.
"""

import cProfile

from repro.bench.calibration import regression_cost
from repro.runtime.comm import tree_allreduce
from repro.runtime.failure import TransientFaultModel
from repro.runtime.factory import make_runtime
from tests.runtime.callcount import calls_by_code

#: finish_all, _finish, complete_finish and PlaceZeroLedger.process: 4 (a
#: ledger drain, a stall record, two message-time helpers and a per-finish
#: report record beyond them made it 10).
MAX_CALLS_PER_TIMED_FINISH = 4
#: Scheduler.transfer and the route's acquire: 2 (two dead checks, a link
#: lookup, a one-attempt helper, a message-time helper and the arrival's two
#: calls beyond them made it 9).
MAX_CALLS_PER_RELIABLE_TRANSFER = 2
#: ... plus the fate draw and its MessageFate: 4 (a partition scan over no
#: partitions, and its generator, made it 13).
MAX_CALLS_PER_LOSSY_TRANSFER = 4
#: tree_allreduce, then per half (reduce, broadcast): the collective, the
#: group liveness check, zero_fast, the finish phase, complete_finish and the
#: ledger drain — 13 (44 with helper calls for the per-call constants,
#: comprehensions and a per-finish report record).
MAX_CALLS_PER_ALLREDUCE = 13

EVENTS = 20


def _world(**kwargs):
    return make_runtime(20, cost=regression_cost(), resilient=True, **kwargs)


def _profiled(event):
    """``(calls by code object, total)`` of *EVENTS* calls of *event*, less
    the test's own frames (the driving loop and *event* itself)."""
    event()  # warm-up

    def drive():
        for _ in range(EVENTS):
            event()

    profile = cProfile.Profile(builtins=False)
    profile.runcall(drive)
    calls = calls_by_code(profile)
    del calls[drive.__code__], calls[event.__code__]
    return calls, sum(calls.values())


def test_timed_resilient_finish_calls_per_finish():
    def body(ctx):
        return None

    with _world() as rt:
        calls, total = _profiled(lambda: rt.finish_all(rt.world, body, label="budget"))
        assert calls[body.__code__] == 20 * EVENTS
        per_finish = (total - calls[body.__code__]) / EVENTS
    assert per_finish <= MAX_CALLS_PER_TIMED_FINISH, f"{per_finish} calls per finish"


def test_reliable_transfer_calls_per_transfer():
    with _world() as rt:
        engine, times = rt.engine, rt.clock._times
        _, total = _profiled(lambda: engine.transfer(1, 2, 800.0, times[1]))
    per_transfer = total / EVENTS
    assert per_transfer <= MAX_CALLS_PER_RELIABLE_TRANSFER, f"{per_transfer} calls per transfer"


def test_lossy_transfer_delivered_first_time_calls_per_transfer():
    # Delays only: every attempt is delivered, none is duplicated.
    faults = TransientFaultModel(delay_rate=0.5, delay_seconds=1e-5, seed=3)
    with _world(faults=faults) as rt:
        engine, times = rt.engine, rt.clock._times
        _, total = _profiled(lambda: engine.transfer(1, 2, 800.0, times[1]))
        assert faults.retransmissions == faults.dropped == faults.duplicates == 0
    per_transfer = total / EVENTS
    assert per_transfer <= MAX_CALLS_PER_LOSSY_TRANSFER, f"{per_transfer} calls per transfer"


def test_tree_allreduce_calls_per_collective():
    with _world() as rt:
        _, total = _profiled(lambda: tree_allreduce(rt, rt.world, 800.0, reduce_flops=100.0))
    per_allreduce = total / EVENTS
    assert per_allreduce <= MAX_CALLS_PER_ALLREDUCE, f"{per_allreduce} calls per allreduce"
