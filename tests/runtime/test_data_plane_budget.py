"""Call budget of the data plane (checkpoint save / restore read): the tier-1
stand-in for the benchmark's ``py_calls_m`` on the snapshot stores, beside
``test_call_budget.py``'s budget for the simulated-task path.

The world is the chaos campaign's own (6 places, ``CostModel.zero()``, k = 2
spread replicas), so the counts are the ones a ``chaos_crash`` schedule pays;
the timed case runs the regression benchmarks' cost model instead.  Every
Python-level frame is the repo's own (NumPy runs in C): the counts are exact
and independent of library versions.  Restores are counted per ``locate``:
every read of a partition or of a piece of one goes through it.
"""

import cProfile

import pytest

from repro import chaos
from repro.bench.calibration import regression_cost
from repro.matrix.distvector import DistVector
from repro.resilience.iterative import RestoreContext
from repro.resilience.snapshot import DistObjectSnapshot
from repro.runtime.factory import make_runtime
from tests.runtime.callcount import calls_by_code

#: Counted per code object (``callcount.py``), dataclass ``__init__``s
#: included.  Steady checkpoint: 167 / 18 (9.28).
MAX_CALLS_PER_SAVED_PARTITION = 10
#: 237 / 20 (11.85); 382 / 20 (19.10) while a transfer and a finish cost a
#: helper call per step.
MAX_CALLS_PER_TIMED_SAVED_PARTITION = 13
#: Shrink: 588 / 34 (17.29); shrink-rebalance: 782 / 46 (17.00).  With
#: helper-call finishes and argument checks, 628 / 34 and 879 / 46.
MAX_CALLS_PER_SHRINK_LOCATE = 18
MAX_CALLS_PER_REBALANCE_LOCATE = 18


@pytest.fixture
def world():
    """The campaign's linreg world after its first checkpoint and two steps."""
    config = chaos.CampaignConfig(app="linreg", seed=1)
    rt, app, store, _ = config.spec.build()
    with rt:
        app.checkpoint(store)
        app.step()
        app.step()
        yield rt, app, store


def test_steady_checkpoint_calls_per_saved_partition(world):
    _, app, store = world
    profile = cProfile.Profile(builtins=False)
    profile.runcall(app.checkpoint, store)
    counts = calls_by_code(profile)
    saved = counts[DistObjectSnapshot.save_from.__code__]
    calls = sum(counts.values())
    # X and y are reused read-only; w, r and p are re-saved on all 6 places.
    assert saved == 18
    assert calls / saved <= MAX_CALLS_PER_SAVED_PARTITION, (
        f"{calls} calls / {saved} saved partitions"
    )


def test_timed_checkpoint_calls_per_saved_partition():
    """A save that charges memcpy, fan-out transfers, message wait and
    checksum: 20 places, each partition fanned out to one backup."""
    rt = make_runtime(20, cost=regression_cost(), resilient=True)
    x = DistVector.make(rt, 20_000).init_random(1)
    x.make_snapshot()
    profile = cProfile.Profile(builtins=False)
    profile.runcall(x.make_snapshot)
    counts = calls_by_code(profile)
    saved = counts[DistObjectSnapshot.save_from.__code__]
    calls = sum(counts.values())
    assert saved == 20
    assert calls / saved <= MAX_CALLS_PER_TIMED_SAVED_PARTITION, (
        f"{calls} calls / {saved} saved partitions"
    )


def _restore_calls(world, rebalance: bool):
    """``(calls, locates)`` of the restore after place 3 dies."""
    rt, app, store = world
    rt.kill(3)
    app.restore_context = RestoreContext(rebalance=rebalance)
    new_group = rt.live_group(app.places)
    profile = cProfile.Profile(builtins=False)
    profile.runcall(app.restore, new_group, store, store.latest_iteration)
    counts = calls_by_code(profile)
    return sum(counts.values()), counts[DistObjectSnapshot.locate.__code__]


def test_shrink_restore_calls_per_locate(world):
    calls, located = _restore_calls(world, rebalance=False)
    assert located == 34
    assert calls / located <= MAX_CALLS_PER_SHRINK_LOCATE, f"{calls} calls / {located} locates"


def test_shrink_rebalance_restore_calls_per_locate(world):
    """The regridded restore: every new block assembled from planned pieces."""
    calls, located = _restore_calls(world, rebalance=True)
    assert located == 46
    assert calls / located <= MAX_CALLS_PER_REBALANCE_LOCATE, f"{calls} calls / {located} locates"
