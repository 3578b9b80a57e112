"""Call budget of the data plane (checkpoint save / restore fetch): the tier-1
stand-in for the benchmark's ``py_calls_m`` on the snapshot stores, beside
``test_call_budget.py``'s budget for the simulated-task path.

The world is the chaos campaign's own (6 places, ``CostModel.zero()``, k = 2
spread replicas), so the counts are the ones a ``chaos_crash`` schedule pays.
Every Python-level frame is the repo's own (NumPy runs in C): the counts are
exact and independent of library versions.
"""

import cProfile
import pstats

import pytest

from repro import chaos
from repro.resilience.iterative import RestoreContext
from repro.resilience.snapshot import DistObjectSnapshot

MAX_CALLS_PER_SAVED_PARTITION = 24
MAX_CALLS_PER_FETCH = 45


def _calls(profile: cProfile.Profile, method) -> int:
    """Primitive call count of one function in a finished profile."""
    code = method.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    return pstats.Stats(profile).stats[key][0]


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
    saved = _calls(profile, DistObjectSnapshot.save_from)
    calls = pstats.Stats(profile).total_calls
    # X and y are reused read-only; w, r and p are re-saved on all 6 places.
    assert saved == 18
    assert calls / saved <= MAX_CALLS_PER_SAVED_PARTITION, (
        f"{calls} calls / {saved} saved partitions"
    )


def test_shrink_restore_calls_per_fetch(world):
    rt, app, store = world
    rt.kill(3)
    app.restore_context = RestoreContext(rebalance=False)
    new_group = rt.live_group(app.places)
    profile = cProfile.Profile(builtins=False)
    profile.runcall(app.restore, new_group, store, store.latest_iteration)
    fetches = _calls(profile, DistObjectSnapshot.fetch)
    calls = pstats.Stats(profile).total_calls
    assert fetches == 34
    assert calls / fetches <= MAX_CALLS_PER_FETCH, f"{calls} calls / {fetches} fetches"
