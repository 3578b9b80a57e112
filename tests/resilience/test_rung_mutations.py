"""Every rung of the recovery ladder must be shown to matter.

Each case replaces one rung method of :class:`IterativeExecutor` with a
plausible bug, runs a 100-schedule chaos campaign serially, and records
which invariant (numbered as in :func:`repro.chaos.run_schedule`) fired.
A plant no invariant catches is asserted as such — a documented finding,
never a reason to weaken an invariant.  Each mutant counts its own calls,
so a finding cannot come from a rung the campaign never reached.
"""

from collections import Counter

import pytest

from repro.chaos import CampaignConfig, run_campaign
from repro.resilience.executor import IterativeExecutor

#: One wording per invariant a mutant can trip.
INVARIANTS = {
    "converged result deviates": 1,
    "rollback(s) without a recorded reconstruct fallback": 6,
    "burst pattern within redundancy": 7,
    "fired kills within redundancy produced no reconstruction": 7,
    "covered burst lost iterations anyway": 7,
    "single-loss-per-group parity schedule lost data": 8,
}


def _fired(result) -> Counter:
    """Violations per invariant number (``None``: a wording not listed)."""
    return Counter(
        next((n for text, n in INVARIANTS.items() if text in v), None)
        for o in result.outcomes
        for v in o.violations
    )


@pytest.fixture
def plant(monkeypatch):
    """Replace rung *name* with *mutant*; returns the mutant's call count."""
    calls = Counter()

    def install(name, mutant):
        def counted(self, *args):
            calls[name] += 1
            return mutant(self, *args)

        monkeypatch.setattr(IterativeExecutor, name, counted)
        return calls

    return install


def _campaign(**kwargs):
    return run_campaign(CampaignConfig(schedules=100, **kwargs), jobs=1)


def test_rollback_one_iteration_behind(plant):
    """(a) Rollback hands ``restore`` an iteration one behind the snapshot
    it restores, so the application re-runs one step it already has."""
    rollback = IterativeExecutor._rollback

    def one_behind(self, failure):
        restore = self.app.restore
        self.app.restore = lambda group, store, it: restore(group, store, it - 1)
        try:
            return rollback(self, failure)
        finally:
            del self.app.restore

    calls = plant("_rollback", one_behind)
    # Finding: on linreg nothing fires.  Its tiny workload (8 features, 10
    # CG iterations) has converged before any kill lands, so one extra CG
    # step leaves the answer inside invariant 1's tolerance, and no other
    # invariant sees the application's iteration counter.
    linreg = _campaign(app="linreg")
    assert calls["_rollback"] > 100 and not _fired(linreg)
    # Where the iteration still moves the answer, invariant 1 catches it.
    for app in ("logreg", "pagerank"):
        fired = _fired(_campaign(app=app))
        assert set(fired) == {1} and fired[1] >= 50, (app, fired)


def test_rollback_without_scrub(plant):
    """(b) A replace-mode rollback skips the scrub, so lost primaries and
    parity blocks stay lost until the next checkpoint supersedes them.

    Caught by invariant 8 — but in one schedule of 3,000 (seeds 0-29 of
    this configuration): a second single-place burst must hit the same
    parity recovery set inside the window before the next checkpoint.
    """
    calls = plant("_scrub", lambda self, group: True)
    result = _campaign(app="linreg", seed=14, placement="parity:2", replicas=1, spares=2)
    assert calls["_scrub"] > 0
    assert _fired(result) == {8: 1}


def test_reconstruct_always_declines(plant):
    """(c) The reconstruct rung declines every failure without recording
    the fallback: every recovery silently becomes a rollback."""
    calls = plant("_reconstruct", lambda self, failure: False)
    fired = _fired(_campaign(app="cg", places=8, spares=6, recovery="reconstruct"))
    assert calls["_reconstruct"] > 0
    assert set(fired) == {6, 7} and fired[6] >= 50 and fired[7] >= 30, fired


def test_transient_checkpoint_retry_declines(plant):
    """(d) A purely transient fault inside a checkpoint falls through to
    reconstruct / rollback instead of retrying the checkpoint.

    Finding: no invariant catches it, and none should — rolling back to
    the last commit is correct, only dearer.  On the partition campaign
    the rung never even runs (no partition cut a checkpoint in 1,000
    schedules, seeds 0-9); a lossy network reaches it.
    """
    calls = plant("_retry_checkpoint", lambda self, failure: False)
    partition = _campaign(app="linreg", detect_timeout=0.5, partition_rate=0.3)
    assert calls["_retry_checkpoint"] == 0 and not _fired(partition)
    lossy = _campaign(app="linreg", drop_rate=0.2, dup_rate=0.05, detect_timeout=1.0)
    assert calls["_retry_checkpoint"] > 0 and not _fired(lossy)
