"""Seeded chaos campaigns: hundreds of randomized failure schedules.

The acceptance bar from the tiered-store PR: >= 200 seeded schedules per
app across two apps with zero recovery-invariant violations.  Each
schedule randomizes victims, triggers (iteration / phase / mid-checkpoint
/ mid-restore / correlated bursts), restore mode and checkpoint mode; the
campaign runner asserts, per schedule, that

* a converged run matches the failure-free result,
* every restore rolled back to a committed checkpoint iteration,
* the store holds no half-committed snapshot afterwards,
* no surviving replica co-resides with its primary, and
* ``DataLossError`` never escapes a store with the stable-storage tier.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.baseline import failure_free_result
from repro.bench.catalogue import APPS, CHAOS_APP_NAMES
from repro.chaos import (
    CampaignConfig,
    PrefixCache,
    dedupe_schedule,
    make_schedule,
    run_campaign,
    run_schedule,
    schedule_spec,
)
from repro.resilience.executor import IterativeExecutor
from repro.runtime.failure import ScriptedKill

SCHEDULES = 200


def _assert_clean(result):
    assert result.violations == [], "\n".join(
        f"#{o.index} [{o.kills}] {o.detail}" for o in result.violations
    )
    assert len(result.outcomes) == SCHEDULES
    # The campaign must actually exercise recovery, not just sail through.
    counts = result.counts()
    assert counts.get("recovered", 0) > 0


@pytest.mark.parametrize("app", ["linreg", "pagerank"])
def test_campaign_k2_spread_in_memory(app):
    result = run_campaign(
        CampaignConfig(
            app=app,
            schedules=SCHEDULES,
            seed=11,
            replicas=2,
            placement="spread",
        )
    )
    _assert_clean(result)


@pytest.mark.parametrize("app", ["linreg", "pagerank"])
def test_campaign_stable_fallback_never_loses_data(app):
    # With the disk tier on, *accepted* data loss is off the table: any
    # DataLossError other than "no recovery point" is an invariant
    # violation, so a clean campaign means the ladder always bottomed out
    # on stable storage.
    result = run_campaign(
        CampaignConfig(
            app=app,
            schedules=SCHEDULES,
            seed=23,
            replicas=1,
            placement="ring",
            stable_fallback=True,
        )
    )
    _assert_clean(result)
    assert result.counts().get("data_loss", 0) == 0


@pytest.mark.parametrize("app", ["linreg", "pagerank"])
def test_campaign_transient_matrix(app):
    # The full imperfect-world matrix: 20% message loss, duplicates,
    # an 8x straggler, post-commit bit-rot, healing partitions — and a
    # real failure detector instead of the oracle.  Crash kills still
    # fire on top.  The bar is unchanged: converged runs match the
    # failure-free result, corrupt copies are quarantined (never
    # silently restored), and the straggler alone triggers nothing.
    result = run_campaign(
        CampaignConfig(
            app=app,
            schedules=SCHEDULES,
            seed=31,
            replicas=2,
            placement="spread",
            stable_fallback=True,
            drop_rate=0.2,
            dup_rate=0.05,
            straggler_max=8.0,
            corrupt_rate=0.02,
            partition_rate=0.3,
            detect_timeout=1.0,
        )
    )
    _assert_clean(result)


def test_transient_campaign_statuses_match_crash_only_baseline():
    # Transient faults add noise, not new outcomes: with retransmission,
    # at-most-once delivery and quarantine fall-through, exactly the
    # same schedules succeed or lose data as in a crash-only campaign.
    base_cfg = CampaignConfig(
        app="linreg", schedules=40, seed=19, replicas=2, placement="spread"
    )
    noisy_cfg = CampaignConfig(
        app="linreg",
        schedules=40,
        seed=19,
        replicas=2,
        placement="spread",
        drop_rate=0.15,
        straggler_max=8.0,
        detect_timeout=1.0,
    )
    base = run_campaign(base_cfg)
    noisy = run_campaign(noisy_cfg)
    assert noisy.violations == []
    base_lost = [o.index for o in base.outcomes if "loss" in o.status]
    noisy_lost = [o.index for o in noisy.outcomes if "loss" in o.status]
    assert noisy_lost == base_lost


def test_campaign_with_spares_exercises_replacement():
    result = run_campaign(
        CampaignConfig(
            app="linreg",
            schedules=60,
            seed=37,
            replicas=2,
            placement="spread",
            spares=2,
        )
    )
    assert result.violations == []


def test_campaign_is_deterministic_per_seed():
    cfg = CampaignConfig(app="linreg", schedules=25, seed=5, replicas=2,
                         placement="spread")
    a, b = run_campaign(cfg), run_campaign(cfg)
    assert [(o.status, o.kills) for o in a.outcomes] == [
        (o.status, o.kills) for o in b.outcomes
    ]


def test_summary_mentions_every_status():
    result = run_campaign(
        CampaignConfig(app="linreg", schedules=30, seed=2, replicas=2,
                       placement="spread")
    )
    text = result.summary()
    assert "schedules=30" in text
    for status in result.counts():
        assert status in text


class TestPrefixCacheForksEqualWorlds:
    # A detector draws nothing per schedule, so every schedule of a
    # detector + partition campaign that drew no partition lives in the
    # campaign's world and forks from the reference prefix; one that drew
    # a partition runs from scratch.

    # Spares make the restore-mode draw visible in the reports (a tiny
    # world costs no virtual time, so shrink and shrink-rebalance match).
    CONFIG = CampaignConfig(
        app="linreg", schedules=40, seed=3, detect_timeout=0.5, partition_rate=0.3, spares=2
    )

    @staticmethod
    def _forks(monkeypatch) -> list:
        forked = []
        fork = PrefixCache.fork

        def recorded(self, spec):
            executor = fork(self, spec)
            forked.append(executor is not None)
            return executor

        monkeypatch.setattr(PrefixCache, "fork", recorded)
        return forked

    def test_forked_outcomes_and_reports_equal_cache_off(self, monkeypatch):
        # Outcomes alone are coarse (a healed partition rarely moves a
        # status), so every schedule's full report is compared too.
        reports = []
        run = IterativeExecutor.run

        def recorded(self, boundary_hook=None):
            try:
                return run(self, boundary_hook)
            finally:
                if boundary_hook is None:  # a schedule, not a reference run
                    reports.append(asdict(self._loop.report))

        monkeypatch.setattr(IterativeExecutor, "run", recorded)
        on = run_campaign(self.CONFIG)
        on_reports = reports[:]
        reports.clear()
        off = run_campaign(self.CONFIG, prefix_cache=False)
        assert on.outcomes == off.outcomes
        assert len(on_reports) == self.CONFIG.schedules and on_reports == reports

    def test_every_schedule_without_a_partition_forks(self, monkeypatch):
        # A phase trigger can fall inside world construction, before the
        # first boundary: such a schedule shares the world but runs from
        # scratch.
        forked = self._forks(monkeypatch)
        run_campaign(self.CONFIG)
        specs = [schedule_spec(self.CONFIG, index) for index in range(self.CONFIG.schedules)]
        assert len(forked) == len(specs)
        for spec, fork in zip(specs, forked):
            if spec.partitions:
                assert not fork
            elif all(kill.phase is None for kill in spec.kills):
                assert fork
        assert 0 < sum(forked) < len(specs)

    def test_a_message_fault_campaign_captures_no_reference_world(self, monkeypatch):
        forked = self._forks(monkeypatch)
        captured = []
        monkeypatch.setattr(PrefixCache, "_capture", lambda self, mode: captured.append(mode))
        run_campaign(CampaignConfig(app="linreg", schedules=10, seed=3, drop_rate=0.05))
        assert captured == [] and forked == []


class TestDedupeSchedule:
    # Regression surfaced by simultaneous-kill support: the "double" kind
    # draws its two victims with replacement, so a raw schedule can name
    # the same place twice — the injector rejects a second kill for a
    # condemned victim, so the schedule must be deduplicated first.

    def test_same_instant_duplicate_dropped(self):
        kills = [
            ScriptedKill(place_id=3, iteration=4),
            ScriptedKill(place_id=3, iteration=4),
        ]
        assert dedupe_schedule(kills) == kills[:1]

    def test_first_kill_per_place_wins(self):
        kills = [
            ScriptedKill(place_id=2, iteration=1),
            ScriptedKill(place_id=4, during="checkpoint", occurrence=1),
            ScriptedKill(place_id=2, phase=17),
            ScriptedKill(place_id=4, iteration=8),
        ]
        assert dedupe_schedule(kills) == kills[:2]

    def test_distinct_victims_untouched(self):
        kills = [
            ScriptedKill(place_id=1, iteration=2),
            ScriptedKill(place_id=2, iteration=2),
            ScriptedKill(place_id=3, during="restore"),
        ]
        assert dedupe_schedule(kills) == kills

    def test_make_schedule_never_emits_duplicate_victims(self):
        # Over many seeds (the "double" kind fires often enough to
        # collide), every drawn schedule must be duplicate-free and never
        # touch place zero.
        for seed in range(300):
            rng = np.random.default_rng(seed)
            kills = make_schedule(rng, places=6, iterations=10)
            victims = [k.place_id for k in kills]
            assert len(victims) == len(set(victims)), f"seed {seed}: {victims}"
            assert 0 not in victims


@pytest.mark.parametrize("placement", ["spread", "parity"])
@pytest.mark.parametrize("recovery", ["checkpoint", "reconstruct"])
@pytest.mark.parametrize("app", sorted(CHAOS_APP_NAMES))
def test_every_app_recovery_placement_cell_runs_or_is_rejected_up_front(
    app, recovery, placement
):
    """The configuration product the CLI accepts: a cell either runs a
    schedule or is refused by ``CampaignConfig`` itself with a one-line
    error — never by a traceback from inside the first schedule."""
    servable = recovery == "checkpoint" or (app == "cg" and placement != "parity")
    settings = dict(
        app=app,
        schedules=1,
        seed=5,
        spares=2,
        recovery=recovery,
        placement=placement,
        replicas=1 if placement == "parity" else 2,
    )
    if servable:
        result = run_campaign(CampaignConfig(**settings), jobs=1)
        assert len(result.outcomes) == 1 and result.violations == []
    else:
        with pytest.raises(ValueError, match="^recovery='reconstruct' ") as refused:
            CampaignConfig(**settings)
        assert "\n" not in str(refused.value)


def test_campaign_cg_reconstruct():
    # The checkpoint-free ladder under randomized bursts (single kills,
    # adjacent pairs, racks, kills inside checkpoints / restores /
    # reconstructions): covered bursts recover with zero rolled-back
    # iterations, anything beyond the redundancy falls back to rollback,
    # and classic invariants hold throughout.
    result = run_campaign(
        CampaignConfig(
            app="cg",
            schedules=60,
            seed=7,
            replicas=2,
            placement="spread",
            spares=6,
            recovery="reconstruct",
        )
    )
    assert result.violations == [], result.summary()
    assert result.counts().get("recovered", 0) > 0
    assert "recovery=reconstruct" in result.summary()


def test_cg_reconstruct_spare_reused_at_another_index():
    # Seed 99 schedule 1 (p3@phase39; p5@checkpoint#1; p2@iter5): an aborted
    # reconstruction re-uses its spare at a different index and overwrites
    # the spare's live `b` segment.  When repair_static had saved the live
    # Vector object itself, that write also rewrote the static snapshot and
    # the run converged 2.4e-1 away from the failure-free answer.
    config = CampaignConfig(app="cg", seed=99, recovery="reconstruct", spares=2)
    baseline = failure_free_result(APPS["cg"], config.places, config.iterations)
    outcome = run_schedule(config, 1, schedule_spec(config, 1), baseline)
    assert outcome.kills == ["p3@phase39", "p5@checkpoint#1", "p2@iter5"]
    assert outcome.violations == []
    assert outcome.status == "recovered"
