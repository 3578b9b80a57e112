"""Checksummed snapshot integrity: verification, quarantine, fall-through.

Every snapshot partition records a structural CRC-32 at save time; every
copy is verified before being offered for restore.  A corrupt copy is
quarantined (dropped from its tier) and the search falls through to the
next tier — corrupt data is **never** silently restored.  When every
surviving copy of a partition is corrupt the failure is loud:
``SnapshotCorruptionError`` (a ``DataLossError`` to the recovery ladder).
"""

import numpy as np
import pytest

from repro.apps.data import RegressionWorkload
from repro.apps.nonresilient import LinRegNonResilient
from repro.apps.resilient import LinRegResilient
from repro.matrix.vector import Vector
from repro.resilience.executor import IterativeExecutor
from repro.resilience.placement import SpreadPlacement
from repro.resilience.protection import Protection
from repro.resilience.snapshot import DistObjectSnapshot
from repro.resilience.stable import StableObjectSnapshot
from repro.runtime import CostModel, DataLossError, Runtime
from repro.runtime.exceptions import SnapshotCorruptionError
from repro.runtime.failure import CorruptionModel

STABLE = DistObjectSnapshot.STABLE_TIER


def make_rt(n=4, cost=None):
    return Runtime(n, cost=cost or CostModel.zero())


def save_all(rt, snap, payload_fn=lambda i: Vector.of([float(i), float(i) + 0.5])):
    group = snap.group

    def task(ctx):
        index = group.index_of(ctx.place)
        snap.save_from(ctx, index, payload_fn(index))

    rt.finish_all(group, task)


class TestQuarantineAndFallThrough:
    def test_corrupt_primary_falls_through_to_backup(self):
        rt = make_rt(3)
        snap = DistObjectSnapshot(rt, rt.world)
        save_all(rt, snap)
        assert snap.corrupt_copy(1, tier=0)
        pid, heap_key = snap.locate(1)
        assert heap_key[0] == "snapb"  # served from the replica tier
        assert (1, 0) in snap.quarantined
        # The quarantined primary is physically gone, not just flagged.
        assert 0 not in snap.tiers(1)

    def test_corrupt_all_memory_tiers_falls_through_to_disk(self):
        rt = make_rt(3)
        snap = DistObjectSnapshot(rt, rt.world, stable_fallback=True)
        save_all(rt, snap)
        assert snap.corrupt_copy(0, tier=0)
        assert snap.corrupt_copy(0, tier=1)
        pid, heap_key = snap.locate(0)
        assert pid == STABLE
        assert sorted(snap.quarantined) == [(0, 0), (0, 1)]

    def test_all_tiers_corrupt_raises_loudly(self):
        rt = make_rt(3)
        snap = DistObjectSnapshot(rt, rt.world, stable_fallback=True)
        save_all(rt, snap)
        for tier in (0, 1, STABLE):
            assert snap.corrupt_copy(2, tier)
        with pytest.raises(SnapshotCorruptionError, match="quarantined"):
            snap.locate(2)
        # Corruption loss is data loss to the recovery ladder.
        assert issubclass(SnapshotCorruptionError, DataLossError)

    def test_crash_loss_still_distinct_from_corruption_loss(self):
        rt = make_rt(3)
        snap = DistObjectSnapshot(rt, rt.world)  # no stable tier
        save_all(rt, snap)
        rt.kill(1)
        rt.kill(2)  # primary of key 1 and its ring backup both die
        with pytest.raises(DataLossError) as exc_info:
            snap.locate(1)
        assert not isinstance(exc_info.value, SnapshotCorruptionError)

    def test_corruption_strikes_only_the_hit_tier(self):
        # Tiers share the payload object; the strike must corrupt a copy,
        # never the shared original.
        rt = make_rt(3)
        snap = DistObjectSnapshot(rt, rt.world)
        save_all(rt, snap, lambda i: Vector.of([42.0]))
        assert snap.corrupt_copy(0, tier=1)
        pid, heap_key = snap.locate(0)  # primary verifies clean
        assert heap_key[0] == "snap"
        assert rt.heap_of(pid).get(heap_key).data[0] == 42.0

    def test_corrupt_copy_reports_missing_targets(self):
        rt = make_rt(3)
        snap = DistObjectSnapshot(rt, rt.world)
        save_all(rt, snap)
        rt.kill(1)  # primary of key 1 gone with its place
        assert not snap.corrupt_copy(1, tier=0)
        assert not snap.corrupt_copy(99, tier=0)


class TestVerification:
    def test_verify_all_scrubs_every_tier(self):
        rt = make_rt(3)
        snap = DistObjectSnapshot(rt, rt.world, stable_fallback=True)
        save_all(rt, snap)
        assert snap.corrupt_copy(0, tier=1)
        assert snap.corrupt_copy(2, tier=STABLE)
        clean, newly_quarantined = snap.verify_all()
        assert newly_quarantined == 2
        # 3 keys x 3 tiers, minus the two quarantined copies.
        assert clean == 7
        # A second scrub finds nothing new (clean verdicts are memoized).
        assert snap.verify_all() == (7, 0)

    def test_save_charges_checksum_time(self):
        cost = CostModel(checksum_byte_time=1.0)
        rt = make_rt(3, cost=cost)
        snap = DistObjectSnapshot(rt, rt.world)
        t_before = [rt.clock.now(i) for i in range(3)]
        save_all(rt, snap)
        assert all(rt.clock.now(i) > t_before[i] for i in range(3))

    def test_recoverable_reflects_quarantines(self):
        rt = make_rt(3)
        snap = DistObjectSnapshot(rt, rt.world)
        save_all(rt, snap)
        assert snap.recoverable()
        snap.corrupt_copy(1, tier=0)
        snap.corrupt_copy(1, tier=1)
        assert not snap.recoverable()


class TestStableSnapshotIntegrity:
    def test_corrupt_stable_copy_has_no_further_tier(self):
        rt = make_rt(3)
        snap = StableObjectSnapshot(rt, rt.world)
        save_all(rt, snap)
        assert snap.tiers(1) == [STABLE]
        assert snap.corrupt_copy(1, STABLE)
        with pytest.raises(SnapshotCorruptionError, match="no further tier"):
            snap.locate(1)
        assert (1, STABLE) in snap.quarantined

    def test_clean_copy_verifies_and_serves(self):
        rt = make_rt(3)
        snap = StableObjectSnapshot(rt, rt.world)
        save_all(rt, snap)
        pid, _ = snap.locate(0)
        assert pid == STABLE


class TestExecutorIntegration:
    WL = RegressionWorkload(
        features=8, examples_per_place=32, iterations=10, blocks_per_place=2
    )

    def _baseline(self):
        rt = Runtime(6, cost=CostModel.zero())
        app = LinRegNonResilient(rt, self.WL)
        app.run()
        return app.model()

    def test_corruption_plus_crash_recovers_through_clean_tiers(self):
        # Post-commit bit-rot strikes + a real kill: restore must route
        # around quarantined copies and still converge to the exact
        # failure-free answer.
        baseline = self._baseline()
        rt = Runtime(6, cost=CostModel.zero(), resilient=True)
        app = LinRegResilient(rt, self.WL)
        rt.injector.kill_at_iteration(2, iteration=5)
        executor = IterativeExecutor(
            rt,
            app,
            checkpoint_interval=3,
            protection=Protection(
                replicas=2, placement=SpreadPlacement(), stable_fallback=True
            ),
            corruption=CorruptionModel(rate=0.3, seed=1),
        )
        report = executor.run()
        assert report.restores >= 1
        assert report.quarantined_copies > 0
        np.testing.assert_allclose(app.model(), baseline, rtol=1e-8)

    def test_store_verify_integrity_counts(self):
        rt = Runtime(6, cost=CostModel.zero(), resilient=True)
        app = LinRegResilient(rt, self.WL)
        executor = IterativeExecutor(
            rt,
            app,
            checkpoint_interval=3,
            protection=Protection(replicas=2, placement=SpreadPlacement()),
        )
        executor.run()
        store = executor.store
        scrub = store.verify_integrity()
        assert scrub["quarantined"] == 0 and scrub["clean"] > 0
        latest = store.latest()
        snap = next(iter(latest.snapshots.values()))
        key = snap.saved_keys()[0]
        assert snap.corrupt_copy(key, tier=0)
        scrub = store.verify_integrity()
        assert scrub["quarantined"] == 1
        assert store.quarantined_copies() == 1
