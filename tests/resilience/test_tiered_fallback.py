"""Tiered recovery: k-replica survival of correlated kills + disk fallback.

The PR's acceptance scenario: a scripted *simultaneous* kill of two
adjacent places.  The seed's double store (k=1, ring) loses both copies of
one partition and must raise ``DataLossError``; the same schedule recovers
and converges either with k=2 + spread placement (in memory) or with the
stable-storage fallback tier (from disk).
"""

import numpy as np
import pytest

from repro.apps.data import RegressionWorkload
from repro.apps.nonresilient import LinRegNonResilient
from repro.apps.resilient import LinRegResilient
from repro.matrix.distvector import DistVector
from repro.matrix.dupvector import DupVector
from repro.resilience.executor import IterativeExecutor
from repro.resilience.placement import RingPlacement, SpreadPlacement, make_placement
from repro.resilience.protection import Protection
from repro.resilience.reconstruct import ReconstructionStore
from repro.resilience.snapshot import DistObjectSnapshot
from repro.resilience.store import AppResilientStore
from repro.runtime import CostModel, DataLossError, Runtime

PLACES = 6
WL = RegressionWorkload(
    features=8, examples_per_place=32, iterations=10, blocks_per_place=2
)


def failure_free_model():
    rt = Runtime(PLACES, cost=CostModel.zero())
    app = LinRegNonResilient(rt, WL)
    app.run()
    return app.model()


def run_with_adjacent_double_kill(**executor_kwargs):
    rt = Runtime(PLACES, cost=CostModel.zero(), resilient=True)
    app = LinRegResilient(rt, WL)
    # Both members of an adjacent pair die before the same iteration: under
    # the ring scheme partition 2's primary (place 2) and its only backup
    # (place 3) vanish together.
    rt.injector.kill_at_iteration(2, iteration=5)
    rt.injector.kill_at_iteration(3, iteration=5)
    executor = IterativeExecutor(rt, app, checkpoint_interval=3, **executor_kwargs)
    report = executor.run()
    return app, report


class TestAdjacentDoubleKill:
    def test_seed_double_store_loses_data(self):
        # The paper's k=1 ring store cannot survive the adjacent pair.
        with pytest.raises(DataLossError, match="in-memory copies"):
            run_with_adjacent_double_kill()

    def test_k2_spread_recovers_in_memory(self):
        ref = failure_free_model()
        app, report = run_with_adjacent_double_kill(
            protection=Protection(replicas=2, placement=SpreadPlacement())
        )
        assert report.restores == 1
        assert report.stable_fallback_reads == 0
        assert np.allclose(app.model(), ref, atol=1e-8)

    def test_stable_fallback_recovers_from_disk(self):
        ref = failure_free_model()
        app, report = run_with_adjacent_double_kill(
            protection=Protection(stable_fallback=True)
        )
        assert report.restores == 1
        assert report.stable_fallback_reads > 0
        assert np.allclose(app.model(), ref, atol=1e-8)

    def test_k2_ring_still_insufficient_for_triple_burst(self):
        # k replicas tolerate k consecutive failures, not k+1: a burst of
        # three adjacent places still defeats k=2 ring.
        rt = Runtime(PLACES, cost=CostModel.zero(), resilient=True)
        app = LinRegResilient(rt, WL)
        for victim in (2, 3, 4):
            rt.injector.kill_at_iteration(victim, iteration=5)
        executor = IterativeExecutor(
            rt,
            app,
            checkpoint_interval=3,
            protection=Protection(replicas=2, placement=RingPlacement()),
        )
        with pytest.raises(DataLossError):
            executor.run()


class TestStoreKnobs:
    def test_store_overrides_object_configuration(self):
        # The store's protection, not the object, configures each snapshot.
        rt = Runtime(4, cost=CostModel.zero())
        store = AppResilientStore(
            rt, Protection(replicas=2, placement=SpreadPlacement(), stable_fallback=True)
        )
        v = DupVector.make(rt, 4).init(1.0)
        store.start_new_snapshot()
        store.save(v)
        store.commit(0)
        snap = store.latest().snapshots[v]
        assert snap.backups == 2
        assert snap.placement.name == "spread"
        assert snap.stable_fallback is True
        assert snap.placement_ok()
        assert not any(name.startswith("snapshot_") for name in vars(v))

    def test_default_protection_is_the_double_store(self):
        default = Protection()
        assert default.replicas == 1  # the paper's k
        assert default.placement.name == "ring"
        assert (default.stable_fallback, default.disk_only) == (False, False)
        rt = Runtime(4, cost=CostModel.zero())
        store = AppResilientStore(rt)
        v = DupVector.make(rt, 4).init(1.0)
        store.start_new_snapshot()
        store.save(v)
        store.commit(0)
        snap = store.latest().snapshots[v]
        assert type(snap) is DistObjectSnapshot
        assert (snap.backups, snap.placement.name, snap.stable_fallback) == (1, "ring", False)

    def test_a_primary_only_publish_does_not_reach_the_checkpoint(self):
        # CG publishes x primary-only for reconstruction; its rollback
        # checkpoint must still keep the store's backup of x.
        rt = Runtime(4, cost=CostModel.zero())
        x, r, p = (DistVector.make(rt, 8).init(float(i)) for i in range(3))
        ReconstructionStore(rt).publish([(x, 0), (r, None), (p, None)], iteration=0)
        store = AppResilientStore(rt)
        store.start_new_snapshot()
        store.save(x)
        store.commit(0)
        assert store.latest().snapshots[x].backups == 1

    def test_executor_builds_configured_store(self):
        rt = Runtime(4, cost=CostModel.zero(), resilient=True)
        app = LinRegResilient(rt, WL)
        protection = Protection(
            replicas=3, placement=make_placement("stride:2"), stable_fallback=True
        )
        executor = IterativeExecutor(rt, app, protection=protection)
        assert executor.store.protection is protection
        assert executor.store.protection.replicas == 3
        assert executor.store.protection.placement.name == "stride"
        assert executor.store.protection.stable_fallback is True


class TestSnapshotTiers:
    def test_reads_fall_through_replicas_in_order(self):
        rt = Runtime(6, cost=CostModel.zero())
        v = DupVector.make(rt, 5).init(7.0)
        snap = v.make_snapshot(Protection(replicas=2, placement=SpreadPlacement()))
        # Key 1: primary place 1, replicas at 1+2=3 and 1+4=5.
        assert snap.locate(1)[0] == 1
        rt.kill(1)
        assert snap.locate(1)[0] == 3
        rt.kill(3)
        assert snap.locate(1)[0] == 5
        rt.kill(5)
        with pytest.raises(DataLossError):
            snap.locate(1)

    def test_stable_tier_serves_when_memory_gone(self):
        rt = Runtime(4, cost=CostModel.zero())
        v = DupVector.make(rt, 5).init(3.5)
        snap = v.make_snapshot(Protection(stable_fallback=True))
        rt.kill(1)
        rt.kill(2)  # key 1's primary and ring backup both gone
        place, _ = snap.locate(1)
        assert place is DistObjectSnapshot.STABLE_TIER
        v.remake(rt.live_world())
        v.restore_snapshot(snap)
        assert np.allclose(v.to_array(), 3.5)
        assert rt.stats.stable_fallback_reads > 0

    def test_degraded_stable_snapshot_stays_reusable(self):
        # Read-only reuse: losing in-memory copies does not force a re-save
        # when the stable tier still holds every key.
        rt = Runtime(4, cost=CostModel.zero())
        store = AppResilientStore(rt, Protection(stable_fallback=True))
        v = DupVector.make(rt, 4).init(2.0)
        store.start_new_snapshot()
        store.save_read_only(v)
        store.commit(0)
        first = store.latest().read_only[v]
        rt.kill(1)
        rt.kill(2)
        v.remake(rt.live_world())
        v.init(2.0)
        store.start_new_snapshot()
        store.save_read_only(v)
        store.commit(1)
        assert store.latest().read_only[v] is first  # reused via disk tier
