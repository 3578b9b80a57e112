"""Checkpoint-free recovery: the ReconstructionStore and the executor's
``recovery="reconstruct"`` ladder, including multi-place simultaneous
failure bursts and the fallback to checkpoint/restart."""

import numpy as np
import pytest

from repro.apps.data import CGWorkload
from repro.apps.nonresilient.cg import CGNonResilient
from repro.apps.resilient.cg import CGResilient
from repro.resilience.executor import IterativeExecutor, RestoreMode
from repro.resilience.placement import RingPlacement, SpreadPlacement
from repro.resilience.reconstruct import ReconstructionStore
from repro.runtime import CostModel, Runtime
from repro.runtime.exceptions import DataLossError

WL = CGWorkload(rows_per_place=24, stride=7, iterations=12)


def make_rt(n=6, spares=0):
    return Runtime(n, cost=CostModel.zero(), resilient=True, spares=spares)


def baseline(places=6, iterations=12):
    rt = Runtime(places, cost=CostModel.zero())
    wl = CGWorkload(rows_per_place=24, stride=7, iterations=iterations)
    app = CGNonResilient(rt, wl)
    app.run()
    return app.solution()


def run_reconstruct(rt, app, **kw):
    kw.setdefault("checkpoint_interval", 4)
    kw.setdefault("mode", RestoreMode.REPLACE_REDUNDANT)
    kw.setdefault("replicas", 2)
    kw.setdefault("placement", SpreadPlacement())
    return IterativeExecutor(rt, app, recovery="reconstruct", **kw).run()


class TestStore:
    def test_publish_commits_a_generation(self):
        rt = make_rt(4)
        app = CGResilient(rt, WL)
        store = ReconstructionStore(rt, replicas=2, placement=SpreadPlacement())
        assert not store.ready
        app.publish_redundant(store, iteration=0)
        assert store.ready
        assert store.statics_saved
        assert store.state_iteration == 0
        assert store.redundancy_bytes > 0
        assert store.placement_ok()
        assert store.fully_redundant()

    def test_save_static_is_idempotent(self):
        rt = make_rt(4)
        app = CGResilient(rt, WL)
        store = ReconstructionStore(rt, replicas=1)
        store.save_static(app.b)
        published = store.redundancy_bytes
        store.save_static(app.b)
        assert store.redundancy_bytes == published

    def test_publish_supersedes_previous_generation(self):
        rt = make_rt(4)
        app = CGResilient(rt, WL)
        store = ReconstructionStore(rt, replicas=1)
        app.publish_redundant(store, iteration=0)
        app.step()
        app.publish_redundant(store, iteration=1)
        assert store.state_iteration == 1

    def test_invalidate_empties_the_store(self):
        rt = make_rt(4)
        app = CGResilient(rt, WL)
        store = ReconstructionStore(rt, replicas=1)
        app.publish_redundant(store, iteration=0)
        store.invalidate()
        assert not store.ready
        assert store.state_iteration == -1
        # The next publish rebuilds everything, statics included.
        app.publish_redundant(store, iteration=3)
        assert store.ready and store.statics_saved

    def test_burst_beyond_redundancy_raises_data_loss(self):
        rt = make_rt(6, spares=2)
        app = CGResilient(rt, WL)
        store = ReconstructionStore(rt, replicas=1, placement=RingPlacement())
        app.publish_redundant(store, iteration=0)
        # Ring replicas sit at offset +1: killing an adjacent pair wipes
        # both copies of the first victim's partitions.
        rt.kill(2)
        rt.kill(3)
        spares = [rt.claim_spare(), rt.claim_spare()]
        group = app.places
        new_group = group.replace(group[2], spares[0]).replace(group[3], spares[1])
        with pytest.raises(DataLossError):
            app.reconstruct(new_group, store, [2, 3])

    def test_repaired_static_copy_does_not_alias_the_live_payload(self):
        """A spare's live statics may be rewritten (an aborted recovery
        re-uses the spare at another index): the repaired copy must not move."""
        rt = make_rt(6, spares=1)
        app = CGResilient(rt, WL)
        store = ReconstructionStore(rt, replicas=2, placement=SpreadPlacement())
        app.publish_redundant(store, iteration=0)
        rt.kill(2)
        new_group = app.places.replace(app.places[2], rt.claim_spare())
        app.reconstruct(new_group, store, [2])  # ends with repair_static
        snap = store.static_snapshot(app.b)

        def saved(ctx):
            return snap.fetch(ctx, 2).data

        before = rt.at(new_group[2], saved).tobytes()
        live = app.b.segment(2)
        assert np.shares_memory(live.data, rt.at(new_group[2], saved))
        live.touch()
        live.data[:] = -1.0
        assert rt.at(new_group[2], saved).tobytes() == before
        assert store.fully_redundant()


class TestExecutorReconstruct:
    def test_single_failure_no_rollback(self):
        ref = baseline()
        rt = make_rt(6, spares=1)
        app = CGResilient(rt, WL)
        rt.injector.kill_at_iteration(3, iteration=6)
        report = run_reconstruct(rt, app)
        assert report.reconstructions == 1
        assert report.reconstructed_partitions == 1
        assert report.restores == 0
        assert report.fallback_restores == 0
        assert report.restored_iterations == []
        assert report.repaired_static_keys > 0
        assert np.allclose(app.solution(), ref, atol=1e-8)

    def test_trajectory_bit_exact_after_reconstruction(self):
        # Stronger than the 1e-8 acceptance bar: the scalar trajectory is
        # bit-identical because r/p/z and every reduction are restored or
        # recomputed exactly; only the re-solved x rows carry ~1e-16.
        rt0 = Runtime(6, cost=CostModel.zero())
        ref = CGNonResilient(rt0, WL)
        ref.run()
        rt = make_rt(6, spares=1)
        app = CGResilient(rt, WL)
        rt.injector.kill_at_iteration(2, iteration=5)
        run_reconstruct(rt, app)
        assert app.rz == ref.rz
        assert np.allclose(app.solution(), ref.solution(), atol=1e-12)

    @pytest.mark.parametrize("victims", [(2, 3), (1, 4)], ids=["adjacent", "spread"])
    def test_simultaneous_pair_recovered(self, victims):
        ref = baseline()
        rt = make_rt(6, spares=2)
        app = CGResilient(rt, WL)
        for victim in victims:
            rt.injector.kill_at_iteration(victim, iteration=7)
        report = run_reconstruct(rt, app)
        assert report.reconstructions == 1
        assert report.reconstructed_partitions == 2
        assert report.restored_iterations == []
        assert np.allclose(app.solution(), ref, atol=1e-8)

    def test_simultaneous_rack_recovered_with_three_replicas(self):
        ref = baseline(places=8)
        rt = make_rt(8, spares=3)
        app = CGResilient(rt, WL)
        for victim in (3, 4, 5):
            rt.injector.kill_at_iteration(victim, iteration=6)
        report = run_reconstruct(rt, app, replicas=3)
        assert report.reconstructions == 1
        assert report.reconstructed_partitions == 3
        assert report.restored_iterations == []
        assert np.allclose(app.solution(), ref, atol=1e-8)

    def test_burst_beyond_redundancy_falls_back_to_checkpoint(self):
        # replicas=1 + an adjacent pair under ring placement co-kills a
        # partition's only copies: reconstruction must abort and the
        # classic rollback must finish the run.
        ref = baseline()
        rt = make_rt(6, spares=2)
        app = CGResilient(rt, WL)
        for victim in (2, 3):
            rt.injector.kill_at_iteration(victim, iteration=6)
        # The checkpoint tier shares the ring/replicas=1 shape, so its
        # in-memory copies of the victim partition co-died too — stable
        # storage is what makes the rollback recoverable at all here.
        report = run_reconstruct(
            rt,
            app,
            replicas=1,
            placement=RingPlacement(),
            checkpoint_interval=3,
            stable_fallback=True,
        )
        assert report.reconstructions == 0
        assert report.fallback_restores == 1
        assert report.restores == 1
        assert report.restored_iterations  # rolled back: work was lost
        assert np.allclose(app.solution(), ref, atol=1e-8)

    def test_kill_during_reconstruct_retries(self):
        ref = baseline()
        rt = make_rt(6, spares=2)
        app = CGResilient(rt, WL)
        rt.injector.kill_at_iteration(2, iteration=5)
        rt.injector.kill_during(4, context="reconstruct")
        report = run_reconstruct(rt, app)
        assert report.reconstructions == 1
        assert report.aborted_reconstructions >= 1
        assert report.reconstructed_partitions == 2
        assert report.restored_iterations == []
        assert np.allclose(app.solution(), ref, atol=1e-8)

    def test_no_spares_falls_back_to_shrink(self):
        # Reconstruction preserves the group width by definition; with no
        # spare to install it must hand over to the shrink fallback.
        ref = baseline()
        rt = make_rt(6, spares=0)
        app = CGResilient(rt, WL)
        rt.injector.kill_at_iteration(3, iteration=6)
        report = IterativeExecutor(
            rt,
            app,
            checkpoint_interval=4,
            mode=RestoreMode.REPLACE_REDUNDANT,
            spare_fallback=RestoreMode.SHRINK_REBALANCE,
            replicas=2,
            placement=SpreadPlacement(),
            recovery="reconstruct",
        ).run()
        assert report.reconstructions == 0
        assert report.fallback_restores == 1
        assert report.final_group_size == 5
        assert np.allclose(app.solution(), ref, atol=1e-6)

    def test_sequential_failures_two_reconstructions(self):
        ref = baseline()
        rt = make_rt(6, spares=2)
        app = CGResilient(rt, WL)
        rt.injector.kill_at_iteration(2, iteration=4)
        rt.injector.kill_at_iteration(4, iteration=8)
        report = run_reconstruct(rt, app)
        assert report.reconstructions == 2
        assert report.restored_iterations == []
        assert np.allclose(app.solution(), ref, atol=1e-8)

    def test_reconstruct_mode_requires_capable_app(self):
        from repro.apps.data import RegressionWorkload
        from repro.apps.resilient import LinRegResilient

        rt = make_rt(4)
        app = LinRegResilient(
            rt, RegressionWorkload(features=8, examples_per_place=32, iterations=4)
        )
        with pytest.raises(ValueError):
            IterativeExecutor(rt, app, recovery="reconstruct")

    def test_unknown_recovery_mode_rejected(self):
        rt = make_rt(4)
        app = CGResilient(rt, WL)
        with pytest.raises(ValueError):
            IterativeExecutor(rt, app, recovery="abft")
