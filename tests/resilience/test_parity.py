"""Tests for the erasure-coded parity snapshot tier (ROADMAP item 1).

One XOR parity block per group of ``g`` partitions, stored group-external:
any single loss per group reconstructs in memory at ``~(1 + 1/g)x``
checkpoint bytes; a second loss in the same group before a repair falls
through to disk (when the stable tier is on) or raises ``DataLossError``.

The ladder, integrity, repair and delta classes run once per payload kind
(``payload_kinds``): the ``Vector`` runs are the classes themselves, the other
kinds are the subclasses generated at the bottom of the file.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.data import PageRankWorkload
from repro.apps.resilient import PageRankResilient
from repro.bench.calibration import pagerank_cost
from repro.bench.catalogue import APPS
from repro.matrix.block import BlockSet
from repro.matrix.distblock import DistBlockMatrix
from repro.matrix.distsparse import DistSparseRowMatrix
from repro.matrix.distvector import DistVector
from repro.matrix.dupmatrix import DupDenseMatrix
from repro.matrix.dupvector import DupVector
from repro.matrix.vector import Vector
from repro.resilience.executor import IterativeExecutor, RestoreMode
from repro.resilience.parity import PARITY_TIER, ParityObjectSnapshot
from repro.resilience.placement import ParityPlacement, SpreadPlacement
from repro.resilience.reconstruct import ReconstructionStore
from repro.resilience.snapshot import DistObjectSnapshot
from repro.resilience.store import AppResilientStore
from repro.runtime import CostModel, DataLossError, Runtime
from repro.runtime.exceptions import SnapshotCorruptionError
from repro.runtime.place import PlaceGroup
from repro.util.versioning import next_version, payload_frozen
from tests.resilience.payload_kinds import KINDS, band, same_payload


def make_rt(n=6, cost=None):
    return Runtime(n, cost=cost or CostModel.zero())


def save_all(rt, snap, payload_fn):
    group = snap.group

    def task(ctx):
        index = group.index_of(ctx.place)
        snap.save_from(ctx, index, payload_fn(index))

    rt.finish_all(group, task)


def parity_snap(rt, g=2, stable_fallback=False, payload_fn=None):
    snap = ParityObjectSnapshot(
        rt,
        rt.world,
        placement=ParityPlacement(group=g),
        stable_fallback=stable_fallback,
    )
    save_all(rt, snap, payload_fn or KINDS["vector"])
    return snap


class PerKind:
    """A test class that runs once per payload kind: as itself over ``Vector``
    partitions, and as the subclasses generated at the bottom of the file."""

    kind = "vector"

    def payload(self, index):
        return KINDS[self.kind](index)


class TestSaveGeometry:
    def test_one_parity_block_per_group(self):
        rt = make_rt(6)
        snap = parity_snap(rt, g=2)
        # 6 keys, span 2 -> groups {0,1}, {2,3}, {4,5}.
        for gidx in (0, 1, 2):
            place = snap._parity_place(gidx)
            assert rt.heap_of(place.id).contains(("snapp", snap.snap_id, gidx))

    def test_parity_place_is_group_external(self):
        for g in (2, 4):
            rt = make_rt(6)
            snap = parity_snap(rt, g=g)
            for gidx in snap._groups():
                members = {snap.group[m].id for m in snap._group_members(gidx)}
                assert snap._parity_place(gidx).id not in members
        assert snap.placement_ok()

    def test_no_per_key_backups(self):
        rt = make_rt(6)
        snap = parity_snap(rt, g=2)
        assert snap.backups == 0
        for pid in range(6):
            heap = rt.heap_of(pid)
            assert not heap.keys_with_prefix(("snapb",))

    def test_parity_bytes_are_the_fractional_overhead(self):
        rt = make_rt(8)
        snap = parity_snap(rt, g=4, payload_fn=lambda i: Vector.of([float(i)] * 512))
        logical = snap.total_nbytes - snap.parity_nbytes
        assert snap.parity_nbytes > 0
        # g=4: one block per 4 equal-size members — the ideal 1/4, well
        # under one replica.
        assert snap.stored_nbytes() <= 1.35 * logical

    def test_fully_redundant_requires_parity_blocks(self):
        rt = make_rt(6)
        snap = parity_snap(rt, g=2)
        assert snap.fully_redundant()
        rt.heap_of(snap._parity_place(0).id).remove(("snapp", snap.snap_id, 0))
        snap._parity.pop(0)
        assert not snap.fully_redundant()


class TestRecoveryLadder(PerKind):
    def test_single_loss_reconstructs_from_parity(self):
        rt = make_rt(6)
        snap = parity_snap(rt, g=2, payload_fn=self.payload)
        rt.kill(2)
        pid, heap_key = snap.locate(2)
        assert heap_key[0] == "snapr"
        assert pid == snap._parity_place(1).id
        assert same_payload(rt.heap_of(pid).get(heap_key), self.payload(2))
        assert snap.parity_reads == 1
        assert rt.stats.parity_reconstructions == 1

    def test_any_single_place_loss_is_recoverable(self):
        for victim in range(1, 6):
            rt = make_rt(6)
            snap = parity_snap(rt, g=2, payload_fn=self.payload)
            rt.kill(victim)
            assert snap.recoverable()
            pid, heap_key = snap.locate(victim)
            assert heap_key[0] == "snapr"
            assert same_payload(rt.heap_of(pid).get(heap_key), self.payload(victim))

    def test_two_losses_in_one_group_exceed_the_code(self):
        rt = make_rt(6)
        snap = parity_snap(rt, g=2, payload_fn=self.payload)
        rt.kill(2)
        rt.kill(3)  # same span-2 group
        with pytest.raises(DataLossError, match="parity group"):
            snap.locate(2)

    def test_dead_parity_holder_plus_member_falls_to_disk(self):
        rt = make_rt(6)
        snap = parity_snap(rt, g=2, stable_fallback=True, payload_fn=self.payload)
        holder = snap._parity_place(1).id
        rt.kill(2)
        rt.kill(holder)
        pid, _ = snap.locate(2)
        assert pid == DistObjectSnapshot.STABLE_TIER

    def test_losses_in_different_groups_all_recover(self):
        rt = make_rt(6)
        snap = parity_snap(rt, g=2, payload_fn=self.payload)
        # Places 2 and 5 sit in different groups and hold no parity block
        # of the other's group.
        holders = {snap._parity_place(g).id for g in snap._groups()}
        victims = [v for v in (2, 5) if v not in holders][:1] or [2]
        for v in victims:
            rt.kill(v)
            assert snap.locate(v)[1][0] == "snapr"

    def test_parity_tier_listed_between_memory_and_disk(self):
        rt = make_rt(6)
        snap = parity_snap(rt, g=2, stable_fallback=True, payload_fn=self.payload)
        tiers = snap.tiers(0)
        assert tiers.index(0) < tiers.index(PARITY_TIER)
        assert tiers.index(PARITY_TIER) < tiers.index(DistObjectSnapshot.STABLE_TIER)


class TestIntegrity(PerKind):
    def test_corrupt_parity_block_is_quarantined(self):
        rt = make_rt(6)
        snap = parity_snap(rt, g=2, stable_fallback=True, payload_fn=self.payload)
        first_member = snap._group_members(1)[0]
        snap.corrupt_copy(first_member, PARITY_TIER)
        rt.kill(2)
        pid, _ = snap.locate(2)
        # The corrupt block must not silently reconstruct: fall to disk.
        assert pid == DistObjectSnapshot.STABLE_TIER
        assert (first_member, PARITY_TIER) in snap.quarantined

    def test_corrupt_parity_without_disk_is_a_loud_loss(self):
        rt = make_rt(6)
        snap = parity_snap(rt, g=2, payload_fn=self.payload)
        snap.corrupt_copy(snap._group_members(1)[0], PARITY_TIER)
        rt.kill(2)
        with pytest.raises(SnapshotCorruptionError):
            snap.locate(2)

    def test_verify_all_covers_parity_blocks(self):
        rt = make_rt(6)
        snap = parity_snap(rt, g=2, payload_fn=self.payload)
        clean, quarantined = snap.verify_all()
        assert quarantined == 0
        # 6 primaries + 3 parity blocks.
        assert clean == 9
        snap.corrupt_copy(snap._group_members(0)[0], PARITY_TIER)
        clean, quarantined = snap.verify_all()
        assert quarantined == 1


class TestRepair(PerKind):
    def test_repair_refills_primary_and_parity(self):
        rt = Runtime(6, cost=CostModel.zero(), spares=1)
        snap = parity_snap(rt, g=2, payload_fn=self.payload)
        rt.kill(2)
        spare = rt.claim_spare()
        ids = list(snap.group.ids)
        ids[2] = spare.id
        new_group = PlaceGroup.of_ids(ids)
        repaired = snap.repair(new_group)
        # Key 2's primary re-materialized on the spare, nothing else lost.
        assert repaired >= 1
        assert rt.heap_of(spare.id).contains(("snap", snap.snap_id, 2))
        assert snap.fully_redundant()
        pid, heap_key = snap.locate(2)
        assert pid == spare.id and heap_key[0] == "snap"
        assert same_payload(rt.heap_of(pid).get(heap_key), self.payload(2))

    def test_repair_rebuilds_missing_parity_block(self):
        rt = make_rt(6)
        snap = parity_snap(rt, g=2, payload_fn=self.payload)
        holder = snap._parity_place(0).id
        rt.heap_of(holder).remove(("snapp", snap.snap_id, 0))
        snap._parity.pop(0)
        assert snap.repair() == 1
        assert rt.heap_of(holder).contains(("snapp", snap.snap_id, 0))
        assert snap.fully_redundant()


class TestConfigurationGuards:
    def test_store_rejects_parity_with_replicas(self):
        rt = make_rt(4)
        with pytest.raises(ValueError, match="replicas must be <= 1"):
            AppResilientStore(rt, replicas=2, placement=ParityPlacement())

    def test_store_routes_parity_snapshots(self):
        rt = make_rt(6)
        store = AppResilientStore(rt, replicas=1, placement=ParityPlacement(group=2))
        v = DupVector.make(rt, 4).init(1.0)
        store.start_new_snapshot()
        store.save(v)
        store.commit(0)
        snap = store.latest().snapshots[v]
        assert isinstance(snap, ParityObjectSnapshot)
        assert snap.backups == 0

    def test_reconstruction_store_rejects_parity(self):
        rt = make_rt(4)
        with pytest.raises(ValueError, match="replica placement"):
            ReconstructionStore(rt, replicas=1, placement=ParityPlacement())

    def test_replica_placement_rejected_by_parity_snapshot(self):
        rt = make_rt(4)
        with pytest.raises(ValueError, match="ParityPlacement"):
            ParityObjectSnapshot(rt, rt.world, placement=SpreadPlacement())


#: kind -> a six-place GML object whose snapshot partitions are that kind.
OBJECTS = {
    "vector": lambda rt: DistVector.make(rt, 12).init(2.0),
    "dense": lambda rt: DupDenseMatrix.make_zero(rt, 3, 4).fill(2.0),
    "csr": lambda rt: DistSparseRowMatrix.make(
        rt, 12, builder=lambda lo, hi: band(lo // 2, rows=hi - lo, cols=12)
    ),
    "dense-blocks": lambda rt: DistBlockMatrix.make_dense(rt, 12, 8, 6, 2).init_random(3),
    # Nine blocks on six places: two per place, then one.
    "csr-blocks": lambda rt: DistBlockMatrix.make_sparse(rt, 27, 16, 9, 1).init_random(
        3, density=0.2
    ),
}


def _scale(partition, alpha):
    """Dirty one live partition in place (a block set: every block)."""
    blocks = [b.data for b in partition] if isinstance(partition, BlockSet) else [partition]
    for block in blocks:
        block.scale(alpha)


class TestDeltaComposition(PerKind):
    def _store(self, rt):
        return AppResilientStore(
            rt, replicas=1, placement=ParityPlacement(group=2), delta=True
        )

    @staticmethod
    def _blocks(rt, snap):
        return {
            gidx: rt.heap_of(snap._parity_place(gidx).id).get(snap._parity_key(gidx))
            for gidx in snap._groups()
        }

    def test_clean_checkpoint_adopts_parity_at_zero_cost(self):
        rt = make_rt(6)
        store = self._store(rt)
        v = OBJECTS[self.kind](rt)
        store.start_new_snapshot()
        store.save(v)
        store.commit(0)
        t0 = rt.now()
        store.start_new_snapshot()
        store.save(v)  # untouched: all partitions clean
        store.commit(1)
        assert rt.now() == t0
        snap = store.latest().snapshots[v]
        assert snap.fully_redundant()
        assert store.delta_clean_partitions >= 6

    def test_dirty_member_rebuilds_its_group_block(self):
        rt = make_rt(6)
        store = self._store(rt)
        v = OBJECTS[self.kind](rt)
        store.start_new_snapshot()
        store.save(v)
        store.commit(0)
        first = store.latest().snapshots[v]
        base_blocks = self._blocks(rt, first)
        _scale(v.payload_at_index(3), 4.5)  # dirty exactly one partition
        store.start_new_snapshot()
        store.save(v)
        store.commit(1)
        second = store.latest().snapshots[v]
        assert second is not first
        assert store.delta_clean_partitions == 5
        # The dirty group's block differs from the base; clean groups
        # adopted theirs by reference.
        dirty_gidx = second._parity_group(3)
        for gidx, block in self._blocks(rt, second).items():
            assert (block is base_blocks[gidx]) == (gidx != dirty_gidx)
        assert second.fully_redundant()
        victim = second.group[3].id
        saved = rt.heap_of(victim).get(("snap", second.snap_id, 3))
        rt.kill(victim)
        pid, heap_key = second.locate(3)
        assert heap_key[0] == "snapr"
        assert same_payload(rt.heap_of(pid).get(heap_key), saved)
        assert dirty_gidx in second._parity


class TestStoredBytes:
    def test_total_stored_bytes_replication_multiplies(self):
        rt = make_rt(6)
        store = AppResilientStore(rt, replicas=2, placement=SpreadPlacement())
        v = DupVector.make(rt, 6).init(1.0)
        store.start_new_snapshot()
        store.save(v)
        store.commit(0)
        assert store.total_stored_bytes() == pytest.approx(
            3 * store.total_checkpoint_bytes()
        )

    def test_parity_overhead_is_fractional(self):
        rt = make_rt(8)
        store = AppResilientStore(rt, replicas=1, placement=ParityPlacement(group=4))
        v = DupVector.make(rt, 4096).init(1.0)
        store.start_new_snapshot()
        store.save(v)
        store.commit(0)
        snap = store.latest().snapshots[v]
        logical = snap.total_nbytes - snap.parity_nbytes
        assert logical < store.total_stored_bytes() <= 1.35 * logical


class TestBlocksAreValueDetermined:
    """A parity block is a function of its members' array bytes.  What the
    host does beside them — kernel calls on the sparse link blocks, the
    process-wide version counter — must reach neither the block nor what
    the group charges and reports."""

    WL = PageRankWorkload(nodes_per_place=64, out_degree=8, blocks_per_place=2, iterations=2)

    def _checkpoint(self, warm, burn=0):
        rt = Runtime(8, cost=pagerank_cost(), resilient=True)
        app = PageRankResilient(rt, self.WL)
        if warm:
            # What a step() does on the host, minus its virtual time: both
            # kernels on every link block.
            x = np.ones(app.n)
            for place in app.places:
                for block in rt.heap_of(place.id).get(app.G.heap_key):
                    block.data.spmv(x)
                    block.data.spmv_t(np.ones(block.data.m))
        for _ in range(burn):
            next_version()
        store = AppResilientStore(rt, replicas=1, placement=ParityPlacement(group=4))
        t0 = rt.now()
        app.checkpoint(store)
        blocks = [
            rt.heap_of(snap._parity_place(gidx).id).get(snap._parity_key(gidx)).tobytes()
            for snap in store.latest().all_snapshots()
            for gidx in sorted(snap._parity)
        ]
        assert blocks
        return rt.now() - t0, store.total_stored_bytes(), blocks

    def test_checkpoint_ignores_host_caches(self):
        # Bit-equal virtual time, stored bytes and parity blocks: cold, warm,
        # and after the version counter has grown by three decimal digits.
        cold = self._checkpoint(warm=False)
        assert self._checkpoint(warm=True) == cold
        assert self._checkpoint(warm=True, burn=70_000) == cold


KIND_AND_SIZE = st.tuples(st.sampled_from(sorted(KINDS)), st.integers(0, 9))


@settings(max_examples=60, deadline=None)
@given(
    members=st.lists(KIND_AND_SIZE, min_size=6, max_size=6),
    g=st.integers(2, 5),
    victim=st.integers(1, 5),
)
def test_any_group_of_any_kinds_rebuilds_its_lost_member(members, g, victim):
    """XOR(block, peers...) through the lost member's template is the lost
    member — type, shape, dtypes, checksum — and frozen, for groups of 2-5
    members of mixed kinds and lengths."""
    payloads = [KINDS[kind](size) for kind, size in members]
    rt = make_rt(6)
    snap = parity_snap(rt, g=g, payload_fn=lambda i: payloads[i])
    rt.kill(victim)
    pid, heap_key = snap.locate(victim)
    assert heap_key[0] == "snapr"
    got = rt.heap_of(pid).get(heap_key)
    kind, size = members[victim]
    assert same_payload(got, KINDS[kind](size))
    assert payload_frozen(got)


def test_scrub_refills_the_primary_and_keeps_every_surviving_block(monkeypatch):
    """After a replace-mode restore the scrub refills the lost primary from
    its (CRC-verified) reconstruction; a block that survived is still valid
    for those bytes and stays the very object it was (linreg's partitions
    are block sets; a scrub that re-ships and re-XORs one charges transfers
    and flops for a block nobody lost)."""
    scrubs = []
    repair = ParityObjectSnapshot.repair

    def watched(snap, new_group=None):
        def held():
            return {
                gidx: rt.heap_of(snap._parity_place(gidx).id).get(snap._parity_key(gidx))
                for gidx in snap._groups()
                if snap._block_held(gidx)
            }

        before = held()
        repaired = repair(snap, new_group)
        after = held()
        assert snap.fully_redundant()
        assert before and all(after[gidx] is block for gidx, block in before.items())
        partition = rt.heap_of(0).get(("snap", snap.snap_id, 0))
        scrubs.append((type(partition), 1 + len(after) - len(before), repaired))
        return repaired

    monkeypatch.setattr(ParityObjectSnapshot, "repair", watched)
    entry = APPS["linreg"]
    rt = Runtime(6, cost=entry.bench_cost(), resilient=True, spares=1)
    app = entry.resilient(rt, entry.tiny_workload(8))
    rt.injector.kill_at_iteration(3, iteration=5)
    report = IterativeExecutor(
        rt, app, checkpoint_interval=3, mode=RestoreMode.REPLACE_REDUNDANT,
        replicas=1, placement=ParityPlacement(group=2),
    ).run()
    assert (report.restores, report.scrubs) == (1, 1)
    assert dict in [kind for kind, _, _ in scrubs]
    # Per checkpointed object: the one lost primary, and the blocks place 3 held.
    assert all(repaired == lost for _, lost, repaired in scrubs)
    assert report.scrub_repaired_copies == sum(lost for _, lost, _ in scrubs) == 5


# The four classes above again, once per other payload kind — as subclasses, so
# the ``Vector`` runs keep the test ids they had before there was an axis.
for _kind in KINDS:
    if _kind != "vector":
        for _base in (TestRecoveryLadder, TestIntegrity, TestRepair, TestDeltaComposition):
            _name = f"{_base.__name__}_{_kind.replace('-', '_')}"
            globals()[_name] = type(_name, (_base,), {"kind": _kind})
