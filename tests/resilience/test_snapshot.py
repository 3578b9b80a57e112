"""Tests for the double in-memory snapshot store (§IV-B)."""

import numpy as np
import pytest

from repro.matrix.vector import Vector
from repro.resilience.snapshot import DistObjectSnapshot
from repro.runtime import CostModel, DataLossError, PlaceGroup, Runtime


def make_rt(n=4, cost=None):
    return Runtime(n, cost=cost or CostModel.zero())


def save_all(rt, snap, payload_fn):
    """Save one payload per group index from the owning places."""
    group = snap.group

    def task(ctx):
        index = group.index_of(ctx.place)
        snap.save_from(ctx, index, payload_fn(index))

    rt.finish_all(group, task)


class TestSaveLocate:
    def test_primary_and_backup_placement(self):
        rt = make_rt(3)
        snap = DistObjectSnapshot(rt, rt.world)
        save_all(rt, snap, lambda i: Vector.of([float(i)]))
        # Primary on owner, backup on the next place (wrapping).
        assert rt.heap_of(0).contains(("snap", snap.snap_id, 0))
        assert rt.heap_of(1).contains(("snapb", snap.snap_id, 0, 1))
        assert rt.heap_of(0).contains(("snapb", snap.snap_id, 2, 1))  # wrap

    def test_locate_prefers_primary(self):
        rt = make_rt(3)
        snap = DistObjectSnapshot(rt, rt.world)
        save_all(rt, snap, lambda i: Vector.of([float(i)]))
        pid, key = snap.locate(1)
        assert pid == 1 and key[0] == "snap"

    def test_locate_falls_back_to_backup(self):
        rt = make_rt(3)
        snap = DistObjectSnapshot(rt, rt.world)
        save_all(rt, snap, lambda i: Vector.of([float(i)]))
        rt.kill(1)
        pid, key = snap.locate(1)
        assert pid == 2 and key[0] == "snapb"

    def test_rows_carry_the_heap_keys_in_ladder_order(self):
        from repro.resilience.placement import SpreadPlacement

        rt = make_rt(6)
        snap = DistObjectSnapshot(rt, rt.world, backups=2, placement=SpreadPlacement())
        sid = snap.snap_id
        assert snap._rows[1] == (
            (0, 1, ("snap", sid, 1)),
            (1, 3, ("snapb", sid, 1, 1)),
            (2, 5, ("snapb", sid, 1, 2)),
        )
        assert [[pid for _, pid, _ in row] for row in snap._rows] == [
            [place.id for place in homes] for homes in snap._homes
        ]

    def test_rows_are_derived_not_shipped_and_follow_a_rebind(self):
        """Fork images carry the copy table, not its rows; a load (like a
        ``rebind_group``) rebuilds them on first use."""
        from repro.engine.fork import ForkContext

        rt = Runtime(4, cost=CostModel.zero(), spares=1)
        snap = DistObjectSnapshot(rt, rt.world)
        save_all(rt, snap, lambda i: Vector.of([float(i)]))
        rows = snap._rows
        assert "_rows" in vars(snap)
        loaded = ForkContext().capture(snap).load()
        assert "_rows" not in vars(loaded) and "_rows" in vars(snap)
        assert loaded._rows == rows and loaded.locate(2) == snap.locate(2)
        rt.kill(2)
        snap.rebind_group(rt.world.replace(rt.world[2], rt.claim_spare()))
        assert [pid for _, pid, _ in snap._rows[2]] == [4, 3]
        assert [pid for _, pid, _ in snap._rows[1]] == [1, 4]
        assert not snap.key_intact(2) and not snap.key_intact(1) and snap.key_intact(3)

    def test_save_from_wrong_place_rejected(self):
        rt = make_rt(2)
        snap = DistObjectSnapshot(rt, rt.world)
        with pytest.raises(ValueError, match="partition 1 must be saved from group index 1"):
            rt.finish_all(
                PlaceGroup.of_ids([0]),
                lambda ctx: snap.save_from(ctx, 1, Vector.make(1)),
            )
        for bad_key in (-1, 2):
            with pytest.raises(ValueError, match=f"partition {bad_key} must be saved"):
                rt.finish_all(
                    PlaceGroup.of_ids([1]),
                    lambda ctx, key=bad_key: snap.save_from(ctx, key, Vector.make(1)),
                )
        # An equal Place that is not the group's own object still owns its key.
        rt.finish_all(
            PlaceGroup.of_ids([1]), lambda ctx: snap.save_from(ctx, 1, Vector.make(1))
        )
        assert snap.has_key(1)

    def test_single_place_group_double_local(self):
        rt = make_rt(2)
        g = PlaceGroup.of_ids([1])
        snap = DistObjectSnapshot(rt, g)
        save_all(rt, snap, lambda i: Vector.of([7.0]))
        assert rt.heap_of(1).contains(("snap", snap.snap_id, 0))
        assert rt.heap_of(1).contains(("snapb", snap.snap_id, 0, 1))

    def test_missing_key(self):
        rt = make_rt(2)
        snap = DistObjectSnapshot(rt, rt.world)
        with pytest.raises(ValueError):
            snap.locate(0)


class TestFailureTolerance:
    def test_survives_any_single_failure(self):
        for victim in (1, 2, 3):
            rt = make_rt(4)
            snap = DistObjectSnapshot(rt, rt.world)
            save_all(rt, snap, lambda i: Vector.of([float(i) * 10]))
            rt.kill(victim)
            for key in range(4):
                pid, heap_key = snap.locate(key)
                value = rt.heap_of(pid).get(heap_key)
                assert value.data[0] == key * 10

    def test_survives_non_adjacent_double_failure(self):
        rt = make_rt(4)
        snap = DistObjectSnapshot(rt, rt.world)
        save_all(rt, snap, lambda i: Vector.of([float(i)]))
        rt.kill(1)
        rt.kill(3)
        for key in range(4):
            snap.locate(key)  # no raise

    def test_adjacent_double_failure_loses_data(self):
        # Places 1 and 2 adjacent: key 1's primary (on 1) and backup (on 2)
        # are both gone — the documented limit of the double store.
        rt = make_rt(4)
        snap = DistObjectSnapshot(rt, rt.world)
        save_all(rt, snap, lambda i: Vector.of([float(i)]))
        rt.kill(1)
        rt.kill(2)
        with pytest.raises(DataLossError):
            snap.locate(1)
        # Other keys are still recoverable.
        snap.locate(0)
        snap.locate(2)  # primary dead, backup on 3 alive
        snap.locate(3)


class TestFetch:
    def test_fetch_local_vs_remote(self):
        rt = make_rt(3, cost=CostModel.unit())
        snap = DistObjectSnapshot(rt, rt.world)
        save_all(rt, snap, lambda i: Vector.of([float(i)] * 4))

        fetched = {}

        def load(ctx):
            index = snap.group.index_of(ctx.place)
            fetched[index] = snap.fetch(ctx, index)

        rt.finish_all(rt.world, load)
        for i in range(3):
            assert np.all(fetched[i].data == i)

    def test_fetch_with_extractor_runs_at_source(self):
        rt = make_rt(2, cost=CostModel(flop_time=1.0))
        snap = DistObjectSnapshot(rt, rt.world)
        save_all(rt, snap, lambda i: Vector.of(np.arange(10.0)))
        t_before = rt.clock.now(1)

        def load(ctx):
            return snap.fetch(ctx, 1, extract=lambda v: v.sub_vector(2, 5), extract_flops=50)

        piece = rt.at(rt.world[0], load)
        assert np.allclose(piece.data, [2, 3, 4])
        # Extraction cost charged at the source place (place 1).
        assert rt.clock.now(1) >= t_before + 50.0

    def test_delete_frees_copies(self):
        rt = make_rt(3)
        snap = DistObjectSnapshot(rt, rt.world)
        save_all(rt, snap, lambda i: Vector.of([1.0]))
        snap.delete()
        for pid in range(3):
            assert len(rt.heap_of(pid).keys_with_prefix(("snap",))) == 0
            assert len(rt.heap_of(pid).keys_with_prefix(("snapb",))) == 0

    def test_total_nbytes_accumulates(self):
        rt = make_rt(2)
        snap = DistObjectSnapshot(rt, rt.world)
        save_all(rt, snap, lambda i: Vector.of(np.zeros(8)))
        assert snap.total_nbytes > 0
        assert snap.num_keys == 2
