"""Coverage for smaller public surfaces not exercised elsewhere."""

import numpy as np
import pytest

from repro.runtime import CostModel, Place, PlaceGroup, Runtime
from repro.runtime.exceptions import DeadPlaceException
from repro.runtime.comm import tree_reduce


class TestRuntimeAtCosts:
    """``at`` is a finish over one task: same clocks, stats and result."""

    @staticmethod
    def _world():
        rt = Runtime(3, cost=CostModel.unit(), resilient=True)
        rt.clock.advance(1, 5.0)  # a busy peer: the task waits for it
        return rt

    @pytest.mark.parametrize("place_id", [0, 2, 1])
    def test_at_equals_one_task_finish(self, place_id):
        def body(ctx):
            ctx.charge_flops(3)
            return ctx.place.id * 10

        by_at, by_finish = self._world(), self._world()
        result = by_at.at(Place(place_id), body)
        [expected] = by_finish.finish_tasks([(Place(place_id), body)])
        assert result == expected == place_id * 10
        assert by_at.clock.snapshot() == by_finish.clock.snapshot()
        assert by_at.stats == by_finish.stats
        assert by_at.stats.finishes == 1

    def test_at_a_dead_place_raises_after_the_finish(self):
        rt = self._world()
        rt.kill(2)
        with pytest.raises(DeadPlaceException):
            rt.at(Place(2), lambda ctx: None)
        assert rt.stats.finishes == 1


class TestCollectiveSubgroups:
    def test_reduce_on_noncontiguous_subgroup(self):
        rt = Runtime(6, cost=CostModel(latency=1.0))
        group = PlaceGroup.of_ids([1, 3, 5])
        tree_reduce(rt, group, root_index=1, nbytes=0)
        assert rt.stats.finishes == 1
        # Only subgroup members (plus the driver's join) advanced.
        assert rt.clock.now(2) == 0.0

    def test_finish_over_group_excluding_driver(self):
        rt = Runtime(4, cost=CostModel.unit())
        group = PlaceGroup.of_ids([2, 3])
        results = rt.finish_all(group, lambda ctx: ctx.place.id)
        assert results == [2, 3]
        assert rt.now() > 0  # the driver still paid spawn/join


class TestSnapshotIntrospection:
    def test_num_keys_and_has_key(self):
        from repro.matrix.dupvector import DupVector

        rt = Runtime(3, cost=CostModel.zero())
        v = DupVector.make(rt, 4).init(1.0)
        snap = v.make_snapshot()
        assert snap.num_keys == 3
        assert snap.has_key(0) and not snap.has_key(3)

    def test_app_snapshot_all_objects(self):
        from repro.matrix.dupvector import DupVector
        from repro.resilience.store import AppResilientStore

        rt = Runtime(3, cost=CostModel.zero())
        store = AppResilientStore(rt)
        a = DupVector.make(rt, 2).init(1.0)
        b = DupVector.make(rt, 2).init(2.0)
        store.start_new_snapshot()
        store.save(a)
        store.save_read_only(b)
        store.commit(0)
        assert set(store.latest().all_objects()) == {a, b}


class TestFinishTasksDirect:
    def test_explicit_task_list_with_repeats(self):
        rt = Runtime(3, cost=CostModel.zero())
        tasks = [
            (Place(1), lambda ctx: "a"),
            (Place(1), lambda ctx: "b"),
            (Place(2), lambda ctx: "c"),
        ]
        assert rt.finish_tasks(tasks) == ["a", "b", "c"]

    def test_empty_task_list(self):
        rt = Runtime(2, cost=CostModel.unit())
        assert rt.finish_tasks([]) == []


class TestDenseVectorConstructors:
    def test_from_function(self):
        from repro.matrix.dense import DenseMatrix

        a = DenseMatrix.from_function(3, 2, lambda i, j: i * 10 + j)
        assert a.data[2, 1] == 21.0

    def test_vector_of_and_random(self):
        from repro.matrix.vector import Vector

        assert Vector.of([1, 2]).n == 2
        v = Vector.random(5, np.random.default_rng(0))
        assert v.n == 5 and (0 <= v.data).all() and (v.data < 1).all()


class TestCliDiagnostics:
    def test_profile_and_timeline_flags(self, capsys):
        from repro.cli import main

        assert main([
            "run", "pagerank", "--places", "3", "--iterations", "3",
            "--profile", "--timeline",
        ]) == 0
        out = capsys.readouterr().out
        assert "per-operation profile" in out
        assert "finish timeline" in out
        assert "matvec" in out
