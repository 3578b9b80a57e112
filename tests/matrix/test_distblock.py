"""Tests for DistBlockMatrix: layout, remake modes, snapshot/restore."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrix.distblock import DistBlockMatrix, owners_of, regrid_plan
from repro.matrix.distvector import DistVector
from repro.matrix.dupvector import DupVector
from repro.matrix.grid import Grid
from repro.matrix.ops import dist_block_matvec
from repro.matrix.random import LinkMatrix, dense_strip
from repro.runtime import CostModel, DeadPlaceException, PlaceGroup, Runtime
from tests.resilience.payload_kinds import same_bytes


def make_rt(n=4):
    return Runtime(n, cost=CostModel.zero())


class TestConstruction:
    def test_make_dense_grouped(self):
        rt = make_rt(4)
        g = DistBlockMatrix.make_dense(rt, 16, 6, 8)
        assert g.blocks_per_place() == [2, 2, 2, 2]
        assert g.aligned_row_partition().sizes == [4, 4, 4, 4]

    def test_invalid_kind(self):
        rt = make_rt(2)
        with pytest.raises(ValueError):
            DistBlockMatrix(rt, Grid.partition(4, 4, 2), rt.world, "diagonal")

    def test_subgroup(self):
        rt = make_rt(4)
        group = PlaceGroup.of_ids([1, 2])
        g = DistBlockMatrix.make_dense(rt, 8, 4, 4, group=group)
        assert g.blocks_per_place() == [2, 2]
        assert rt.heap_of(0).get_or(g.heap_key) is None

    def test_too_few_row_blocks_are_refused_at_make_and_at_remake(self):
        rt = make_rt(4)
        with pytest.raises(ValueError, match="^3 blocks cannot cover 4 places$"):
            DistBlockMatrix.make_dense(rt, 16, 4, 3)
        g = DistBlockMatrix.make_dense(rt, 16, 4, 4)
        with pytest.raises(ValueError, match="^2 blocks cannot cover 4 places$"):
            g.remake(rt.world, new_grid=Grid.partition(16, 4, 2))


class TestInitialization:
    def test_dense_random_deterministic(self):
        a = DistBlockMatrix.make_dense(make_rt(3), 9, 4, 6).init_random(5)
        b = DistBlockMatrix.make_dense(make_rt(2), 9, 4, 6).init_random(5)
        # Same grid, different place counts: same logical matrix.
        assert np.array_equal(a.to_dense().data, b.to_dense().data)

    def test_sparse_random(self):
        g = DistBlockMatrix.make_sparse(make_rt(2), 10, 10, 4).init_random(3, density=0.3)
        assert 0 < g.total_nnz() <= 30 + 4  # rounding per block

    def test_link_matrix_grid_independent(self):
        link = LinkMatrix(24, 4, seed=9)
        a = DistBlockMatrix.make_sparse(make_rt(3), 24, 24, 6).init_link_matrix(link)
        b = DistBlockMatrix.make_sparse(make_rt(2), 24, 24, 4).init_link_matrix(link)
        assert np.array_equal(a.to_dense().data, b.to_dense().data)

    def test_link_matrix_requires_sparse(self):
        rt = make_rt(2)
        g = DistBlockMatrix.make_dense(rt, 8, 8, 4)
        with pytest.raises(ValueError):
            g.init_link_matrix(LinkMatrix(8, 2))

    def test_init_from_dense_roundtrip(self):
        rt = make_rt(3)
        from repro.matrix.dense import DenseMatrix

        src = DenseMatrix.from_function(9, 7, lambda i, j: i * 7.0 + j)
        g = DistBlockMatrix.make_dense(rt, 9, 7, 3).init_from_dense(src)
        assert np.array_equal(g.to_dense().data, src.data)
        s = DistBlockMatrix.make_sparse(rt, 9, 7, 3).init_from_dense(src)
        assert np.array_equal(s.to_dense().data, src.data)


def _tiles_in_group_order(g):
    """*g*'s aligned row partition tiles ``0..m`` in group order, each
    place's band being its consecutive run of row blocks."""
    part, plan = g.aligned_row_partition(), g.task_plan()
    cursor = 0
    for index in range(g.group.size):
        run = [rb for rb, _, _ in plan.blocks[index]]
        assert run == list(range(run[0], run[-1] + 1))
        blocks = list(g.block_set(index))
        assert [block.rb for block in blocks] == run
        span = (blocks[0].row_range()[0], blocks[-1].row_range()[1])
        assert span == (cursor, cursor + part.sizes[index])
        cursor += part.sizes[index]
    assert cursor == part.n == g.m


class TestLayoutQueries:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_block_column_is_row_aligned(self, data):
        """Every way a layout is made — ``make`` over any group, a keep-grid
        ``remake`` onto any non-empty subgroup, a ``remake`` onto one row
        block per place — has an aligned row partition tiling the rows in
        group order, and a matvec into it moves nothing between places."""
        world = data.draw(st.integers(1, 6), label="world")
        ids = st.lists(st.integers(0, world - 1), min_size=1, unique=True).map(sorted)
        members = data.draw(ids, label="group")
        row_blocks = data.draw(st.integers(len(members), 12), label="row_blocks")
        m = data.draw(st.integers(row_blocks, 40), label="m")
        survivors = data.draw(
            st.lists(st.sampled_from(members), min_size=1, unique=True).map(sorted),
            label="survivors",
        )
        rt = Runtime(world, cost=CostModel.unit(), trace=True)
        g = DistBlockMatrix.make_dense(rt, m, 3, row_blocks, group=PlaceGroup.of_ids(members))
        layouts = [
            lambda: None,
            lambda: g.remake(PlaceGroup.of_ids(survivors)),
            lambda: g.remake(g.group, new_grid=Grid.partition(m, 3, g.group.size)),
        ]
        for make_layout in layouts:
            make_layout()
            _tiles_in_group_order(g)
            x = DupVector.make(rt, 3, g.group).init_random(1)
            y = DistVector.make(rt, m, g.group, g.aligned_row_partition())
            rt.engine.timeline.clear()
            dist_block_matvec(g, x, y)
            assert rt.engine.timeline.of_kind("transfer") == []

    def test_row_spans(self):
        rt = make_rt(2)
        g = DistBlockMatrix.make_dense(rt, 8, 4, 4)
        spans = [[block.row_range() for block in g.block_set(i)] for i in range(2)]
        assert spans == [[(0, 2), (2, 4)], [(4, 6), (6, 8)]]


class TestRemake:
    def test_shrink_keeps_grid(self):
        rt = make_rt(4)
        g = DistBlockMatrix.make_dense(rt, 16, 4, 8).init_random(1)
        rt.kill(3)
        g.remake(rt.live_world())
        # Same 8-block grid dealt over 3 places: 3/3/2.
        assert g.grid.num_row_blocks == 8
        assert g.blocks_per_place() == [3, 3, 2]

    def test_rebalance_new_grid(self):
        rt = make_rt(4)
        g = DistBlockMatrix.make_dense(rt, 16, 4, 8).init_random(1)
        rt.kill(3)
        survivors = rt.live_world()
        g.remake(survivors, new_grid=Grid.partition(16, 4, survivors.size))
        assert g.grid.num_row_blocks == 3
        assert g.blocks_per_place() == [1, 1, 1]

    def test_remake_clears_data(self):
        rt = make_rt(2)
        g = DistBlockMatrix.make_dense(rt, 8, 4, 4).init_random(1)
        g.remake(rt.world)
        assert g.to_dense().norm_f() == 0.0

    def test_remake_rejects_wrong_shape_grid(self):
        rt = make_rt(2)
        g = DistBlockMatrix.make_dense(rt, 8, 4, 4)
        with pytest.raises(ValueError):
            g.remake(rt.world, new_grid=Grid.partition(9, 4, 3))


class TestSnapshotRestore:
    def _matrix(self, rt, kind="dense", m=20, n=8, rbs=10):
        return self._filled(DistBlockMatrix(rt, Grid.partition(m, n, rbs), rt.world, kind))

    @staticmethod
    def _filled(g):
        return g.init_random(7) if g.kind == "dense" else g.init_random(7, density=0.3)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_restore_same_group(self, kind):
        rt = make_rt(4)
        g = self._matrix(rt, kind)
        ref = g.to_dense().data
        snap = g.make_snapshot()
        g.remake(rt.world)
        g.restore_snapshot(snap)
        assert np.array_equal(g.to_dense().data, ref)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_shrink_restore_block_by_block(self, kind):
        rt = make_rt(4)
        g = self._matrix(rt, kind)
        ref = g.to_dense().data
        snap = g.make_snapshot()
        rt.kill(2)
        g.remake(rt.live_world())  # grid kept
        g.restore_snapshot(snap)  # owners dealt again from the saved row sizes
        assert g.to_dense().data.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_rebalance_restore_regridded(self, kind):
        rt = make_rt(4)
        g = self._matrix(rt, kind)
        ref = g.to_dense().data
        snap = g.make_snapshot()
        rt.kill(2)
        survivors = rt.live_world()
        g.remake(survivors, new_grid=Grid.partition(20, 8, survivors.size))
        g.restore_snapshot(snap)
        assert g.to_dense().data.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_snapshot_meta_stores_no_block_owners(self, kind):
        # A restore deals the saved row sizes over the snapshot's group again.
        snap = self._matrix(make_rt(4), kind).make_snapshot()
        assert set(snap.meta) == {"kind", "row_sizes", "block_nnz"}

    def test_warm_link_regrid_restore_shares_the_graph(self):
        """A shrink-rebalance restore of a PageRank link matrix whose graph
        is already built joins each new band's frozen rows as one view of
        the graph: it allocates under 10% of the graph's bytes."""
        link = LinkMatrix(6000, 200, seed=42)
        graph = link.global_csr()
        rt = make_rt(12)
        g = DistBlockMatrix.make_sparse(rt, 6000, 6000, 12).init_link_matrix(link)
        snap = g.make_snapshot()
        rt.kill(5)
        survivors = rt.live_world()
        g.remake(survivors, new_grid=Grid.partition(6000, 6000, survivors.size))
        tracemalloc.start()
        try:
            g.restore_snapshot(snap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * graph.nbytes
        for index in range(survivors.size):
            for block in g.block_set(index):
                r0, r1 = block.row_range()
                want = graph.sub_matrix(r0, r1, 0, 6000)
                assert np.shares_memory(block.data.values, graph.values)
                same_bytes(block.data, want)

    def _regridded_dense(self, seed, places=12, rows=250, cols=100):
        """A uniform full-width dense matrix on *places* (two blocks each),
        its bytes, its snapshot, and the matrix restored after one kill onto
        one row block per survivor, with the restore's traced allocation peak."""
        rt = make_rt(places)
        m = 2 * places * rows
        g = DistBlockMatrix.make_dense(rt, m, cols, 2 * places).init_random(seed)
        ref = g.to_dense().data
        snap = g.make_snapshot()
        rt.kill(5)
        survivors = rt.live_world()
        g.remake(survivors, new_grid=Grid.partition(m, cols, survivors.size))
        tracemalloc.start()
        try:
            g.restore_snapshot(snap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return g, ref, snap, peak

    def test_warm_dense_regrid_restore_shares_the_input(self):
        """A shrink-rebalance restore of a dense input joins each new band's
        frozen rows as one view of the input's strip: it allocates
        under 10% of the matrix's bytes, where pasting copies all of it."""
        g, ref, _, peak = self._regridded_dense(seed=4242)
        assert peak < 0.1 * ref.nbytes
        strip = dense_strip(4242, [250] * 24, 100).data
        for index in range(g.group.size):
            for block in g.block_set(index):
                r0, r1 = block.row_range()
                assert np.shares_memory(block.data.data, strip)
                assert block.data.data.tobytes() == ref[r0:r1].tobytes()

    def test_touching_a_regridded_block_detaches_it(self):
        """A writer on a block that views the input strip copies its rows
        first: neither the strip nor the snapshot's blocks change."""
        g, ref, snap, _ = self._regridded_dense(seed=4243, places=4, rows=6, cols=5)
        strip = dense_strip(4243, [6] * 8, 5).data
        before = strip.tobytes()
        block = next(iter(g.block_set(0)))
        r0, r1 = block.row_range()
        with pytest.raises(ValueError):
            block.data.data[0, 0] = -1.0
        block.data.scale(2.0)
        assert not np.shares_memory(block.data.data, strip)
        assert np.array_equal(block.data.data, 2.0 * ref[r0:r1])
        assert strip.tobytes() == before
        g.restore_snapshot(snap)
        assert np.array_equal(g.to_dense().data, ref)

    def test_restore_kind_mismatch(self):
        rt = make_rt(2)
        g = self._matrix(rt, "dense", m=8, n=4, rbs=4)
        snap = g.make_snapshot()
        s = DistBlockMatrix.make_sparse(rt, 8, 4, 4)
        with pytest.raises(ValueError):
            s.restore_snapshot(snap)

    def test_snapshot_isolated_from_live_updates(self):
        rt = make_rt(2)
        g = self._matrix(rt, "dense", m=8, n=4, rbs=4)
        ref = g.to_dense().data
        snap = g.make_snapshot()
        g.init_random(99)  # overwrite live data
        g.restore_snapshot(snap)
        assert np.array_equal(g.to_dense().data, ref)

    def test_dead_member_fails_snapshot(self):
        # Two exceptions surface: place 1's own task cannot run, and place
        # 0's backup copy targets dead place 1 — X10 aggregates them.
        from repro.runtime import MultipleException

        rt = make_rt(3)
        g = self._matrix(rt, "dense", m=9, n=4, rbs=3)
        rt.kill(1)
        with pytest.raises((DeadPlaceException, MultipleException)) as exc_info:
            g.make_snapshot()
        assert exc_info.value.places == [1]

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["dense", "sparse"]), data=st.data())
    def test_any_regrid_restore_is_identity(self, kind, data):
        """Property: snapshot → remake with ANY row blocking (zero-height
        blocks included) → restore gathers bitwise to the source."""
        places = 3
        m, n = data.draw(st.integers(0, 30), label="m"), data.draw(st.integers(1, 8), label="n")
        old, new = (Grid(m, n, data.draw(_bands(m, places), label=name)) for name in ("old", "new"))
        rt = make_rt(places)
        g = self._filled(DistBlockMatrix(rt, old, rt.world, kind))
        ref = g.to_dense().data
        snap = g.make_snapshot()
        g.remake(rt.world, new_grid=new)
        g.restore_snapshot(snap)
        assert g.to_dense().data.tobytes() == ref.tobytes()


@st.composite
def _bands(draw, total, min_bands=1):
    """At least *min_bands* band sizes summing to *total*, zero-size bands
    included."""
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=min_bands - 1, max_size=7)))
    edges = [0, *cuts, total]
    return [hi - lo for lo, hi in zip(edges, edges[1:])]


@st.composite
def _old_and_new_grids(draw):
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    return tuple(Grid(m, n, draw(_bands(m))) for _ in range(2))


class TestRegridPlan:
    @settings(max_examples=200, deadline=None)
    @given(grids=_old_and_new_grids(), sparse=st.booleans(), data=st.data())
    def test_pieces_tile_every_new_block_once(self, grids, sparse, data):
        """Every planned piece is a non-empty full-width row range inside its
        old block, read from the place the dealing rule gave that block, and
        the pieces of a new block cover its rows exactly once, top to bottom."""
        old, new = grids
        places = data.draw(st.integers(1, old.num_row_blocks), label="old places")
        owners = owners_of(old.num_row_blocks, places)
        plan = regrid_plan(new, old, places, {} if sparse else None)
        assert len(plan) == new.num_row_blocks
        for rb, pieces in enumerate(plan):
            cursor = new.row_offsets[rb]
            for owner, (orb, zero), (r0, r1, c0, c1), flops, nbytes in pieces:
                assert (owner, zero, c0, c1) == (owners[orb], 0, 0, new.n)
                assert 0 <= r0 < r1 <= old.row_sizes[orb]
                assert old.row_offsets[orb] + r0 == cursor
                if not sparse:
                    assert (flops, nbytes) == (0.0, (r1 - r0) * new.n * 8)
                cursor += r1 - r0
            assert cursor == new.row_offsets[rb + 1]


class TestSharedZeroBlocks:
    """Fresh dense blocks alias one frozen zero block per shape (copy-on-write)."""

    @staticmethod
    def _fresh():
        from repro.matrix.random import zero_dense_block

        g = DistBlockMatrix.make_dense(make_rt(2), 8, 3, 2)
        (a,), (b,) = g.block_set(0), g.block_set(1)
        return a.data, b.data, zero_dense_block(4, 3)

    def test_fresh_blocks_of_one_shape_share_memory(self):
        a, b, shared = self._fresh()
        assert np.shares_memory(a.data, b.data)
        assert np.shares_memory(a.data, shared.data)
        assert a is not b and not a.data.any()

    def test_raw_write_raises(self):
        a, _, _ = self._fresh()
        with pytest.raises(ValueError, match="read-only"):
            a.data[0, 0] = 1.0

    @pytest.mark.parametrize("write", ["scale", "set_sub_matrix", "mult", "fill"])
    def test_api_write_detaches(self, write):
        from repro.matrix.dense import DenseMatrix

        a, b, shared = self._fresh()
        ones = DenseMatrix(np.ones((4, 3)))
        {
            "scale": lambda: a.scale(2.0),
            "set_sub_matrix": lambda: a.set_sub_matrix(1, 1, DenseMatrix(np.ones((2, 2)))),
            "mult": lambda: a.mult(ones, DenseMatrix(np.eye(3))),
            "fill": lambda: a.fill(7.0),
        }[write]()
        assert not np.shares_memory(a.data, b.data)
        assert (a.data != 0).any() or write == "scale"
        assert not b.data.any() and not shared.data.any()
        assert not self._fresh()[0].data.any()

    def test_remake_realiases_the_shared_block(self):
        rt = make_rt(3)
        g = DistBlockMatrix.make_dense(rt, 12, 3, 3).init_random(5)
        rt.kill(2)
        g.remake(rt.live_group(g.group))
        blocks = [blk.data for i in range(2) for blk in g.block_set(i)]
        assert all(np.shares_memory(blk.data, blocks[0].data) for blk in blocks)
        assert not any(blk.data.any() for blk in blocks)
