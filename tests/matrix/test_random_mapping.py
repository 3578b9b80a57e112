"""Tests for deterministic random init and block→place mappings."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrix import random as random_mod
from repro.matrix.grid import Grid
from repro.matrix.mapping import (
    CyclicBlockMap,
    GroupedBlockMap,
    PlaceGridBlockMap,
    factor_place_grid,
)
from repro.matrix.random import (
    LinkMatrix,
    random_dense_block,
    random_sparse_block,
    random_vector,
)
from repro.matrix.sparse import SparseCSR


def _reference_edges(link):
    """``(rows, cols)`` of every edge, column-ordered, duplicates kept: the
    COO triplet generator the keyed build replaced, kept as the reference."""
    golden, mix1, mix2 = (
        np.uint64(0x9E3779B97F4A7C15),
        np.uint64(0xBF58476D1CE4E5B9),
        np.uint64(0x94D049BB133111EB),
    )
    cols = np.repeat(np.arange(link.n, dtype=np.uint64), link.out_degree)
    ks = np.tile(np.arange(link.out_degree, dtype=np.uint64), link.n)
    with np.errstate(over="ignore"):
        z = np.uint64(link.seed) * golden + cols * np.uint64(0x100000001B3) + ks + golden
        z = (z ^ (z >> np.uint64(30))) * mix1
        z = (z ^ (z >> np.uint64(27))) * mix2
        z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(link.n)).astype(np.int64), cols.astype(np.int64)


class TestRandomBlocks:
    def test_dense_deterministic(self):
        a = random_dense_block(7, 1, 2, 4, 5)
        b = random_dense_block(7, 1, 2, 4, 5)
        assert np.array_equal(a.data, b.data)

    def test_dense_blocks_differ(self):
        a = random_dense_block(7, 1, 2, 4, 5)
        b = random_dense_block(7, 2, 1, 4, 5)
        assert not np.array_equal(a.data, b.data)

    def test_sparse_deterministic_and_sized(self):
        a = random_sparse_block(3, 0, 0, 10, 10, 0.2)
        b = random_sparse_block(3, 0, 0, 10, 10, 0.2)
        assert a.nnz == 20
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_sparse_density_bounds(self):
        with pytest.raises(ValueError):
            random_sparse_block(0, 0, 0, 4, 4, 1.5)

    def test_sparse_empty(self):
        assert random_sparse_block(0, 0, 0, 4, 4, 0.0).nnz == 0
        assert random_sparse_block(0, 0, 0, 0, 4, 0.5).nnz == 0

    def test_vector_deterministic_by_tag(self):
        assert np.array_equal(random_vector(5, 8, tag=1), random_vector(5, 8, tag=1))
        assert not np.array_equal(random_vector(5, 8, tag=1), random_vector(5, 8, tag=2))


class TestLinkMatrix:
    def test_column_stochastic(self):
        link = LinkMatrix(30, 4, seed=1)
        full = link.block(0, 30, 0, 30).to_dense()
        assert np.allclose(full.sum(axis=0), 1.0)

    @settings(max_examples=20)
    @given(
        n=st.integers(4, 50),
        rb=st.integers(1, 4),
        cb=st.integers(1, 4),
        seed=st.integers(0, 100),
    )
    def test_grid_independence(self, n, rb, cb, seed):
        """Any blocking of the link matrix reassembles to the same matrix."""
        link = LinkMatrix(n, 3, seed=seed)
        full = link.block(0, n, 0, n).to_dense()
        grid = Grid.partition(n, n, rb, cb)
        assembled = np.zeros((n, n))
        for brb, bcb in grid.iter_blocks():
            r = grid.block_region(brb, bcb)
            assembled[r.row_start : r.row_end, r.col_start : r.col_end] = link.block(
                r.row_start, r.row_end, r.col_start, r.col_end
            ).to_dense()
        assert np.array_equal(assembled, full)

    def test_destination_range(self):
        """All ``n * out_degree`` edges land inside the matrix: colliding
        destinations coalesce, but no weight is lost."""
        link = LinkMatrix(10, 5, seed=3)
        full = link.block(0, 10, 0, 10)
        assert full.indices.min() >= 0 and full.indices.max() < 10
        assert full.nnz <= link.nnz_estimate()
        assert full.values.sum() == pytest.approx(50 / 5)

    @pytest.mark.parametrize(
        "n, out_degree, seed",
        [(7, 3, 0), (40, 4, 11), (5, 23, 2), (1, 4, 9), (4000, 10, 1234)],
    )
    @pytest.mark.parametrize("rb, cb", [(1, 1), (3, 1), (4, 3), (7, 5)])
    def test_block_bytes_match_per_block_build(self, n, out_degree, seed, rb, cb):
        """Slices of the global CSR are byte-identical to building each
        block on its own from the raw edge list (mask, then ``from_coo``).
        ``out_degree > n`` makes nearly every entry a coalesced duplicate;
        the largest case crosses ``_SCIPY_BUILD_MIN``."""
        link = LinkMatrix(n, out_degree, seed=seed)
        rows, cols = _reference_edges(link)
        grid = Grid.partition(n, n, min(rb, n), min(cb, n))
        for brb, bcb in grid.iter_blocks():
            r = grid.block_region(brb, bcb)
            r0, r1, c0, c1 = r.row_start, r.row_end, r.col_start, r.col_end
            keep = (rows >= r0) & (rows < r1) & (cols >= c0) & (cols < c1)
            reference = SparseCSR.from_coo(
                r1 - r0,
                c1 - c0,
                rows[keep] - r0,
                cols[keep] - c0,
                np.full(int(keep.sum()), 1.0 / out_degree),
            )
            block = link.block(r0, r1, c0, c1)
            assert block.shape == reference.shape
            for got, want in zip(block.payload_arrays(), reference.payload_arrays()):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "n, out_degree, seed",
        [(7, 3, 0), (1, 4, 9), (5, 23, 2), (50, 70, 3), (4000, 10, 1234)],
    )
    def test_keyed_build_matches_triplet_build(self, n, out_degree, seed, monkeypatch):
        """The keyed single-pass build gives the bytes and dtypes of
        ``from_coo`` on the old triplets, incl. ``out_degree > n``, ``n = 1``
        and a graph above ``_SCIPY_BUILD_MIN``."""
        monkeypatch.setattr(random_mod, "_input_memo", random_mod._InputMemo(1 << 24))
        link = LinkMatrix(n, out_degree, seed=seed)
        rows, cols = _reference_edges(link)
        reference = SparseCSR.from_coo(
            n, n, rows, cols, np.full(len(rows), 1.0 / out_degree)
        )
        keyed = link.global_csr()
        for got, want in zip(keyed.payload_arrays(), reference.payload_arrays()):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_cold_build_peak_is_bounded(self, monkeypatch):
        """A cold build peaks at <= 3x the finished CSR (triplet build: 4.6x)."""
        monkeypatch.setattr(random_mod, "_input_memo", random_mod._InputMemo(1 << 28))
        tracemalloc.start()
        try:
            graph = LinkMatrix(6000, 200, seed=42).global_csr()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * graph.nbytes

    def test_block_range_validated(self):
        link = LinkMatrix(12, 3)
        for bad in [(-5, 22, 0, 12), (0, 13, 0, 12), (8, 4, 0, 12), (0, 12, -1, 12),
                    (0, 12, 0, 13), (-1, 6, 2, 8)]:
            with pytest.raises(ValueError):
                link.block(*bad)
        assert link.block(12, 12, 0, 12).shape == (0, 12)

    def test_blocks_are_copy_on_write(self, monkeypatch):
        """Mutating a block reaches neither the memo nor a sibling block."""
        link = LinkMatrix(30, 4, seed=5)
        for r0, r1, c0, c1 in [(3, 20, 0, 30), (3, 20, 5, 25)]:
            block, sibling = link.block(r0, r1, c0, c1), link.block(r0, r1, c0, c1)
            if c1 - c0 == 30:  # full width: read-only slices of the memo
                assert np.shares_memory(block.values, link.global_csr().values)
                with pytest.raises(ValueError):
                    block.indices[0] = 29
                with pytest.raises(ValueError):
                    block.values[0] = -1.0
            block.scale(3.0)
            block.touch()
            block.values[0] = -1.0
            assert not np.shares_memory(block.values, sibling.values)
            with monkeypatch.context() as patch:
                patch.setattr(random_mod, "_input_memo", random_mod._InputMemo(1 << 20))
                fresh = LinkMatrix(30, 4, seed=5).block(r0, r1, c0, c1)
            for other in (sibling, link.block(r0, r1, c0, c1)):
                for got, want in zip(other.payload_arrays(), fresh.payload_arrays()):
                    assert got.tobytes() == want.tobytes()

    def test_writable_parent_still_copies(self):
        parent = SparseCSR.from_coo(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
        sub = parent.sub_matrix(1, 3, 0, 3)
        sub.values[0] = 9.0
        sub.indices[0] = 0
        assert parent.values[1] == 2.0 and parent.indices[1] == 1

    def test_memo_is_frozen_and_shared(self):
        a, b = LinkMatrix(25, 3, seed=8), LinkMatrix(25, 3, seed=8)
        a.block(0, 25, 0, 25)
        entries = len(random_mod._input_memo.entries)
        assert a.global_csr() is b.global_csr()
        b.block(0, 5, 0, 25)
        assert len(random_mod._input_memo.entries) == entries
        for array in a.global_csr().payload_arrays():
            with pytest.raises(ValueError):
                array[0] = 1

    def test_memo_evicts_only_the_oldest(self, monkeypatch):
        links = [LinkMatrix(6 + i, 2) for i in range(4)]
        sizes = [link.global_csr().nbytes for link in links]
        memo = random_mod._InputMemo(sum(sizes[1:]))  # all but the first fit
        monkeypatch.setattr(random_mod, "_input_memo", memo)
        kept = [link.global_csr() for link in links[:-1]]
        links[-1].block(0, 1, 0, 9)
        assert list(memo.entries) == [(0, 7, 2), (0, 8, 2), (0, 9, 2)]
        assert memo.nbytes == sum(sizes[1:])
        assert links[2].global_csr() is kept[2]
        assert links[1].global_csr() is kept[1]

    def test_nnz_estimate(self):
        assert LinkMatrix(10, 5).nnz_estimate() == 50

    def test_invalid(self):
        with pytest.raises(ValueError):
            LinkMatrix(0, 5)
        with pytest.raises(ValueError):
            LinkMatrix(5, 0)


class TestInputMemo:
    """One insertion-ordered, byte-budgeted memo behind every generated input."""

    @pytest.fixture
    def memo(self, monkeypatch):
        # Room for three 8x8 dense blocks (512 B each) and change.
        memo = random_mod._InputMemo(1700)
        monkeypatch.setattr(random_mod, "_input_memo", memo)
        return memo

    def test_evicts_oldest_first_by_bytes(self, memo):
        for rb in range(3):
            random_dense_block(1, rb, 0, 8, 8)
        assert list(memo.entries) == [(1, rb, 0, 8, 8) for rb in range(3)]
        kept = memo.entries[(1, 2, 0, 8, 8)]
        random_dense_block(1, 3, 0, 8, 16)  # 1024 B: the two oldest must go
        assert list(memo.entries) == [(1, 2, 0, 8, 8), (1, 3, 0, 8, 16)]
        assert memo.entries[(1, 2, 0, 8, 8)] is kept
        assert memo.nbytes == 512 + 1024

    def test_over_budget_entry_bypasses_the_memo(self, memo):
        random_dense_block(1, 0, 0, 8, 8)
        big = random_dense_block(1, 0, 0, 16, 16)  # 2048 B > 1700
        assert list(memo.entries) == [(1, 0, 0, 8, 8)] and memo.nbytes == 512
        again = random_dense_block(1, 0, 0, 16, 16)
        assert not np.shares_memory(big.data, again.data)
        assert big.data.tobytes() == again.data.tobytes()

    def test_link_graph_and_dense_blocks_share_one_budget(self, memo):
        random_dense_block(1, 0, 0, 8, 8)
        graph = LinkMatrix(20, 3, seed=2).global_csr()
        assert list(memo.entries) == [(1, 0, 0, 8, 8), (2, 20, 3)]
        assert memo.nbytes == 512 + graph.nbytes
        random_dense_block(1, 1, 0, 8, 8)  # does not fit beside both
        assert list(memo.entries) == [(2, 20, 3), (1, 1, 0, 8, 8)]
        random_dense_block(1, 2, 0, 8, 16)
        assert (2, 20, 3) not in memo.entries
        assert LinkMatrix(20, 3, seed=2).global_csr() is not graph

    def test_a_graph_over_the_budget_is_still_built_once_per_fill(self, memo, monkeypatch):
        """``init_link_matrix`` takes the graph once and slices its blocks: a
        graph the memo cannot keep (256 places and up at paper sizes) used to
        be rebuilt — keys hashed, sorted, compressed — once per block."""
        from repro.matrix.distblock import DistBlockMatrix
        from repro.runtime import CostModel, Runtime

        builds = []
        compress = random_mod._compress_sorted

        def counting(m, n, keys, weights):
            assert np.all(keys[:-1] <= keys[1:])  # handed over sorted, once
            builds.append(len(keys))
            return compress(m, n, keys, weights)

        monkeypatch.setattr(random_mod, "_compress_sorted", counting)
        link = LinkMatrix(64, 4, seed=3)
        rt = Runtime(8, cost=CostModel.zero())
        G = DistBlockMatrix.make_sparse(rt, 64, 64, 16, 1).init_link_matrix(link)
        assert builds == [64 * 4] and not memo.entries  # over budget: not kept
        assert memo.budget < G.total_nnz() * 16
        whole = link.global_csr()
        for index in range(8):
            for block in G.block_set(index):
                r0, r1 = block.row_range()
                want = whole.sub_matrix(r0, r1, 0, 64)
                assert block.data.values.tobytes() == want.values.tobytes()
                assert block.data.indices.tobytes() == want.indices.tobytes()

    def test_dense_blocks_are_copy_on_write(self, memo):
        """Mutating a block reaches neither the memo nor a sibling block."""
        block, sibling = random_dense_block(7, 1, 2, 4, 5), random_dense_block(7, 1, 2, 4, 5)
        assert block is not sibling and np.shares_memory(block.data, sibling.data)
        with pytest.raises(ValueError):
            block.data[0, 0] = -1.0
        block.scale(3.0)
        block.touch()
        block.data[0, 0] = -1.0
        assert not np.shares_memory(block.data, sibling.data)
        fresh = random_mod.block_rng(7, 1, 2).random((4, 5))
        for other in (sibling, random_dense_block(7, 1, 2, 4, 5)):
            assert other.data.tobytes() == fresh.tobytes()


class TestBlockMaps:
    def grid(self, blocks=8):
        return Grid.partition(16, 4, blocks, 1)

    def test_grouped_consecutive(self):
        # Fig 1-b: blocks dealt as consecutive near-even runs.
        m = GroupedBlockMap(self.grid(6), 3)
        assert m.blocks_of_place(0) == [(0, 0), (1, 0)]
        assert m.blocks_of_place(1) == [(2, 0), (3, 0)]
        assert m.blocks_of_place(2) == [(4, 0), (5, 0)]

    def test_grouped_uneven(self):
        m = GroupedBlockMap(self.grid(7), 3)
        assert m.load_per_place() == [3, 2, 2]

    def test_grouped_rejects_too_few_blocks(self):
        with pytest.raises(ValueError):
            GroupedBlockMap(self.grid(2), 3)

    @pytest.mark.parametrize(
        "make",
        [
            lambda g: GroupedBlockMap(g, 3),
            lambda g: CyclicBlockMap(g, 3),
            lambda g: PlaceGridBlockMap(g, 3, 1),
        ],
    )
    def test_owner_dict_is_built_once(self, make):
        m = make(self.grid(6))
        owners = m.owner_dict()
        assert owners == {(rb, 0): m.place_index_of(rb, 0) for rb in range(6)}
        assert m.owner_dict() is owners

    def test_cyclic(self):
        m = CyclicBlockMap(self.grid(6), 3)
        assert m.place_index_of(0, 0) == 0
        assert m.place_index_of(1, 0) == 1
        assert m.place_index_of(3, 0) == 0
        assert m.load_per_place() == [2, 2, 2]

    def test_place_grid_map(self):
        grid = Grid.partition(8, 8, 4, 4)
        m = PlaceGridBlockMap(grid, 2, 2)
        assert m.num_places == 4
        assert m.place_index_of(0, 0) == 0
        assert m.place_index_of(0, 1) == 1
        assert m.place_index_of(1, 0) == 2
        assert m.place_index_of(2, 2) == 0  # wraps cyclically

    def test_place_grid_validation(self):
        grid = Grid.partition(8, 8, 2, 2)
        with pytest.raises(ValueError):
            PlaceGridBlockMap(grid, 4, 1)

    @given(blocks=st.integers(1, 40), places=st.integers(1, 10))
    def test_grouped_properties(self, blocks, places):
        if blocks < places:
            return
        grid = Grid.partition(blocks * 2, 3, blocks, 1)
        m = GroupedBlockMap(grid, places)
        loads = m.load_per_place()
        assert sum(loads) == blocks
        assert max(loads) - min(loads) <= 1
        # Consistency between the two lookup directions.
        for p in range(places):
            for rb, cb in m.blocks_of_place(p):
                assert m.place_index_of(rb, cb) == p

    @given(blocks=st.integers(1, 30), places=st.integers(1, 8))
    def test_cyclic_even_load(self, blocks, places):
        grid = Grid.partition(blocks, 3, blocks, 1)
        m = CyclicBlockMap(grid, places)
        loads = m.load_per_place()
        assert sum(loads) == blocks
        assert max(loads) - min(loads) <= 1


class TestFactorPlaceGrid:
    def test_square(self):
        assert factor_place_grid(16) == (4, 4)

    def test_rectangular(self):
        rp, cp = factor_place_grid(12)
        assert rp * cp == 12
        assert factor_place_grid(7) == (7, 1)

    def test_one(self):
        assert factor_place_grid(1) == (1, 1)
