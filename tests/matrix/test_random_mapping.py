"""Tests for deterministic random init and the block→place rule."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrix import random as random_mod
from repro.matrix import sparse as sparse_mod
from repro.matrix.grid import Grid, offsets_of, split_even
from repro.matrix.distblock import TaskPlan, owners_of
from repro.matrix.random import (
    LinkMatrix,
    random_dense_block,
    random_sparse_block,
    random_vector,
)
from repro.matrix.sparse import SparseCSR
from repro.util.payload import arrays
from tests.resilience.payload_kinds import same_bytes

#: A chunk small enough that the link build's passes cut runs, rows and
#: the edge list at every position a real graph meets.
_SMALL_CHUNK = 7
#: ``(n, out_degree, seed)`` graphs whose sorted keys, cut every
#: :data:`_SMALL_CHUNK` keys, meet each case ``test_chunk_cases_arise`` names.
_CHUNK_CASES = [(1, 20, 0), (7, 3, 0), (5, 23, 2), (13, 4, 5), (40, 4, 11), (9, 30, 1)]


def _regions(n, row_cuts, col_cuts):
    """The ``(r0, r1, c0, c1)`` regions of a near-even *row_cuts* ×
    *col_cuts* tiling of an ``n × n`` matrix."""
    rows, cols = offsets_of(split_even(n, row_cuts)), offsets_of(split_even(n, col_cuts))
    for r0, r1 in zip(rows, rows[1:]):
        for c0, c1 in zip(cols, cols[1:]):
            yield r0, r1, c0, c1


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
        a = random_dense_block(7, 1, 4, 5)
        b = random_dense_block(7, 1, 4, 5)
        assert np.array_equal(a.data, b.data)

    def test_dense_blocks_differ(self):
        a = random_dense_block(7, 1, 4, 5)
        b = random_dense_block(7, 2, 4, 5)
        assert not np.array_equal(a.data, b.data)

    def test_sparse_deterministic_and_sized(self):
        a = random_sparse_block(3, 0, 10, 10, 0.2)
        b = random_sparse_block(3, 0, 10, 10, 0.2)
        assert a.nnz == 20
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_sparse_density_bounds(self):
        with pytest.raises(ValueError):
            random_sparse_block(0, 0, 4, 4, 1.5)

    def test_sparse_empty(self):
        assert random_sparse_block(0, 0, 4, 4, 0.0).nnz == 0
        assert random_sparse_block(0, 0, 0, 4, 0.5).nnz == 0

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
        """Any tiling of the link matrix into regions reassembles to the
        same matrix (a row block of any grid is one such region)."""
        link = LinkMatrix(n, 3, seed=seed)
        full = link.block(0, n, 0, n).to_dense()
        assembled = np.zeros((n, n))
        for r0, r1, c0, c1 in _regions(n, rb, cb):
            assembled[r0:r1, c0:c1] = link.block(r0, r1, c0, c1).to_dense()
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
        """Regions of the global CSR are byte-identical to building each one
        on its own from the raw edge list (mask, then ``from_coo``).
        ``out_degree > n`` makes nearly every entry a coalesced duplicate;
        the largest case crosses ``_SCIPY_BUILD_MIN``."""
        link = LinkMatrix(n, out_degree, seed=seed)
        rows, cols = _reference_edges(link)
        for r0, r1, c0, c1 in _regions(n, min(rb, n), min(cb, n)):
            keep = (rows >= r0) & (rows < r1) & (cols >= c0) & (cols < c1)
            reference = SparseCSR.from_coo(
                r1 - r0,
                c1 - c0,
                rows[keep] - r0,
                cols[keep] - c0,
                np.full(int(keep.sum()), 1.0 / out_degree),
            )
            same_bytes(link.block(r0, r1, c0, c1), reference)

    @pytest.mark.parametrize(
        "n, out_degree, seed",
        [
            (7, 3, 0),
            (1, 4, 9),
            (5, 23, 2),
            (50, 70, 3),
            (4000, 10, 1234),
            (6000, 200, 42),
            (1, 300, 7),
        ],
    )
    def test_keyed_build_matches_triplet_build(self, n, out_degree, seed, monkeypatch):
        """The keyed single-pass build gives the bytes and dtypes of
        ``from_coo`` on the old triplets, incl. ``out_degree > n``, ``n = 1``,
        a graph above ``_SCIPY_BUILD_MIN``, the sparse sweep's own graph and
        a run longer than 255 (run lengths held wider than one byte)."""
        monkeypatch.setattr(random_mod, "_input_memo", random_mod._InputMemo(1 << 24))
        link = LinkMatrix(n, out_degree, seed=seed)
        rows, cols = _reference_edges(link)
        reference = SparseCSR.from_coo(
            n, n, rows, cols, np.full(len(rows), 1.0 / out_degree)
        )
        same_bytes(link.global_csr(), reference)

    @pytest.mark.parametrize("n, out_degree, seed", _CHUNK_CASES)
    def test_chunked_build_matches_triplet_build(self, n, out_degree, seed, monkeypatch):
        """With a 7-key chunk the hash and the compaction passes are cut
        everywhere (see ``test_chunk_cases_arise``): still the bytes of
        ``from_coo`` on the raw edges."""
        monkeypatch.setattr(random_mod, "_input_memo", random_mod._InputMemo(0))
        monkeypatch.setattr(random_mod, "_CHUNK", _SMALL_CHUNK)
        monkeypatch.setattr(sparse_mod, "_CHUNK", _SMALL_CHUNK)
        link = LinkMatrix(n, out_degree, seed=seed)
        rows, cols = _reference_edges(link)
        reference = SparseCSR.from_coo(n, n, rows, cols, np.full(len(rows), 1.0 / out_degree))
        same_bytes(link.global_csr(), reference)

    def test_chunk_cases_arise(self):
        """The cases above cut a run of equal keys, start a row exactly at a
        chunk boundary, hold an empty row, leave a chunk with no run start
        and end on a partial chunk."""
        seen = set()
        for n, out_degree, seed in _CHUNK_CASES:
            keys = LinkMatrix(n, out_degree, seed=seed)._sorted_keys()
            cuts = np.arange(_SMALL_CHUNK, len(keys), _SMALL_CHUNK)
            if np.any(keys[cuts] == keys[cuts - 1]):
                seen.add("run across a cut")
            if np.any(keys[cuts] // n != keys[cuts - 1] // n):
                seen.add("row starts at a cut")
            if len(np.unique(keys // n)) < n:
                seen.add("empty row")
            chunks = np.split(keys, cuts)
            if any(c[0] == before[-1] and np.all(c == c[0]) for before, c in zip(chunks, chunks[1:])):
                seen.add("chunk without a run start")
            if len(keys) % _SMALL_CHUNK:
                seen.add("partial last chunk")
        assert len(seen) == 5, seen

    def test_cold_build_peak_is_bounded(self, monkeypatch):
        """A cold build peaks at <= 1.2x the finished graph's host bytes
        (about 1.12x: the sorted keys beside the ``int32`` indices and the
        one-byte run lengths, then the finished arrays beside the lengths;
        compacting through a full-length run mask and distinct keys: 1.43x;
        triplets: 4.6x), while the finished graph holds 12 bytes per entry:
        an ``int32`` index and a ``float64`` value."""
        monkeypatch.setattr(random_mod, "_input_memo", random_mod._InputMemo(1 << 28))
        tracemalloc.start()
        try:
            graph = LinkMatrix(6000, 200, seed=42).global_csr()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        host = graph.indptr.nbytes + graph.indices.nbytes + graph.values.nbytes
        assert peak <= 1.2 * host
        assert host == 12 * graph.nnz + graph.indptr.nbytes
        assert graph.nbytes == 16 * graph.nnz + 8 * (graph.m + 1)

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
                same_bytes(other, fresh)

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
        for array in arrays(a.global_csr()):
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
        # One strip per input, keyed ("strip", seed, first height, cols).
        for seed in range(3):
            random_dense_block(seed, 0, 8, 8)
        assert list(memo.entries) == [("strip", seed, 8, 8) for seed in range(3)]
        kept = memo.entries[("strip", 2, 8, 8)]
        random_dense_block(3, 0, 8, 16)  # 1024 B: the two oldest must go
        assert list(memo.entries) == [("strip", 2, 8, 8), ("strip", 3, 8, 16)]
        assert memo.entries[("strip", 2, 8, 8)] is kept
        assert memo.nbytes == 512 + 1024

    def test_over_budget_entry_bypasses_the_memo(self, memo):
        random_dense_block(1, 0, 8, 8)
        big = random_dense_block(1, 0, 16, 16)  # 2048 B > 1700
        assert list(memo.entries) == [("strip", 1, 8, 8)] and memo.nbytes == 512
        again = random_dense_block(1, 0, 16, 16)
        assert not np.shares_memory(big.data, again.data)
        assert big.data.tobytes() == again.data.tobytes()

    def test_link_graph_and_dense_blocks_share_one_budget(self, memo):
        random_dense_block(1, 0, 8, 8)
        graph = LinkMatrix(20, 3, seed=2).global_csr()
        assert list(memo.entries) == [("strip", 1, 8, 8), (2, 20, 3)]
        assert memo.nbytes == 512 + graph.nbytes
        random_dense_block(4, 0, 8, 8)  # does not fit beside both
        assert list(memo.entries) == [(2, 20, 3), ("strip", 4, 8, 8)]
        random_dense_block(5, 0, 8, 16)
        assert (2, 20, 3) not in memo.entries
        assert LinkMatrix(20, 3, seed=2).global_csr() is not graph

    def test_a_graph_over_the_budget_is_still_built_once_per_fill(self, memo, monkeypatch):
        """``init_link_matrix`` takes the graph once and slices its blocks: a
        graph the memo cannot keep (256 places and up at paper sizes) used to
        be rebuilt — keys hashed, sorted, compressed — once per block."""
        from repro.matrix.distblock import DistBlockMatrix
        from repro.runtime import CostModel, Runtime

        builds = []
        sorted_keys = LinkMatrix._sorted_keys

        def counting(link):  # holds no name for the keys it hands over
            builds.append(link.n * link.out_degree)
            return sorted_keys(link)

        monkeypatch.setattr(LinkMatrix, "_sorted_keys", counting)
        link = LinkMatrix(64, 4, seed=3)
        rt = Runtime(8, cost=CostModel.zero())
        G = DistBlockMatrix.make_sparse(rt, 64, 64, 16).init_link_matrix(link)
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
        block, sibling = random_dense_block(7, 1, 4, 5), random_dense_block(7, 1, 4, 5)
        assert block is not sibling and np.shares_memory(block.data, sibling.data)
        with pytest.raises(ValueError):
            block.data[0, 0] = -1.0
        block.scale(3.0)
        block.touch()
        block.data[0, 0] = -1.0
        assert not np.shares_memory(block.data, sibling.data)
        fresh = random_mod.block_rng(7, 1).random((4, 5))
        for other in (sibling, random_dense_block(7, 1, 4, 5)):
            assert other.data.tobytes() == fresh.tobytes()


class TestDenseStrips:
    """A dense input's blocks are row views of one frozen strip, each with
    the bytes ``block_rng(seed, rb).random((h, w))``."""

    @pytest.fixture
    def memo(self, monkeypatch):
        memo = random_mod._InputMemo(1 << 26)
        monkeypatch.setattr(random_mod, "_input_memo", memo)
        return memo

    @staticmethod
    def _filled(places, m, n, row_blocks, seed=11):
        from repro.matrix.distblock import DistBlockMatrix
        from repro.runtime import CostModel, Runtime

        rt = Runtime(places, cost=CostModel.zero())
        return DistBlockMatrix.make_dense(rt, m, n, row_blocks).init_random(seed)

    @staticmethod
    def _blocks(g):
        return [block for index in range(g.group.size) for block in g.block_set(index)]

    @staticmethod
    def _strips(memo):
        return [entry for entry in memo.entries.values() if isinstance(entry, random_mod.DenseStrip)]

    def _assert_drawn_per_block(self, g, seed=11):
        for block in self._blocks(g):
            h, w = block.shape
            want = random_mod.block_rng(seed, block.rb).random((h, w))
            assert block.data.data.tobytes() == want.tobytes()
            assert not block.data.data.flags.writeable

    @pytest.mark.parametrize(
        "shape",
        [(24, 5, 8), (23, 5, 7), (5, 7, 8)],
        ids=["uniform", "split-even-remainder", "zero-height-blocks"],
    )
    def test_blocks_are_their_own_draws(self, memo, shape):
        g = self._filled(3, *shape)
        self._assert_drawn_per_block(g)
        (strip,) = self._strips(memo)
        assert strip.sizes == tuple(g.grid.row_sizes)
        for block in self._blocks(g):
            assert block.data.data.base is strip.data

    @pytest.mark.parametrize("order", [(2, 8), (8, 2)], ids=["small-first", "large-first"])
    def test_one_strip_serves_every_smaller_uniform_grid(self, memo, order):
        grids = [self._filled(places, 6 * places, 5, 2 * places) for places in order]
        for g in grids:
            self._assert_drawn_per_block(g)
        (strip,) = self._strips(memo)
        assert strip.sizes == (3,) * 16
        again = self._filled(2, 12, 5, 4)
        self._assert_drawn_per_block(again)
        for block in self._blocks(again) + self._blocks(grids[order.index(8)]):
            assert block.data.data.base is strip.data
        assert self._strips(memo) == [strip]

    def test_the_sweep_grids_keep_one_strip(self, memo):
        """The linreg sweep's 2-, 8-, 20- and 44-place inputs leave the
        44-place input's 88 blocks in the memo, and no more."""
        from repro.bench.calibration import regression_bench_workload

        w = regression_bench_workload()
        for places in (2, 8, 20, 44):
            self._filled(places, w.examples(places), w.features, w.row_blocks(places), seed=w.seed)
        (strip,) = self._strips(memo)
        assert strip.nbytes == 88 * 500 * 100 * 8
        zeros = sum(entry.nbytes for entry in memo.entries.values() if entry is not strip)
        assert memo.nbytes == strip.nbytes + zeros

    def test_a_growing_strip_is_never_held_twice(self, memo):
        """A grid that outgrows the stored strip releases it before drawing
        the larger one: the peak is the final strip, not the two together."""
        tracemalloc.start()
        try:
            for blocks in (4, 16, 40, 88):
                random_mod.dense_strip(3, (50,) * blocks, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert memo.nbytes == 88 * 50 * 10 * 8
        assert peak < 1.1 * memo.nbytes

    def test_a_grid_the_strip_does_not_start_with_replaces_it(self, memo):
        uniform = random_mod.dense_strip(5, (4, 4, 4), 3)
        remainder = random_mod.dense_strip(5, (4, 3, 3), 3)
        assert self._strips(memo) == [remainder] and memo.nbytes == remainder.nbytes
        assert uniform.block(0).data.tobytes() == remainder.block(0).data.tobytes()
        for rb, h in enumerate((4, 3, 3)):
            want = random_mod.block_rng(5, rb).random((h, 3))
            assert remainder.block(rb).data.tobytes() == want.tobytes()


class TestBlockMaps:
    """The one block→place rule: ``TaskPlan`` deals a grid's row blocks over
    its places, and ``owners_of`` names each block's place by the same rule."""

    @staticmethod
    def runs(blocks, places):
        plan = TaskPlan(Grid.partition(16, 4, blocks), places, dense=True)
        return [[rb for rb, _, _ in run] for run in plan.blocks]

    def test_grouped_consecutive(self):
        # Fig 1-b: row blocks dealt as consecutive near-even runs.
        assert self.runs(6, 3) == [[0, 1], [2, 3], [4, 5]]

    def test_grouped_uneven(self):
        assert [len(run) for run in self.runs(7, 3)] == [3, 2, 2]

    def test_grouped_rejects_too_few_blocks(self):
        with pytest.raises(ValueError, match="^2 blocks cannot cover 3 places$"):
            TaskPlan(Grid.partition(16, 4, 2), 3, dense=True)
        with pytest.raises(ValueError, match="^2 blocks cannot cover 3 places$"):
            owners_of(2, 3)

    def test_owners_of_names_each_blocks_place(self):
        assert owners_of(6, 3) == [0, 0, 1, 1, 2, 2]
        assert owners_of(7, 3) == [0, 0, 0, 1, 1, 2, 2]

    @given(blocks=st.integers(1, 40), places=st.integers(1, 10))
    def test_grouped_properties(self, blocks, places):
        if blocks < places:
            return
        runs = self.runs(blocks, places)
        loads = [len(run) for run in runs]
        assert sum(loads) == blocks
        assert max(loads) - min(loads) <= 1
        assert [rb for run in runs for rb in run] == list(range(blocks))
        # Consistency between the two lookup directions.
        owners = owners_of(blocks, places)
        assert len(owners) == blocks
        for p, run in enumerate(runs):
            for rb in run:
                assert owners[rb] == p
