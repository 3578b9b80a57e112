"""Tests for Grid / Partition1D: tiling, lookup, and overlap math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrix.grid import Grid, Partition1D, offsets_of, split_even


class TestSplitEven:
    def test_exact_division(self):
        assert split_even(12, 4) == [3, 3, 3, 3]

    def test_remainder_goes_first(self):
        assert split_even(10, 3) == [4, 3, 3]

    def test_more_parts_than_items(self):
        assert split_even(2, 4) == [1, 1, 0, 0]

    def test_zero_total(self):
        assert split_even(0, 3) == [0, 0, 0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_even(5, 0)
        with pytest.raises(ValueError):
            split_even(-1, 2)

    @given(total=st.integers(0, 10_000), parts=st.integers(1, 64))
    def test_properties(self, total, parts):
        sizes = split_even(total, parts)
        assert sum(sizes) == total
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)


class TestPartition1D:
    def test_even(self):
        p = Partition1D.even(10, 3)
        assert p.sizes == [4, 3, 3]
        assert p.offsets == [0, 4, 7, 10]

    def test_range_and_segment_of(self):
        p = Partition1D.even(10, 3)
        assert p.range_of(1) == (4, 7)
        assert p.segment_of(0) == 0
        assert p.segment_of(4) == 1
        assert p.segment_of(9) == 2

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Partition1D(10, [5, 4])
        with pytest.raises(ValueError):
            Partition1D(5, [6, -1])

    def test_overlapping_segments(self):
        p = Partition1D(10, [4, 3, 3])
        assert p.overlapping_segments(2, 9) == [(0, 2, 4), (1, 4, 7), (2, 7, 9)]
        assert p.overlapping_segments(4, 7) == [(1, 4, 7)]
        assert p.overlapping_segments(3, 3) == []

    def test_overlaps_identity(self):
        p = Partition1D.even(10, 3)
        ovs = p.overlaps(p)
        assert ovs == [(0, 0, 0, 4), (1, 1, 4, 7), (2, 2, 7, 10)]

    def test_overlaps_shrink(self):
        new = Partition1D.even(10, 2)  # [5, 5]
        old = Partition1D.even(10, 3)  # [4, 3, 3]
        ovs = new.overlaps(old)
        assert ovs == [
            (0, 0, 0, 4),
            (0, 1, 4, 5),
            (1, 1, 5, 7),
            (1, 2, 7, 10),
        ]

    @given(
        n=st.integers(1, 500),
        old_parts=st.integers(1, 12),
        new_parts=st.integers(1, 12),
    )
    def test_overlaps_cover_exactly(self, n, old_parts, new_parts):
        """Overlap ranges tile each new segment exactly once."""
        old = Partition1D.even(n, old_parts)
        new = Partition1D.even(n, new_parts)
        covered = np.zeros(n, dtype=int)
        for _new_seg, _old_seg, start, end in new.overlaps(old):
            covered[start:end] += 1
        assert np.all(covered == 1)


class TestGrid:
    def test_partition(self):
        g = Grid.partition(10, 7, 3, 2)
        assert g.row_sizes == [4, 3, 3]
        assert g.col_sizes == [4, 3]
        assert g.num_blocks == 6

    def test_block_dims_origin(self):
        g = Grid.partition(10, 7, 3, 2)
        assert g.block_dims(1, 1) == (3, 3)
        assert g.block_origin(1, 1) == (4, 4)
        assert (g.block_origin(2, 0), g.block_dims(2, 0)) == ((7, 0), (3, 4))

    def test_block_id_roundtrip(self):
        g = Grid.partition(10, 7, 3, 2)
        for rb in range(3):
            for cb in range(2):
                assert g.block_coords(g.block_id(rb, cb)) == (rb, cb)

    def test_block_containing(self):
        g = Grid.partition(10, 7, 3, 2)
        assert g.block_containing(0, 0) == (0, 0)
        assert g.block_containing(4, 4) == (1, 1)
        assert g.block_containing(9, 6) == (2, 1)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            Grid(10, 7, [5, 4], [4, 3])
        with pytest.raises(ValueError):
            Grid(10, 7, [4, 3, 3], [4, 4])

    def test_same_blocking(self):
        a = Grid.partition(10, 7, 3, 2)
        b = Grid(10, 7, [4, 3, 3], [4, 3])
        c = Grid.partition(10, 7, 2, 2)
        assert a.same_blocking(b)
        assert not a.same_blocking(c)

    def test_partitions(self):
        g = Grid.partition(10, 7, 3, 2)
        assert g.row_partition().sizes == [4, 3, 3]
        assert g.col_partition().sizes == [4, 3]

    def test_overlaps_same_grid(self):
        g = Grid.partition(10, 7, 3, 2)
        assert g.overlaps(g)[(1, 1)] == [(1, 1, 4, 7, 4, 7)]

    def test_overlaps_regridded(self):
        old = Grid.partition(10, 10, 2, 2)  # 5x5 blocks
        new = Grid.partition(10, 10, 3, 3)
        ovs = new.overlaps(old)[(1, 1)]  # rows 4-7, cols 4-7 spans all 4 old blocks
        assert [(orb, ocb) for orb, ocb, *_ in ovs] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @settings(max_examples=60)
    @given(
        m=st.integers(1, 60),
        n=st.integers(1, 60),
        orb=st.integers(1, 6),
        ocb=st.integers(1, 6),
        nrb=st.integers(1, 6),
        ncb=st.integers(1, 6),
    )
    def test_overlaps_tile_every_new_block(self, m, n, orb, ocb, nrb, ncb):
        """For every new block, the overlap regions partition it exactly."""
        old = Grid.partition(m, n, orb, ocb)
        new = Grid.partition(m, n, nrb, ncb)
        overlaps = new.overlaps(old)
        assert sorted(overlaps) == list(new.iter_blocks())
        for (rb, cb), regions in overlaps.items():
            (br, bc), (h, w) = new.block_origin(rb, cb), new.block_dims(rb, cb)
            cover = np.zeros((h, w), dtype=int)
            for _, _, r0, r1, c0, c1 in regions:
                cover[r0 - br : r1 - br, c0 - bc : c1 - bc] += 1
            assert np.all(cover == 1)

    @given(m=st.integers(1, 80), n=st.integers(1, 80), rb=st.integers(1, 8), cb=st.integers(1, 8))
    def test_blocks_tile_matrix(self, m, n, rb, cb):
        """All blocks of a grid tile the matrix exactly once."""
        g = Grid.partition(m, n, rb, cb)
        cover = np.zeros((m, n), dtype=int)
        for brb, bcb in g.iter_blocks():
            (r0, c0), (h, w) = g.block_origin(brb, bcb), g.block_dims(brb, bcb)
            cover[r0 : r0 + h, c0 : c0 + w] += 1
        assert np.all(cover == 1)


class TestRegion:
    """The regions :meth:`Grid.overlaps` plans, as plain
    ``(orb, ocb, r0, r1, c0, c1)`` tuples in global coordinates."""

    def test_intersect(self):
        # A region is the intersection of the new block's and the old block's extents.
        old = Grid(8, 5, [5, 3], [5])
        new = Grid(8, 5, [3, 5], [2, 3])
        assert new.overlaps(old)[(1, 0)] == [(0, 0, 3, 5, 0, 2), (1, 0, 5, 8, 0, 2)]

    def test_empty(self):
        # Zero-size bands: a zero-area new block has no region, and an empty
        # old band is never a source.
        old = Grid(5, 5, [3, 0, 2], [5])
        new = Grid(5, 5, [2, 0, 3], [0, 5])
        overlaps = new.overlaps(old)
        assert overlaps[(0, 0)] == overlaps[(1, 1)] == []
        assert all(orb != 1 for regions in overlaps.values() for orb, *_ in regions)

    def test_area(self):
        old = Grid.partition(9, 7, 2, 3)
        new = Grid.partition(9, 7, 4, 2)
        for (rb, cb), regions in new.overlaps(old).items():
            h, w = new.block_dims(rb, cb)
            assert sum((r1 - r0) * (c1 - c0) for _, _, r0, r1, c0, c1 in regions) == h * w


def test_offsets_of():
    assert offsets_of([3, 2, 4]) == [0, 3, 5, 9]
    assert offsets_of([]) == [0]
