"""Tests for Grid / Partition1D: row-band tiling, lookup, and overlap math."""

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
        g = Grid.partition(10, 7, 3)
        assert g.row_sizes == [4, 3, 3]
        assert (g.n, g.num_row_blocks) == (7, 3)

    def test_row_offsets_and_sizes(self):
        g = Grid.partition(10, 7, 3)
        assert (g.row_offsets, g.row_sizes) == ([0, 4, 7, 10], [4, 3, 3])

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            Grid(10, 7, [5, 4])
        with pytest.raises(ValueError):
            Grid(10, 7, [12, -2])
        with pytest.raises(ValueError):
            Grid(10, -1, [4, 3, 3])

    def test_same_blocking(self):
        a = Grid.partition(10, 7, 3)
        b = Grid(10, 7, [4, 3, 3])
        assert a.same_blocking(b) and a == b
        assert not a.same_blocking(Grid.partition(10, 7, 2))
        assert not a.same_blocking(Grid.partition(10, 8, 3))

    def test_partitions(self):
        assert Grid.partition(10, 7, 3).row_partition() == Partition1D(10, [4, 3, 3])

    def test_overlaps_same_grid(self):
        part = Grid.partition(10, 7, 3).row_partition()
        assert part.overlaps(part) == [(0, 0, 0, 4), (1, 1, 4, 7), (2, 2, 7, 10)]

    def test_overlaps_regridded(self):
        old = Grid.partition(10, 10, 2).row_partition()  # 5-row bands
        new = Grid.partition(10, 10, 3).row_partition()  # 4/3/3 rows
        # Rows 4-7 of new band 1 straddle both old bands.
        assert [o for o in new.overlaps(old) if o[0] == 1] == [(1, 0, 4, 5), (1, 1, 5, 7)]

    @settings(max_examples=60)
    @given(m=st.integers(1, 60), orb=st.integers(1, 6), nrb=st.integers(1, 6))
    def test_overlaps_tile_every_new_block(self, m, orb, nrb):
        """For every new row band, the overlap ranges partition it exactly."""
        old = Grid.partition(m, 3, orb)
        new = Grid.partition(m, 3, nrb)
        cover = np.zeros(m, dtype=int)
        for rb, _, r0, r1 in new.row_partition().overlaps(old.row_partition()):
            lo = new.row_offsets[rb]
            assert lo <= r0 < r1 <= lo + new.row_sizes[rb]
            cover[r0:r1] += 1
        assert np.all(cover == 1)

    @given(m=st.integers(1, 80), n=st.integers(0, 8), rb=st.integers(1, 8))
    def test_blocks_tile_matrix(self, m, n, rb):
        """All row blocks of a grid tile the matrix exactly once."""
        g = Grid.partition(m, n, rb)
        cover = np.zeros(m, dtype=int)
        for block in range(g.num_row_blocks):
            r0, h = g.row_offsets[block], g.row_sizes[block]
            cover[r0 : r0 + h] += 1
        assert np.all(cover == 1)


class TestRegion:
    """The row ranges a regridded restore plans, as plain
    ``(new band, old band, r0, r1)`` tuples in global coordinates."""

    def test_intersect(self):
        # A range is the intersection of the new band's and the old band's rows.
        old = Grid(8, 5, [5, 3]).row_partition()
        new = Grid(8, 5, [3, 5]).row_partition()
        assert [o for o in new.overlaps(old) if o[0] == 1] == [(1, 0, 3, 5), (1, 1, 5, 8)]

    def test_empty(self):
        # Zero-size bands: a zero-height new band has no range, and an empty
        # old band is never a source.
        old = Grid(5, 5, [3, 0, 2]).row_partition()
        new = Grid(5, 5, [2, 0, 3]).row_partition()
        overlaps = new.overlaps(old)
        assert all(rb != 1 and orb != 1 for rb, orb, _, _ in overlaps)
        assert overlaps == [(0, 0, 0, 2), (2, 0, 2, 3), (2, 2, 3, 5)]

    def test_area(self):
        old = Grid.partition(9, 7, 2).row_partition()
        new = Grid.partition(9, 7, 4).row_partition()
        for rb in range(4):
            rows = sum(r1 - r0 for nrb, _, r0, r1 in new.overlaps(old) if nrb == rb)
            assert rows == new.sizes[rb]


def test_offsets_of():
    assert offsets_of([3, 2, 4]) == [0, 3, 5, 9]
    assert offsets_of([]) == [0]
