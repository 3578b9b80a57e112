"""Block partitioning — GML's ``x10.matrix.block.Grid`` equivalent.

A :class:`Grid` cuts an ``m × n`` matrix into ``rowBlocks`` full-width row
bands (near-even, GML's convention: the first ``m % rowBlocks`` bands get
one extra row) — every layout the paper's applications use has one block
column.  :class:`Partition1D` is the 1-D partition behind both a grid's row
bands and ``DistVector`` segments.

The *overlap* computation between two partitions is the core of the paper's
repartitioned restore (§IV-B2, Fig. 1-c): when a ``DistBlockMatrix`` is
restored with a different data grid, every new band is assembled from the
row ranges of the old bands it intersects.  :meth:`Partition1D.overlaps`
enumerates those ranges exactly, as plain tuples.
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Tuple

from repro.util.validation import check_index, check_positive, require


def split_even(total: int, parts: int) -> List[int]:
    """Near-even split: the first ``total % parts`` parts get one extra.

    ``split_even(10, 3) == [4, 3, 3]`` — GML's block-size convention.
    """
    check_positive(parts, "parts")
    require(total >= 0, f"total must be >= 0, got {total}")
    base, extra = divmod(total, parts)
    return [base + 1 if i < extra else base for i in range(parts)]


def offsets_of(sizes: Sequence[int]) -> List[int]:
    """Prefix sums with a leading 0: block origins from block sizes."""
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    return offsets


class Partition1D:
    """A contiguous 1-D partition of ``0..n`` into segments."""

    def __init__(self, n: int, sizes: Sequence[int]):
        if n < 0:
            raise ValueError("n must be >= 0")
        if sum(sizes) != n:
            raise ValueError(f"segment sizes {list(sizes)} must sum to {n}")
        for s in sizes:
            if s < 0:
                raise ValueError("segment sizes must be >= 0")
        self.n = n
        self.sizes = list(sizes)
        self.offsets = offsets_of(self.sizes)
        # Partitions are immutable after construction: segment ranges are
        # precomputed.
        self._ranges = list(zip(self.offsets[:-1], self.offsets[1:]))
        self.num_segments = len(self.sizes)

    @classmethod
    def even(cls, n: int, parts: int) -> "Partition1D":
        """The default near-even partition."""
        return cls(n, split_even(n, parts))

    def range_of(self, segment: int) -> Tuple[int, int]:
        """Half-open global index range of a segment."""
        if not 0 <= segment < self.num_segments:
            check_index(segment, self.num_segments, "segment")
        return self._ranges[segment]

    def segment_of(self, index: int) -> int:
        """The segment containing global index *index*."""
        if not 0 <= index < self.n:
            check_index(index, self.n, "index")
        return bisect.bisect_right(self.offsets, index) - 1

    def overlaps(self, old: "Partition1D") -> List[Tuple[int, int, int, int]]:
        """Intersections ``(new_seg, old_seg, start, end)`` in global coords.

        Used when a ``DistVector`` is restored over a different number of
        places, and when a ``DistBlockMatrix`` is regridded: each new
        segment (row band) pulls the sub-ranges of the old ones it overlaps.
        """
        require(self.n == old.n, "partitions cover different lengths")
        result = []
        for new_seg in range(self.num_segments):
            lo, hi = self.range_of(new_seg)
            if hi <= lo:
                continue
            first = old.segment_of(lo)
            for old_seg in range(first, old.num_segments):
                olo, ohi = old.range_of(old_seg)
                start, end = max(lo, olo), min(hi, ohi)
                if start < end:
                    result.append((new_seg, old_seg, start, end))
                if ohi >= hi:
                    break
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Partition1D)
            and other.n == self.n
            and other.sizes == self.sizes
        )

    def __repr__(self) -> str:
        return f"Partition1D(n={self.n}, sizes={self.sizes})"


class Grid:
    """The row blocking of an ``m × n`` matrix: full-width row bands."""

    def __init__(self, m: int, n: int, row_sizes: Sequence[int]):
        if sum(row_sizes) != m:
            raise ValueError("row block sizes must sum to m")
        if n < 0:
            raise ValueError("n must be >= 0")
        for s in row_sizes:
            if s < 0:
                raise ValueError("row sizes must be >= 0")
        self.m = m
        self.n = n
        self.row_sizes = list(row_sizes)
        self.row_offsets = offsets_of(self.row_sizes)
        self.num_row_blocks = len(self.row_sizes)

    @classmethod
    def partition(cls, m: int, n: int, row_blocks: int) -> "Grid":
        """GML's near-even ``rowBlocks × 1`` grid."""
        return cls(m, n, split_even(m, row_blocks))

    def row_partition(self) -> Partition1D:
        """The grid's row-band structure as a 1-D partition."""
        return Partition1D(self.m, self.row_sizes)

    def same_blocking(self, other: "Grid") -> bool:
        """True if both grids cut the matrix identically (block-by-block restore)."""
        return self.m == other.m and self.n == other.n and self.row_sizes == other.row_sizes

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Grid) and self.same_blocking(other)

    def __repr__(self) -> str:
        return f"Grid({self.m}x{self.n}, {self.num_row_blocks} row blocks)"
