"""Block partitioning — GML's ``x10.matrix.block.Grid`` equivalent.

A :class:`Grid` cuts an ``m × n`` matrix into ``rowBlocks × colBlocks``
rectangular blocks (near-even, GML's convention: the first ``m % rowBlocks``
row-bands get one extra row).  :class:`Partition1D` is the vector analogue
used by ``DistVector`` segments.

The *overlap* computation between two grids is the core of the paper's
repartitioned restore (§IV-B2, Fig. 1-c): when a ``DistBlockMatrix`` is
restored with a different data grid, every new block must be assembled from
the sub-regions of old blocks it intersects.  :meth:`Grid.overlaps_of_block`
enumerates those regions exactly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

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


@dataclass(frozen=True)
class Region:
    """A half-open rectangular region in *global* matrix coordinates."""

    row_start: int
    row_end: int
    col_start: int
    col_end: int

    @property
    def rows(self) -> int:
        return self.row_end - self.row_start

    @property
    def cols(self) -> int:
        return self.col_end - self.col_start

    @property
    def area(self) -> int:
        return self.rows * self.cols

    def is_empty(self) -> bool:
        return self.rows <= 0 or self.cols <= 0

    def intersect(self, other: "Region") -> "Region":
        return Region(
            max(self.row_start, other.row_start),
            min(self.row_end, other.row_end),
            max(self.col_start, other.col_start),
            min(self.col_end, other.col_end),
        )


@dataclass(frozen=True)
class Overlap:
    """One overlap region between a new block and an old block."""

    new_block: Tuple[int, int]
    old_block: Tuple[int, int]
    region: Region


class Partition1D:
    """A contiguous 1-D partition of ``0..n`` into segments."""

    def __init__(self, n: int, sizes: Sequence[int]):
        require(n >= 0, "n must be >= 0")
        require(sum(sizes) == n, f"segment sizes {list(sizes)} must sum to {n}")
        require(all(s >= 0 for s in sizes), "segment sizes must be >= 0")
        self.n = n
        self.sizes = list(sizes)
        self.offsets = offsets_of(self.sizes)
        # Partitions are immutable after construction, so segment ranges
        # are precomputed and the overlap queries of the distributed
        # matvec routing (same handful of ranges every iteration) are
        # memoized.
        self._ranges = list(zip(self.offsets[:-1], self.offsets[1:]))
        self._overlap_memo: dict = {}
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

    def overlapping_segments(self, lo: int, hi: int) -> List[Tuple[int, int, int]]:
        """Segments intersecting ``[lo, hi)`` as ``(segment, start, end)``.

        Coordinates are global; used to route block-row results of the
        distributed matvec into the output vector's segments.  Results are
        memoized (callers only iterate them, never mutate).
        """
        memo_key = (lo, hi)
        cached = self._overlap_memo.get(memo_key)
        if cached is not None:
            return cached
        require(0 <= lo <= hi <= self.n, f"bad range [{lo},{hi}) for n={self.n}")
        if lo == hi:
            self._overlap_memo[memo_key] = []
            return self._overlap_memo[memo_key]
        result = []
        seg = self.segment_of(lo)
        while seg < self.num_segments:
            slo, shi = self.range_of(seg)
            start, end = max(lo, slo), min(hi, shi)
            if start < end:
                result.append((seg, start, end))
            if shi >= hi:
                break
            seg += 1
        self._overlap_memo[memo_key] = result
        return result

    def overlaps(self, old: "Partition1D") -> List[Tuple[int, int, int, int]]:
        """Intersections ``(new_seg, old_seg, start, end)`` in global coords.

        Used when a ``DistVector`` is restored over a different number of
        places: each new segment pulls the sub-ranges of the old segments
        it overlaps.
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
    """A 2-D block partitioning of an ``m × n`` matrix."""

    def __init__(self, m: int, n: int, row_sizes: Sequence[int], col_sizes: Sequence[int]):
        require(sum(row_sizes) == m, "row block sizes must sum to m")
        require(sum(col_sizes) == n, "col block sizes must sum to n")
        require(all(s >= 0 for s in row_sizes), "row sizes must be >= 0")
        require(all(s >= 0 for s in col_sizes), "col sizes must be >= 0")
        self.m = m
        self.n = n
        self.row_sizes = list(row_sizes)
        self.col_sizes = list(col_sizes)
        self.row_offsets = offsets_of(self.row_sizes)
        self.col_offsets = offsets_of(self.col_sizes)
        # A grid is immutable after construction: its shape is tabulated here
        # and read as plain attributes by the per-block accessors below.
        self.num_row_blocks = len(self.row_sizes)
        self.num_col_blocks = len(self.col_sizes)
        self.num_blocks = self.num_row_blocks * self.num_col_blocks

    @classmethod
    def partition(cls, m: int, n: int, row_blocks: int, col_blocks: int) -> "Grid":
        """GML's near-even ``rowBlocks × colBlocks`` grid."""
        return cls(m, n, split_even(m, row_blocks), split_even(n, col_blocks))

    # -- block coordinate math ------------------------------------------

    def _check_block(self, rb: int, cb: int) -> None:
        check_index(rb, self.num_row_blocks, "row block")
        check_index(cb, self.num_col_blocks, "col block")

    def block_id(self, rb: int, cb: int) -> int:
        """Row-major linear id of block ``(rb, cb)``."""
        if not (0 <= rb < self.num_row_blocks and 0 <= cb < self.num_col_blocks):
            self._check_block(rb, cb)
        return rb * self.num_col_blocks + cb

    def block_coords(self, block_id: int) -> Tuple[int, int]:
        """Inverse of :meth:`block_id`."""
        if not 0 <= block_id < self.num_blocks:
            check_index(block_id, self.num_blocks, "block id")
        return divmod(block_id, self.num_col_blocks)

    def block_dims(self, rb: int, cb: int) -> Tuple[int, int]:
        """``(rows, cols)`` of block ``(rb, cb)``."""
        if not (0 <= rb < self.num_row_blocks and 0 <= cb < self.num_col_blocks):
            self._check_block(rb, cb)
        return self.row_sizes[rb], self.col_sizes[cb]

    def block_origin(self, rb: int, cb: int) -> Tuple[int, int]:
        """Global ``(row, col)`` of the block's top-left element."""
        if not (0 <= rb < self.num_row_blocks and 0 <= cb < self.num_col_blocks):
            self._check_block(rb, cb)
        return self.row_offsets[rb], self.col_offsets[cb]

    def block_region(self, rb: int, cb: int) -> Region:
        """The block's extent as a global-coordinate :class:`Region`."""
        r0, c0 = self.block_origin(rb, cb)
        h, w = self.block_dims(rb, cb)
        return Region(r0, r0 + h, c0, c0 + w)

    def block_containing(self, i: int, j: int) -> Tuple[int, int]:
        """The ``(rb, cb)`` of the block holding element ``(i, j)``."""
        check_index(i, self.m, "row")
        check_index(j, self.n, "col")
        rb = bisect.bisect_right(self.row_offsets, i) - 1
        cb = bisect.bisect_right(self.col_offsets, j) - 1
        return rb, cb

    def iter_blocks(self) -> Iterator[Tuple[int, int]]:
        """All block coordinates in row-major order."""
        for rb in range(self.num_row_blocks):
            for cb in range(self.num_col_blocks):
                yield rb, cb

    def row_partition(self) -> Partition1D:
        """The grid's row-band structure as a 1-D partition."""
        return Partition1D(self.m, self.row_sizes)

    def col_partition(self) -> Partition1D:
        """The grid's column-band structure as a 1-D partition."""
        return Partition1D(self.n, self.col_sizes)

    # -- overlap math (repartitioned restore) -----------------------------

    def _band_range(self, offsets: List[int], start: int, end: int) -> range:
        """Indices of bands intersecting the half-open range [start, end)."""
        first = bisect.bisect_right(offsets, start) - 1
        last = bisect.bisect_left(offsets, end)
        return range(max(first, 0), last)

    def overlaps_of_block(self, rb: int, cb: int, old: "Grid") -> List[Overlap]:
        """All regions of *old* grid blocks covering new block ``(rb, cb)``.

        The union of the returned regions is exactly the new block's extent
        (property-tested); this enumerates the sub-block copies the paper's
        repartitioned restore performs.
        """
        require(old.m == self.m and old.n == self.n, "grids cover different matrices")
        new_region = self.block_region(rb, cb)
        if new_region.is_empty():
            return []
        result: List[Overlap] = []
        for orb in self._band_range(old.row_offsets, new_region.row_start, new_region.row_end):
            for ocb in self._band_range(old.col_offsets, new_region.col_start, new_region.col_end):
                region = new_region.intersect(old.block_region(orb, ocb))
                if not region.is_empty():
                    result.append(Overlap((rb, cb), (orb, ocb), region))
        return result

    def same_blocking(self, other: "Grid") -> bool:
        """True if both grids cut the matrix identically (block-by-block restore)."""
        return (
            self.m == other.m
            and self.n == other.n
            and self.row_sizes == other.row_sizes
            and self.col_sizes == other.col_sizes
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Grid) and self.same_blocking(other)

    def __repr__(self) -> str:
        return (
            f"Grid({self.m}x{self.n}, "
            f"{self.num_row_blocks}x{self.num_col_blocks} blocks)"
        )
