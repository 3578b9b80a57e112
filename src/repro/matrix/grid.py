"""Block partitioning — GML's ``x10.matrix.block.Grid`` equivalent.

A :class:`Grid` cuts an ``m × n`` matrix into ``rowBlocks × colBlocks``
rectangular blocks (near-even, GML's convention: the first ``m % rowBlocks``
row-bands get one extra row).  :class:`Partition1D` is the vector analogue
used by ``DistVector`` segments.

The *overlap* computation between two grids is the core of the paper's
repartitioned restore (§IV-B2, Fig. 1-c): when a ``DistBlockMatrix`` is
restored with a different data grid, every new block must be assembled from
the sub-regions of old blocks it intersects.  :meth:`Grid.overlaps`
enumerates those regions exactly, as plain tuples.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Sequence, Tuple

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
        if sum(row_sizes) != m:
            raise ValueError("row block sizes must sum to m")
        if sum(col_sizes) != n:
            raise ValueError("col block sizes must sum to n")
        for s in row_sizes:
            if s < 0:
                raise ValueError("row sizes must be >= 0")
        for s in col_sizes:
            if s < 0:
                raise ValueError("col sizes must be >= 0")
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

    def overlaps(
        self, old: "Grid"
    ) -> Dict[Tuple[int, int], List[Tuple[int, int, int, int, int, int]]]:
        """Per block ``(rb, cb)`` of this grid, the regions of *old*'s blocks
        covering it: ``(orb, ocb, r0, r1, c0, c1)`` in global coordinates,
        old blocks row-major; a zero-area block has none.

        The regions tile each block exactly (property-tested): a block's
        overlaps are its row band's overlaps with *old*'s row bands times its
        column band's with *old*'s column bands (:meth:`Partition1D.overlaps`
        twice) — the sub-block copies of the paper's repartitioned restore.
        """
        require(old.m == self.m and old.n == self.n, "grids cover different matrices")
        rows: Dict[int, List[Tuple[int, int, int]]] = {}
        for rb, orb, r0, r1 in self.row_partition().overlaps(old.row_partition()):
            rows.setdefault(rb, []).append((orb, r0, r1))
        cols: Dict[int, List[Tuple[int, int, int]]] = {}
        for cb, ocb, c0, c1 in self.col_partition().overlaps(old.col_partition()):
            cols.setdefault(cb, []).append((ocb, c0, c1))
        return {
            (rb, cb): [
                (orb, ocb, r0, r1, c0, c1)
                for orb, r0, r1 in rows.get(rb, ())
                for ocb, c0, c1 in cols.get(cb, ())
            ]
            for rb, cb in self.iter_blocks()
        }

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
