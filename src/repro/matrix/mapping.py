"""The block-to-place rule of ``DistBlockMatrix``.

After a failure the shrink mode re-maps the *same* blocks onto fewer
places.  Fig. 1-b of the paper shows the convention, and it is the only
one this library uses: blocks stay in grid order and are re-dealt as
near-even **consecutive runs**, so each place's blocks cover a contiguous
row span (which keeps matrix-vector products mostly local).

The map is pure index math (no runtime dependency), so it is easy to
property-test: every block maps to exactly one valid place index and the
load (blocks per place) is near-even.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.matrix.grid import Grid, split_even
from repro.util.validation import check_index, check_positive, require


class GroupedBlockMap:
    """Near-even consecutive runs of blocks per place (GML/Fig. 1 layout).

    Blocks are enumerated row-major and dealt out as contiguous runs, the
    first ``num_blocks % num_places`` places receiving one extra block.
    With ``colBlocks == 1`` this gives each place a contiguous band of block
    rows — the layout the distributed matvec exploits.
    """

    def __init__(self, grid: Grid, num_places: int):
        check_positive(num_places, "num_places")
        require(
            grid.num_blocks >= num_places,
            f"{grid.num_blocks} blocks cannot cover {num_places} places",
        )
        self.grid = grid
        self.num_places = num_places
        self._owners: Optional[Dict[Tuple[int, int], int]] = None
        sizes = split_even(grid.num_blocks, num_places)
        self._first_block: List[int] = [0]
        for s in sizes:
            self._first_block.append(self._first_block[-1] + s)

    def place_index_of(self, rb: int, cb: int) -> int:
        """The place *index* (within the object's group) owning a block."""
        block_id = self.grid.block_id(rb, cb)
        # Binary search over run boundaries.
        lo, hi = 0, self.num_places - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if block_id < self._first_block[mid + 1]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def blocks_of_place(self, place_index: int) -> List[Tuple[int, int]]:
        """All block coordinates owned by one place index (row-major order)."""
        check_index(place_index, self.num_places, "place index")
        return [
            self.grid.block_coords(bid)
            for bid in range(self._first_block[place_index], self._first_block[place_index + 1])
        ]

    def owner_dict(self) -> Dict[Tuple[int, int], int]:
        """``{(rb, cb): place_index}`` for the whole grid: built once (maps are
        immutable after construction) and shared — callers must not mutate it."""
        if self._owners is None:
            blocks = self.grid.iter_blocks()
            self._owners = {(rb, cb): self.place_index_of(rb, cb) for rb, cb in blocks}
        return self._owners
