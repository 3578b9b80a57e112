"""Block-to-place mappings for ``DistBlockMatrix``.

GML's ``DistGrid`` maps grid blocks onto a ``rowPlaces × colPlaces`` place
grid; after a failure the shrink mode re-maps the *same* blocks onto fewer
places.  Fig. 1-b of the paper shows the shrink convention: blocks stay in
grid order and are re-dealt as near-even **consecutive runs**, so each
place's blocks cover a contiguous row span (which keeps matrix-vector
products mostly local).

Mappings are pure index math (no runtime dependency), so they are easy to
property-test: every block maps to exactly one valid place index and the
load (blocks per place) is near-even.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.matrix.grid import Grid, split_even
from repro.util.validation import check_index, check_positive, require


class BlockMap:
    """Abstract block → place-index mapping over a grid."""

    def __init__(self, grid: Grid, num_places: int):
        check_positive(num_places, "num_places")
        self.grid = grid
        self.num_places = num_places
        self._owners = None

    def place_index_of(self, rb: int, cb: int) -> int:
        """The place *index* (within the object's group) owning a block."""
        raise NotImplementedError

    def blocks_of_place(self, place_index: int) -> List[Tuple[int, int]]:
        """All block coordinates owned by one place index (row-major order)."""
        check_index(place_index, self.num_places, "place index")
        return [
            (rb, cb)
            for rb, cb in self.grid.iter_blocks()
            if self.place_index_of(rb, cb) == place_index
        ]

    def load_per_place(self) -> List[int]:
        """Blocks owned by each place index."""
        counts = [0] * self.num_places
        for rb, cb in self.grid.iter_blocks():
            counts[self.place_index_of(rb, cb)] += 1
        return counts

    def owner_dict(self) -> Dict[Tuple[int, int], int]:
        """``{(rb, cb): place_index}`` for the whole grid: built once (maps are
        immutable after construction) and shared — callers must not mutate it."""
        if self._owners is None:
            blocks = self.grid.iter_blocks()
            self._owners = {(rb, cb): self.place_index_of(rb, cb) for rb, cb in blocks}
        return self._owners


class GroupedBlockMap(BlockMap):
    """Near-even consecutive runs of blocks per place (GML/Fig. 1 layout).

    Blocks are enumerated row-major and dealt out as contiguous runs, the
    first ``num_blocks % num_places`` places receiving one extra block.
    With ``colBlocks == 1`` this gives each place a contiguous band of block
    rows — the layout the distributed matvec exploits.
    """

    def __init__(self, grid: Grid, num_places: int):
        super().__init__(grid, num_places)
        require(
            grid.num_blocks >= num_places,
            f"{grid.num_blocks} blocks cannot cover {num_places} places",
        )
        sizes = split_even(grid.num_blocks, num_places)
        self._first_block: List[int] = [0]
        for s in sizes:
            self._first_block.append(self._first_block[-1] + s)

    def place_index_of(self, rb: int, cb: int) -> int:
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
        check_index(place_index, self.num_places, "place index")
        return [
            self.grid.block_coords(bid)
            for bid in range(self._first_block[place_index], self._first_block[place_index + 1])
        ]


class CyclicBlockMap(BlockMap):
    """Round-robin block dealing: block id ``b`` goes to place ``b % P``.

    Provided for comparison/ablation; produces even counts but scatters each
    place's row coverage, maximizing the remote traffic of matvec.
    """

    def place_index_of(self, rb: int, cb: int) -> int:
        return self.grid.block_id(rb, cb) % self.num_places


class PlaceGridBlockMap(BlockMap):
    """GML's 2-D place grid: block ``(rb, cb)`` → place ``(rb % Rp, cb % Cp)``.

    This is the ``rowPlaces × colPlaces`` configuration exposed by
    ``DistBlockMatrix.make(m, n, rowBlocks, colBlocks, rowPlaces, colPlaces)``.
    """

    def __init__(self, grid: Grid, row_places: int, col_places: int):
        check_positive(row_places, "row_places")
        check_positive(col_places, "col_places")
        super().__init__(grid, row_places * col_places)
        require(
            grid.num_row_blocks >= row_places,
            "fewer row blocks than row places",
        )
        require(
            grid.num_col_blocks >= col_places,
            "fewer col blocks than col places",
        )
        self.row_places = row_places
        self.col_places = col_places

    def place_index_of(self, rb: int, cb: int) -> int:
        self.grid.block_id(rb, cb)  # bounds check
        return (rb % self.row_places) * self.col_places + (cb % self.col_places)


def factor_place_grid(num_places: int) -> Tuple[int, int]:
    """Near-square ``(rowPlaces, colPlaces)`` factorization of *num_places*."""
    check_positive(num_places, "num_places")
    rp = int(num_places**0.5)
    while num_places % rp != 0:
        rp -= 1
    return num_places // rp, rp
