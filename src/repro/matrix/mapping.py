"""The block-to-place rule of ``DistBlockMatrix``.

After a failure the shrink mode re-maps the *same* blocks onto fewer
places.  Fig. 1-b of the paper shows the convention, and it is the only
one this library uses: row blocks stay in grid order and are re-dealt as
near-even **consecutive runs**, so each place's blocks cover a contiguous
row span (which keeps matrix-vector products local).

The map is pure index math (no runtime dependency), so it is easy to
property-test: every block maps to exactly one valid place index and the
load (blocks per place) is near-even.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.matrix.grid import Grid, offsets_of, split_even
from repro.util.validation import check_index, check_positive, require


class GroupedBlockMap:
    """Near-even consecutive runs of row blocks per place (GML/Fig. 1 layout).

    Row blocks are dealt out in order as contiguous runs, the first
    ``num_row_blocks % num_places`` places receiving one extra block, so
    each place holds a contiguous band of rows.
    """

    def __init__(self, grid: Grid, num_places: int):
        check_positive(num_places, "num_places")
        require(
            grid.num_row_blocks >= num_places,
            f"{grid.num_row_blocks} blocks cannot cover {num_places} places",
        )
        self.num_places = num_places
        self._owners: Optional[Dict[int, int]] = None
        #: Run boundaries: place ``i`` holds row blocks ``[first[i], first[i + 1])``.
        self._first_block = offsets_of(split_even(grid.num_row_blocks, num_places))

    def blocks_of_place(self, place_index: int) -> range:
        """The row blocks owned by one place index, in order."""
        check_index(place_index, self.num_places, "place index")
        return range(self._first_block[place_index], self._first_block[place_index + 1])

    def owner_dict(self) -> Dict[int, int]:
        """``{rb: place_index}`` for the whole grid: built once (maps are
        immutable after construction) and shared — callers must not mutate it."""
        if self._owners is None:
            self._owners = {
                rb: index for index in range(self.num_places) for rb in self.blocks_of_place(index)
            }
        return self._owners
