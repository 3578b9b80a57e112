"""``DistDenseMatrix`` / ``DistSparseMatrix`` — one block per place.

GML's simpler distributed classes assign exactly one block to each place.
Unlike :class:`DistBlockMatrix`, they cannot shrink by remapping blocks:
changing the place group forces a grid recalculation ("classes that assign
one block to each place must recalculate the data grid to generate new
blocks equal in number to the size of the new PlaceGroup", §IV-A2) — so
their restore after a shrink always takes the repartitioned path.

Implemented as constrained subclasses of :class:`DistBlockMatrix`: the grid
is always ``P × 1`` row bands (one per place) and ``remake`` re-grids.
"""

from __future__ import annotations

from typing import Optional

from repro.matrix.distblock import DENSE, SPARSE, DistBlockMatrix
from repro.matrix.grid import Grid
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import Runtime
from repro.util.validation import require


class _OneBlockPerPlace(DistBlockMatrix):
    """Shared base: a ``P × 1`` row-band grid, one block per place."""

    _KIND = DENSE

    def __init__(self, runtime: Runtime, m: int, n: int, group: PlaceGroup):
        super().__init__(runtime, Grid.partition(m, n, group.size), group, self._KIND)

    @classmethod
    def make(
        cls, runtime: Runtime, m: int, n: int, group: Optional[PlaceGroup] = None
    ) -> "_OneBlockPerPlace":
        """One row band per place of *group* (defaults to the world)."""
        return cls(runtime, m, n, group if group is not None else runtime.world)

    def remake(self, new_group: PlaceGroup, new_grid=None) -> "_OneBlockPerPlace":
        """Reallocate over *new_group*, always recalculating the grid."""
        require(new_grid is None, "one-block-per-place classes recalculate their own grid")
        regrid = Grid.partition(self.m, self.n, new_group.size)
        return super().remake(new_group, new_grid=regrid)

    def block_of_place(self, index: int):
        """The single block held at a group index."""
        blocks = list(self.block_set(index))
        require(len(blocks) == 1, "invariant violated: exactly one block per place")
        return blocks[0]


class DistDenseMatrix(_OneBlockPerPlace):
    """A dense matrix with exactly one row-band block per place."""

    _KIND = DENSE


class DistSparseMatrix(_OneBlockPerPlace):
    """A sparse (CSR) matrix with exactly one row-band block per place."""

    _KIND = SPARSE
