"""Matrix blocks and per-place block sets.

``MatrixBlock`` pairs grid coordinates with a dense or sparse payload;
``BlockSet`` is GML's ``x10.matrix.distblock.BlockSet`` — the container of
all blocks mapped to one place.  Letting a place hold a *set* of blocks
(rather than exactly one) is what allows the shrink mode to remap existing
blocks onto fewer places without repartitioning (paper §III-A).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple, Union

from repro.matrix.dense import DenseMatrix
from repro.matrix.grid import Grid
from repro.matrix.sparse import SparseCSR
from repro.util.validation import require

BlockData = Union[DenseMatrix, SparseCSR]


class MatrixBlock:
    """One grid block: coordinates, global origin, and its payload."""

    __slots__ = ("rb", "cb", "row_offset", "col_offset", "data")

    def __init__(self, rb: int, cb: int, row_offset: int, col_offset: int, data: BlockData):
        self.rb = rb
        self.cb = cb
        self.row_offset = row_offset
        self.col_offset = col_offset
        self.data = data

    @classmethod
    def for_grid(cls, grid: Grid, rb: int, cb: int, data: BlockData) -> "MatrixBlock":
        """Build a block for grid slot ``(rb, cb)``, validating the shape."""
        h, w = grid.block_dims(rb, cb)
        if data.shape != (h, w):
            raise ValueError(
                f"block ({rb},{cb}) payload shape {data.shape} != grid slot {(h, w)}"
            )
        r0, c0 = grid.block_origin(rb, cb)
        return cls(rb, cb, r0, c0, data)

    @property
    def key(self) -> Tuple[int, int]:
        return (self.rb, self.cb)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.data.m, self.data.n

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def is_sparse(self) -> bool:
        return isinstance(self.data, SparseCSR)

    def row_range(self) -> Tuple[int, int]:
        """Global half-open row range covered by this block."""
        return self.row_offset, self.row_offset + self.data.m

    def col_range(self) -> Tuple[int, int]:
        """Global half-open column range covered by this block."""
        return self.col_offset, self.col_offset + self.data.n

    def __repr__(self) -> str:
        kind = "sparse" if self.is_sparse else "dense"
        return f"MatrixBlock(({self.rb},{self.cb}), {kind} {self.shape})"


class BlockSet:
    """All blocks held by one place of a ``DistBlockMatrix``."""

    def __init__(self, place_index: int):
        self.place_index = place_index
        #: Row-major by key; ``add()`` replaces the dict, never mutates it,
        #: so a running iterator keeps the one it started on.
        self._blocks: Dict[Tuple[int, int], MatrixBlock] = {}

    def add(self, block: MatrixBlock) -> None:
        """Insert a block (duplicate coordinates rejected)."""
        key = block.key
        if key in self._blocks:
            raise ValueError(f"duplicate block {key}")
        blocks = {**self._blocks, key: block}
        if self._blocks and key < next(reversed(self._blocks)):
            blocks = dict(sorted(blocks.items()))
        self._blocks = blocks

    def get(self, rb: int, cb: int) -> MatrixBlock:
        """Fetch the block at ``(rb, cb)``; ``KeyError`` if not held here."""
        if (rb, cb) not in self._blocks:
            raise KeyError(f"place index {self.place_index} holds no block ({rb},{cb})")
        return self._blocks[(rb, cb)]

    def contains(self, rb: int, cb: int) -> bool:
        return (rb, cb) in self._blocks

    def keys(self) -> List[Tuple[int, int]]:
        """Held block coordinates, sorted row-major."""
        return list(self._blocks)

    def __iter__(self) -> Iterator[MatrixBlock]:
        return iter(self._blocks.values())

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def nbytes(self) -> int:
        """Total payload bytes held by this place."""
        return sum(b.nbytes for b in self._blocks.values())

    def total_nnz(self) -> int:
        """Total stored non-zeros (sparse blocks only)."""
        return sum(b.data.nnz for b in self._blocks.values() if b.is_sparse)

    def row_span(self) -> Tuple[int, int]:
        """Smallest global row range covering all held blocks."""
        require(len(self._blocks) > 0, "empty block set has no row span")
        lows, highs = zip(*(b.row_range() for b in self._blocks.values()))
        return min(lows), max(highs)

    def version_token(self) -> Tuple[Tuple[Tuple[int, int], int], ...]:
        """Aggregate mutation token: every block's key and version."""
        return tuple((b.key, b.data.version) for b in self)

    def freeze_view_dict(self) -> Dict[Tuple[int, int], BlockData]:
        """The snapshot payload ``{(rb, cb): data}``: copy-on-write frozen aliases."""
        return {b.key: b.data.freeze_view() for b in self}

    def __repr__(self) -> str:
        return f"BlockSet(place_index={self.place_index}, blocks={self.keys()})"
