"""Matrix blocks and per-place block sets.

``MatrixBlock`` pairs a grid row band with a dense or sparse payload;
``BlockSet`` is GML's ``x10.matrix.distblock.BlockSet`` — the container of
all blocks mapped to one place.  Letting a place hold a *set* of blocks
(rather than exactly one) is what allows the shrink mode to remap existing
blocks onto fewer places without repartitioning (paper §III-A).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple, Union

from repro.matrix.dense import DenseMatrix
from repro.matrix.sparse import SparseCSR

BlockData = Union[DenseMatrix, SparseCSR]


class MatrixBlock:
    """One full-width row block: its grid row, global first row, and payload."""

    __slots__ = ("rb", "row_offset", "data")

    def __init__(self, rb: int, row_offset: int, data: BlockData):
        self.rb = rb
        self.row_offset = row_offset
        self.data = data

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

    def __repr__(self) -> str:
        kind = "sparse" if self.is_sparse else "dense"
        return f"MatrixBlock({self.rb}, {kind} {self.shape})"


class BlockSet:
    """All blocks held by one place of a ``DistBlockMatrix``."""

    def __init__(self, place_index: int):
        self.place_index = place_index
        #: Sorted by key; ``add()`` replaces the dict, never mutates it,
        #: so a running iterator keeps the one it started on.
        self._blocks: Dict[Tuple[int, int], MatrixBlock] = {}

    def add(self, block: MatrixBlock) -> None:
        """Insert a block (a duplicate row block is rejected)."""
        # Keyed ``(rb, 0)``, the snapshot payload's block key: its bytes are
        # charged per key and pinned with their CRCs, so the column stays.
        key = (block.rb, 0)
        if key in self._blocks:
            raise ValueError(f"duplicate block {key}")
        blocks = {**self._blocks, key: block}
        if self._blocks and key < next(reversed(self._blocks)):
            blocks = dict(sorted(blocks.items()))
        self._blocks = blocks

    def get(self, rb: int) -> MatrixBlock:
        """Fetch row block *rb*; ``KeyError`` if not held here."""
        block = self._blocks.get((rb, 0))
        if block is None:
            raise KeyError(f"place index {self.place_index} holds no block {rb}")
        return block

    def contains(self, rb: int) -> bool:
        return (rb, 0) in self._blocks

    def keys(self) -> List[Tuple[int, int]]:
        """Held block keys ``(rb, 0)``, sorted."""
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

    # Plain loops, not comprehensions: a checkpoint runs both once per place,
    # and a comprehension is one more interpreted call each time.

    def version_token(self) -> Tuple[Tuple[Tuple[int, int], int], ...]:
        """Aggregate mutation token: every block's key and version."""
        token = []
        for key, block in self._blocks.items():
            token.append((key, block.data.version))
        return tuple(token)

    def freeze_view_dict(self) -> Dict[Tuple[int, int], BlockData]:
        """The snapshot payload ``{(rb, 0): data}``: copy-on-write frozen aliases."""
        views = {}
        for key, block in self._blocks.items():
            views[key] = block.data.freeze_view()
        return views

    def __repr__(self) -> str:
        return f"BlockSet(place_index={self.place_index}, blocks={self.keys()})"
