"""``DistBlockMatrix`` — the paper's central distributed matrix class.

The matrix is cut by a :class:`~repro.matrix.grid.Grid` into blocks, and a
:class:`~repro.matrix.mapping.GroupedBlockMap` deals one or *more* blocks to
each place as consecutive runs (a :class:`~repro.matrix.block.BlockSet` per
place).  Holding sets of blocks is what lets the **shrink** restoration
remap existing blocks over fewer places without repartitioning (fast
block-by-block restore, Fig. 1-b), while **shrink-rebalance** recalculates
the grid for even load at the price of sub-block overlap copies (Fig. 1-c).

Payloads are dense (:class:`DenseMatrix`) or sparse (:class:`SparseCSR`)
blocks; the sparse restore additionally counts the non-zeros of each
overlap region before allocating, as §IV-B2 describes.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.matrix.block import BlockSet, MatrixBlock
from repro.matrix.dense import DenseMatrix
from repro.matrix.grid import Grid, Partition1D
from repro.matrix.mapping import GroupedBlockMap
from repro.matrix.multiplace import MultiPlaceObject
from repro.matrix.random import LinkMatrix, dense_strip, random_sparse_block, zero_dense_block
from repro.matrix.sparse import SparseCSR, _joined
from repro.resilience.protection import Protection
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import PlaceContext, Runtime
from repro.util.validation import require

DENSE = "dense"
SPARSE = "sparse"

#: Per source place index: ``[(rb, [(dest index, dest id, seg lo, seg hi,
#: part lo, part hi)])]`` — where each block-row result lands, rb-sorted.
Routes = List[List[Tuple[int, List[Tuple[int, int, int, int, int, int]]]]]


class TaskPlan:
    """What a matrix layout fixes about every task run over it, worked out
    once per layout instead of once per task: each place's blocks, the
    per-place counts behind the declared flops of the dense kernels, and the
    routes of the matvec's block-row results into each output partition.

    Everything here is read off the grid, the block map and the group — no
    heap.  :class:`DistBlockMatrix` drops its plan whenever the layout may
    change (allocation, remake, regrid, restore) and never pickles it.
    """

    def __init__(self, grid: Grid, block_map: GroupedBlockMap, ids: List[int], dense: bool):
        self._ids = ids
        row_sizes, col_sizes = grid.row_sizes, grid.col_sizes
        row_offsets, col_offsets = grid.row_offsets, grid.col_offsets
        #: Per place index: its blocks ``(rb, cb, row offset, col offset,
        #: rows, cols)``, row-major — what an allocation lays out.
        self.blocks: List[List[Tuple[int, int, int, int, int, int]]] = []
        #: Per place index: the held row bands ``(rb, row offset, rows)``, sorted.
        self.bands: List[List[Tuple[int, int, int]]] = []
        #: Per place index: stored cells, and rows summed over held blocks.
        self.cells: List[int] = []
        self.rows: List[int] = []
        #: Dense kernels' per-place flops (``None`` for sparse: nnz-dependent):
        #: two per cell, plus one per row folded into an already-held band.
        self.matvec_flops: Optional[List[int]] = [] if dense else None
        self.t_matvec_flops: Optional[List[int]] = [] if dense else None
        for index in range(block_map.num_places):
            blocks: List[Tuple[int, int, int, int, int, int]] = []
            bands: List[Tuple[int, int, int]] = []
            cells = rows = merged = 0
            for rb, cb in block_map.blocks_of_place(index):  # row-major
                h, w = row_sizes[rb], col_sizes[cb]
                blocks.append((rb, cb, row_offsets[rb], col_offsets[cb], h, w))
                cells += h * w
                rows += h
                if bands and bands[-1][0] == rb:
                    merged += h
                else:
                    bands.append((rb, row_offsets[rb], h))
            self.blocks.append(blocks)
            self.bands.append(bands)
            self.cells.append(cells)
            self.rows.append(rows)
            if dense:
                self.matvec_flops.append(2 * cells + merged)
                self.t_matvec_flops.append(2 * cells)
        self._routes: Dict[Tuple[int, ...], Routes] = {}

    def routes(self, partition: Partition1D) -> Routes:
        """The matvec's result routes into an output of *partition*."""
        sizes = tuple(partition.sizes)
        table = self._routes.get(sizes)
        if table is None:
            ids, lows = self._ids, partition.offsets
            table = self._routes[sizes] = [
                [
                    (
                        rb,
                        [
                            (seg, ids[seg], start - lows[seg], end - lows[seg], start - r0, end - r0)
                            for seg, start, end in partition.overlapping_segments(r0, r0 + h)
                        ],
                    )
                    for rb, r0, h in bands
                ]
                for bands in self.bands
            ]
        return table


#: One piece of a regridded restore: ``(old owner index, old block, cut in
#: the old block (r0, r1, c0, c1), paste offset in the new block (row, col),
#: scan flops, copy bytes)``.
Piece = Tuple[int, Tuple[int, int], Tuple[int, int, int, int], Tuple[int, int], float, float]


def regrid_plan(
    new: Grid,
    old: Grid,
    owners: Dict[Tuple[int, int], int],
    block_nnz: Optional[Dict[Tuple[int, int], int]],
) -> Dict[Tuple[int, int], Tuple[int, int, List[List[Piece]]]]:
    """Every read of a restore from *old*'s blocks onto *new*'s, planned once.

    Per new block ``(rb, cb)``: its ``(rows, cols, tiles)``, where *tiles*
    holds one row of pieces per old row band the block meets (old blocks
    row-major, so the pieces of a sparse block assemble row by row) — none
    for a zero-area block.  The pieces tile the block exactly
    (property-tested).  *block_nnz* (``None`` for a dense matrix) sizes a
    sparse piece's charges: a counting pass over the old block's row span,
    then a copy of the entries it finds.
    """
    plan: Dict[Tuple[int, int], Tuple[int, int, List[List[Piece]]]] = {}
    for (rb, cb), regions in new.overlaps(old).items():
        r_base, c_base = new.row_offsets[rb], new.col_offsets[cb]
        tiles: List[List[Piece]] = []
        last_orb = None
        for orb, ocb, r0, r1, c0, c1 in regions:
            o_r0, o_c0 = old.row_offsets[orb], old.col_offsets[ocb]
            if block_nnz is None:
                flops, nbytes = 0.0, (r1 - r0) * (c1 - c0) * 8
            else:
                old_rows = old.row_sizes[orb]
                row_frac = (r1 - r0) / old_rows if old_rows else 0.0
                nnz_in_span = block_nnz.get((orb, ocb), 0) * row_frac
                # The counting pass scans the row span, then the extraction
                # copies the region's entries (16 B each: index + value).
                flops, nbytes = 2.0 * nnz_in_span + (r1 - r0), nnz_in_span * 16.0
            if orb != last_orb:
                tiles.append([])
                last_orb = orb
            cut = (r0 - o_r0, r1 - o_r0, c0 - o_c0, c1 - o_c0)
            tiles[-1].append(
                (owners[(orb, ocb)], (orb, ocb), cut, (r0 - r_base, c0 - c_base), flops, nbytes)
            )
        plan[(rb, cb)] = (new.row_sizes[rb], new.col_sizes[cb], tiles)
    return plan


class DistBlockMatrix(MultiPlaceObject):
    """An ``m × n`` matrix distributed as grid blocks over a place group."""

    def __init__(
        self,
        runtime: Runtime,
        grid: Grid,
        group: PlaceGroup,
        kind: str,
    ):
        require(kind in (DENSE, SPARSE), f"kind must be dense or sparse, got {kind}")
        super().__init__(runtime, group, "DistBlockMatrix")
        self.grid = grid
        self.kind = kind
        self.block_map = GroupedBlockMap(grid, group.size)
        self._allocate()

    # -- factories (paper's ``make`` signature) ---------------------------------

    @classmethod
    def make_dense(
        cls,
        runtime: Runtime,
        m: int,
        n: int,
        row_blocks: int,
        col_blocks: int,
        group: Optional[PlaceGroup] = None,
    ) -> "DistBlockMatrix":
        """``DistBlockMatrix.make(m, n, rowBs, colBs)``, dense: the blocks are
        dealt over *group* (defaults to the world) as near-even consecutive
        runs."""
        group = group if group is not None else runtime.world
        return cls(runtime, Grid.partition(m, n, row_blocks, col_blocks), group, DENSE)

    @classmethod
    def make_sparse(
        cls,
        runtime: Runtime,
        m: int,
        n: int,
        row_blocks: int,
        col_blocks: int,
        group: Optional[PlaceGroup] = None,
    ) -> "DistBlockMatrix":
        """Sparse variant of :meth:`make_dense` (blocks start empty)."""
        group = group if group is not None else runtime.world
        return cls(runtime, Grid.partition(m, n, row_blocks, col_blocks), group, SPARSE)

    # -- storage ------------------------------------------------------------

    @property
    def m(self) -> int:
        return self.grid.m

    @property
    def n(self) -> int:
        return self.grid.n

    _PLANS = ("_plan",)
    _token_of = staticmethod(BlockSet.version_token)

    @cached_property
    def _plan(self) -> TaskPlan:
        return TaskPlan(self.grid, self.block_map, self.group.ids, self.kind == DENSE)

    def task_plan(self) -> TaskPlan:
        """This layout's :class:`TaskPlan`, built on first use."""
        return self._plan

    def _allocate(self) -> None:
        """Lay out every place's blocks from the plan: dense blocks alias the
        shared frozen zero block of their shape (CoW), sparse ones start empty."""
        self._drop_plans()
        plan, key, dense = self._plan, self.heap_key, self.kind == DENSE
        index_by_id = self.group._index_by_id

        def alloc(ctx: PlaceContext) -> None:
            index = index_by_id[ctx.place.id]
            bs = BlockSet(index)
            for rb, cb, r0, c0, h, w in plan.blocks[index]:
                data = zero_dense_block(h, w) if dense else SparseCSR.empty(h, w)
                bs.add(MatrixBlock(rb, cb, r0, c0, data))
            ctx.heap.put(key, bs)

        self.runtime.finish_all(self.group, alloc, label=f"{self.name}:alloc")

    def block_set(self, index: int) -> BlockSet:
        """Library-internal: the block set at a group index."""
        return self.payload_at_index(index)

    def total_nnz(self) -> int:
        """Stored non-zeros across all live places (sparse matrices)."""
        return sum(self.block_set(i).total_nnz() for i in range(self.group.size))

    # -- initialization ----------------------------------------------------------

    def init_random(self, seed: int, density: float = 0.05) -> "DistBlockMatrix":
        """Deterministic per-block random fill.

        A dense block is a pure function of ``(seed, rb, cb, h, w)``: the
        same grid gives the same matrix over any place group, while a
        different grid gives different values (PageRank, whose input must
        survive a regrid, uses :meth:`init_link_matrix`).  Restores never
        regenerate a block; they reload the snapshot's.  Each dense block is
        a frozen row view of its block column's memoized strip
        (:func:`~repro.matrix.random.dense_strip`), so full-width rows of
        adjacent blocks are one contiguous run.  Sparse blocks are drawn per
        block from the same seeds.
        """
        group, key = self.group, self.heap_key

        label = f"{self.name}:init_random"
        if self.kind == DENSE:
            grid = self.grid
            strips = [dense_strip(seed, cb, grid.row_sizes, w) for cb, w in enumerate(grid.col_sizes)]

            def fill(ctx: PlaceContext) -> None:
                for block in ctx.heap.get(key):
                    block.data = strips[block.cb].block(block.rb)

            self.runtime.finish_all(group, fill, label=label, flops=self.task_plan().cells)
            return self

        def fill_sparse(ctx: PlaceContext) -> None:
            flops = 0.0
            for block in ctx.heap.get(key):
                h, w = block.shape
                block.data = random_sparse_block(seed, block.rb, block.cb, h, w, density)
                flops += block.data.nnz * 2
            ctx.charge_flops(flops)  # nnz: known only once generated

        self.runtime.finish_all(group, fill_sparse, label=label)
        return self

    def init_link_matrix(self, link: LinkMatrix) -> "DistBlockMatrix":
        """Fill a sparse matrix with a grid-independent synthetic web graph."""
        require(self.kind == SPARSE, "link matrices are sparse")
        require(link.n == self.m == self.n, "link matrix order mismatch")
        group, key = self.group, self.heap_key
        # Taken once per fill and sliced per block: a graph over the input
        # memo's budget is built per fetch, so ``link.block()`` per block
        # would build it once per block.
        graph = link.global_csr()

        def fill(ctx: PlaceContext) -> None:
            bs: BlockSet = ctx.heap.get(key)
            flops = 0.0
            for block in bs:
                r0, r1 = block.row_range()
                c0, c1 = block.col_range()
                block.data = graph.sub_matrix(r0, r1, c0, c1)
                flops += (c1 - c0) * link.out_degree + block.data.nnz
            ctx.charge_flops(flops)

        self.runtime.finish_all(group, fill, label=f"{self.name}:init_link")
        return self

    def init_from_dense(self, dense: DenseMatrix) -> "DistBlockMatrix":
        """Scatter a driver-side dense matrix into the blocks (tests)."""
        require(dense.shape == (self.m, self.n), "shape mismatch")
        group, key = self.group, self.heap_key

        def fill(ctx: PlaceContext) -> None:
            bs: BlockSet = ctx.heap.get(key)
            for block in bs:
                r0, r1 = block.row_range()
                c0, c1 = block.col_range()
                piece = dense.data[r0:r1, c0:c1]
                if self.kind == DENSE:
                    block.data = DenseMatrix(piece.copy())
                else:
                    block.data = SparseCSR.from_dense(piece)

        self.runtime.finish_all(group, fill, label=f"{self.name}:init_from_dense")
        return self

    def to_dense(self) -> DenseMatrix:
        """Driver-side gather of the whole matrix (tests/examples)."""
        out = DenseMatrix.make(self.m, self.n)
        for index in range(self.group.size):
            for block in self.block_set(index):
                r0, r1 = block.row_range()
                c0, c1 = block.col_range()
                data = block.data.to_dense() if block.is_sparse else block.data.data
                out.data[r0:r1, c0:c1] = data
        return out

    # -- cell-wise operations ------------------------------------------------------

    def _cellwise(self, fn, flops_per_cell: float = 1.0, label: str = "cellwise"):
        """Apply *fn(block)* to every local block under one finish."""
        key = self.heap_key

        def task(ctx: PlaceContext) -> None:
            for block in ctx.heap.get(key):
                fn(block)

        self.runtime.finish_all(
            self.group, task, label=f"{self.name}:{label}", flops=self._flops(flops_per_cell)
        )
        return self

    def _flops(self, per_cell: float) -> List[float]:
        """Per-place flop counts of *per_cell* flops on every stored cell."""
        return [per_cell * cells for cells in self.task_plan().cells]

    def _check_same_layout(self, other: "DistBlockMatrix") -> None:
        if not (other.m == self.m and other.n == self.n):
            raise ValueError("shape mismatch")
        if other.group != self.group:
            raise ValueError("operands on different groups")
        if not other.grid.same_blocking(self.grid):
            raise ValueError("operands on different grids")

    def _cellwise_pair(self, other, fn, flops_per_cell=1.0, label="cellwise"):
        """Apply *fn(my_block, other_block)* blockwise (layout-aligned)."""
        self._check_same_layout(other)
        key, other_key = self.heap_key, other.heap_key

        def task(ctx: PlaceContext) -> None:
            theirs: BlockSet = ctx.heap.get(other_key)
            for block in ctx.heap.get(key):
                fn(block, theirs.get(block.rb, block.cb))

        self.runtime.finish_all(
            self.group, task, label=f"{self.name}:{label}", flops=self._flops(flops_per_cell)
        )
        return self

    def scale(self, alpha: float) -> "DistBlockMatrix":
        """In-place ``self *= alpha`` across all blocks."""
        return self._cellwise(lambda b: b.data.scale(alpha), label="scale")

    def cell_add(self, other: "DistBlockMatrix") -> "DistBlockMatrix":
        """In-place element-wise add of a layout-aligned dense matrix."""
        if not (self.kind == DENSE and other.kind == DENSE):
            raise ValueError("cell_add is dense-only")
        return self._cellwise_pair(
            other, lambda a, b: a.data.cell_add(b.data), label="cell_add"
        )

    def cell_mult(self, other: "DistBlockMatrix") -> "DistBlockMatrix":
        """In-place Hadamard product with a layout-aligned dense matrix."""
        if not (self.kind == DENSE and other.kind == DENSE):
            raise ValueError("cell_mult is dense-only")
        return self._cellwise_pair(
            other, lambda a, b: a.data.cell_mult(b.data), label="cell_mult"
        )

    def cell_div(self, other: "DistBlockMatrix", eps: float = 1e-12) -> "DistBlockMatrix":
        """In-place element-wise divide (denominator floored at *eps*).

        The multiplicative-update form used by GNMF.
        """
        if not (self.kind == DENSE and other.kind == DENSE):
            raise ValueError("cell_div is dense-only")

        def div(a: MatrixBlock, b: MatrixBlock) -> None:
            a.data.touch()
            a.data.data /= np.maximum(b.data.data, eps)

        return self._cellwise_pair(other, div, label="cell_div")

    def norm_f(self) -> float:
        """Frobenius norm (per-place partial sums + driver combine)."""
        group, key, label = self.group, self.heap_key, f"{self.name}:norm"
        if self.kind == DENSE:

            def task(ctx: PlaceContext) -> float:
                total = 0.0
                for block in ctx.heap.get(key):
                    total += float(np.sum(block.data.data * block.data.data))
                return total

            partials = self.runtime.finish_all(
                group, task, ret_bytes=8, label=label, flops=self._flops(2)
            )
        else:

            def task(ctx: PlaceContext) -> float:
                total = 0.0
                nnz = 0
                for block in ctx.heap.get(key):
                    total += float(block.data.values @ block.data.values)
                    nnz += block.data.nnz
                ctx.charge_flops(2 * nnz)  # nnz: read off the heap
                return total

            partials = self.runtime.finish_all(group, task, ret_bytes=8, label=label)
        return float(np.sqrt(max(sum(p for p in partials if p is not None), 0.0)))

    # -- layout queries ------------------------------------------------------------

    def row_spans(self) -> List[Tuple[int, int]]:
        """Per-place smallest covering global row range."""
        return [self.block_set(i).row_span() for i in range(self.group.size)]

    def aligned_row_partition(self) -> Optional[Partition1D]:
        """A per-place contiguous row partition, if the layout admits one.

        Exists when each place's blocks cover a contiguous band of rows and
        the bands tile ``0..m`` in group order (always so with one block
        column).  Output vectors aligned to this partition make the
        distributed matvec fully local.
        """
        spans = self.row_spans()
        sizes = []
        cursor = 0
        for lo, hi in spans:
            if lo != cursor:
                return None
            sizes.append(hi - lo)
            cursor = hi
        if cursor != self.m:
            return None
        return Partition1D(self.m, sizes)

    def blocks_per_place(self) -> List[int]:
        """Current block count per place (load-balance observable)."""
        return [len(self.block_set(i)) for i in range(self.group.size)]

    # -- resilience: remake (§IV-A) ----------------------------------------------

    def remake(
        self,
        new_group: PlaceGroup,
        new_grid: Optional[Grid] = None,
    ) -> "DistBlockMatrix":
        """Destroy and reallocate over *new_group*.

        * ``new_grid=None`` — **keep the data grid** and only remap the
          blocks (shrink / replace-redundant); restore is block-by-block.
        * ``new_grid`` given — **repartition** (shrink-rebalance); restore
          requires overlap-region copies.
        """
        self._release_payloads()
        self.group = new_group
        if new_grid is not None:
            require(
                new_grid.m == self.m and new_grid.n == self.n,
                "new grid covers a different matrix",
            )
            self.grid = new_grid
        self.block_map = GroupedBlockMap(self.grid, new_group.size)
        self._allocate()
        return self

    @classmethod
    def default_regrid(cls, m: int, n: int, col_blocks: int, num_places: int) -> Grid:
        """The shrink-rebalance grid: one block row band per place."""
        return Grid.partition(m, n, num_places, col_blocks)

    # -- resilience: snapshot / restore (§IV-B) -------------------------------------

    def make_snapshot(self, protection: Protection = Protection(), base=None):
        """Save each place's block set under its index.

        Blocks are saved copy-on-write (frozen aliases, no deep copies);
        in delta mode a place whose blocks are all unchanged since *base*
        adopts its committed copy by reference instead.
        """
        block_nnz: Dict[Tuple[int, int], int] = {}
        if self.kind == SPARSE:
            for index in range(self.group.size):
                for block in self.block_set(index):
                    block_nnz[(block.rb, block.cb)] = block.data.nnz
        return self._snapshot_partitions(
            {
                "kind": self.kind,
                "row_sizes": list(self.grid.row_sizes),
                "col_sizes": list(self.grid.col_sizes),
                "owners": self.block_map.owner_dict(),
                "block_nnz": block_nnz,
            },
            protection,
            base,
            view_of=BlockSet.freeze_view_dict,
        )

    def restore_snapshot(self, snapshot) -> None:
        """Reload block data after a :meth:`remake`.

        Chooses block-by-block reload when the grid is unchanged and
        overlap-region assembly when it differs, per §IV-B2.
        """
        require(snapshot.meta.get("kind") == self.kind, "snapshot kind mismatch")
        old_grid = Grid(self.m, self.n, snapshot.meta["row_sizes"], snapshot.meta["col_sizes"])
        if old_grid.same_blocking(self.grid):
            self._restore_same_grid(snapshot)
        else:
            self._restore_regridded(snapshot, old_grid)

    def _restore_same_grid(self, snapshot) -> None:
        """Block-by-block restore: adopt whole blocks from their old owners."""
        owners: Dict[Tuple[int, int], int] = snapshot.meta["owners"]
        key = self.heap_key

        def load(ctx: PlaceContext) -> None:
            for block in ctx.heap.get(key):
                part = (block.rb, block.cb)
                block.data = snapshot.fetch(ctx, owners[part], part=part)

        self.runtime.finish_all(self.group, load, label=f"{self.name}:restore_same_grid")

    def _restore_regridded(self, snapshot, old_grid: Grid) -> None:
        """Overlap-region restore: assemble each new block from sub-blocks.

        For sparse blocks the non-zeros of every overlap region are counted
        first (a scan of the old block's row span) to size the new block,
        then the regions are extracted and assembled — the extra work that
        makes shrink-rebalance the most expensive mode (Table IV).  The
        pieces are planned (:func:`regrid_plan`) before any task runs.
        """
        dense = self.kind == DENSE
        plan = regrid_plan(
            self.grid,
            old_grid,
            snapshot.meta["owners"],
            snapshot.meta.get("block_nnz", {}) if not dense else None,
        )
        key = self.heap_key

        def load(ctx: PlaceContext) -> None:
            for block in ctx.heap.get(key):
                h, w, tiles = plan[(block.rb, block.cb)]
                if dense and tiles and sum(map(len, tiles)) == len(tiles):
                    # One full-width piece per old row band, top to bottom:
                    # frozen rows lying back to back in one buffer join as
                    # one view of it.
                    rows = []
                    for ((owner, part, cut, _, flops, nbytes),) in tiles:
                        rows.append(snapshot.fetch(ctx, owner, part, cut, flops, nbytes).data)
                    out = DenseMatrix.from_payload_arrays((h, w), (_joined(rows),))
                elif dense:
                    out = DenseMatrix.make(h, w)
                    for row in tiles:
                        for owner, part, cut, (dr, dc), flops, nbytes in row:
                            piece = snapshot.fetch(ctx, owner, part, cut, flops, nbytes)
                            out.data[dr : dr + piece.m, dc : dc + piece.n] = piece.data
                elif tiles:
                    # The tiles of one new block form a regular grid (old
                    # grid lines cutting it): assemble rows of tiles.
                    pieces: List[List[SparseCSR]] = []
                    for row in tiles:
                        pieces.append([])
                        for owner, part, cut, _, flops, nbytes in row:
                            pieces[-1].append(snapshot.fetch(ctx, owner, part, cut, flops, nbytes))
                    out = SparseCSR.assemble(pieces)
                else:
                    out = SparseCSR.empty(h, w)  # zero-area block: no tiles
                block.data = out

        self.runtime.finish_all(self.group, load, label=f"{self.name}:restore_regridded")
