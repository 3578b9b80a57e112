"""``DistBlockMatrix`` — the paper's central distributed matrix class.

The matrix is cut by a :class:`~repro.matrix.grid.Grid` into full-width
row blocks, and one rule, :func:`deal`, hands one or *more* blocks to each
place as near-even consecutive runs (a :class:`~repro.matrix.block.BlockSet`
per place), so every place holds one contiguous row band.  The rule is
never stored: a snapshot saves the row sizes, and a restore deals them over
the snapshot group's size again to find each block's old owner.  Holding
sets of blocks is what lets the **shrink** restoration remap existing
blocks over fewer places without repartitioning (fast block-by-block
restore, Fig. 1-b), while **shrink-rebalance** recalculates the grid for
even load at the price of sub-block overlap copies (Fig. 1-c).

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
from repro.matrix.multiplace import MultiPlaceObject
from repro.matrix.random import LinkMatrix, dense_strip, random_sparse_block, zero_dense_block
from repro.matrix.sparse import SparseCSR, _joined
from repro.resilience.protection import Protection
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import PlaceContext, Runtime
from repro.util.validation import require

DENSE = "dense"
SPARSE = "sparse"


def deal(num_row_blocks: int, num_places: int) -> Partition1D:
    """The one block→place rule (Fig. 1-b): row blocks dealt in grid order
    as near-even consecutive runs, the first ``num_row_blocks % num_places``
    places receiving one extra block — segment *i* is place index *i*'s run."""
    require(
        num_row_blocks >= num_places,
        f"{num_row_blocks} blocks cannot cover {num_places} places",
    )
    return Partition1D.even(num_row_blocks, num_places)


def owners_of(num_row_blocks: int, num_places: int) -> List[int]:
    """``owners[rb]``: the place index :func:`deal` hands row block *rb* to."""
    sizes = deal(num_row_blocks, num_places).sizes
    return [index for index, size in enumerate(sizes) for _ in range(size)]


class TaskPlan:
    """What a matrix layout fixes about every task run over it, worked out
    once per layout instead of once per task: each place's row blocks and
    the per-place counts behind the declared flops of the dense kernels.

    Everything here is read off the grid and :func:`deal` — no heap.
    :class:`DistBlockMatrix` drops its plan whenever the layout may change
    (allocation, remake, regrid, restore) and never pickles it.
    """

    def __init__(self, grid: Grid, num_places: int, dense: bool):
        row_sizes, row_offsets, n = grid.row_sizes, grid.row_offsets, grid.n
        #: Per place index: its blocks ``(rb, row offset, rows)``, in order.
        self.blocks: List[List[Tuple[int, int, int]]] = []
        #: Per place index: rows held (its band of the aligned row
        #: partition), and stored cells.
        self.rows: List[int] = []
        self.cells: List[int] = []
        first = deal(grid.num_row_blocks, num_places).offsets
        for lo, hi in zip(first, first[1:]):
            blocks = [(rb, row_offsets[rb], row_sizes[rb]) for rb in range(lo, hi)]
            rows = row_offsets[hi] - row_offsets[lo]
            self.blocks.append(blocks)
            self.rows.append(rows)
            self.cells.append(rows * n)
        #: Dense matvec / t_matvec per-place flops, two per cell (``None`` for
        #: sparse: nnz-dependent).
        self.matvec_flops: Optional[List[int]] = (
            [2 * cells for cells in self.cells] if dense else None
        )


#: One piece of a regridded restore: ``(old owner index, old block key,
#: cut in the old block (r0, r1, 0, n), scan flops, copy bytes)``.
Piece = Tuple[int, Tuple[int, int], Tuple[int, int, int, int], float, float]


def regrid_plan(
    new: Grid,
    old: Grid,
    old_places: int,
    block_nnz: Optional[Dict[int, int]],
) -> List[List[Piece]]:
    """Every read of a restore from *old*'s row blocks onto *new*'s, planned once.

    *old* was dealt over *old_places* places, which names each old block's
    owner.  Per new row block, its pieces top to bottom: one full-width row
    range of each old block it meets — none for a zero-height block.  The
    pieces tile the block exactly (property-tested).  *block_nnz* (``None``
    for a dense matrix) sizes a sparse piece's charges: a counting pass over
    the old block's row span, then a copy of the entries it finds.
    """
    n = new.n
    owners = owners_of(old.num_row_blocks, old_places)
    plan: List[List[Piece]] = [[] for _ in range(new.num_row_blocks)]
    for rb, orb, r0, r1 in new.row_partition().overlaps(old.row_partition()):
        if block_nnz is None:
            flops, nbytes = 0.0, (r1 - r0) * n * 8
        else:
            old_rows = old.row_sizes[orb]
            row_frac = (r1 - r0) / old_rows if old_rows else 0.0
            nnz_in_span = block_nnz.get(orb, 0) * row_frac
            # The counting pass scans the row span, then the extraction
            # copies the region's entries (16 B each: index + value).
            flops, nbytes = 2.0 * nnz_in_span + (r1 - r0), nnz_in_span * 16.0
        o_r0 = old.row_offsets[orb]
        # ``(orb, 0)``: the saved block key (see :meth:`BlockSet.add`).
        plan[rb].append((owners[orb], (orb, 0), (r0 - o_r0, r1 - o_r0, 0, n), flops, nbytes))
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
        self._allocate()

    # -- factories (paper's ``make`` signature) ---------------------------------

    @classmethod
    def make_dense(
        cls,
        runtime: Runtime,
        m: int,
        n: int,
        row_blocks: int,
        group: Optional[PlaceGroup] = None,
    ) -> "DistBlockMatrix":
        """``DistBlockMatrix.make(m, n, rowBs, 1)``, dense: *row_blocks*
        full-width row blocks dealt over *group* (defaults to the world) as
        near-even consecutive runs."""
        group = group if group is not None else runtime.world
        return cls(runtime, Grid.partition(m, n, row_blocks), group, DENSE)

    @classmethod
    def make_sparse(
        cls,
        runtime: Runtime,
        m: int,
        n: int,
        row_blocks: int,
        group: Optional[PlaceGroup] = None,
    ) -> "DistBlockMatrix":
        """Sparse variant of :meth:`make_dense` (blocks start empty)."""
        group = group if group is not None else runtime.world
        return cls(runtime, Grid.partition(m, n, row_blocks), group, SPARSE)

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
        return TaskPlan(self.grid, self.group.size, self.kind == DENSE)

    def task_plan(self) -> TaskPlan:
        """This layout's :class:`TaskPlan`, built on first use."""
        return self._plan

    def _allocate(self) -> None:
        """Lay out every place's blocks from the plan: dense blocks alias the
        shared frozen zero block of their shape (CoW), sparse ones start empty."""
        self._drop_plans()
        plan, key, dense, w = self._plan, self.heap_key, self.kind == DENSE, self.n
        index_by_id = self.group._index_by_id

        def alloc(ctx: PlaceContext) -> None:
            index = index_by_id[ctx.place.id]
            bs = BlockSet(index)
            for rb, r0, h in plan.blocks[index]:
                data = zero_dense_block(h, w) if dense else SparseCSR.empty(h, w)
                bs.add(MatrixBlock(rb, r0, data))
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

        A dense block is a pure function of ``(seed, rb, h, w)``: the same
        grid gives the same matrix over any place group, while a different
        grid gives different values (PageRank, whose input must survive a
        regrid, uses :meth:`init_link_matrix`).  Restores never regenerate a
        block; they reload the snapshot's.  Each dense block is a frozen row
        view of the matrix's memoized strip
        (:func:`~repro.matrix.random.dense_strip`), so the rows of adjacent
        blocks are one contiguous run.  Sparse blocks are drawn per block
        from the same seeds.
        """
        group, key = self.group, self.heap_key

        label = f"{self.name}:init_random"
        if self.kind == DENSE:
            strip = dense_strip(seed, self.grid.row_sizes, self.n)

            def fill(ctx: PlaceContext) -> None:
                for block in ctx.heap.get(key):
                    block.data = strip.block(block.rb)

            self.runtime.finish_all(group, fill, label=label, flops=self.task_plan().cells)
            return self

        def fill_sparse(ctx: PlaceContext) -> None:
            flops = 0.0
            for block in ctx.heap.get(key):
                h, w = block.shape
                block.data = random_sparse_block(seed, block.rb, h, w, density)
                flops += block.data.nnz * 2
            ctx.charge_flops(flops)  # nnz: known only once generated

        self.runtime.finish_all(group, fill_sparse, label=label)
        return self

    def init_link_matrix(self, link: LinkMatrix) -> "DistBlockMatrix":
        """Fill a sparse matrix with a grid-independent synthetic web graph."""
        require(self.kind == SPARSE, "link matrices are sparse")
        require(link.n == self.m == self.n, "link matrix order mismatch")
        group, key, n = self.group, self.heap_key, self.n
        # Taken once per fill and sliced per block: a graph over the input
        # memo's budget is built per fetch, so ``link.block()`` per block
        # would build it once per block.
        graph = link.global_csr()

        def fill(ctx: PlaceContext) -> None:
            bs: BlockSet = ctx.heap.get(key)
            flops = 0.0
            for block in bs:
                r0, r1 = block.row_range()
                block.data = graph.sub_matrix(r0, r1, 0, n)
                flops += n * link.out_degree + block.data.nnz
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
                piece = dense.data[r0:r1]
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
                out.data[r0:r1] = block.data.to_dense() if block.is_sparse else block.data.data
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
                fn(block, theirs.get(block.rb))

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

    def aligned_row_partition(self) -> Partition1D:
        """The per-place row bands, in group order: each place's consecutive
        run of row blocks.  The distributed kernels require their vectors on
        this partition, which makes them fully local."""
        return Partition1D(self.m, self.task_plan().rows)

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
        self._allocate()
        return self

    # -- resilience: snapshot / restore (§IV-B) -------------------------------------

    def make_snapshot(self, protection: Protection = Protection(), base=None):
        """Save each place's block set under its index.

        Blocks are saved copy-on-write (frozen aliases, no deep copies);
        in delta mode a place whose blocks are all unchanged since *base*
        adopts its committed copy by reference instead.
        """
        block_nnz: Dict[int, int] = {}
        if self.kind == SPARSE:
            for index in range(self.group.size):
                for block in self.block_set(index):
                    block_nnz[block.rb] = block.data.nnz
        return self._snapshot_partitions(
            {
                "kind": self.kind,
                "row_sizes": list(self.grid.row_sizes),
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
        old_grid = Grid(self.m, self.n, snapshot.meta["row_sizes"])
        if old_grid.same_blocking(self.grid):
            self._restore_same_grid(snapshot)
        else:
            self._restore_regridded(snapshot, old_grid)

    def _restore_same_grid(self, snapshot) -> None:
        """Block-by-block restore: adopt whole blocks from their old owners."""
        owners = owners_of(self.grid.num_row_blocks, snapshot.group.size)
        key = self.heap_key

        def load(ctx: PlaceContext) -> None:
            for block in ctx.heap.get(key):
                rb = block.rb
                # ``(rb, 0)``: the saved block key (see :meth:`BlockSet.add`).
                block.data = snapshot.fetch(ctx, owners[rb], part=(rb, 0))

        self.runtime.finish_all(self.group, load, label=f"{self.name}:restore_same_grid")

    def _restore_regridded(self, snapshot, old_grid: Grid) -> None:
        """Overlap-region restore: assemble each new block from row pieces.

        For sparse blocks the non-zeros of every overlap region are counted
        first (a scan of the old block's row span) to size the new block,
        then the regions are extracted and stacked — the extra work that
        makes shrink-rebalance the most expensive mode (Table IV).  The
        pieces are planned (:func:`regrid_plan`) before any task runs.
        """
        dense = self.kind == DENSE
        plan = regrid_plan(
            self.grid,
            old_grid,
            snapshot.group.size,
            snapshot.meta.get("block_nnz", {}) if not dense else None,
        )
        key, n = self.heap_key, self.n

        def load(ctx: PlaceContext) -> None:
            for block in ctx.heap.get(key):
                pieces = []
                for owner, part, cut, flops, nbytes in plan[block.rb]:
                    piece = snapshot.fetch(ctx, owner, part, cut, flops, nbytes)
                    pieces.append(piece.data if dense else piece)
                if not pieces:  # zero-height block
                    block.data = DenseMatrix.make(0, n) if dense else SparseCSR.empty(0, n)
                elif dense:
                    # Frozen rows lying back to back in one buffer join as
                    # one view of it.
                    rows = _joined(pieces)
                    block.data = DenseMatrix.from_payload_arrays(rows.shape, (rows,))
                else:
                    block.data = SparseCSR.vstack(pieces)

        self.runtime.finish_all(self.group, load, label=f"{self.name}:restore_regridded")
