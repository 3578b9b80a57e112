"""Distributed kernels over the multi-place classes.

Two kernels carry the paper's three applications:

* ``dist_block_matvec`` — ``y = G @ x`` with ``G`` a :class:`DistBlockMatrix`,
  ``x`` a :class:`DupVector` and ``y`` a :class:`DistVector` (Listing 2's
  ``GP.mult(G, P)``).  Each place multiplies its row blocks against its
  local duplicate and adds the results into its own segment of ``y``.

* ``dist_block_t_matvec`` — ``g = Gᵀ @ r`` producing a :class:`DupVector`
  (the gradient combine of LinReg/LogReg): each place computes a partial
  full-width product from its blocks and its own segment of ``r``, then an
  all-reduce sums the partials into every replica.

Both require the distributed vector on ``G``'s row bands
(:meth:`DistBlockMatrix.aligned_row_partition`) and raise ``ValueError``
otherwise, so neither moves a byte between places.
``dist_block_normal_matvec`` chains the two (``g = Gᵀ(G x)``, LinReg's CG
step) and forms each dense block's ``Gᵀ(G x)`` piece while the block is
still in cache.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.matrix.block import BlockSet, MatrixBlock
from repro.matrix.distblock import DistBlockMatrix, TaskPlan
from repro.matrix.distvector import DistVector
from repro.matrix.dupvector import DupVector
from repro.matrix.sparse import SparseCSR
from repro.matrix.vector import Vector
from repro.runtime.runtime import PlaceContext
from repro.util.versioning import next_version


#: Dense block ``G_b`` → (the bytes of ``G_b x``, ``G_bᵀ (G_b x)``): one
#: normal-matvec call's products, local to that call.
_Products = Dict[MatrixBlock, Tuple[bytes, np.ndarray]]


def _check_on_bands(plan: TaskPlan, v: DistVector, role: str) -> None:
    """*v* must lie on the matrix's row bands (its aligned row partition),
    so every place reads and writes only its own segment."""
    bands = plan.rows
    if v.partition.sizes != bands:
        raise ValueError(
            f"{role} partition {v.partition.sizes} is not the matrix's row bands {bands}"
        )


def dist_block_matvec(
    G: DistBlockMatrix, x: DupVector, y: DistVector, _products: Optional[_Products] = None
) -> DistVector:
    """``y = G @ x`` — one compute finish, then each place adds its blocks'
    rows into its own segment of *y* (which must lie on *G*'s row bands).

    With *_products* (:func:`dist_block_normal_matvec`), each dense block's
    task also stores ``G_bᵀ (G_b x)`` there.
    """
    if x.n != G.n:
        raise ValueError(f"operand length {x.n} != matrix cols {G.n}")
    if y.n != G.m:
        raise ValueError(f"output length {y.n} != matrix rows {G.m}")
    if G.group != x.group:
        raise ValueError("matrix and operand on different groups")
    if G.group != y.group:
        raise ValueError("matrix and output on different groups")
    plan = G.task_plan()
    _check_on_bands(plan, y, "output")
    rt = G.runtime
    group = G.group
    cost, clock = rt.cost, rt.clock
    g_key, x_key = G.heap_key, x.heap_key

    # Sparse entries are weighted by the cost model's irregular-access
    # factor (CSR gathers are far slower per entry than dense BLAS).
    sparse_factor = cost.sparse_flop_factor
    # A dense layout declares its flops to the finish; sparse blocks are
    # tallied by their nnz — and with a zero flop rate not at all.
    tally = plan.matvec_flops is None and cost.flop_time != 0.0

    def compute(ctx: PlaceContext) -> Dict[int, np.ndarray]:
        heap_get = ctx.heap.get
        xdata = heap_get(x_key).data
        parts: Dict[int, np.ndarray] = {}  # by row block, in block order
        flops = 0.0
        for block in heap_get(g_key):
            data = block.data
            if isinstance(data, SparseCSR):
                parts[block.rb] = data.spmv(xdata)
                if tally:
                    flops += 2.0 * len(data.values) * sparse_factor
            else:
                part = parts[block.rb] = data.matvec(xdata)
                if _products is not None:
                    _products[block] = (part.tobytes(), data.t_matvec(part))
        if tally:
            ctx.charge_flops(flops)
        return parts

    results = rt.finish_all(group, compute, label="matvec", flops=plan.matvec_flops)

    # Add each place's block results into its own output segment, in block
    # order.  The finish raised if any member had died, so every heap is
    # live.  The segment zeroing is ``Vector.fill`` and each charge
    # ``VirtualClock.advance`` inlined (finite, positive seconds): no call
    # per segment.
    y_key = y.heap_key
    heaps, times, slow = rt._heaps, clock._times, clock._slowdown
    flop_time, scale = cost.flop_time, cost.logical_scale
    memcpy_time = cost.memcpy_byte_time
    for pid, parts in zip(group.ids, results):
        seg: Vector = heaps[pid].get(y_key)
        data = seg.data
        if not data.flags.writeable:  # frozen in a snapshot: detach first
            seg.data = data = data.copy()
        seg.version = next_version()
        data.fill(0.0)
        if memcpy_time != 0.0:
            dt = memcpy_time * data.nbytes * scale
            if dt:
                if slow:
                    dt *= slow.get(pid, 1.0)
                clock._moved = True
                times[pid] += dt
        lo = 0
        for rb in parts:  # keys, not ``values()``: no call per place
            part = parts[rb]
            hi = lo + part.shape[0]
            data[lo:hi] += part
            if flop_time != 0.0:
                dt = flop_time * (hi - lo) * scale
                if slow:
                    dt *= slow.get(pid, 1.0)
                clock._moved = True
                times[pid] += dt
            lo = hi
    return y


def dist_block_t_matvec(
    G: DistBlockMatrix, r: DistVector, g: DupVector, _products: Optional[_Products] = None
) -> DupVector:
    """``g = Gᵀ @ r`` — per-place partials from each place's own segment of
    *r* (which must lie on *G*'s row bands), then all-reduce into replicas.

    A dense block whose rows of *r* are bitwise the operand a stored
    *_products* entry was formed from adds that product instead of
    multiplying again (observed identical, never assumed).
    """
    if r.n != G.m:
        raise ValueError(f"operand length {r.n} != matrix rows {G.m}")
    if g.n != G.n:
        raise ValueError(f"output length {g.n} != matrix cols {G.n}")
    if G.group != r.group:
        raise ValueError("matrix and operand on different groups")
    if G.group != g.group:
        raise ValueError("matrix and output on different groups")
    plan = G.task_plan()
    _check_on_bands(plan, r, "operand")
    rt = G.runtime
    group = G.group
    n = G.n
    g_key, r_key, out_key = G.heap_key, r.heap_key, g.heap_key
    lows = dict(zip(group.ids, r.partition.offsets))
    sparse_factor = rt.cost.sparse_flop_factor
    declared = plan.matvec_flops
    tally = declared is None and rt.cost.flop_time != 0.0
    products = _products if _products is not None else {}

    def compute(ctx: PlaceContext) -> None:
        heap_get = ctx.heap.get
        lo = lows[ctx.place.id]
        rdata = heap_get(r_key).data
        partial = np.zeros(n)
        flops = 0.0
        for block in heap_get(g_key):
            data = block.data
            r0 = block.row_offset - lo
            rvals = rdata[r0 : r0 + data.m]
            if isinstance(data, SparseCSR):
                partial += data.spmv_t(rvals)
                if tally:
                    flops += 2.0 * len(data.values) * sparse_factor
            else:
                stored = products.pop(block, None)
                if stored is not None and stored[0] == rvals.tobytes():
                    partial += stored[1]
                else:
                    partial += data.t_matvec(rvals)
        # This place's local write: its replica leaves the coherent set (the
        # whole payload is overwritten, so it rebinds to the fresh array).
        heap_get(out_key).adopt(partial)
        if tally:
            ctx.charge_flops(flops)

    rt.finish_all(group, compute, label="t_matvec", flops=declared)
    g.reduce_sum()
    return g


def dist_block_normal_matvec(
    G: DistBlockMatrix, x: DupVector, y: DistVector, g: DupVector
) -> DupVector:
    """``y = G @ x``, then ``g = Gᵀ @ y`` — the two finishes, unchanged.

    Virtual time sees exactly :func:`dist_block_matvec` followed by
    :func:`dist_block_t_matvec`.  Only host order differs: each matvec task
    also forms ``G_bᵀ (G_b x)`` while ``G_b`` is still in cache, and the
    t_matvec task adds it where its rows of ``y`` are bitwise ``G_b x``.
    Adding into a zeroed segment can change those bytes (``-0.0`` arrives
    as ``+0.0``); such a block is multiplied again.
    """
    products: _Products = {}
    dist_block_matvec(G, x, y, products)
    return dist_block_t_matvec(G, y, g, products)


def _check_row_aligned(a: DistBlockMatrix, b: DistBlockMatrix) -> None:
    """Both matrices must share group and row blocking, so one block→place
    rule gives them the same owners and row bands can be combined locally."""
    if a.group != b.group:
        raise ValueError("operands on different groups")
    if a.m != b.m:
        raise ValueError("row count mismatch")
    if a.grid.row_sizes != b.grid.row_sizes:
        raise ValueError("row blockings differ")


def dist_gram(a: DistBlockMatrix, b: DistBlockMatrix, out) -> "object":
    """``out = aᵀ @ b`` — per-place row-band partials, all-reduced.

    ``a`` may be sparse or dense; ``b`` and the duplicated output are
    dense.  This is the Gram-product pattern of GNMF's update rules
    (``WᵀV``, ``WᵀW``): each place multiplies its row band, then the
    small ``a.n × b.n`` partials are combined into every replica.
    """
    from repro.matrix.dupmatrix import DupDenseMatrix

    _check_row_aligned(a, b)
    if not isinstance(out, DupDenseMatrix):
        raise ValueError("output must be a DupDenseMatrix")
    if (out.m, out.n) != (a.n, b.n):
        raise ValueError("output shape mismatch")
    if out.group != a.group:
        raise ValueError("output on a different group")
    if not (a.kind == "dense" or b.kind == "dense"):
        raise ValueError("at least one gram operand must be dense")
    rt = a.runtime
    group = a.group
    # Dense × dense declares its flops to the finish; a sparse operand is
    # tallied by its nnz.
    dense = a.kind == "dense" and b.kind == "dense"
    declared = [2 * rows * a.n * b.n for rows in a.task_plan().rows] if dense else None

    def compute(ctx: PlaceContext) -> None:
        mine: BlockSet = ctx.heap.get(a.heap_key)
        theirs: BlockSet = ctx.heap.get(b.heap_key)
        partial = np.zeros((a.n, b.n))
        flops = 0.0
        for block in mine:
            peer = theirs.get(block.rb)
            if block.is_sparse:
                # sparse(a)ᵀ @ dense(b)
                partial += block.data.t_matmat(peer.data.data)
                flops += 2.0 * block.data.nnz * b.n * rt.cost.sparse_flop_factor
            elif peer.is_sparse:
                # dense(a)ᵀ @ sparse(b) = (sparse(b)ᵀ @ dense(a))ᵀ
                partial += peer.data.t_matmat(block.data.data).T
                flops += 2.0 * peer.data.nnz * a.n * rt.cost.sparse_flop_factor
            else:
                partial += block.data.data.T @ peer.data.data
        ctx.heap.get(out.heap_key).adopt(partial)  # local write, whole payload
        if not dense:
            ctx.charge_flops(flops)

    rt.finish_all(group, compute, label="gram", flops=declared)
    out.reduce_sum()
    return out


def dist_matmat_dup(a: DistBlockMatrix, b, out: DistBlockMatrix) -> DistBlockMatrix:
    """``out = a @ b`` with ``b`` a :class:`DupDenseMatrix` — fully local.

    Each place multiplies its row band of ``a`` against its local replica
    of ``b`` and writes its row band of the (row-aligned, dense) output —
    the ``V·Hᵀ`` / ``W·(HHᵀ)`` pattern of GNMF.
    """
    from repro.matrix.dupmatrix import DupDenseMatrix

    _check_row_aligned(a, out)
    if not isinstance(b, DupDenseMatrix):
        raise ValueError("b must be a DupDenseMatrix")
    if b.group != a.group:
        raise ValueError("operands on different groups")
    if a.n != b.m:
        raise ValueError("inner dimension mismatch")
    if not (out.n == b.n and out.kind == "dense"):
        raise ValueError("output shape/kind mismatch")
    rt = a.runtime
    group = a.group
    # Dense ``a`` declares its flops to the finish; sparse is tallied by nnz.
    declared = (
        [2 * rows * a.n * b.n for rows in a.task_plan().rows] if a.kind == "dense" else None
    )

    def compute(ctx: PlaceContext) -> None:
        mine: BlockSet = ctx.heap.get(a.heap_key)
        outs: BlockSet = ctx.heap.get(out.heap_key)
        bdata = ctx.heap.get(b.heap_key).data
        flops = 0.0
        for block in mine:
            target = outs.get(block.rb)
            target.data.touch()
            if block.is_sparse:
                target.data.data[:] = block.data.matmat(bdata)
                flops += 2.0 * block.data.nnz * b.n * rt.cost.sparse_flop_factor
            else:
                np.matmul(block.data.data, bdata, out=target.data.data)
        if declared is None:
            ctx.charge_flops(flops)

    rt.finish_all(group, compute, label="matmat", flops=declared)
    return out
