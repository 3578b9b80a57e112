"""Distributed kernels over the multi-place classes.

Two kernels carry the paper's three applications:

* ``dist_block_matvec`` — ``y = G @ x`` with ``G`` a :class:`DistBlockMatrix`,
  ``x`` a :class:`DupVector` and ``y`` a :class:`DistVector` (Listing 2's
  ``GP.mult(G, P)``).  Each place multiplies its blocks against its local
  duplicate slice; block-row results are routed to the segment owners of
  ``y`` (free when the output partition is aligned to the block layout, a
  remote transfer for each row span whose segment another place owns).

* ``dist_block_t_matvec`` — ``g = Gᵀ @ r`` producing a :class:`DupVector`
  (the gradient combine of LinReg/LogReg): each place computes a partial
  full-width product from its blocks, then an all-reduce sums the partials
  into every replica.

``dist_block_normal_matvec`` chains the two (``g = Gᵀ(G x)``, LinReg's CG
step) and, on one block column, forms each dense block's ``Gᵀ(G x)`` piece
while the block is still in cache.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.matrix.block import BlockSet, MatrixBlock
from repro.matrix.distblock import DistBlockMatrix
from repro.matrix.distvector import DistVector
from repro.matrix.dupvector import DupVector
from repro.matrix.sparse import SparseCSR
from repro.matrix.vector import Vector
from repro.runtime.comm import point_to_point
from repro.runtime.runtime import PlaceContext
from repro.util.versioning import next_version


#: Dense block ``G_b`` → (the bytes of ``G_b x``, ``G_bᵀ (G_b x)``): one
#: normal-matvec call's products, local to that call.
_Products = Dict[MatrixBlock, Tuple[bytes, np.ndarray]]


def dist_block_matvec(
    G: DistBlockMatrix, x: DupVector, y: DistVector, _products: Optional[_Products] = None
) -> DistVector:
    """``y = G @ x`` — one compute finish plus result routing.

    With *_products* (:func:`dist_block_normal_matvec`, one block column),
    each dense block's task also stores ``G_bᵀ (G_b x)`` there.
    """
    if x.n != G.n:
        raise ValueError(f"operand length {x.n} != matrix cols {G.n}")
    if y.n != G.m:
        raise ValueError(f"output length {y.n} != matrix rows {G.m}")
    if G.group != x.group:
        raise ValueError("matrix and operand on different groups")
    if G.group != y.group:
        raise ValueError("matrix and output on different groups")
    rt = G.runtime
    group = G.group
    cost, clock = rt.cost, rt.clock
    g_key, x_key = G.heap_key, x.heap_key
    plan = G.task_plan()

    # Sparse entries are weighted by the cost model's irregular-access
    # factor (CSR gathers are far slower per entry than dense BLAS).
    sparse_factor = cost.sparse_flop_factor
    # A dense layout declares its flops to the finish; sparse blocks are
    # tallied by their nnz — and with a zero flop rate not at all.
    tally = plan.matvec_flops is None and cost.flop_time != 0.0

    def compute(ctx: PlaceContext) -> Dict[int, Tuple[int, np.ndarray]]:
        heap_get = ctx.heap.get
        xdata = heap_get(x_key).data
        partials: Dict[int, Tuple[int, np.ndarray]] = {}
        flops = 0.0
        for block in heap_get(g_key):
            data = block.data
            c0 = block.col_offset
            if isinstance(data, SparseCSR):
                part = data.spmv(xdata[c0 : c0 + data.n])
                if tally:
                    flops += 2.0 * len(data.values) * sparse_factor
            else:
                part = data.matvec(xdata[c0 : c0 + data.n])
                if _products is not None:
                    _products[block] = (part.tobytes(), data.t_matvec(part))
            if block.rb in partials:
                partials[block.rb][1][:] += part
                if tally:
                    flops += data.m
            else:
                partials[block.rb] = (block.row_offset, part)
        if tally:
            ctx.charge_flops(flops)
        return partials

    results = rt.finish_all(group, compute, label="matvec", flops=plan.matvec_flops)

    # Route block-row results into the output segments along the layout's
    # planned routes.  Aligned outputs route locally; a row span landing in
    # another place's segment pays a transfer.  The finish raised if any
    # member had died, so every heap is live.  The segment zeroing is
    # ``Vector.fill`` and each charge ``VirtualClock.advance`` inlined
    # (finite, positive seconds), in the original order: no call per segment.
    y_key = y.heap_key
    heaps, times, slow = rt._heaps, clock._times, clock._slowdown
    flop_time, scale = cost.flop_time, cost.logical_scale
    memcpy_time = cost.memcpy_byte_time
    ids = group.ids
    segs = []
    for pid in ids:
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
        segs.append(data)
    for src_id, partials, routes in zip(ids, results, plan.routes(y.partition)):
        if partials is None:
            continue
        for rb, segments in routes:
            part = partials[rb][1]
            for seg_index, dest_id, d0, d1, p0, p1 in segments:
                if dest_id != src_id:
                    point_to_point(rt, src_id, dest_id, (p1 - p0) * 8)
                segs[seg_index][d0:d1] += part[p0:p1]
                if flop_time != 0.0:
                    dt = flop_time * (d1 - d0) * scale
                    if slow:
                        dt *= slow.get(dest_id, 1.0)
                    clock._moved = True
                    times[dest_id] += dt
    return y


def dist_block_t_matvec(
    G: DistBlockMatrix, r: DistVector, g: DupVector, _products: Optional[_Products] = None
) -> DupVector:
    """``g = Gᵀ @ r`` — per-place partials, then all-reduce into replicas.

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
    rt = G.runtime
    group = G.group
    n = G.n
    g_key, r_key, out_key = G.heap_key, r.heap_key, g.heap_key
    offsets = r.partition.offsets
    spans = dict(zip(group.ids, zip(offsets, offsets[1:])))
    sparse_factor = rt.cost.sparse_flop_factor
    declared = G.task_plan().t_matvec_flops
    tally = declared is None and rt.cost.flop_time != 0.0
    products = _products if _products is not None else {}

    def compute(ctx: PlaceContext) -> None:
        heap_get = ctx.heap.get
        lo, hi = spans[ctx.place.id]
        partial = np.zeros(n)
        flops = 0.0
        for block in heap_get(g_key):
            data = block.data
            r0, c0 = block.row_offset, block.col_offset
            r1 = r0 + data.m
            if lo <= r0 and r1 <= hi:  # the rows are local: no gather
                rvals = heap_get(r_key).data[r0 - lo : r1 - lo]
            else:
                rvals = _gather_rows(ctx, r, r0, r1)
            if isinstance(data, SparseCSR):
                partial[c0 : c0 + data.n] += data.spmv_t(rvals)
                if tally:
                    flops += 2.0 * len(data.values) * sparse_factor
            else:
                stored = products.pop(block, None)
                if stored is not None and stored[0] == rvals.tobytes():
                    partial[c0 : c0 + data.n] += stored[1]
                else:
                    partial[c0 : c0 + data.n] += data.t_matvec(rvals)
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
    :func:`dist_block_t_matvec`.  Only host order differs: on one block
    column each matvec task also forms ``G_bᵀ (G_b x)`` while ``G_b`` is
    still in cache, and the t_matvec task adds it where its rows of ``y``
    are bitwise ``G_b x``.  Routing can change those bytes (``-0.0``
    arrives as ``+0.0``); such a block is multiplied again.
    """
    products: Optional[_Products] = {} if G.grid.num_col_blocks == 1 else None
    dist_block_matvec(G, x, y, products)
    return dist_block_t_matvec(G, y, g, products)


def _check_row_aligned(a: DistBlockMatrix, b: DistBlockMatrix) -> None:
    """Both matrices must share group and row blocking (and be
    single-block-column), so one block→place rule gives them the same
    owners and row bands can be combined locally."""
    if a.group != b.group:
        raise ValueError("operands on different groups")
    if a.m != b.m:
        raise ValueError("row count mismatch")
    if not (a.grid.num_col_blocks == 1 and b.grid.num_col_blocks == 1):
        raise ValueError("matrix-matrix kernels require single-column block layouts")
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
            peer = theirs.get(block.rb, 0)
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
            target = outs.get(block.rb, 0)
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


def _gather_rows(ctx: PlaceContext, r: DistVector, r0: int, r1: int) -> np.ndarray:
    """Collect ``r[r0:r1]`` at the calling place from the segments' owners."""
    out = np.empty(r1 - r0)
    for seg_index, start, end in r.partition.overlapping_segments(r0, r1):
        slo, _shi = r.partition.range_of(seg_index)
        owner = r.group[seg_index]
        if owner == ctx.place:
            piece = ctx.heap.get(r.heap_key).data[start - slo : end - slo]
        else:
            seg: Vector = ctx.read_remote(owner.id, r.heap_key, nbytes=(end - start) * 8)
            piece = seg.data[start - slo : end - slo]
        out[start - r0 : end - r0] = piece
    return out
