"""``DistVector`` — a vector partitioned into one segment per place.

The partition is an arbitrary contiguous :class:`~repro.matrix.grid.Partition1D`
(one segment per group place); the default is GML's near-even split.  The
distributed matvec writes into a DistVector whose partition is *aligned* to
the matrix's per-place row spans, so results stay local.

Restore semantics follow §IV-B2: with an unchanged partition each place
reloads its whole segment (block-by-block); with a changed partition each
new segment is assembled from the overlapping sub-ranges of old segments.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.matrix.grid import Partition1D
from repro.matrix.multiplace import MultiPlaceObject
from repro.matrix.random import random_vector
from repro.matrix.vector import Vector
from repro.resilience.snapshot import DistObjectSnapshot
from repro.runtime.comm import flat_gather
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import PlaceContext, Runtime
from repro.util.validation import check_positive, require


class DistVector(MultiPlaceObject):
    """A length-``n`` vector with one contiguous segment per member place."""

    def __init__(
        self,
        runtime: Runtime,
        n: int,
        group: PlaceGroup,
        partition: Optional[Partition1D] = None,
    ):
        check_positive(n, "n")
        super().__init__(runtime, group, "DistVector")
        self.n = n
        self.partition = partition if partition is not None else Partition1D.even(n, group.size)
        require(
            self.partition.num_segments == group.size,
            "partition must have one segment per group place",
        )
        require(self.partition.n == n, "partition length mismatch")
        self._allocate()

    @classmethod
    def make(
        cls,
        runtime: Runtime,
        n: int,
        group: Optional[PlaceGroup] = None,
        partition: Optional[Partition1D] = None,
    ) -> "DistVector":
        """GML-style factory over *group* (defaults to the world)."""
        return cls(runtime, n, group if group is not None else runtime.world, partition)

    def _allocate(self) -> None:
        key = self.heap_key
        sizes = self.partition.sizes
        group = self.group

        def alloc(ctx: PlaceContext) -> None:
            index = group.index_of(ctx.place)
            ctx.heap.put(key, Vector.make(sizes[index]))

        self.runtime.finish_all(group, alloc, label=f"{self.name}:alloc")

    # -- segment access -------------------------------------------------------

    def segment_range(self, index: int):
        """Global half-open range of the segment at group index *index*."""
        return self.partition.range_of(index)

    def segment(self, index: int) -> Vector:
        """Library-internal: the live segment at a group index."""
        return self.payload_at_index(index)

    @property
    def nbytes_total(self) -> int:
        return self.n * 8

    def max_segment_nbytes(self) -> int:
        """Bytes of the largest segment (per-sender gather payload)."""
        return max(self.partition.sizes) * 8 if self.partition.sizes else 0

    # -- initialization -----------------------------------------------------

    def init(self, value: float) -> "DistVector":
        """Set every cell to *value*."""
        return self._cellwise(lambda seg, lo, hi: seg.fill(value), label="init")

    def init_random(self, seed: int, tag: int = 0) -> "DistVector":
        """Deterministic random fill, independent of the partition.

        Each place writes the global vector's slice covering its segment,
        so the logical vector is identical under any place count — required
        for failure-vs-failure-free comparisons.
        """
        full = random_vector(seed, self.n, tag)
        return self._cellwise(
            lambda seg, lo, hi: seg.set_sub_vector(0, Vector(full[lo:hi])),
            label="init_random",
        )

    # -- cell-wise operations ---------------------------------------------------

    def _cellwise(
        self,
        fn: Callable[[Vector, int, int], None],
        flops_per_cell: float = 1.0,
        label: str = "cellwise",
    ) -> "DistVector":
        group, key = self.group, self.heap_key
        partition = self.partition

        def task(ctx: PlaceContext) -> None:
            lo, hi = partition.range_of(group.index_of(ctx.place))
            fn(ctx.heap.get(key), lo, hi)

        self.runtime.finish_all(
            group, task, label=f"{self.name}:{label}", flops=self._flops(flops_per_cell)
        )
        return self

    def _flops(self, per_cell: float) -> list:
        """Per-place flop counts of *per_cell* flops on every local cell."""
        return [per_cell * size for size in self.partition.sizes]

    def scale(self, alpha: float) -> "DistVector":
        """``self *= alpha``."""
        return self._cellwise(lambda seg, lo, hi: seg.scale(alpha), label="scale")

    def fill(self, value: float) -> "DistVector":
        """Set every cell to *value*."""
        return self._cellwise(lambda seg, lo, hi: seg.fill(value), label="fill")

    def map(self, fn: Callable[[np.ndarray], np.ndarray], flops_per_cell: float = 1.0) -> "DistVector":
        """Vectorized elementwise transform of every segment."""
        return self._cellwise(
            lambda seg, lo, hi: seg.map(fn), flops_per_cell=flops_per_cell, label="map"
        )

    def _cellwise_pair(
        self,
        other: "DistVector",
        fn: Callable[[Vector, Vector], None],
        flops_per_cell: float = 1.0,
        label: str = "cellwise",
    ) -> "DistVector":
        self._check_aligned(other)
        key, other_key = self.heap_key, other.heap_key

        def task(ctx: PlaceContext) -> None:
            fn(ctx.heap.get(key), ctx.heap.get(other_key))

        self.runtime.finish_all(
            self.group, task, label=f"{self.name}:{label}", flops=self._flops(flops_per_cell)
        )
        return self

    def cell_add(self, other: "DistVector | float") -> "DistVector":
        """``self += other`` (partition-aligned DistVector or scalar)."""
        if isinstance(other, DistVector):
            return self._cellwise_pair(other, lambda a, b: a.cell_add(b), label="cell_add")
        return self._cellwise(lambda seg, lo, hi: seg.cell_add(float(other)), label="cell_add")

    def cell_sub(self, other: "DistVector | float") -> "DistVector":
        """``self -= other``."""
        if isinstance(other, DistVector):
            return self._cellwise_pair(other, lambda a, b: a.cell_sub(b), label="cell_sub")
        return self._cellwise(lambda seg, lo, hi: seg.cell_sub(float(other)), label="cell_sub")

    def cell_mult(self, other: "DistVector") -> "DistVector":
        """Hadamard ``self *= other``."""
        return self._cellwise_pair(other, lambda a, b: a.cell_mult(b), label="cell_mult")

    def axpy(self, alpha: float, x: "DistVector") -> "DistVector":
        """``self += alpha * x``."""
        return self._cellwise_pair(
            x, lambda a, b: a.axpy(alpha, b), flops_per_cell=2.0, label="axpy"
        )

    def copy_from(self, other: "DistVector") -> "DistVector":
        """Overwrite this vector with a partition-aligned peer."""
        return self._cellwise_pair(other, lambda a, b: a.set_sub_vector(0, b), label="copy_from")

    def _check_aligned(self, other: "DistVector") -> None:
        if other.n != self.n:
            raise ValueError("DistVector length mismatch")
        if other.group is not self.group and other.group != self.group:
            raise ValueError("DistVector operands on different groups")
        if other.partition is not self.partition and other.partition != self.partition:
            raise ValueError("DistVector partitions differ")

    # -- reductions --------------------------------------------------------------

    def dot(self, dup) -> float:
        """Inner product with a :class:`DupVector` over the same group.

        Each place dots its segment against its local slice of the
        duplicate (no data motion), then a scalar all-reduce combines the
        partials — GML's ``U.dot(P)`` from Listing 2.
        """
        from repro.matrix.dupvector import DupVector

        require(isinstance(dup, DupVector), "dot expects a DupVector operand")
        require(dup.n == self.n, "length mismatch in dot")
        require(dup.group == self.group, "operands on different groups")
        group = self.group

        def task(ctx: PlaceContext) -> float:
            index = group.index_of(ctx.place)
            lo, hi = self.partition.range_of(index)
            seg: Vector = ctx.heap.get(self.heap_key)
            full: Vector = ctx.heap.get(dup.heap_key)
            return float(seg.data @ full.data[lo:hi])

        partials = self.runtime.finish_all(
            group, task, ret_bytes=8, label=f"{self.name}:dot", flops=self._flops(2)
        )
        # The per-place partials ride back on the finish termination
        # messages; the scalar is folded at the finish home (GML's reduce).
        return float(sum(p for p in partials if p is not None))

    def dot_dist(self, other: "DistVector") -> float:
        """Inner product of two partition-aligned DistVectors."""
        self._check_aligned(other)
        key, other_key = self.heap_key, other.heap_key

        def task(ctx: PlaceContext) -> float:
            return ctx.heap.get(key).dot(ctx.heap.get(other_key))

        partials = self.runtime.finish_all(
            self.group, task, ret_bytes=8, label=f"{self.name}:dot", flops=self._flops(2)
        )
        return float(sum(p for p in partials if p is not None))

    def norm2(self) -> float:
        """Euclidean norm."""
        return float(np.sqrt(max(self.dot_dist(self), 0.0)))

    def sum(self) -> float:
        """Sum of all cells (segment sums + scalar all-reduce)."""
        key = self.heap_key
        partials = self.runtime.finish_all(
            self.group,
            lambda ctx: ctx.heap.get(key).sum(),
            ret_bytes=8,
            label=f"{self.name}:sum",
            flops=self._flops(1),
        )
        return float(sum(p for p in partials if p is not None))

    # -- gather (Listing 2's ``GP.copyTo(P.local())``) ---------------------------

    def copy_to(self, dest: Vector) -> None:
        """Gather all segments into a root-place local vector.

        The destination is the root copy of a DupVector (or any driver-side
        Vector); a subsequent ``DupVector.sync()`` re-broadcasts it.
        """
        require(dest.n == self.n, "gather destination length mismatch")
        flat_gather(
            self.runtime,
            self.group,
            root_index=0,
            nbytes_each=self.max_segment_nbytes(),
            label=f"{self.name}:copy_to",
        )
        dest.touch()
        for index in range(self.group.size):
            lo, hi = self.partition.range_of(index)
            dest.data[lo:hi] = self.segment(index).data

    def to_array(self) -> np.ndarray:
        """Driver-side gather of the full vector (testing/examples)."""
        out = Vector.make(self.n)
        self.copy_to(out)
        return out.data

    def to_dup(self, dup) -> None:
        """Gather into a DupVector and re-broadcast — every replica ends up
        holding the full distributed vector (GML's dist→dup conversion)."""
        self.copy_to(dup.local())
        dup.sync()

    def from_dup(self, dup) -> "DistVector":
        """Scatter a replica-consistent DupVector into the segments.

        The duplicate is already everywhere, so each place just copies its
        own slice locally — the cheap direction of the conversion.
        """
        from repro.matrix.dupvector import DupVector

        require(isinstance(dup, DupVector), "from_dup expects a DupVector")
        require(dup.n == self.n, "length mismatch in from_dup")
        require(dup.group == self.group, "operands on different groups")
        group = self.group

        def task(ctx: PlaceContext) -> None:
            index = group.index_of(ctx.place)
            lo, hi = self.partition.range_of(index)
            seg: Vector = ctx.heap.get(self.heap_key)
            full: Vector = ctx.heap.get(dup.heap_key)
            seg.touch()
            seg.data[:] = full.data[lo:hi]

        self.runtime.finish_all(
            group, task, label=f"{self.name}:from_dup", flops=self._flops(1)
        )
        return self

    # -- matvec (delegates to ops) -------------------------------------------

    def mult(self, matrix, dup) -> "DistVector":
        """``self = matrix @ dup`` — Listing 2's ``GP.mult(G, P)``."""
        from repro.matrix.ops import dist_block_matvec

        dist_block_matvec(matrix, dup, self)
        return self

    # -- resilience (Snapshottable) ----------------------------------------------

    def remake(
        self, new_group: PlaceGroup, partition: Optional[Partition1D] = None
    ) -> "DistVector":
        """Reallocate over *new_group*; default partition is recalculated even.

        One-segment-per-place classes "must recalculate the data grid" when
        the group size changes (§IV-A2).
        """
        self._release_payloads()
        self.group = new_group
        self.partition = (
            partition if partition is not None else Partition1D.even(self.n, new_group.size)
        )
        require(self.partition.num_segments == new_group.size, "partition/group size mismatch")
        self._allocate()
        return self

    def rehome(self, new_group: PlaceGroup) -> "DistVector":
        """Adopt a same-size group, allocating only the missing segments.

        The reconstruction path: survivors keep their live segments (and
        group indices); places that joined the group (spares holding no
        payload under this object's key) get zeroed segments for the
        caller to fill.  Idempotent — safe to re-run when a retry enlarges
        the replacement set.
        """
        require(new_group.size == self.group.size, "rehome cannot resize the group")
        self.group = new_group
        key, sizes = self.heap_key, self.partition.sizes

        def stale(index: int) -> bool:
            # Missing — or left over from an aborted recovery that had
            # this spare at a different index (wrong segment length).
            heap = self.runtime.heap_of(new_group[index].id)
            if not heap.contains(key):
                return True
            return len(heap.get(key).data) != sizes[index]

        missing = [index for index in range(new_group.size) if stale(index)]
        if not missing:
            return self
        sub = PlaceGroup([new_group[index] for index in missing])
        size_of = {new_group[index].id: sizes[index] for index in missing}

        def alloc(ctx: PlaceContext) -> None:
            ctx.heap.put(key, Vector.make(size_of[ctx.place.id]))

        self.runtime.finish_all(sub, alloc, label=f"{self.name}:rehome")
        return self

    def make_snapshot(self, base: Optional[DistObjectSnapshot] = None) -> DistObjectSnapshot:
        """Save each segment under its place index, doubly stored.

        With a compatible *base* (delta mode), unchanged segments are
        adopted by reference and changed ones saved copy-on-write.
        """
        return self._snapshot_partitions(
            {"n": self.n, "sizes": list(self.partition.sizes)}, base
        )

    def restore_snapshot(self, snapshot: DistObjectSnapshot) -> None:
        """Reload segments; repartition via overlap copies if needed."""
        require(snapshot.meta.get("n") == self.n, "snapshot is for a different vector")
        old_partition = Partition1D(self.n, snapshot.meta["sizes"])
        group = self.group

        if old_partition == self.partition:
            # Unchanged partition: whole-segment (block-by-block) reload.
            def load(ctx: PlaceContext) -> None:
                index = group.index_of(ctx.place)
                payload: Vector = snapshot.fetch(ctx, index)
                ctx.heap.get(self.heap_key).set_sub_vector(0, payload)

            self.runtime.finish_all(group, load, label=f"{self.name}:restore")
            return

        # Changed partition: each new segment pulls its overlap sub-ranges
        # from the old owners (§IV-B2's sub-block copies, 1-D case).
        overlaps = self.partition.overlaps(old_partition)
        by_new: dict = {}
        for new_seg, old_seg, start, end in overlaps:
            by_new.setdefault(new_seg, []).append((old_seg, start, end))

        def load_repartitioned(ctx: PlaceContext) -> None:
            index = group.index_of(ctx.place)
            lo, _hi = self.partition.range_of(index)
            seg: Vector = ctx.heap.get(self.heap_key)
            for old_seg, start, end in by_new.get(index, []):
                olo, _ohi = old_partition.range_of(old_seg)
                piece: Vector = snapshot.fetch(
                    ctx,
                    old_seg,
                    extract=lambda v, s=start - olo, e=end - olo: v.sub_vector(s, e),
                    extract_bytes=(end - start) * 8,
                )
                seg.set_sub_vector(start - lo, piece)

        self.runtime.finish_all(group, load_repartitioned, label=f"{self.name}:restore")
