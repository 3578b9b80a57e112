"""``DistSparseRowMatrix`` — a sparse matrix stored as one row band per place.

The CG application's operator: an ``m × n`` sparse matrix partitioned into
contiguous row bands, one :class:`~repro.matrix.sparse.SparseCSR` band per
member place, aligned to a :class:`~repro.matrix.grid.Partition1D`.  The
matvec against a :class:`~repro.matrix.dupvector.DupVector` operand writes
into a partition-aligned :class:`~repro.matrix.distvector.DistVector`, so
results never move: each place multiplies its band against its full-width
local replica and stores straight into its own output segment.

Compared to :class:`~repro.matrix.distblock.DistBlockMatrix` this class
trades the general block grid for direct row-band access — exactly what
ABFT reconstruction needs: the band of a lost place *is* the ``A_J`` of
the local re-solve, and a principal sub-block ``A_JJ`` is one
``sub_matrix`` call away.

Restore semantics match :class:`~repro.matrix.distvector.DistVector`: an
unchanged partition reloads whole bands; a changed partition assembles
each new band from the overlapping row ranges of the old ones.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.matrix.grid import Partition1D
from repro.matrix.multiplace import MultiPlaceObject
from repro.matrix.sparse import SparseCSR
from repro.matrix.vector import Vector
from repro.resilience.protection import Protection
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import PlaceContext, Runtime
from repro.util.validation import check_positive, require

#: Bytes per stored non-zero (value + column index) plus row-pointer share.
_NNZ_BYTES = 16.0


class DistSparseRowMatrix(MultiPlaceObject):
    """A sparse ``m × n`` matrix as one contiguous CSR row band per place."""

    def __init__(
        self,
        runtime: Runtime,
        m: int,
        n: int,
        group: PlaceGroup,
        builder: Callable[[int, int], SparseCSR],
        partition: Optional[Partition1D] = None,
    ):
        check_positive(m, "m")
        check_positive(n, "n")
        super().__init__(runtime, group, "DistSparseRowMatrix")
        self.m = m
        self.n = n
        #: ``builder(lo, hi)`` returns global rows ``[lo, hi)`` as a
        #: ``SparseCSR`` of shape ``(hi - lo, n)``; it must be pure in its
        #: arguments (partition-independent), so any place — original,
        #: spare, or rebalanced — can regenerate or verify its band.
        self.builder = builder
        self.partition = (
            partition if partition is not None else Partition1D.even(m, group.size)
        )
        require(
            self.partition.num_segments == group.size,
            "partition must have one row band per group place",
        )
        require(self.partition.n == m, "row partition length mismatch")
        self._allocate()

    @classmethod
    def make(
        cls,
        runtime: Runtime,
        n: int,
        group: Optional[PlaceGroup] = None,
        builder: Optional[Callable[[int, int], SparseCSR]] = None,
        partition: Optional[Partition1D] = None,
    ) -> "DistSparseRowMatrix":
        """Square-operator factory over *group* (defaults to the world)."""
        require(builder is not None, "make requires a band builder")
        group = group if group is not None else runtime.world
        return cls(runtime, n, n, group, builder, partition)

    def _allocate(self) -> None:
        key, group, partition, builder = (
            self.heap_key,
            self.group,
            self.partition,
            self.builder,
        )

        def alloc(ctx: PlaceContext) -> None:
            index = group.index_of(ctx.place)
            lo, hi = partition.range_of(index)
            band = builder(lo, hi)
            require(
                band.shape == (hi - lo, self.n),
                f"builder returned shape {band.shape}, expected {(hi - lo, self.n)}",
            )
            ctx.heap.put(key, band)
            # Generation cost: one pass over the band's entries.
            ctx.charge_flops(band.nnz)

        self.runtime.finish_all(group, alloc, label=f"{self.name}:alloc")

    # -- band access ---------------------------------------------------------

    def band(self, index: int) -> SparseCSR:
        """Library-internal: the live row band at a group index."""
        return self.payload_at_index(index)

    # -- matvec --------------------------------------------------------------

    def mult_into(self, out, dup) -> None:
        """``out = self @ dup`` with an aligned output partition.

        Each place multiplies its row band against its full-width local
        replica of *dup* and overwrites its own segment of *out* — zero
        result routing, the payoff of row-band/output alignment.
        """
        from repro.matrix.distvector import DistVector
        from repro.matrix.dupvector import DupVector

        if not isinstance(out, DistVector):
            raise ValueError("mult_into output must be a DistVector")
        if not isinstance(dup, DupVector):
            raise ValueError("mult_into operand must be a DupVector")
        if dup.n != self.n:
            raise ValueError(f"operand length {dup.n} != matrix cols {self.n}")
        if out.n != self.m:
            raise ValueError(f"output length {out.n} != matrix rows {self.m}")
        if self.group != dup.group:
            raise ValueError("matrix and operand on different groups")
        if self.group != out.group:
            raise ValueError("matrix and output on different groups")
        if out.partition != self.partition:
            raise ValueError("output partition must align to the matrix row bands")
        group, key = self.group, self.heap_key
        dup_key, out_key = dup.heap_key, out.heap_key
        sparse_factor = self.runtime.cost.sparse_flop_factor

        def task(ctx: PlaceContext) -> None:
            heap_get = ctx.heap.get
            band: SparseCSR = heap_get(key)
            xdata = heap_get(dup_key).data
            seg: Vector = heap_get(out_key)
            seg.touch()
            seg.data[:] = band.spmv(xdata)
            ctx.charge_flops(2.0 * band.nnz * sparse_factor)

        self.runtime.finish_all(group, task, label=f"{self.name}:matvec")

    # -- resilience (Snapshottable) -------------------------------------------

    def remake(
        self, new_group: PlaceGroup, partition: Optional[Partition1D] = None
    ) -> "DistSparseRowMatrix":
        """Reallocate placeholder bands over *new_group*.

        Callers must reload real content afterwards — the restore path
        always follows with :meth:`restore_snapshot`, which overwrites the
        placeholders, so regenerating bands here would double-charge.
        """
        self._release_payloads()
        self.group = new_group
        self.partition = (
            partition
            if partition is not None
            else Partition1D.even(self.m, new_group.size)
        )
        require(
            self.partition.num_segments == new_group.size,
            "partition/group size mismatch",
        )
        key, n, partition_, group = self.heap_key, self.n, self.partition, new_group

        def alloc(ctx: PlaceContext) -> None:
            index = group.index_of(ctx.place)
            lo, hi = partition_.range_of(index)
            ctx.heap.put(key, SparseCSR.empty(hi - lo, n))

        self.runtime.finish_all(group, alloc, label=f"{self.name}:remake")
        return self

    def rehome(self, new_group: PlaceGroup) -> "DistSparseRowMatrix":
        """Adopt a same-size group without touching any payload.

        The reconstruction path: survivors keep their live bands (same
        group indices), and the caller installs the replaced places' bands
        itself — fetched from the static snapshot's surviving replicas, so
        the cost lands on the snapshot machinery where it belongs.
        """
        require(new_group.size == self.group.size, "rehome cannot resize the group")
        self.group = new_group
        return self

    def make_snapshot(self, protection: Protection = Protection(), base=None):
        """Save each row band under its place index."""
        return self._snapshot_partitions(
            {"m": self.m, "n": self.n, "sizes": list(self.partition.sizes)}, protection, base
        )

    def restore_snapshot(self, snapshot) -> None:
        """Reload bands; repartition via overlapping row-range copies."""
        require(
            snapshot.meta.get("m") == self.m and snapshot.meta.get("n") == self.n,
            "snapshot is for a different matrix",
        )
        old_partition = Partition1D(self.m, snapshot.meta["sizes"])
        group, key = self.group, self.heap_key

        if old_partition == self.partition:
            def load(ctx: PlaceContext) -> None:
                index = group.index_of(ctx.place)
                payload: SparseCSR = snapshot.fetch(ctx, index)
                ctx.heap.put(key, payload.freeze_view())
                ctx.charge_memcpy(payload.nbytes)

            self.runtime.finish_all(group, load, label=f"{self.name}:restore")
            return

        # Changed partition: each new band is stitched from the overlapping
        # row sub-ranges of the old bands (§IV-B2's sub-block copies),
        # planned before any task runs — per place id, ``(old band, cut in
        # it, scan flops, bytes)``.
        ids, old_lows, n = group.ids, old_partition.offsets, self.n
        pieces: Dict[int, list] = {}
        for new_seg, old_seg, start, end in self.partition.overlaps(old_partition):
            olo = old_lows[old_seg]
            pieces.setdefault(ids[new_seg], []).append(
                (old_seg, (start - olo, end - olo, 0, n), end - start, (end - start) * _NNZ_BYTES)
            )

        def load_repartitioned(ctx: PlaceContext) -> None:
            bands = []
            for old_seg, cut, flops, nbytes in pieces.get(ctx.place.id, ()):
                bands.append(snapshot.fetch(ctx, old_seg, cut=cut, flops=flops, nbytes=nbytes))
            ctx.heap.put(key, SparseCSR.vstack(bands))

        self.runtime.finish_all(group, load_repartitioned, label=f"{self.name}:restore")
