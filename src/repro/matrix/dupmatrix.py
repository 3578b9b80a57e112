"""``DupDenseMatrix`` / ``DupSparseMatrix`` — a matrix duplicated per place.

Each member place holds a full copy of the matrix; :meth:`sync` rebroadcasts
the root copy.  Restoring a duplicated class loads one duplicate per place
from the snapshot, keyed by the place's *new* index (§IV-B2).

As with :class:`~repro.matrix.dupvector.DupVector`, the copies are per-place
objects charged per place, and replicas that hold equal bytes alias one set
of frozen host arrays until a place's local write detaches its own.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.matrix.dense import DenseMatrix
from repro.matrix.multiplace import MultiPlaceObject
from repro.matrix.sparse import SparseCSR
from repro.resilience.protection import Protection
from repro.runtime.comm import tree_broadcast
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import PlaceContext, Runtime
from repro.util.validation import require

MatrixPayload = Union[DenseMatrix, SparseCSR]


class _DupMatrixBase(MultiPlaceObject):
    """Shared machinery of the duplicated matrix classes."""

    _KIND = "dense"

    def __init__(self, runtime: Runtime, proto: MatrixPayload, group: PlaceGroup):
        super().__init__(runtime, group, type(self).__name__)
        self.m, self.n = proto.shape
        self._allocate(proto)

    @classmethod
    def make(
        cls, runtime: Runtime, proto: MatrixPayload, group: Optional[PlaceGroup] = None
    ) -> "_DupMatrixBase":
        """Duplicate *proto* (a single-place matrix) over *group*."""
        cls._check_payload(proto)
        return cls(runtime, proto, group if group is not None else runtime.world)

    @classmethod
    def _check_payload(cls, payload: MatrixPayload) -> None:
        expected = DenseMatrix if cls._KIND == "dense" else SparseCSR
        require(
            isinstance(payload, expected),
            f"{cls.__name__} duplicates {expected.__name__} payloads",
        )

    def _allocate(self, proto: MatrixPayload) -> None:
        """Give every place its own replica object; all alias one frozen
        copy of *proto* (the caller keeps *proto* and may go on writing it)."""
        key, shared, nbytes = self.heap_key, proto.copy(), proto.nbytes

        def alloc(ctx: PlaceContext) -> None:
            ctx.heap.put(key, shared.freeze_view())
            ctx.charge_memcpy(nbytes)

        self.runtime.finish_all(self.group, alloc, label=f"{self.name}:alloc")

    # -- access ------------------------------------------------------------

    def local(self) -> MatrixPayload:
        """The root (group index 0) copy."""
        return self.payload_at_index(0)

    def sync(self) -> "_DupMatrixBase":
        """Broadcast the root copy to every replica."""
        root = self.payload_at_index(0)
        tree_broadcast(
            self.runtime, self.group, 0, nbytes=root.nbytes, label=f"{self.name}:sync"
        )
        for index in range(1, self.group.size):
            place = self.group[index]
            self.runtime.heap_of(place.id).put(self.heap_key, root.freeze_view())
        return self

    def replicas_consistent(self, tol: float = 0.0) -> bool:
        """True when all replicas agree within *tol* (test helper)."""
        root = self.payload_at_index(0)
        return all(
            self.payload_at_index(i).equals_approx(root, tol)
            for i in range(1, self.group.size)
        )

    # -- resilience -----------------------------------------------------------

    def remake(self, new_group: PlaceGroup) -> "_DupMatrixBase":
        """Reallocate (empty) duplicates over *new_group*."""
        proto = (
            DenseMatrix.make(self.m, self.n)
            if self._KIND == "dense"
            else SparseCSR.empty(self.m, self.n)
        )
        self._release_payloads()
        self.group = new_group
        self._allocate(proto)
        return self

    def make_snapshot(self, protection: Protection = Protection(), base=None):
        return self._snapshot_partitions(
            {"shape": (self.m, self.n), "kind": self._KIND}, protection, base
        )

    def restore_snapshot(self, snapshot) -> None:
        require(
            tuple(snapshot.meta.get("shape", ())) == (self.m, self.n),
            "snapshot is for a different matrix",
        )
        require(
            self.group.size <= snapshot.group.size,
            "cannot restore duplicates onto a larger group than was saved",
        )
        group, key = self.group, self.heap_key

        def load(ctx: PlaceContext) -> None:
            index = group.index_of(ctx.place)
            ctx.heap.put(key, snapshot.fetch(ctx, index).freeze_view())

        self.runtime.finish_all(group, load, label=f"{self.name}:restore")


class DupDenseMatrix(_DupMatrixBase):
    """A dense matrix fully duplicated at every member place.

    Cell-wise and multiplication operations execute at every place (one
    finish each) to keep the replicas consistent, like :class:`DupVector`;
    :meth:`reduce_sum` all-reduces per-place partials into every replica
    (the combine step of distributed Gram products).
    """

    _KIND = "dense"

    @classmethod
    def make_zero(
        cls, runtime: Runtime, m: int, n: int, group: Optional[PlaceGroup] = None
    ) -> "DupDenseMatrix":
        """Duplicate an ``m × n`` zero matrix."""
        return cls.make(runtime, DenseMatrix.make(m, n), group)

    # -- replica-consistent cell-wise operations -----------------------------

    def _cellwise(self, fn, flops: Optional[float] = None, label: str = "cellwise"):
        self._replica_uniform(
            (self,), fn, float(self.m * self.n) if flops is None else flops, label
        )
        return self

    def _cellwise_pair(self, other, fn, flops=None, label="cellwise"):
        self._check_aligned(other)
        self._replica_uniform(
            (self, other), fn, float(self.m * self.n) if flops is None else flops, label
        )
        return self

    def _check_aligned(self, other: "DupDenseMatrix") -> None:
        if not isinstance(other, DupDenseMatrix):
            raise ValueError("operand must be a DupDenseMatrix")
        if (other.m, other.n) != (self.m, self.n):
            raise ValueError("shape mismatch")
        if other.group != self.group:
            raise ValueError("operands on different groups")

    def fill(self, value: float) -> "DupDenseMatrix":
        """Set every replica's cells to *value*."""
        return self._cellwise(lambda a: a.fill(value), label="fill")

    def init_from(self, proto: DenseMatrix) -> "DupDenseMatrix":
        """Overwrite every replica with *proto* (no communication charged —
        use for deterministic initialization, not data distribution)."""
        require(proto.shape == (self.m, self.n), "shape mismatch")
        return self._cellwise(
            lambda a: a.set_sub_matrix(0, 0, proto), label="init_from"
        )

    def scale(self, alpha: float) -> "DupDenseMatrix":
        """In-place ``self *= alpha`` on every replica."""
        return self._cellwise(lambda a: a.scale(alpha), label="scale")

    def cell_add(self, other: "DupDenseMatrix | float") -> "DupDenseMatrix":
        """In-place element-wise add (replica-aligned matrix or scalar)."""
        if isinstance(other, DupDenseMatrix):
            return self._cellwise_pair(other, lambda a, b: a.cell_add(b), label="cell_add")
        return self._cellwise(lambda a: a.cell_add(float(other)), label="cell_add")

    def cell_mult(self, other: "DupDenseMatrix") -> "DupDenseMatrix":
        """In-place Hadamard product on every replica."""
        return self._cellwise_pair(other, lambda a, b: a.cell_mult(b), label="cell_mult")

    def cell_div(self, other: "DupDenseMatrix", eps: float = 1e-12) -> "DupDenseMatrix":
        """In-place element-wise divide, denominator floored at *eps*."""

        def div(a: DenseMatrix, b: DenseMatrix) -> None:
            a.touch()
            a.data /= np.maximum(b.data, eps)

        return self._cellwise_pair(other, div, label="cell_div")

    def mult(self, a: "DupDenseMatrix", b: "DupDenseMatrix") -> "DupDenseMatrix":
        """``self = a @ b`` computed redundantly at every place."""
        self._check_aligned_for_mult(a, b)
        self._replica_uniform(
            (self, a, b), DenseMatrix.mult, 2.0 * a.m * a.n * b.n, "mult"
        )
        return self

    def _check_aligned_for_mult(self, a: "DupDenseMatrix", b: "DupDenseMatrix") -> None:
        if not (a.group == self.group and b.group == self.group):
            raise ValueError("group mismatch")
        if a.n != b.m:
            raise ValueError("inner dimension mismatch")
        if (self.m, self.n) != (a.m, b.n):
            raise ValueError("output shape mismatch")

    def transpose_from(self, other: "DupDenseMatrix") -> "DupDenseMatrix":
        """``self = otherᵀ``, computed locally at every place."""
        if other.group != self.group:
            raise ValueError("operands on different groups")
        if (other.n, other.m) != (self.m, self.n):
            raise ValueError("transpose shape mismatch")

        def transpose(out: DenseMatrix, src: DenseMatrix) -> None:
            out.adopt(src.data.T.copy())

        self._replica_uniform(
            (self, other), transpose, float(self.m * self.n), "transpose"
        )
        return self

    def reduce_sum(self) -> "DupDenseMatrix":
        """All-reduce: every replica becomes the element-wise sum of all."""
        from repro.runtime.comm import tree_allreduce

        total = np.zeros((self.m, self.n))
        for place in self.group:
            total += self.local_payload(place).data
        tree_allreduce(
            self.runtime,
            self.group,
            nbytes=self.m * self.n * 8,
            reduce_flops=self.m * self.n,
            label=f"{self.name}:reduce_sum",
        )
        for place in self.group:
            self.local_payload(place).adopt(total)
        return self

    def norm_f(self) -> float:
        """Frobenius norm (redundant per-place computation)."""

        results = self._replica_uniform(
            (self,), DenseMatrix.norm_f, 2.0 * self.m * self.n, "norm", ret_bytes=8
        )
        return float(results[0])

    def to_array(self) -> np.ndarray:
        """A driver-side copy of the root replica's values."""
        return self.local().data.copy()


class DupSparseMatrix(_DupMatrixBase):
    """A sparse (CSR) matrix fully duplicated at every member place."""

    _KIND = "sparse"

    @classmethod
    def make_empty(
        cls, runtime: Runtime, m: int, n: int, group: Optional[PlaceGroup] = None
    ) -> "DupSparseMatrix":
        """Duplicate an empty ``m × n`` sparse matrix."""
        return cls.make(runtime, SparseCSR.empty(m, n), group)
