"""``DupVector`` — a vector duplicated at every place of a group.

Each member place holds a full copy.  Cell-wise operations run at every
place (one finish each) to keep the replicas consistent, exactly as GML
does; :meth:`sync` re-broadcasts the root copy after a driver-side update
(the gather-then-broadcast pattern of the paper's PageRank, Listing 2).

Duplicated means duplicated in *virtual* bytes: every place has its own
:class:`Vector` object and is charged for its own copy and its own flops,
but replicas that hold equal bytes alias one frozen host array (they are
*coherent*).  Allocation, ``init*``, a replica-uniform operation, ``sync``,
``reduce_sum`` and a restore leave the replicas coherent; a place's local
write detaches that one replica through ``touch()``.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.matrix.dense import flops_cellwise
from repro.matrix.multiplace import MultiPlaceObject
from repro.matrix.random import random_vector
from repro.matrix.vector import Vector
from repro.resilience.protection import Protection
from repro.runtime.comm import tree_allreduce, tree_broadcast
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import PlaceContext, Runtime
from repro.util.validation import check_positive, require


class DupVector(MultiPlaceObject):
    """A length-``n`` vector with one full copy per member place."""

    def __init__(self, runtime: Runtime, n: int, group: PlaceGroup):
        check_positive(n, "n")
        super().__init__(runtime, group, "DupVector")
        self.n = n
        self._allocate(group)

    @classmethod
    def make(cls, runtime: Runtime, n: int, group: Optional[PlaceGroup] = None) -> "DupVector":
        """GML-style factory: duplicate a zero vector over *group*."""
        return cls(runtime, n, group if group is not None else runtime.world)

    def _allocate(self, group: PlaceGroup, label: str = "alloc") -> None:
        """Give every place of *group* a zero replica: its own ``Vector``,
        all of them aliasing one frozen zero array."""
        key, zero = self.heap_key, Vector.make(self.n)
        self.runtime.finish_all(
            group,
            lambda ctx: ctx.heap.put(key, zero.freeze_view()),
            label=f"{self.name}:{label}",
        )

    # -- element bytes of one full copy -----------------------------------------

    @property
    def copy_nbytes(self) -> int:
        return self.n * 8

    # -- initialization -----------------------------------------------------

    def init(self, value: float) -> "DupVector":
        """Set every copy to the constant *value*."""
        return self._cellwise(lambda v: v.fill(value), label="init")

    def init_random(self, seed: int, tag: int = 0) -> "DupVector":
        """Fill every copy with the *same* deterministic random values."""
        key, data = self.heap_key, random_vector(seed, self.n, tag)

        self.runtime.finish_all(
            self.group,
            lambda ctx: ctx.heap.get(key).adopt(data),
            label=f"{self.name}:init_random",
            flops=flops_cellwise(self.n),
        )
        return self

    # -- driver-side access ---------------------------------------------------

    def local(self) -> Vector:
        """The root (group index 0) copy, as GML's ``v.local()``.

        Driver-side mutations of this copy are made consistent by a
        subsequent :meth:`sync`.  Its array may be frozen (shared with the
        other replicas or a snapshot): the mutating ``Vector`` methods detach
        by themselves, a raw write through ``.data`` needs ``touch()`` first.
        """
        return self.payload_at_index(0)

    def to_array(self) -> np.ndarray:
        """A driver-side copy of the root replica's values."""
        return self.local().data.copy()

    # -- replica-consistent cell-wise operations -----------------------------

    def _cellwise(
        self,
        fn: Callable[[Vector], None],
        flops: Optional[float] = None,
        label: str = "cellwise",
    ) -> "DupVector":
        self._replica_uniform(
            (self,), fn, flops_cellwise(self.n) if flops is None else flops, label
        )
        return self

    def scale(self, alpha: float) -> "DupVector":
        """``self *= alpha`` on every copy."""
        return self._cellwise(lambda v: v.scale(alpha), label="scale")

    def fill(self, value: float) -> "DupVector":
        """Set every copy to *value*."""
        return self._cellwise(lambda v: v.fill(value), label="fill")

    def _cellwise_pair(
        self,
        other: "DupVector",
        fn: Callable[[Vector, Vector], None],
        flops: Optional[float] = None,
        label: str = "cellwise",
    ) -> "DupVector":
        """Binary replica-aligned operation: fn(mine, theirs) at every place."""
        self._check_aligned(other)
        self._replica_uniform(
            (self, other), fn, flops_cellwise(self.n) if flops is None else flops, label
        )
        return self

    def cell_add(self, other: "DupVector | float") -> "DupVector":
        """``self += other`` (replica-aligned DupVector or scalar)."""
        if isinstance(other, DupVector):
            return self._cellwise_pair(other, lambda v, o: v.cell_add(o), label="cell_add")
        return self._cellwise(lambda v: v.cell_add(float(other)), label="cell_add")

    def cell_sub(self, other: "DupVector | float") -> "DupVector":
        """``self -= other``."""
        if isinstance(other, DupVector):
            return self._cellwise_pair(other, lambda v, o: v.cell_sub(o), label="cell_sub")
        return self._cellwise(lambda v: v.cell_sub(float(other)), label="cell_sub")

    def cell_mult(self, other: "DupVector") -> "DupVector":
        """Hadamard ``self *= other``."""
        return self._cellwise_pair(other, lambda v, o: v.cell_mult(o), label="cell_mult")

    def axpy(self, alpha: float, x: "DupVector") -> "DupVector":
        """``self += alpha * x`` on every copy (2n flops per place)."""
        return self._cellwise_pair(
            x, lambda v, o: v.axpy(alpha, o), flops=2 * self.n, label="axpy"
        )

    def copy_from(self, other: "DupVector") -> "DupVector":
        """Overwrite every copy with *other*'s replica on the same place."""
        return self._cellwise_pair(
            other, lambda v, o: v.set_sub_vector(0, o), label="copy_from"
        )

    def map(self, fn: Callable[[np.ndarray], np.ndarray], flops_per_cell: float = 1.0) -> "DupVector":
        """Vectorized elementwise transform on every copy."""
        return self._cellwise(
            lambda v: v.map(fn), flops=flops_per_cell * self.n, label="map"
        )

    def _check_aligned(self, other: "DupVector") -> None:
        if other.n != self.n:
            raise ValueError("DupVector length mismatch")
        if other.group is not self.group and other.group != self.group:
            raise ValueError("DupVector operands live on different groups")

    # -- reductions -----------------------------------------------------------

    def dot(self, other: "DupVector") -> float:
        """Inner product, computed redundantly at every place (GML style).

        Replicas are identical, so no communication is needed; each place
        charges 2n flops and the driver reads the root's result.
        """
        self._check_aligned(other)
        results = self._replica_uniform(
            (self, other), Vector.dot, 2 * self.n, "dot", ret_bytes=8
        )
        return float(results[0])

    def norm2(self) -> float:
        """Euclidean norm (redundant per-place computation)."""
        return float(np.sqrt(max(self.dot(self), 0.0)))

    def reduce_sum(self) -> "DupVector":
        """All-reduce: every copy becomes the element-wise sum of all copies.

        This is the gradient-combine step of the regression apps: each place
        contributes its partial and ends up with the global sum.
        """
        total = np.zeros(self.n)
        for place in self.group:
            total += self.local_payload(place).data
        tree_allreduce(
            self.runtime,
            self.group,
            nbytes=self.copy_nbytes,
            reduce_flops=self.n,
            label=f"{self.name}:reduce_sum",
        )
        for place in self.group:
            self.local_payload(place).adopt(total)
        return self

    # -- consistency ------------------------------------------------------------

    def sync(self) -> "DupVector":
        """Broadcast the root copy to every replica (Listing 2's ``P.sync()``)."""
        root = self.payload_at_index(0)
        tree_broadcast(
            self.runtime,
            self.group,
            root_index=0,
            nbytes=self.copy_nbytes,
            label=f"{self.name}:sync",
        )
        for index in range(1, self.group.size):
            self.payload_at_index(index).adopt(root.data)
        return self

    def replicas_consistent(self, tol: float = 0.0) -> bool:
        """True when all live replicas agree within *tol* (test helper)."""
        root = self.payload_at_index(0).data
        return all(
            np.allclose(self.payload_at_index(i).data, root, atol=tol, rtol=0)
            for i in range(1, self.group.size)
        )

    # -- resilience (Snapshottable) ------------------------------------------

    def remake(self, new_group: PlaceGroup) -> "DupVector":
        """Reallocate the duplicates over *new_group* (§IV-A: remake)."""
        self._release_payloads()
        self.group = new_group
        self._allocate(new_group)
        return self

    def rehome(self, new_group: PlaceGroup) -> "DupVector":
        """Adopt a same-size group, allocating only the missing replicas.

        New members get zeroed replicas; the next ``sync()`` (or any full
        rewrite such as ``DistVector.to_dup``) makes them consistent.
        """
        require(new_group.size == self.group.size, "rehome cannot resize the group")
        self.group = new_group
        missing = [
            place
            for place in new_group
            if not self.runtime.heap_of(place.id).contains(self.heap_key)
        ]
        if missing:
            self._allocate(PlaceGroup(missing), label="rehome")
        return self

    def make_snapshot(self, protection: Protection = Protection(), base=None):
        """Save every replica under its place index.

        Delta mode adopts unchanged replicas from *base* by reference.
        """
        return self._snapshot_partitions({"n": self.n}, protection, base)

    def restore_snapshot(self, snapshot) -> None:
        """Reload each replica from the key matching its *new* index.

        Valid whenever the new group is no larger than the snapshot group
        (duplicates are interchangeable, §IV-B2).
        """
        require(snapshot.meta.get("n") == self.n, "snapshot is for a different vector")
        require(
            self.group.size <= snapshot.group.size,
            "cannot restore duplicates onto a larger group than was saved",
        )

        group, key = self.group, self.heap_key

        def load(ctx: PlaceContext) -> None:
            payload: Vector = snapshot.fetch(ctx, group.index_of(ctx.place))
            ctx.heap.get(key).adopt(payload.data)

        self.runtime.finish_all(group, load, label=f"{self.name}:restore")
