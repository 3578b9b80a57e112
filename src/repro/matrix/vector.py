"""Single-place vectors — GML's ``Vector``.

A wrapper over a 1-D float64 NumPy array with GML's cell-wise API.  Like the
single-place matrices, this class is pure numerics; time is charged by the
multi-place layer.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.util.versioning import next_version


class Vector:
    """A dense column vector of length ``n``."""

    __slots__ = ("n", "data", "version")

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 1:
            raise ValueError(f"vector needs a 1-D array, got {data.ndim}-D")
        self.data = np.ascontiguousarray(data)
        self.n = len(self.data)
        self.version = next_version()

    # -- constructors ------------------------------------------------------

    @classmethod
    def make(cls, n: int) -> "Vector":
        """A zero vector of length *n*."""
        return cls(np.zeros(n))

    @classmethod
    def of(cls, values) -> "Vector":
        """Build from any 1-D array-like."""
        return cls(np.asarray(values, dtype=np.float64))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "Vector":
        """Uniform [0, 1) entries."""
        return cls(rng.random(n))

    # -- storage -----------------------------------------------------------

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def copy(self) -> "Vector":
        return Vector(self.data.copy())

    def touch(self) -> None:
        """Mark this vector dirty before an in-place write.

        If the backing array is frozen inside a snapshot (copy-on-write),
        detach from it by copying first; the snapshot keeps the frozen
        array, the live vector gets a private writable one.
        """
        if not self.data.flags.writeable:
            self.data = self.data.copy()
        self.version = next_version()

    def adopt(self, data: np.ndarray) -> None:
        """Rebind to the frozen array *data* — the mirror of :meth:`touch`.

        The way a vector takes on bytes that already exist (a broadcast root,
        a reduced total, a snapshot payload, another replica's result) or that
        its writer built whole: *data* is marked read-only and shared, never
        copied, and the vector gets a fresh version.  The next in-place write
        detaches through :meth:`touch`.
        """
        if data.shape != self.data.shape:
            raise ValueError(f"cannot adopt a {data.shape} array into a length-{self.n} vector")
        data.setflags(write=False)
        self.data = data
        self.version = next_version()

    def freeze_view(self) -> "Vector":
        """Freeze the backing array and return a snapshot alias sharing it.

        The returned vector and ``self`` share the (now read-only) array;
        the next mutation of ``self`` goes through :meth:`touch` and copies
        it out, leaving the snapshot's bytes untouched.
        """
        self.data.setflags(write=False)
        # An alias of an array this vector already validated: no constructor.
        alias = object.__new__(Vector)
        alias.data, alias.n, alias.version = self.data, self.n, next_version()
        return alias

    def payload_arrays(self):
        """The backing arrays (checksum / corruption protocol)."""
        return (self.data,)

    @classmethod
    def from_payload_arrays(cls, shape, arrays) -> "Vector":
        """Inverse of :meth:`payload_arrays`: a vector aliasing ``arrays[0]``
        (*shape* is the array's own).  For the snapshot tiers, which rebuild
        a partition from bytes a CRC vouches for: nothing is validated and
        nothing copied (``docs/api.md``, "Payload protocol")."""
        alias = object.__new__(cls)
        (alias.data,) = arrays
        alias.n, alias.version = len(alias.data), next_version()
        return alias

    # -- cell-wise ops --------------------------------------------------------

    def fill(self, value: float) -> "Vector":
        """Set every cell to *value*."""
        self.touch()
        self.data.fill(value)
        return self

    def scale(self, alpha: float) -> "Vector":
        """In-place ``self *= alpha``."""
        self.touch()
        self.data *= alpha
        return self

    def cell_add(self, other: "Vector | float") -> "Vector":
        """In-place element-wise add of a vector or scalar."""
        self.touch()
        if isinstance(other, Vector):
            if other.n != self.n:
                raise ValueError("length mismatch in cell_add")
            self.data += other.data
        else:
            self.data += float(other)
        return self

    def cell_sub(self, other: "Vector | float") -> "Vector":
        """In-place element-wise subtract."""
        self.touch()
        if isinstance(other, Vector):
            if other.n != self.n:
                raise ValueError("length mismatch in cell_sub")
            self.data -= other.data
        else:
            self.data -= float(other)
        return self

    def cell_mult(self, other: "Vector") -> "Vector":
        """In-place Hadamard product."""
        if other.n != self.n:
            raise ValueError("length mismatch in cell_mult")
        self.touch()
        self.data *= other.data
        return self

    def axpy(self, alpha: float, x: "Vector") -> "Vector":
        """In-place ``self += alpha * x``."""
        if x.n != self.n:
            raise ValueError("length mismatch in axpy")
        self.touch()
        self.data += alpha * x.data
        return self

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Vector":
        """In-place vectorized elementwise transform."""
        self.touch()
        self.data[:] = fn(self.data)
        return self

    # -- reductions ------------------------------------------------------------

    def dot(self, other: "Vector") -> float:
        """Inner product."""
        if other.n != self.n:
            raise ValueError("length mismatch in dot")
        return float(self.data @ other.data)

    def norm2(self) -> float:
        """Euclidean norm."""
        return float(np.linalg.norm(self.data))

    def sum(self) -> float:
        """Sum of all cells."""
        return float(self.data.sum())

    def max_abs_diff(self, other: "Vector") -> float:
        """Largest absolute element-wise difference."""
        if other.n != self.n:
            raise ValueError("length mismatch")
        if self.n == 0:
            return 0.0
        return float(np.max(np.abs(self.data - other.data)))

    def equals_approx(self, other: "Vector", tol: float = 1e-9) -> bool:
        """True if all cells agree within *tol*."""
        return self.n == other.n and self.max_abs_diff(other) <= tol

    # -- sub-vector access -------------------------------------------------------

    def sub_vector(self, lo: int, hi: int) -> "Vector":
        """Copy of the half-open slice ``[lo:hi]``."""
        if not 0 <= lo <= hi <= self.n:
            raise ValueError(f"bad range [{lo},{hi}) for n={self.n}")
        return Vector(self.data[lo:hi].copy())

    def set_sub_vector(self, lo: int, block: "Vector") -> None:
        """Paste *block* starting at *lo*."""
        if lo + block.n > self.n:
            raise ValueError("block exceeds bounds")
        self.touch()
        self.data[lo : lo + block.n] = block.data

    def __repr__(self) -> str:
        return f"Vector(n={self.n})"
