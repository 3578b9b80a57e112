"""Single-place dense matrices — GML's ``DenseMatrix``.

A thin, explicit wrapper over a 2-D float64 NumPy array with GML's cell-wise
and multiplication API.  Single-place classes are pure numerics: virtual-time
charging happens in the multi-place layer, which knows the distribution.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.util.versioning import next_version


class DenseMatrix:
    """An ``m × n`` dense matrix in full storage."""

    __slots__ = ("m", "n", "data", "version")

    def __init__(self, data: np.ndarray):
        if data.ndim != 2:
            raise ValueError(f"dense matrix needs a 2-D array, got {data.ndim}-D")
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.m, self.n = self.data.shape
        self.version = next_version()

    # -- constructors ----------------------------------------------------

    @classmethod
    def make(cls, m: int, n: int) -> "DenseMatrix":
        """A zero-initialized ``m × n`` matrix."""
        return cls(np.zeros((m, n)))

    @classmethod
    def from_function(cls, m: int, n: int, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "DenseMatrix":
        """Build from a vectorized function of global index arrays."""
        ii, jj = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
        return cls(np.asarray(fn(ii, jj), dtype=np.float64))

    @classmethod
    def random(cls, m: int, n: int, rng: np.random.Generator) -> "DenseMatrix":
        """Uniform [0, 1) entries from the given generator."""
        return cls(rng.random((m, n)))

    # -- shape / storage ---------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.m, self.n)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def copy(self) -> "DenseMatrix":
        return DenseMatrix(self.data.copy())

    def touch(self) -> None:
        """Mark this matrix dirty before an in-place write.

        Detaches from a frozen (snapshot-shared) backing array by copying
        it, then bumps the mutation version.
        """
        if not self.data.flags.writeable:
            self.data = self.data.copy()
        self.version = next_version()

    def adopt(self, data: np.ndarray) -> None:
        """Rebind to the frozen array *data* — the mirror of :meth:`touch`:
        the array is marked read-only and shared, never copied, and the
        matrix takes a fresh version (see :meth:`Vector.adopt`)."""
        if data.shape != self.data.shape:
            raise ValueError(f"cannot adopt a {data.shape} array into a {self.m}x{self.n} matrix")
        data.setflags(write=False)
        self.data = data
        self.version = next_version()

    def freeze_view(self) -> "DenseMatrix":
        """Freeze the backing array and return a snapshot alias sharing it."""
        self.data.setflags(write=False)
        # An alias of an array this matrix already validated: no constructor.
        alias = object.__new__(DenseMatrix)
        alias.data, alias.m, alias.n, alias.version = self.data, self.m, self.n, next_version()
        return alias

    #: The snapshot payload leaf's arrays (see ``Vector.ARRAY_NAMES``).
    ARRAY_NAMES = ("data",)

    @classmethod
    def from_payload_arrays(cls, shape, arrays) -> "DenseMatrix":
        """Inverse of reading ``ARRAY_NAMES``: an ``m × n`` = *shape* matrix
        aliasing ``arrays[0]``, unvalidated and uncopied (see
        :meth:`Vector.from_payload_arrays`)."""
        alias = object.__new__(cls)
        (alias.data,) = arrays
        (alias.m, alias.n), alias.version = shape, next_version()
        return alias

    # -- cell-wise operations ------------------------------------------------

    def scale(self, alpha: float) -> "DenseMatrix":
        """In-place ``self *= alpha`` (returns self for chaining, GML style)."""
        self.touch()
        self.data *= alpha
        return self

    def cell_add(self, other: "DenseMatrix | float") -> "DenseMatrix":
        """In-place element-wise add of a matrix or scalar."""
        self.touch()
        if isinstance(other, DenseMatrix):
            if other.shape != self.shape:
                raise ValueError("shape mismatch in cell_add")
            self.data += other.data
        else:
            self.data += float(other)
        return self

    def cell_sub(self, other: "DenseMatrix | float") -> "DenseMatrix":
        """In-place element-wise subtract of a matrix or scalar."""
        self.touch()
        if isinstance(other, DenseMatrix):
            if other.shape != self.shape:
                raise ValueError("shape mismatch in cell_sub")
            self.data -= other.data
        else:
            self.data -= float(other)
        return self

    def cell_mult(self, other: "DenseMatrix") -> "DenseMatrix":
        """In-place Hadamard product."""
        if other.shape != self.shape:
            raise ValueError("shape mismatch in cell_mult")
        self.touch()
        self.data *= other.data
        return self

    def fill(self, value: float) -> "DenseMatrix":
        """Set every cell to *value*."""
        self.touch()
        self.data.fill(value)
        return self

    # -- multiplication ----------------------------------------------------

    def mult(self, a: "DenseMatrix", b: "DenseMatrix") -> "DenseMatrix":
        """``self = a @ b`` (GML's accumulate-free form)."""
        if a.n != b.m:
            raise ValueError(f"inner dims mismatch: {a.shape} @ {b.shape}")
        if self.shape != (a.m, b.n):
            raise ValueError("output shape mismatch")
        # Every cell is overwritten: rebind to the product rather than
        # detach-copy a (possibly shared) old payload and overwrite the copy.
        self.adopt(np.matmul(a.data, b.data))
        return self

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``self @ x`` for a 1-D vector."""
        if x.shape != (self.n,):
            raise ValueError(f"matvec operand must be length {self.n}")
        return self.data @ x

    def t_matvec(self, x: np.ndarray) -> np.ndarray:
        """``self.T @ x`` for a 1-D vector."""
        if x.shape != (self.m,):
            raise ValueError(f"t_matvec operand must be length {self.m}")
        return self.data.T @ x

    def transpose(self) -> "DenseMatrix":
        """A new transposed matrix."""
        return DenseMatrix(self.data.T.copy())

    # -- norms / comparison ----------------------------------------------------

    def norm_f(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.data))

    def max_abs_diff(self, other: "DenseMatrix") -> float:
        """Largest absolute element-wise difference."""
        if other.shape != self.shape:
            raise ValueError("shape mismatch in max_abs_diff")
        if self.data.size == 0:
            return 0.0
        return float(np.max(np.abs(self.data - other.data)))

    def equals_approx(self, other: "DenseMatrix", tol: float = 1e-9) -> bool:
        """True if all cells agree within *tol*."""
        return self.shape == other.shape and self.max_abs_diff(other) <= tol

    # -- sub-matrix access (restore paths) -------------------------------------

    def sub_matrix(self, r0: int, r1: int, c0: int, c1: int) -> "DenseMatrix":
        """The half-open region ``[r0:r1, c0:c1]``.

        Full-width rows of a frozen matrix are one contiguous run: they come
        back as a read-only view of it (``touch()`` detaches a writer).  Any
        other region, or any region of a writable matrix, is copied.
        """
        if not 0 <= r0 <= r1 <= self.m:
            raise ValueError(f"bad row range [{r0},{r1}) for m={self.m}")
        if not 0 <= c0 <= c1 <= self.n:
            raise ValueError(f"bad col range [{c0},{c1}) for n={self.n}")
        if c0 == 0 and c1 == self.n and not self.data.flags.writeable:
            # A slice of an array this matrix already validated: no constructor.
            view = object.__new__(DenseMatrix)
            view.data, view.m, view.n, view.version = self.data[r0:r1], r1 - r0, self.n, next_version()
            return view
        return DenseMatrix(self.data[r0:r1, c0:c1].copy())

    def set_sub_matrix(self, r0: int, c0: int, block: "DenseMatrix") -> None:
        """Paste *block* with its top-left at ``(r0, c0)``."""
        if not 0 <= r0 <= r0 + block.m <= self.m:
            raise ValueError(f"bad row range [{r0},{r0 + block.m}) for m={self.m}")
        if not 0 <= c0 <= c0 + block.n <= self.n:
            raise ValueError(f"bad col range [{c0},{c0 + block.n}) for n={self.n}")
        self.touch()
        self.data[r0 : r0 + block.m, c0 : c0 + block.n] = block.data

    def __repr__(self) -> str:
        return f"DenseMatrix({self.m}x{self.n})"


# -- flop-count formulas used by the multi-place layer for time charging ----

def flops_matvec(m: int, n: int) -> int:
    """Flops of a dense ``m × n`` matrix-vector product."""
    return 2 * m * n


def flops_matmul(m: int, k: int, n: int) -> int:
    """Flops of a dense ``(m × k) @ (k × n)`` product."""
    return 2 * m * k * n


def flops_cellwise(m: int, n: int = 1) -> int:
    """Flops of one element-wise pass over an ``m × n`` operand."""
    return m * n
