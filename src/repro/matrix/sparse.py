"""Single-place sparse matrices — GML's ``SparseCSR`` and ``SparseCSC``.

The classes own their compressed index arrays (NumPy) because the paper's
repartitioned restore exercises sparse-specific code paths we must own:
counting the non-zeros of an arbitrary sub-region *before* allocating the
new block, extracting the region, and assembling a block from region pieces
("the non-zero elements for the overlapping regions must be counted to
determine the space required for the new sparse block").

The kernels — products, format conversion, dense expansion — are
``scipy.sparse``'s, run on zero-copy ``csr_array``/``csc_array`` views over
those same buffers; a canonical row is accumulated in index order.

Duplicate policy: ``from_coo`` **sums** duplicate ``(row, col)`` entries —
the same coalescing scipy applies.  A build is one stable sort, one
boundary ``diff`` and one in-order segment sum; the size of the build
picks *how the sort order is computed* (``_compress_coo``), never the
summation, so a matrix is byte-identical on either side of that choice even
in the last ulp of a summed duplicate.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy import sparse as _sp

from repro.util.validation import require
from repro.util.versioning import next_version

_INDEX_DTYPE = np.int64

#: Minimum triplet count for computing ``from_coo``'s sort order with
#: scipy's counting passes instead of ``np.argsort``.  Below this NumPy wins
#: outright — scipy's constructors carry ~100µs of per-call validation that
#: dwarfs the sort of the small blocks the simulator builds constantly.
#: Both give the same permutation (tests/matrix/test_sparse.py).
_SCIPY_BUILD_MIN = 32768


def _as_index(a) -> np.ndarray:
    return np.asarray(a, dtype=_INDEX_DTYPE)


def _check_coo(m: int, n: int, rows, cols, vals) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate caller-supplied triplets once; returns them as typed arrays."""
    rows, cols = _as_index(rows), _as_index(cols)
    vals = np.asarray(vals, dtype=np.float64)
    require(len(rows) == len(cols) == len(vals), "COO arrays differ in length")
    if len(rows):
        require(rows.min() >= 0 and rows.max() < m, "COO row index out of range")
        require(cols.min() >= 0 and cols.max() < n, "COO col index out of range")
    return rows, cols, vals


def _scipy_stable_order(major: np.ndarray, minor: np.ndarray, n_major: int, n_minor: int):
    """Stable argsort by ``(major, minor)`` as two O(nnz) counting passes.

    A csr→csc conversion of a matrix with one entry per row buckets the row
    numbers by ``indices``, "row indices in sorted order": a stable argsort.
    LSD radix order — *minor* first, then *major*.  No intermediate holds a
    duplicate cell, so scipy's (order-unspecified) duplicate summing never runs.
    """
    count = len(major)
    one_per_row = np.arange(count + 1, dtype=_INDEX_DTYPE)
    by_minor = _sp.csr_array(
        (one_per_row[:count], minor, one_per_row), shape=(count, n_minor)
    ).tocsc().indices
    return _sp.csr_array(
        (by_minor, major[by_minor], one_per_row), shape=(count, n_major)
    ).tocsc().data


def _compress_coo(
    n_major: int, n_minor: int, major: np.ndarray, minor: np.ndarray, vals: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, values)`` of validated triplets, duplicates summed.

    The triplet front end of :func:`_compress_sorted`: one *stable* sort of
    the linear keys (how it is computed chosen up front, from the size
    alone), so each run of duplicates reaches the tail in first-occurrence order.
    """
    linear = major * n_minor + minor
    if len(linear) >= _SCIPY_BUILD_MIN:
        order = _scipy_stable_order(major, minor, n_major, n_minor)
    else:
        order = np.argsort(linear, kind="stable")
    return _compress_sorted(n_major, n_minor, linear[order], vals[order])


def _compress_sorted(n_major: int, n_minor: int, linear: np.ndarray, vals: np.ndarray):
    """``(indptr, indices, values)`` of sorted keys ``major * n_minor + minor``.

    A run of equal keys becomes one stored entry.  ``np.bincount`` adds its
    weights in array order, so each run is summed in the order it arrives.
    """
    first = np.ones(len(linear), dtype=bool)
    np.not_equal(linear[1:], linear[:-1], out=first[1:])
    values = np.bincount(np.cumsum(first) - 1, weights=vals)
    unique = linear[first]
    indptr = np.searchsorted(unique, np.arange(n_major + 1, dtype=_INDEX_DTYPE) * n_minor)
    unique %= n_minor
    return indptr, unique, values


def _freeze_view(self):
    """Freeze the backing arrays and return a snapshot alias sharing them."""
    self.indptr.setflags(write=False)
    self.indices.setflags(write=False)
    self.values.setflags(write=False)
    # An alias of arrays this matrix already holds typed: no constructor.
    alias = object.__new__(type(self))
    alias.m, alias.n = self.m, self.n
    alias.indptr, alias.indices, alias.values = self.indptr, self.indices, self.values
    alias.version = next_version()
    alias._sp = alias._sp_ver = None
    if self._sp_ver == self.version:
        # The current scipy handle wraps exactly the arrays just frozen;
        # either side's touch() bumps its own version before a write.
        alias._sp, alias._sp_ver = self._sp, alias.version
    return alias


def _from_payload_arrays(cls, shape, arrays):
    """Inverse of ``payload_arrays()``: an ``m × n`` = *shape* matrix over
    ``(indptr, indices, values)`` = *arrays*, through the unchecked
    :meth:`_build` (see :meth:`repro.matrix.vector.Vector.from_payload_arrays`)."""
    return cls._build(*shape, *arrays)


class SparseCSR:
    """Compressed-sparse-row storage: ``indptr`` (m+1), ``indices``, ``values``.

    Column indices are sorted within each row; duplicates are coalesced at
    construction.
    """

    __slots__ = ("m", "n", "indptr", "indices", "values", "version", "_sp", "_sp_ver")

    def __init__(self, m: int, n: int, indptr, indices, values):
        self.m, self.n = int(m), int(n)
        self.indptr = _as_index(indptr)
        self.indices = _as_index(indices)
        self.values = np.asarray(values, dtype=np.float64)
        self.version = next_version()
        self._sp = None  # lazy zero-copy scipy [view, view.T]
        self._sp_ver = None  # version the view was built at (touch invalidates)
        require(self.m >= 0 and self.n >= 0, "negative matrix dims")
        require(len(self.indptr) == self.m + 1, "indptr must have m+1 entries")
        require(self.indptr[0] == 0, "indptr must start at 0")
        require(self.indptr[-1] == len(self.indices), "indptr end must equal nnz")
        require(len(self.indices) == len(self.values), "indices/values length mismatch")
        if len(self.indices):
            require(
                int(self.indices.min()) >= 0 and int(self.indices.max()) < self.n,
                "column index out of range",
            )
        require(bool(np.all(np.diff(self.indptr) >= 0)), "indptr must be non-decreasing")

    @classmethod
    def _build(cls, m: int, n: int, indptr, indices, values) -> "SparseCSR":
        """Construct from arrays that hold the CSR invariants by construction.

        Internal fast path for kernel results (``from_coo`` output, region
        extraction, stacking, scipy conversions) — the full validation in
        ``__init__`` stays on the public constructor for caller-supplied
        arrays.
        """
        self = object.__new__(cls)
        self.m, self.n = int(m), int(n)
        self.indptr = _as_index(indptr)
        self.indices = _as_index(indices)
        self.values = np.asarray(values, dtype=np.float64)
        self.version = next_version()
        self._sp = None
        self._sp_ver = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, m: int, n: int) -> "SparseCSR":
        """An all-zero sparse matrix."""
        return cls._build(m, n, np.zeros(m + 1, dtype=_INDEX_DTYPE), [], [])

    @classmethod
    def from_coo(cls, m: int, n: int, rows, cols, vals) -> "SparseCSR":
        """Build from triplets.

        Duplicate ``(row, col)`` entries are **summed** (the same policy as
        scipy's coalescing) in first-occurrence order, see
        ``_compress_coo``.
        """
        rows, cols, vals = _check_coo(m, n, rows, cols, vals)
        return cls._build(m, n, *_compress_coo(m, n, rows, cols, vals))

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "SparseCSR":
        """Compress a dense array, dropping entries with ``|x| <= tol``."""
        dense = np.asarray(dense, dtype=np.float64)
        require(dense.ndim == 2, "from_dense needs a 2-D array")
        rows, cols = np.nonzero(np.abs(dense) > tol)
        return cls.from_coo(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])

    # -- storage ------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return len(self.values)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.m, self.n)

    @property
    def nbytes(self) -> int:
        """Bytes of the compressed representation."""
        return int(self.indptr.nbytes + self.indices.nbytes + self.values.nbytes)

    def density(self) -> float:
        """Fraction of stored cells."""
        total = self.m * self.n
        return self.nnz / total if total else 0.0

    def copy(self) -> "SparseCSR":
        return SparseCSR._build(
            self.m, self.n, self.indptr.copy(), self.indices.copy(), self.values.copy()
        )

    def touch(self) -> None:
        """Mark this matrix dirty before an in-place write.

        Only ``values`` can be mutated in place (the index structure is
        immutable after construction), so CoW detach copies just that.
        """
        if not self.values.flags.writeable:
            self.values = self.values.copy()
        self.version = next_version()

    freeze_view = _freeze_view

    def payload_arrays(self) -> Tuple[np.ndarray, ...]:
        """Backing arrays for snapshot checksumming (``repro.util.checksum``)."""
        return (self.indptr, self.indices, self.values)

    from_payload_arrays = classmethod(_from_payload_arrays)

    def row_ids(self) -> np.ndarray:
        """Expanded row index of every stored entry (COO view helper)."""
        return np.repeat(np.arange(self.m, dtype=_INDEX_DTYPE), np.diff(self.indptr))

    def _scipy(self, transposed: bool = False):
        """Zero-copy ``scipy.sparse.csr_array`` view over the same buffers.

        Cached per :attr:`version`: ``touch()`` bumps the version before any
        mutation (in place or CoW detach), so a stale view can never serve a
        kernel.  The handle adopts the very arrays (``data is values``) — no
        payload copy.  *transposed* serves the view's ``.T``, cached beside
        it (scipy builds and validates a new handle per ``.T``).
        """
        if self._sp is None or self._sp_ver != self.version:
            # Empty, then adopt the buffers: the three-array constructor
            # copies any slice of a much larger base (every link block is one).
            view = _sp.csr_array((self.m, self.n))
            view.data, view.indices, view.indptr = self.values, self.indices, self.indptr
            self._sp, self._sp_ver = [view, None], self.version
        if transposed and self._sp[1] is None:
            self._sp[1] = self._sp[0].T
        return self._sp[transposed]

    def to_dense(self) -> np.ndarray:
        """Expand to a dense 2-D array."""
        return self._scipy().toarray()

    # -- kernels ------------------------------------------------------------

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """``self @ x``."""
        if x.shape != (self.n,):
            raise ValueError(f"spmv operand must be length {self.n}")
        return self._scipy() @ x

    def spmv_t(self, x: np.ndarray) -> np.ndarray:
        """``self.T @ x``."""
        if x.shape != (self.m,):
            raise ValueError(f"spmv_t operand must be length {self.m}")
        return self._scipy(True) @ x

    def scale(self, alpha: float) -> "SparseCSR":
        """In-place ``self *= alpha``."""
        self.touch()
        self.values *= alpha
        return self

    def matmat(self, dense: np.ndarray) -> np.ndarray:
        """``self @ dense`` for a 2-D operand (sparse-dense product)."""
        if dense.ndim != 2 or dense.shape[0] != self.n:
            raise ValueError("matmat shape mismatch")
        return self._scipy() @ dense

    def t_matmat(self, dense: np.ndarray) -> np.ndarray:
        """``self.T @ dense`` for a 2-D operand."""
        if dense.ndim != 2 or dense.shape[0] != self.m:
            raise ValueError("t_matmat shape mismatch")
        return self._scipy(True) @ dense

    def transpose(self) -> "SparseCSR":
        """A new CSR holding ``self.T``."""
        t = self._scipy(True).tocsr()
        t.sort_indices()
        return SparseCSR._build(self.n, self.m, t.indptr, t.indices, t.data)

    def to_csc(self) -> "SparseCSC":
        """Convert to compressed-sparse-column storage."""
        c = self._scipy().tocsc()
        c.sort_indices()
        return SparseCSC._build(self.m, self.n, c.indptr, c.indices, c.data)

    # -- region operations (restore paths) -----------------------------------

    def _region_mask(self, r0: int, r1: int, c0: int, c1: int) -> Tuple[np.ndarray, np.ndarray]:
        require(0 <= r0 <= r1 <= self.m, f"bad row range [{r0},{r1}) for m={self.m}")
        require(0 <= c0 <= c1 <= self.n, f"bad col range [{c0},{c1}) for n={self.n}")
        lo, hi = self.indptr[r0], self.indptr[r1]
        cols = self.indices[lo:hi]
        mask = (cols >= c0) & (cols < c1)
        return np.arange(lo, hi, dtype=_INDEX_DTYPE)[mask], cols[mask]

    def count_nnz_region(self, r0: int, r1: int, c0: int, c1: int) -> int:
        """Count stored entries in the region *without* extracting them.

        This is the paper's separate counting pass: the space for a restored
        sparse block must be known before allocation.
        """
        entry_idx, _ = self._region_mask(r0, r1, c0, c1)
        return int(len(entry_idx))

    def sub_matrix(self, r0: int, r1: int, c0: int, c1: int) -> "SparseCSR":
        """Extract the region as a new (r1-r0) × (c1-c0) CSR block."""
        if c0 == 0 and c1 == self.n and 0 <= r0 <= r1 <= self.m:
            # Full-width rows are one contiguous run: rebase indptr.  A frozen
            # parent shares the run (slices stay read-only); a writable copies.
            lo, hi = self.indptr[r0], self.indptr[r1]
            indices, values = self.indices[lo:hi], self.values[lo:hi]
            if indices.flags.writeable or values.flags.writeable:
                indices, values = indices.copy(), values.copy()
            return SparseCSR._build(
                r1 - r0, self.n, self.indptr[r0 : r1 + 1] - lo, indices, values
            )
        entry_idx, cols = self._region_mask(r0, r1, c0, c1)
        sub_rows = np.searchsorted(self.indptr, entry_idx, side="right") - 1 - r0
        counts = np.bincount(sub_rows, minlength=r1 - r0)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return SparseCSR._build(r1 - r0, c1 - c0, indptr, cols - c0, self.values[entry_idx])

    # -- assembly (repartitioned restore) ---------------------------------------

    @staticmethod
    def hstack(blocks: Sequence["SparseCSR"]) -> "SparseCSR":
        """Concatenate blocks side by side (equal row counts).

        A single block is returned as it is: a canonical CSR (sorted columns,
        no duplicates — the class invariant, which every ``sub_matrix`` tile
        holds) comes back from the COO round trip below with equal arrays.
        """
        require(len(blocks) > 0, "hstack needs at least one block")
        if len(blocks) == 1:
            return blocks[0]
        m = blocks[0].m
        require(all(b.m == m for b in blocks), "hstack blocks differ in row count")
        n = sum(b.n for b in blocks)
        col_offset = 0
        rows_parts: List[np.ndarray] = []
        cols_parts: List[np.ndarray] = []
        vals_parts: List[np.ndarray] = []
        for b in blocks:
            rows_parts.append(b.row_ids())
            cols_parts.append(b.indices + col_offset)
            vals_parts.append(b.values)
            col_offset += b.n
        return SparseCSR.from_coo(
            m,
            n,
            np.concatenate(rows_parts) if rows_parts else [],
            np.concatenate(cols_parts) if cols_parts else [],
            np.concatenate(vals_parts) if vals_parts else [],
        )

    @staticmethod
    def vstack(blocks: Sequence["SparseCSR"]) -> "SparseCSR":
        """Concatenate blocks top to bottom (equal column counts); a single
        block is returned as it is."""
        require(len(blocks) > 0, "vstack needs at least one block")
        if len(blocks) == 1:
            return blocks[0]
        n = blocks[0].n
        require(all(b.n == n for b in blocks), "vstack blocks differ in col count")
        indptr_parts = [blocks[0].indptr]
        nnz = blocks[0].indptr[-1]
        for b in blocks[1:]:
            indptr_parts.append(b.indptr[1:] + nnz)
            nnz = nnz + b.indptr[-1]  # not the last part's end: a zero-row block has none
        return SparseCSR._build(
            sum(b.m for b in blocks),
            n,
            np.concatenate(indptr_parts),
            np.concatenate([b.indices for b in blocks]),
            np.concatenate([b.values for b in blocks]),
        )

    @staticmethod
    def assemble(tiles: Sequence[Sequence["SparseCSR"]]) -> "SparseCSR":
        """Assemble a 2-D arrangement of tiles into one block."""
        return SparseCSR.vstack([SparseCSR.hstack(row) for row in tiles])

    # -- comparison ---------------------------------------------------------

    def equals_approx(self, other: "SparseCSR", tol: float = 1e-9) -> bool:
        """Structural + numerical equality within *tol* (via dense expansion)."""
        if self.shape != other.shape:
            return False
        return bool(np.allclose(self.to_dense(), other.to_dense(), atol=tol, rtol=0))

    def __repr__(self) -> str:
        return f"SparseCSR({self.m}x{self.n}, nnz={self.nnz})"


class SparseCSC:
    """Compressed-sparse-column storage (GML's second sparse format).

    The apps use CSR; CSC completes the GML class table and is exercised by
    format round-trip tests.
    """

    __slots__ = ("m", "n", "indptr", "indices", "values", "version", "_sp", "_sp_ver")

    def __init__(self, m: int, n: int, indptr, indices, values):
        self.m, self.n = int(m), int(n)
        self.indptr = _as_index(indptr)
        self.indices = _as_index(indices)
        self.values = np.asarray(values, dtype=np.float64)
        self.version = next_version()
        self._sp = None  # lazy zero-copy scipy [view, view.T]
        self._sp_ver = None  # version the view was built at (touch invalidates)
        require(len(self.indptr) == self.n + 1, "indptr must have n+1 entries")
        require(self.indptr[0] == 0, "indptr must start at 0")
        require(self.indptr[-1] == len(self.indices), "indptr end must equal nnz")
        require(len(self.indices) == len(self.values), "indices/values length mismatch")
        if len(self.indices):
            require(
                int(self.indices.min()) >= 0 and int(self.indices.max()) < self.m,
                "row index out of range",
            )

    @classmethod
    def _build(cls, m: int, n: int, indptr, indices, values) -> "SparseCSC":
        """Unchecked internal constructor (see :meth:`SparseCSR._build`)."""
        self = object.__new__(cls)
        self.m, self.n = int(m), int(n)
        self.indptr = _as_index(indptr)
        self.indices = _as_index(indices)
        self.values = np.asarray(values, dtype=np.float64)
        self.version = next_version()
        self._sp = None
        self._sp_ver = None
        return self

    @classmethod
    def empty(cls, m: int, n: int) -> "SparseCSC":
        return cls._build(m, n, np.zeros(n + 1, dtype=_INDEX_DTYPE), [], [])

    @classmethod
    def from_coo(cls, m: int, n: int, rows, cols, vals) -> "SparseCSC":
        """Build from triplets; duplicates are **summed** exactly as in
        :meth:`SparseCSR.from_coo`, with the sort column-major."""
        rows, cols, vals = _check_coo(m, n, rows, cols, vals)
        return cls._build(m, n, *_compress_coo(n, m, cols, rows, vals))

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "SparseCSC":
        dense = np.asarray(dense, dtype=np.float64)
        rows, cols = np.nonzero(np.abs(dense) > tol)
        return cls.from_coo(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.m, self.n)

    @property
    def nbytes(self) -> int:
        return int(self.indptr.nbytes + self.indices.nbytes + self.values.nbytes)

    def _scipy(self, transposed: bool = False):
        """Zero-copy ``scipy.sparse.csc_array`` view (see :meth:`SparseCSR._scipy`)."""
        if self._sp is None or self._sp_ver != self.version:
            # Empty, then adopt the buffers: the three-array constructor
            # copies any slice of a much larger base (every link block is one).
            view = _sp.csc_array((self.m, self.n))
            view.data, view.indices, view.indptr = self.values, self.indices, self.indptr
            self._sp, self._sp_ver = [view, None], self.version
        if transposed and self._sp[1] is None:
            self._sp[1] = self._sp[0].T
        return self._sp[transposed]

    def to_dense(self) -> np.ndarray:
        return self._scipy().toarray()

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """``self @ x``."""
        if x.shape != (self.n,):
            raise ValueError(f"spmv operand must be length {self.n}")
        return self._scipy() @ x

    def spmv_t(self, x: np.ndarray) -> np.ndarray:
        """``self.T @ x``."""
        if x.shape != (self.m,):
            raise ValueError(f"spmv_t operand must be length {self.m}")
        return self._scipy(True) @ x

    def scale(self, alpha: float) -> "SparseCSC":
        self.touch()
        self.values *= alpha
        return self

    def copy(self) -> "SparseCSC":
        return SparseCSC._build(
            self.m, self.n, self.indptr.copy(), self.indices.copy(), self.values.copy()
        )

    def touch(self) -> None:
        """Mark this matrix dirty before an in-place write (CoW detach)."""
        if not self.values.flags.writeable:
            self.values = self.values.copy()
        self.version = next_version()

    freeze_view = _freeze_view

    def payload_arrays(self) -> Tuple[np.ndarray, ...]:
        """Backing arrays for snapshot checksumming (``repro.util.checksum``)."""
        return (self.indptr, self.indices, self.values)

    from_payload_arrays = classmethod(_from_payload_arrays)

    def to_csr(self) -> SparseCSR:
        """Convert to compressed-sparse-row storage."""
        r = self._scipy().tocsr()
        r.sort_indices()
        return SparseCSR._build(self.m, self.n, r.indptr, r.indices, r.data)

    def count_nnz_region(self, r0: int, r1: int, c0: int, c1: int) -> int:
        """Count stored entries in a region (columns sliced via indptr)."""
        require(0 <= r0 <= r1 <= self.m, "bad row range")
        require(0 <= c0 <= c1 <= self.n, "bad col range")
        lo, hi = self.indptr[c0], self.indptr[c1]
        rows = self.indices[lo:hi]
        return int(np.count_nonzero((rows >= r0) & (rows < r1)))

    def sub_matrix(self, r0: int, r1: int, c0: int, c1: int) -> "SparseCSC":
        """Extract a region as a new CSC block."""
        require(0 <= r0 <= r1 <= self.m, "bad row range")
        require(0 <= c0 <= c1 <= self.n, "bad col range")
        lo, hi = self.indptr[c0], self.indptr[c1]
        rows = self.indices[lo:hi]
        mask = (rows >= r0) & (rows < r1)
        entry_idx = np.arange(lo, hi, dtype=_INDEX_DTYPE)[mask]
        sub_cols = np.searchsorted(self.indptr, entry_idx, side="right") - 1 - c0
        counts = np.bincount(sub_cols, minlength=c1 - c0)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return SparseCSC._build(r1 - r0, c1 - c0, indptr, rows[mask] - r0, self.values[entry_idx])

    def equals_approx(self, other: "SparseCSC", tol: float = 1e-9) -> bool:
        if self.shape != other.shape:
            return False
        return bool(np.allclose(self.to_dense(), other.to_dense(), atol=tol, rtol=0))

    def __repr__(self) -> str:
        return f"SparseCSC({self.m}x{self.n}, nnz={self.nnz})"


def flops_spmv(nnz: int) -> int:
    """Flops of a sparse matrix-vector product (multiply-add per stored entry)."""
    return 2 * nnz
