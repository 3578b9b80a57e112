"""Single-place sparse matrices — GML's ``SparseCSR`` and ``SparseCSC``.

The classes own their compressed index arrays (NumPy) because the paper's
repartitioned restore exercises sparse-specific code paths we must own:
counting the non-zeros of an arbitrary sub-region *before* allocating the
new block, extracting the region, and assembling a block from region pieces
("the non-zero elements for the overlapping regions must be counted to
determine the space required for the new sparse block").

The kernels — products, format conversion, dense expansion — are scipy's
compiled ``_sparsetools`` routines, called on those very arrays with the
arguments ``scipy.sparse``'s compressed classes pass them after their
operator dispatch, into a fresh float64 output: the bytes of scipy's ``@``,
``tocsc`` and ``toarray``, with no scipy object built.  The routines trust
the structure they are handed, so the public constructors validate it in
full; an operand they cannot compute in float64 (complex, extended
precision) is a ``ValueError`` from the routine itself.

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
from scipy.sparse import _sparsetools

from repro.util.validation import require
from repro.util.versioning import next_version

_INDEX_DTYPE = np.int64

#: Minimum triplet count for computing ``from_coo``'s sort order with
#: scipy's counting passes instead of ``np.argsort``.  The counting sort is
#: O(nnz + m + n) behind a few µs of fixed cost: on a 2-core x86-64 VM it
#: loses by 1-8 µs below ~700 triplets and wins from ~1,000 on (10,000:
#: 100-135 µs against 645 µs), for square and 500 × 6000 link-block shapes
#: alike.  Both give the same permutation (tests/matrix/test_sparse.py).
_SCIPY_BUILD_MIN = 1024


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


def _recompress(n_major: int, n_minor: int, indptr, indices, data):
    """The same entries compressed along the other axis, minor indices
    sorted: ``csr_tocsc`` into fresh arrays, as scipy's ``tocsc`` runs it.

    Returns ``(indptr, indices, data)`` with ``n_minor + 1`` pointers; the
    bucketing keeps major order within each minor index, so it is stable.
    """
    nnz = len(indices)
    out = (
        np.empty(n_minor + 1, dtype=_INDEX_DTYPE),
        np.empty(nnz, dtype=_INDEX_DTYPE),
        np.empty(nnz, dtype=data.dtype),
    )
    _sparsetools.csr_tocsc(n_major, n_minor, indptr, indices, data, *out)
    return out


def _scipy_stable_order(major: np.ndarray, minor: np.ndarray, n_major: int, n_minor: int):
    """Stable argsort by ``(major, minor)`` as two O(nnz) counting passes.

    A csr→csc conversion of a matrix with one entry per row buckets the row
    numbers by ``indices``, "row indices in sorted order": a stable argsort.
    LSD radix order — *minor* first, then *major*.  No intermediate holds a
    duplicate cell, and the conversion never sums one anyway.
    """
    count = len(major)
    one_per_row = np.arange(count + 1, dtype=_INDEX_DTYPE)
    by_minor = _recompress(count, n_minor, one_per_row, minor, one_per_row[:count])[1]
    return _recompress(count, n_major, one_per_row, major[by_minor], by_minor)[2]


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
    return alias


def _init(self, m: int, n: int, indptr, indices, values):
    """The public constructor of both formats: caller-supplied arrays,
    validated in full.

    The compiled kernels trust the structure — an ``indptr`` that decreases
    or overruns sends them past the ends of ``indices`` and ``values`` — so
    these checks guard memory as well as meaning.  ``_MAJOR`` is the axis
    ``indptr`` runs over: 0 (rows) for CSR, 1 (columns) for CSC.
    """
    self.m, self.n = int(m), int(n)
    self.indptr = _as_index(indptr)
    self.indices = _as_index(indices)
    self.values = np.asarray(values, dtype=np.float64)
    self.version = next_version()
    major, dims = self._MAJOR, (self.m, self.n)
    require(self.m >= 0 and self.n >= 0, "negative matrix dims")
    require(len(self.indptr) == dims[major] + 1, f"indptr must have {'mn'[major]}+1 entries")
    require(self.indptr[0] == 0, "indptr must start at 0")
    require(self.indptr[-1] == len(self.indices), "indptr end must equal nnz")
    require(len(self.indices) == len(self.values), "indices/values length mismatch")
    if len(self.indices):
        require(
            int(self.indices.min()) >= 0 and int(self.indices.max()) < dims[1 - major],
            f"{('column', 'row')[major]} index out of range",
        )
    require(bool(np.all(np.diff(self.indptr) >= 0)), "indptr must be non-decreasing")


def _build(cls, m: int, n: int, indptr, indices, values):
    """Construct from arrays that hold the format's invariants by construction.

    Internal fast path for kernel results (``from_coo`` output, region
    extraction, stacking, conversions) — the full validation of the public
    constructor stays on caller-supplied arrays.
    """
    self = object.__new__(cls)
    self.m, self.n = int(m), int(n)
    self.indptr = _as_index(indptr)
    self.indices = _as_index(indices)
    self.values = np.asarray(values, dtype=np.float64)
    self.version = next_version()
    return self


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

    __slots__ = ("m", "n", "indptr", "indices", "values", "version")
    _MAJOR = 0

    __init__ = _init
    _build = classmethod(_build)

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

    def to_dense(self) -> np.ndarray:
        """Expand to a dense 2-D array."""
        out = np.zeros((self.m, self.n))
        _sparsetools.csr_todense(self.m, self.n, self.indptr, self.indices, self.values, out)
        return out

    # -- kernels ------------------------------------------------------------
    # The CSR arrays of ``self`` are the CSC arrays of ``self.T``: the
    # transposed products run the ``csc_`` routine on them as an n × m matrix.

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """``self @ x``."""
        if x.shape != (self.n,):
            raise ValueError(f"spmv operand must be length {self.n}")
        y = np.zeros(self.m)
        _sparsetools.csr_matvec(self.m, self.n, self.indptr, self.indices, self.values, x, y)
        return y

    def spmv_t(self, x: np.ndarray) -> np.ndarray:
        """``self.T @ x``."""
        if x.shape != (self.m,):
            raise ValueError(f"spmv_t operand must be length {self.m}")
        y = np.zeros(self.n)
        _sparsetools.csc_matvec(self.n, self.m, self.indptr, self.indices, self.values, x, y)
        return y

    def scale(self, alpha: float) -> "SparseCSR":
        """In-place ``self *= alpha``."""
        self.touch()
        self.values *= alpha
        return self

    def matmat(self, dense: np.ndarray) -> np.ndarray:
        """``self @ dense`` for a 2-D operand (sparse-dense product)."""
        if dense.ndim != 2 or dense.shape[0] != self.n:
            raise ValueError("matmat shape mismatch")
        k = dense.shape[1]
        y = np.zeros((self.m, k))
        _sparsetools.csr_matvecs(
            self.m, self.n, k, self.indptr, self.indices, self.values, dense.ravel(), y.ravel()
        )
        return y

    def t_matmat(self, dense: np.ndarray) -> np.ndarray:
        """``self.T @ dense`` for a 2-D operand."""
        if dense.ndim != 2 or dense.shape[0] != self.m:
            raise ValueError("t_matmat shape mismatch")
        k = dense.shape[1]
        y = np.zeros((self.n, k))
        _sparsetools.csc_matvecs(
            self.n, self.m, k, self.indptr, self.indices, self.values, dense.ravel(), y.ravel()
        )
        return y

    def transpose(self) -> "SparseCSR":
        """A new CSR holding ``self.T``."""
        arrays = _recompress(self.m, self.n, self.indptr, self.indices, self.values)
        return SparseCSR._build(self.n, self.m, *arrays)

    def to_csc(self) -> "SparseCSC":
        """Convert to compressed-sparse-column storage."""
        arrays = _recompress(self.m, self.n, self.indptr, self.indices, self.values)
        return SparseCSC._build(self.m, self.n, *arrays)

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

    __slots__ = ("m", "n", "indptr", "indices", "values", "version")
    _MAJOR = 1

    __init__ = _init
    _build = classmethod(_build)

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

    def to_dense(self) -> np.ndarray:
        # Column-major, as scipy's: the transposed view of the output is the
        # row-major expansion of ``self.T``, whose CSR arrays these are.
        out = np.zeros((self.m, self.n), order="F")
        _sparsetools.csr_todense(self.n, self.m, self.indptr, self.indices, self.values, out.T)
        return out

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """``self @ x``."""
        if x.shape != (self.n,):
            raise ValueError(f"spmv operand must be length {self.n}")
        y = np.zeros(self.m)
        _sparsetools.csc_matvec(self.m, self.n, self.indptr, self.indices, self.values, x, y)
        return y

    def spmv_t(self, x: np.ndarray) -> np.ndarray:
        """``self.T @ x``."""
        if x.shape != (self.m,):
            raise ValueError(f"spmv_t operand must be length {self.m}")
        y = np.zeros(self.n)
        _sparsetools.csr_matvec(self.n, self.m, self.indptr, self.indices, self.values, x, y)
        return y

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
        arrays = _recompress(self.n, self.m, self.indptr, self.indices, self.values)
        return SparseCSR._build(self.m, self.n, *arrays)

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
