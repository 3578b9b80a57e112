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
``tocsc`` and ``toarray``, with no scipy object built and ``scipy.sparse``
itself never imported (``_load_sparsetools``).  The routines trust
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

import importlib.util
import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import List, Sequence, Tuple

import numpy as np

from repro.util.payload import MODELED_INDEX, STORED_INDEX
from repro.util.validation import require
from repro.util.versioning import next_version


def _load_sparsetools():
    """scipy's compiled ``sparse/_sparsetools`` extension, loaded from its file.

    Reaching it through the ``scipy.sparse`` package would first run that
    package's whole init (about 21 MiB and 0.15 s, none of it called);
    ``find_spec`` only locates scipy, it does not execute it.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed (the sparse kernels are its)")
    directory = os.path.join(scipy.submodule_search_locations[0], "sparse")
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_sparsetools" + suffix)
        if os.path.isfile(path):
            loader = ExtensionFileLoader("repro.matrix._sparsetools", path)
            spec = importlib.util.spec_from_loader(loader.name, loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            return module
    raise ImportError(f"scipy's compiled _sparsetools extension not found in {directory}")


_sparsetools = _load_sparsetools()

#: Stored width of ``indptr`` and ``indices``; the compiled kernels take it as
#: it is.  The cost model still counts 8 bytes per index, X10 GML's ``Long``
#: (:mod:`repro.util.payload`).  COO triplets and the linear keys
#: ``major * n_minor + minor`` a build sorts stay ``int64``.
_INDEX_DTYPE = STORED_INDEX
#: A matrix whose dimension or stored-entry count reaches this is refused
#: at construction: its indices would not fit :data:`_INDEX_DTYPE`.
_INDEX_LIMIT = 1 << 31

#: Minimum triplet count for computing ``from_coo``'s sort order with
#: scipy's counting passes instead of ``np.argsort``.  The counting sort is
#: O(nnz + m + n) behind a few µs of fixed cost: on a 2-core x86-64 VM it
#: loses by 1-8 µs below ~700 triplets and wins from ~1,000 on (10,000:
#: 100-135 µs against 645 µs), for square and 500 × 6000 link-block shapes
#: alike.  Both give the same permutation (tests/matrix/test_sparse.py).
_SCIPY_BUILD_MIN = 1024

#: Keys per pass of the link-graph build (``LinkMatrix._sorted_keys`` and
#: :func:`_compress_uniform`): a chunk's few 8-byte temporaries stay in a
#: core's L2 cache, and none of them grows with the graph.
_CHUNK = 1 << 14


def _as_index(a) -> np.ndarray:
    """*a* as stored indices: an ``int32`` array is taken as it is."""
    return np.asarray(a, dtype=_INDEX_DTYPE)


def _require_indexable(m: int, n: int, nnz: int = 0) -> None:
    """Refuse an ``m × n`` matrix of *nnz* entries whose indices would not
    fit :data:`_INDEX_DTYPE` — before anything of that size is allocated."""
    if m >= _INDEX_LIMIT or n >= _INDEX_LIMIT or nnz >= _INDEX_LIMIT:
        raise ValueError(
            f"a {m} x {n} sparse matrix of {nnz} entries does not fit int32 indices"
            " (dimensions and entry count must stay below 2**31)"
        )


def _check_coo(m: int, n: int, rows, cols, vals) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate caller-supplied triplets once; returns them as typed arrays
    (the indices as ``int64``, the width of the keys they are sorted by)."""
    _require_indexable(m, n, len(rows))
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
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
    The index arrays come back in the dtype of *indices*, which *indptr*
    must share.
    """
    nnz, index = len(indices), indices.dtype
    out = (
        np.empty(n_minor + 1, dtype=index),
        np.empty(nnz, dtype=index),
        np.empty(nnz, dtype=data.dtype),
    )
    _sparsetools.csr_tocsc(n_major, n_minor, indptr, indices, data, *out)
    return out


def _scipy_stable_order(major: np.ndarray, minor: np.ndarray, n_major: int, n_minor: int):
    """Stable argsort by ``(major, minor)`` as two O(nnz) counting passes.

    A csr→csc conversion of a matrix with one entry per row buckets the row
    numbers by ``indices``, "row indices in sorted order": a stable argsort.
    LSD radix order — *minor* first, then *major*.  No intermediate holds a
    duplicate cell, and the conversion never sums one anyway.  Every array
    is of *major*'s dtype, which *minor* must share (``int64`` from
    :func:`_check_coo`).
    """
    count = len(major)
    one_per_row = np.arange(count + 1, dtype=major.dtype)
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


def _run_starts(linear: np.ndarray) -> np.ndarray:
    """Mask of the first key of every run of equal keys in sorted *linear*."""
    first = np.ones(len(linear), dtype=bool)
    np.not_equal(linear[1:], linear[:-1], out=first[1:])
    return first


def _compress_unique(n_major: int, n_minor: int, unique: np.ndarray):
    """``(indptr, indices)``, stored-width, of sorted distinct ``int64`` keys
    ``major * n_minor + minor``.  Each minor index is written straight into
    the ``int32`` array: no full-width copy of the keys exists."""
    bounds = np.arange(n_major + 1, dtype=np.int64) * n_minor
    indptr = np.searchsorted(unique, bounds).astype(_INDEX_DTYPE)
    indices = np.empty(len(unique), dtype=_INDEX_DTYPE)
    np.remainder(unique, n_minor, out=indices, casting="unsafe")
    return indptr, indices


def _compress_sorted(n_major: int, n_minor: int, linear: np.ndarray, vals: np.ndarray):
    """``(indptr, indices, values)`` of sorted keys ``major * n_minor + minor``.

    A run of equal keys becomes one stored entry.  ``np.bincount`` adds its
    weights in array order, so each run is summed in the order it arrives.
    """
    first = _run_starts(linear)
    values = np.bincount(np.cumsum(first) - 1, weights=vals)
    return (*_compress_unique(n_major, n_minor, linear[first]), values)


def _compress_uniform(n_major: int, n_minor: int, linear: np.ndarray, weight: float, max_run: int):
    """:func:`_compress_sorted` of sorted keys that all carry *weight*, byte
    for byte, in :data:`_CHUNK`-key passes: beside the keys and the arrays
    it returns, only the narrow run lengths grow with the graph.

    A run's value depends only on its length ``k <= max_run``, so it is
    read from a table whose entry ``k`` is ``np.bincount`` over ``k``
    copies of *weight*: the additions, in the order, that
    :func:`_compress_sorted` makes for the run.  One pass counts the runs;
    a second writes each run's column into the ``int32`` indices, its length
    into a one-byte (for ``max_run < 256``) array and the row pointers from
    the row bounds.  The caller hands *linear* over as a call's result,
    holding no name for it (``LinkMatrix.global_csr`` does): CPython 3.11+
    then moves the only reference into this frame, so the keys are freed
    before the values exist.  The peak is the keys plus 5 bytes per entry,
    then the finished arrays plus the lengths.
    """
    total = len(linear)
    count = min(total, 1)
    for c0 in range(1, total, _CHUNK):
        c1 = min(c0 + _CHUNK, total)
        count += int(np.count_nonzero(linear[c0:c1] != linear[c0 - 1 : c1 - 1]))
    indptr = np.empty(n_major + 1, dtype=_INDEX_DTYPE)
    indices = np.empty(count, dtype=_INDEX_DTYPE)
    lengths = np.empty(count, dtype=np.min_scalar_type(max_run))
    done = row = 0  # runs written; rows whose pointer is written
    begin = 0  # where the last run written begins
    for c0 in range(0, total, _CHUNK):
        c1 = min(c0 + _CHUNK, total)
        first = np.empty(c1 - c0, dtype=bool)
        first[0] = c0 == 0 or linear[c0] != linear[c0 - 1]
        np.not_equal(linear[c0 + 1 : c1], linear[c0 : c1 - 1], out=first[1:])
        unique = linear[c0:c1][first]
        if not len(unique):  # the chunk continues the last run
            continue
        starts = np.flatnonzero(first)
        stop = done + len(unique)
        np.remainder(unique, n_minor, out=indices[done:stop], casting="unsafe")
        if done:
            lengths[done - 1] = c0 + starts[0] - begin
        np.subtract(starts[1:], starts[:-1], out=lengths[done : stop - 1], casting="unsafe")
        begin = c0 + int(starts[-1])
        # Rows whose first key is at most the chunk's last: their pointer
        # counts the distinct keys below the row's bound.
        end = int(unique[-1]) // n_minor + 1
        bounds = np.arange(row, end, dtype=np.int64) * n_minor
        indptr[row:end] = np.searchsorted(unique, bounds) + done
        done, row = stop, end
    if done:
        lengths[done - 1] = total - begin
    indptr[row:] = done
    del linear
    top = int(lengths.max(initial=0))
    k = np.arange(top + 1)
    runs = np.repeat(k, k)  # k copies of k: bin k sums k copies of weight, in order
    table = np.bincount(runs, weights=np.full(len(runs), weight))
    values = np.empty(count)
    for c0 in range(0, count, _CHUNK):
        np.take(table, lengths[c0 : c0 + _CHUNK], out=values[c0 : c0 + _CHUNK])
    return indptr, indices, values


def _joined(parts: List[np.ndarray]) -> np.ndarray:
    """*parts* stacked along axis 0: one read-only view of their base when
    each is a non-empty run of whole rows (of elements, for 1-D parts) of one
    frozen C-contiguous array of its dtype, in order and with no gap between
    them; otherwise a fresh ``np.concatenate``.

    Sparse ``vstack`` joins ``indices``/``values`` slices with it, and a
    dense regridded restore the full-width row pieces of a block.
    """
    base = parts[0].base
    if (
        isinstance(base, np.ndarray)
        and base.ndim
        and base.size
        and base.flags.c_contiguous
        and not base.flags.writeable
    ):
        # Addresses from ``ctypes.data``: ``__array_interface__`` builds a
        # dict per call whose keys churn the interned-string table until it
        # resizes (+0.5 MiB peak RSS over a few thousand restores).
        origin, tail = base.ctypes.data, base.shape[1:]
        row = base.nbytes // len(base)
        start, inside = divmod(parts[0].ctypes.data - origin, row)
        end = start
        for index, part in enumerate(parts):
            if (
                inside  # the first part does not start at a row boundary
                or part.base is not base
                or part.dtype != base.dtype
                or part.shape[1:] != tail
                or not part.size
                or not part.flags.c_contiguous
                or (index and part.ctypes.data != origin + end * row)
            ):
                break
            end += len(part)
        else:
            return base[start:end]
    return np.concatenate(parts)


def _modeled_nbytes(self) -> int:
    # An index counts at the modeled width, whatever width it is held at.
    return (self.indptr.size + self.indices.size) * MODELED_INDEX.itemsize + self.values.nbytes


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
    _require_indexable(self.m, self.n, len(indices))
    # Checked at full width and narrowed after: narrowing first would wrap a
    # pointer or index past 2**31 back into range.
    self.indptr = np.asarray(indptr, dtype=np.int64)
    self.indices = np.asarray(indices, dtype=np.int64)
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
    self.indptr, self.indices = _as_index(self.indptr), _as_index(self.indices)


def _build(cls, m: int, n: int, indptr, indices, values):
    """Construct from arrays that hold the format's invariants by construction.

    Internal fast path for kernel results (``from_coo`` output, region
    extraction, stacking, conversions, a parity rebuild's ``int64`` arrays,
    narrowed here) — the full validation of the public constructor stays on
    caller-supplied arrays.
    """
    self = object.__new__(cls)
    self.m, self.n = int(m), int(n)
    self.indptr = _as_index(indptr)
    self.indices = _as_index(indices)
    self.values = np.asarray(values, dtype=np.float64)
    self.version = next_version()
    return self


def _from_payload_arrays(cls, shape, arrays):
    """Inverse of reading ``ARRAY_NAMES``: an ``m × n`` = *shape* matrix over
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
        if m >= _INDEX_LIMIT or n >= _INDEX_LIMIT:  # no call on this allocation path
            _require_indexable(m, n)
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
        """Modeled bytes of the compressed representation: 8 per index (the
        stored ``int32`` counted as GML's ``Long``) and 8 per value."""
        return _modeled_nbytes(self)

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

    #: The snapshot payload leaf's arrays, in order (see ``Vector.ARRAY_NAMES``).
    ARRAY_NAMES = ("indptr", "indices", "values")

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
    def vstack(blocks: Sequence["SparseCSR"]) -> "SparseCSR":
        """Concatenate blocks top to bottom (equal column counts); a single
        block is returned as it is.

        The inverse of ``sub_matrix``'s shared run: frozen full-width slices
        that lie back to back in one buffer come back as one read-only view
        of it (``_joined``), so a regridded block copies nothing but its
        ``indptr``; a writer detaches through ``touch()``.
        """
        require(len(blocks) > 0, "vstack needs at least one block")
        if len(blocks) == 1:
            return blocks[0]
        n = blocks[0].n
        require(all(b.n == n for b in blocks), "vstack blocks differ in col count")
        m = sum(b.m for b in blocks)
        # Summed as Python ints and checked before anything is joined: an
        # int32 sum past 2**31 would wrap into the pointers.
        nnz, offsets = 0, []
        for b in blocks:
            nnz += int(b.indptr[-1])
            offsets.append(nnz)
        if max(m, n, nnz) >= _INDEX_LIMIT:  # no call on the regrid path
            _require_indexable(m, n, nnz)
        indptr_parts = [blocks[0].indptr]
        for b, offset in zip(blocks[1:], offsets):
            indptr_parts.append(b.indptr[1:] + offset)
        return SparseCSR._build(
            m,
            n,
            np.concatenate(indptr_parts),
            _joined([b.indices for b in blocks]),
            _joined([b.values for b in blocks]),
        )

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
        if m >= _INDEX_LIMIT or n >= _INDEX_LIMIT:
            _require_indexable(m, n)
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
        return _modeled_nbytes(self)

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
    ARRAY_NAMES = SparseCSR.ARRAY_NAMES
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
