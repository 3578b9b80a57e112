"""Tests for the CSR/CSC classes: own index arrays, scipy's compiled kernels."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrix import sparse
from repro.matrix.sparse import SparseCSC, SparseCSR, flops_spmv
from tests.resilience.payload_kinds import same_bytes


def random_dense(m, n, density, seed):
    rng = np.random.default_rng(seed)
    data = rng.random((m, n))
    data[rng.random((m, n)) >= density] = 0.0
    return data


sparse_case = st.tuples(
    st.integers(1, 20),  # m
    st.integers(1, 20),  # n
    st.floats(0.0, 0.6),  # density
    st.integers(0, 10_000),  # seed
)


def _sliced(cls, big, count):
    """A block of *big*'s first *count* rows (CSR) / columns (CSC), built by
    ``_build`` over slices of its arrays: no copy."""
    hi = int(big.indptr[count])
    shape = (count, big.n) if cls is SparseCSR else (big.m, count)
    return cls._build(*shape, big.indptr[: count + 1], big.indices[:hi], big.values[:hi])


def _kernels(a, x, y):
    """Every product and conversion of a matrix shaped like *a*, as callables."""
    ops = [lambda b: b.spmv(x), lambda b: b.spmv_t(y), lambda b: b.to_dense()]
    if isinstance(a, SparseCSC):
        return ops + [lambda b: b.to_csr()]
    xs, ys = np.outer(x, [1.0, -2.0, 0.5]), np.outer(y, [3.0, 1.0])
    return ops + [
        lambda b: b.matmat(xs),
        lambda b: b.t_matmat(ys),
        lambda b: b.transpose(),
        lambda b: b.to_csc(),
    ]


class TestCSRConstruction:
    def test_empty(self):
        a = SparseCSR.empty(3, 4)
        assert a.nnz == 0
        assert np.all(a.to_dense() == 0)

    def test_from_coo(self):
        a = SparseCSR.from_coo(3, 3, [0, 2, 1], [1, 2, 0], [5.0, 7.0, 3.0])
        dense = np.zeros((3, 3))
        dense[0, 1], dense[2, 2], dense[1, 0] = 5, 7, 3
        assert np.array_equal(a.to_dense(), dense)

    def test_duplicates_summed(self):
        a = SparseCSR.from_coo(2, 2, [0, 0, 0], [1, 1, 0], [1.0, 2.0, 4.0])
        assert a.nnz == 2
        assert a.to_dense()[0, 1] == 3.0
        assert a.to_dense()[0, 0] == 4.0
        # A run of duplicates is summed in first-occurrence order, bit-exactly.
        b = SparseCSR.from_coo(3, 3, [0, 0, 1, 0], [1, 1, 2, 1], [0.1, 0.2, 5.0, 0.4])
        assert b.nnz == 2
        assert b.to_dense()[0, 1] == (0.1 + 0.2) + 0.4

    @pytest.mark.parametrize("cls, m, n", [(SparseCSR, 4096, 4096), (SparseCSC, 700, 300)])
    def test_large_build_sorts_like_the_stable_argsort(self, cls, m, n, monkeypatch):
        """At ``_SCIPY_BUILD_MIN`` triplets and above the sort order comes
        from scipy's counting passes: the permutation of ``np.argsort(kind=
        "stable")``, so the matrix has the bytes of the small-build path,
        summed duplicates included (row- and column-major, non-square)."""
        nnz = sparse._SCIPY_BUILD_MIN + 1000
        rng = np.random.default_rng(21)
        rows, cols = rng.integers(0, m, size=nnz), rng.integers(0, n, size=nnz)
        rows[1], cols[1] = rows[0], cols[0]  # one duplicate for certain
        vals = rng.standard_normal(nnz)
        major, minor, n_major, n_minor = (
            (rows, cols, m, n) if cls is SparseCSR else (cols, rows, n, m)
        )
        order = sparse._scipy_stable_order(major, minor, n_major, n_minor)
        assert np.array_equal(order, np.argsort(major * n_minor + minor, kind="stable"))
        counted = cls.from_coo(m, n, rows, cols, vals)
        assert counted.nnz < nnz
        monkeypatch.setattr(sparse, "_SCIPY_BUILD_MIN", nnz + 1)
        argsorted = cls.from_coo(m, n, rows, cols, vals)
        same_bytes(counted, argsorted)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            SparseCSR.from_coo(2, 2, [0, 2], [0, 0], [1.0, 1.0])
        with pytest.raises(ValueError):
            SparseCSR.from_coo(2, 2, [0], [5], [1.0])

    def test_invalid_structure(self):
        with pytest.raises(ValueError):
            SparseCSR(2, 2, [0, 1], [0], [1.0])  # indptr too short
        with pytest.raises(ValueError):
            SparseCSR(2, 2, [0, 1, 3], [0, 1], [1.0, 2.0])  # end != nnz

    def test_density(self):
        a = SparseCSR.from_coo(2, 2, [0], [0], [1.0])
        assert a.density() == 0.25
        assert SparseCSR.empty(0, 0).density() == 0.0

    @given(sparse_case)
    def test_dense_roundtrip(self, case):
        m, n, density, seed = case
        dense = random_dense(m, n, density, seed)
        assert np.array_equal(SparseCSR.from_dense(dense).to_dense(), dense)


class TestCSRKernels:
    @given(sparse_case)
    def test_spmv_matches_dense(self, case):
        m, n, density, seed = case
        dense = random_dense(m, n, density, seed)
        a = SparseCSR.from_dense(dense)
        x = np.random.default_rng(seed + 1).random(n)
        assert np.allclose(a.spmv(x), dense @ x)
        rhs = np.random.default_rng(seed + 3).random((n, 3))
        assert np.allclose(a.matmat(rhs), dense @ rhs)

    @given(sparse_case)
    def test_spmv_t_matches_dense(self, case):
        m, n, density, seed = case
        dense = random_dense(m, n, density, seed)
        a = SparseCSR.from_dense(dense)
        y = np.random.default_rng(seed + 2).random(m)
        assert np.allclose(a.spmv_t(y), dense.T @ y)
        lhs = np.random.default_rng(seed + 4).random((m, 3))
        assert np.allclose(a.t_matmat(lhs), dense.T @ lhs)

    @given(sparse_case)
    def test_transpose(self, case):
        m, n, density, seed = case
        dense = random_dense(m, n, density, seed)
        assert np.array_equal(SparseCSR.from_dense(dense).transpose().to_dense(), dense.T)

    def test_scale(self):
        a = SparseCSR.from_coo(2, 2, [0, 1], [0, 1], [2.0, 4.0]).scale(0.5)
        assert np.array_equal(np.diag(a.to_dense()), [1.0, 2.0])

    @pytest.mark.parametrize("cls", [SparseCSR, SparseCSC])
    def test_kernels_on_base_slices_equal_compact_copy(self, cls):
        """A block over slices of a much larger base (every full-width link
        block is one) runs each kernel on those very arrays, with the bytes
        the same kernel gives on a compacted copy; a write through the block
        reaches its next product."""
        big = cls.from_dense(random_dense(40, 6, 0.5, 3))
        a = _sliced(cls, big, 2)
        assert np.shares_memory(a.values, big.values) and len(a.values) < len(big.values)
        compact = a.copy()
        x, y = np.arange(1.0, a.n + 1), np.arange(1.0, a.m + 1)
        for kernel in _kernels(a, x, y):
            same_bytes(kernel(a), kernel(compact))
        before = a.spmv_t(y)
        a.scale(2.0)
        assert np.array_equal(a.spmv_t(y), 2.0 * before)

    @pytest.mark.parametrize("cls", [SparseCSR, SparseCSC])
    def test_freeze_view_alias_never_sees_later_writes(self, cls):
        """``touch()`` + ``scale`` on either side of a ``freeze_view()``
        reaches that side's results only."""
        dense = random_dense(5, 4, 0.6, 11)
        x, y = np.arange(1.0, 5.0), np.arange(1.0, 6.0)
        original = cls.from_dense(dense)
        expected = original.spmv(x), original.spmv_t(y), original.to_dense()
        alias = original.freeze_view()
        assert alias.version != original.version
        original.scale(2.0)  # touch() detaches from the frozen arrays first
        for got, want in zip((alias.spmv(x), alias.spmv_t(y), alias.to_dense()), expected):
            same_bytes(got, want)
        assert np.array_equal(original.spmv(x), 2.0 * expected[0])
        second = original.freeze_view()
        second.scale(0.5)
        assert np.array_equal(original.spmv(x), 2.0 * expected[0])
        assert np.array_equal(second.spmv(x), expected[0])

    def test_spmv_wrong_length(self):
        a = SparseCSR.empty(2, 3)
        with pytest.raises(ValueError):
            a.spmv(np.zeros(2))
        with pytest.raises(ValueError):
            a.spmv_t(np.zeros(3))


def _operand(rng, kind, shape):
    """A real operand of *shape* in one of the layouts callers may hand a kernel."""
    if kind == "int":
        return rng.integers(-9, 10, size=shape)
    if kind == "strided":
        return rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::2]
    data = rng.standard_normal(shape)
    return np.asfortranarray(data) if kind == "fortran" else data


def _same_as_scipy(got, want):
    """*got* has the bytes of scipy's *want*: a dense result in the same
    memory order, a compressed one array by array (index values only, as
    scipy may narrow the index dtype)."""
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert got.tobytes() == want.tobytes()
        return
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.values.tobytes() == want.data.tobytes()


class TestKernelsAreScipys:
    """The kernels call scipy's compiled routines directly: every product and
    conversion has the bytes of scipy's public operators on the same arrays."""

    @settings(max_examples=120, deadline=None)
    @given(
        case=sparse_case,
        empty=st.sampled_from([None, "rows", "cols"]),
        k=st.integers(0, 3),
        kind=st.sampled_from(["float", "strided", "int", "fortran"]),
        sliced=st.booleans(),
        cls=st.sampled_from([SparseCSR, SparseCSC]),
    )
    def test_every_kernel_has_scipys_bytes(self, case, empty, k, kind, sliced, cls):
        m, n, density, seed = case
        m, n = (0 if empty == "rows" else m), (0 if empty == "cols" else n)
        dense = random_dense(m, n, density, seed)
        if sliced:  # a block over slices of a larger base
            if cls is SparseCSR:
                bigger = np.vstack([dense, random_dense(3, n, density, seed + 1)])
            else:
                bigger = np.hstack([dense, random_dense(m, 3, density, seed + 1)])
            a = _sliced(cls, cls.from_dense(bigger), m if cls is SparseCSR else n)
        else:
            a = cls.from_dense(dense)
        ctor = sp.csr_array if cls is SparseCSR else sp.csc_array
        ref = ctor((a.values, a.indices, a.indptr), shape=a.shape)
        rng = np.random.default_rng(seed)
        x, y = _operand(rng, kind, (n,)), _operand(rng, kind, (m,))
        _same_as_scipy(a.spmv(x), ref @ x)
        _same_as_scipy(a.spmv_t(y), ref.T @ y)
        _same_as_scipy(a.to_dense(), ref.toarray())
        if cls is SparseCSC:
            _same_as_scipy(a.to_csr(), ref.tocsr())
            return
        xs, ys = _operand(rng, kind, (n, k)), _operand(rng, kind, (m, k))
        _same_as_scipy(a.matmat(xs), ref @ xs)
        _same_as_scipy(a.t_matmat(ys), ref.T @ ys)
        _same_as_scipy(a.transpose(), ref.T.tocsr())
        _same_as_scipy(a.to_csc(), ref.tocsc())

    @pytest.mark.parametrize("cls", [SparseCSR, SparseCSC])
    def test_a_complex_operand_is_refused(self, cls):
        """scipy's operator would answer in complex; the float64 routine
        refuses rather than drop the imaginary part."""
        a = cls.from_dense(random_dense(4, 3, 0.7, 5))
        calls = [lambda: a.spmv(np.full(3, 1j)), lambda: a.spmv_t(np.ones(4, dtype=complex))]
        if cls is SparseCSR:
            calls += [
                lambda: a.matmat(np.ones((3, 2), dtype=complex)),
                lambda: a.t_matmat(np.ones((4, 2), dtype=np.complex64)),
            ]
        for call in calls:
            with pytest.raises(ValueError):
                call()


class TestCSRRegions:
    @settings(max_examples=60)
    @given(
        case=sparse_case,
        cuts=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
    )
    def test_sub_matrix_matches_dense(self, case, cuts):
        m, n, density, seed = case
        dense = random_dense(m, n, density, seed)
        a = SparseCSR.from_dense(dense)
        r0, r1 = sorted((int(cuts[0] * m), int(cuts[1] * m)))
        c0, c1 = sorted((int(cuts[2] * n), int(cuts[3] * n)))
        sub = a.sub_matrix(r0, r1, c0, c1)
        assert np.array_equal(sub.to_dense(), dense[r0:r1, c0:c1])
        # The counting pass agrees with the extraction.
        assert a.count_nnz_region(r0, r1, c0, c1) == sub.nnz

    def test_region_bounds(self):
        a = SparseCSR.empty(3, 3)
        with pytest.raises(ValueError):
            a.sub_matrix(0, 4, 0, 3)
        with pytest.raises(ValueError):
            a.count_nnz_region(0, 3, 2, 1)


class TestCSRAssembly:
    def test_hstack_vstack(self):
        # Column cuts side by side and row cuts stacked give the matrix back.
        d = random_dense(6, 8, 0.4, 3)
        a = SparseCSR.from_dense(d)
        left = a.sub_matrix(0, 6, 0, 3)
        right = a.sub_matrix(0, 6, 3, 8)
        assert np.array_equal(np.hstack([left.to_dense(), right.to_dense()]), d)
        top = a.sub_matrix(0, 2, 0, 8)
        bottom = a.sub_matrix(2, 6, 0, 8)
        assert np.array_equal(SparseCSR.vstack([top, bottom]).to_dense(), d)

    def test_assemble_tiles(self):
        # A regridded block is its full-width row pieces, stacked; an empty
        # piece (a zero-height old block) adds nothing.
        d = random_dense(7, 9, 0.5, 4)
        a = SparseCSR.from_dense(d)
        pieces = [a.sub_matrix(r0, r1, 0, 9) for r0, r1 in ((0, 3), (3, 3), (3, 7))]
        assert np.array_equal(SparseCSR.vstack(pieces).to_dense(), d)

    def test_stack_validation(self):
        with pytest.raises(ValueError):
            SparseCSR.vstack([])
        with pytest.raises(ValueError):
            SparseCSR.vstack([SparseCSR.empty(2, 2), SparseCSR.empty(2, 3)])


def _via_coo(block):
    """*block* through the COO round trip (row ids, stable sort, segment
    sum): a canonical CSR comes back with equal arrays."""
    return SparseCSR.from_coo(block.m, block.n, block.row_ids(), block.indices, block.values)


def _vstack_by_concatenation(blocks):
    """The reference ``vstack``: concatenates, a single block too."""
    indptr, nnz = [blocks[0].indptr], blocks[0].nnz
    for b in blocks[1:]:
        indptr.append(b.indptr[1:] + nnz)
        nnz += b.nnz
    return SparseCSR(
        sum(b.m for b in blocks),
        blocks[0].n,
        np.concatenate(indptr),
        np.concatenate([b.indices for b in blocks]),
        np.concatenate([b.values for b in blocks]),
    )


def _same_csr(a, b):
    assert a.shape == b.shape
    for name in ("indptr", "indices", "values"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


def _one_tile_cases():
    """``sub_matrix`` outputs of a canonical CSR — full-width row pieces are
    what the repartitioned restore stacks."""
    parent = SparseCSR.from_dense(random_dense(12, 9, 0.4, seed=11))
    frozen = parent.freeze_view()
    hole = random_dense(12, 9, 0.4, seed=12)
    hole[3:7, :] = 0.0
    hollow = SparseCSR.from_dense(hole)
    return {
        "whole": parent.sub_matrix(0, 12, 0, 9),
        "full-width-rows": parent.sub_matrix(2, 7, 0, 9),
        "full-width-rows-of-frozen": frozen.sub_matrix(2, 7, 0, 9),
        "column-cut": parent.sub_matrix(0, 12, 2, 6),
        "region": parent.sub_matrix(3, 10, 1, 8),
        "empty-tile": hollow.sub_matrix(3, 7, 0, 9),
        "empty-region": hollow.sub_matrix(3, 7, 2, 5),
        "zero-rows": parent.sub_matrix(4, 4, 0, 9),
        "zero-cols": parent.sub_matrix(0, 12, 5, 5),
        "all-zero": SparseCSR.empty(4, 3),
    }


class TestOneTileRows:
    """``vstack`` returns a single piece as it is (a new block inside one old
    block); the piece must equal what the COO round trip and the
    concatenating reference make of it."""

    @pytest.mark.parametrize("name", sorted(_one_tile_cases()))
    def test_one_tile_hstack_equals_the_coo_path(self, name):
        tile = _one_tile_cases()[name]
        assert SparseCSR.vstack([tile]) is tile
        _same_csr(tile, _via_coo(tile))

    @pytest.mark.parametrize("name", sorted(_one_tile_cases()))
    def test_one_tile_assemble(self, name):
        tile = _one_tile_cases()[name]
        assert SparseCSR.vstack([tile]) is tile
        _same_csr(tile, _vstack_by_concatenation([tile]))

    @pytest.mark.parametrize("row_cuts,col_cuts", [
        ([0, 12], [0, 9]),
        ([0, 12], [0, 3, 4, 9]),
        ([0, 5, 5, 8, 12], [0, 9]),
        ([0, 4, 12], [0, 6, 9]),
    ])
    def test_tilings_equal_the_reference(self, row_cuts, col_cuts):
        """The row pieces of each column band (the full width when there is
        one band) stack to the reference and to the band itself."""
        parent = SparseCSR.from_dense(random_dense(12, 9, 0.4, seed=13)).freeze_view()
        for c0, c1 in zip(col_cuts, col_cuts[1:]):
            pieces = [parent.sub_matrix(r0, r1, c0, c1) for r0, r1 in zip(row_cuts, row_cuts[1:])]
            built = SparseCSR.vstack(pieces)
            _same_csr(built, _vstack_by_concatenation(pieces))
            assert np.array_equal(built.to_dense(), parent.to_dense()[:, c0:c1])

    def test_a_one_tile_block_detaches_on_its_first_write(self):
        """The returned tile may alias a frozen parent's arrays (a full-width
        row slice does); ``touch()`` copies before the write."""
        parent = SparseCSR.from_dense(random_dense(6, 5, 0.6, seed=14)).freeze_view()
        before = parent.to_dense()
        block = SparseCSR.vstack([parent.sub_matrix(1, 4, 0, 5)])
        assert np.shares_memory(block.values, parent.values)
        with pytest.raises(ValueError, match="read-only"):
            block.values[:] = 0.0
        block.scale(3.0)
        assert not np.shares_memory(block.values, parent.values)
        assert np.array_equal(parent.to_dense(), before)
        assert np.array_equal(block.to_dense(), 3.0 * before[1:4])


def _row_slices(parent, cuts):
    """Full-width row bands of *parent* that slice its arrays without
    copying, whether or not they are frozen (``sub_matrix`` copies a
    writable parent's)."""
    bands = []
    for r0, r1 in zip(cuts, cuts[1:]):
        lo, hi = parent.indptr[r0], parent.indptr[r1]
        bands.append(
            SparseCSR._build(
                r1 - r0,
                parent.n,
                parent.indptr[r0 : r1 + 1] - lo,
                parent.indices[lo:hi],
                parent.values[lo:hi],
            )
        )
    return bands


def _frozen_csr(seed=15):
    return SparseCSR.from_dense(random_dense(12, 9, 0.5, seed=seed)).freeze_view()


def _vstack_copy_cases():
    """Row bands ``vstack`` must concatenate: anything but non-empty frozen
    slices of one buffer, in order, with no gap."""
    d = random_dense(12, 9, 0.5, seed=15)
    frozen, other = _frozen_csr(), _frozen_csr()
    hole = d.copy()
    hole[4:7, :] = 0.0
    hollow = SparseCSR.from_dense(hole).freeze_view()
    return {
        "writable": _row_slices(SparseCSR.from_dense(d), [0, 4, 12]),
        "different-bases": _row_slices(frozen, [0, 4]) + _row_slices(other, [4, 12]),
        "gapped": _row_slices(frozen, [0, 3]) + _row_slices(frozen, [4, 12]),
        "out-of-order": _row_slices(frozen, [4, 12]) + _row_slices(frozen, [0, 4]),
        "zero-row": _row_slices(frozen, [0, 4, 4, 12]),
        "leading-zero-row": _row_slices(frozen, [0, 0, 4, 12]),
        "zero-nnz": _row_slices(hollow, [0, 4, 7, 12]),
    }


class TestZeroCopyVstack:
    """``vstack`` of frozen rows lying back to back in one buffer is one
    read-only view of it; any other arrangement is concatenated.  The bytes
    are those of the concatenation either way."""

    def test_adjacent_frozen_rows_share_their_buffer(self):
        parent = _frozen_csr()
        before = parent.to_dense()
        bands = _row_slices(parent, [0, 3, 8, 12])
        stacked = SparseCSR.vstack(bands)
        _same_csr(stacked, _vstack_by_concatenation(bands))
        for name in ("indices", "values"):
            array = getattr(stacked, name)
            assert array.base is getattr(parent, name)
            assert not array.flags.writeable
        # A stacked block's own frozen rows join again (a second regrid).
        again = SparseCSR.vstack(_row_slices(stacked.freeze_view(), [0, 5, 12]))
        assert again.values.base is parent.values
        _same_csr(again, parent)
        stacked.scale(2.0)  # touch() detaches the values
        assert not np.shares_memory(stacked.values, parent.values)
        assert np.array_equal(parent.to_dense(), before)
        assert np.array_equal(stacked.to_dense(), 2.0 * before)

    def test_the_middle_rows_of_a_buffer_share_it(self):
        parent = _frozen_csr()
        bands = _row_slices(parent, [2, 6, 7, 10])
        stacked = SparseCSR.vstack(bands)
        assert stacked.values.base is parent.values
        _same_csr(stacked, _vstack_by_concatenation(bands))
        _same_csr(stacked, parent.sub_matrix(2, 10, 0, 9))

    @pytest.mark.parametrize("name", sorted(_vstack_copy_cases()))
    def test_other_arrangements_copy(self, name):
        bands = _vstack_copy_cases()[name]
        stacked = SparseCSR.vstack(bands)
        _same_csr(stacked, _vstack_by_concatenation(bands))
        for band in bands:
            for name in ("indices", "values"):
                array = getattr(band, name)
                buffer = array if array.base is None else array.base
                assert not np.shares_memory(getattr(stacked, name), buffer)


class TestCSC:
    @given(sparse_case)
    def test_dense_roundtrip(self, case):
        m, n, density, seed = case
        dense = random_dense(m, n, density, seed)
        assert np.array_equal(SparseCSC.from_dense(dense).to_dense(), dense)

    @given(sparse_case)
    def test_spmv(self, case):
        m, n, density, seed = case
        dense = random_dense(m, n, density, seed)
        a = SparseCSC.from_dense(dense)
        x = np.random.default_rng(seed + 1).random(n)
        y = np.random.default_rng(seed + 2).random(m)
        assert np.allclose(a.spmv(x), dense @ x)
        assert np.allclose(a.spmv_t(y), dense.T @ y)

    @given(sparse_case)
    def test_format_conversion_roundtrip(self, case):
        m, n, density, seed = case
        dense = random_dense(m, n, density, seed)
        csr = SparseCSR.from_dense(dense)
        assert np.array_equal(csr.to_csc().to_dense(), dense)
        assert np.array_equal(csr.to_csc().to_csr().to_dense(), dense)

    def test_sub_matrix_and_count(self):
        dense = random_dense(8, 8, 0.4, 7)
        a = SparseCSC.from_dense(dense)
        sub = a.sub_matrix(2, 6, 1, 7)
        assert np.array_equal(sub.to_dense(), dense[2:6, 1:7])
        assert a.count_nnz_region(2, 6, 1, 7) == sub.nnz

    def test_malformed_structure_is_rejected(self):
        """The constructor is the kernels' only guard: a decreasing ``indptr``
        sent the compiled routines past the arrays (the process died)."""
        with pytest.raises(ValueError, match="non-decreasing"):
            SparseCSC(4, 2, [0, 9, 3], [0, 1, 2], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="negative"):
            SparseCSC(-1, 0, [0], [], [])
        with pytest.raises(ValueError, match="n\\+1"):
            SparseCSC(2, 2, [0, 1], [0], [1.0])
        with pytest.raises(ValueError, match="row index"):
            SparseCSC(2, 1, [0, 1], [2], [1.0])

    def test_duplicates_summed(self):
        a = SparseCSC.from_coo(2, 2, [1, 1], [0, 0], [1.5, 2.5])
        assert a.nnz == 1
        assert a.to_dense()[1, 0] == 4.0

    def test_scale_and_copy(self):
        a = SparseCSC.from_coo(2, 2, [0], [1], [2.0])
        b = a.copy().scale(2.0)
        assert a.to_dense()[0, 1] == 2.0
        assert b.to_dense()[0, 1] == 4.0


def test_flops_spmv():
    assert flops_spmv(10) == 20
