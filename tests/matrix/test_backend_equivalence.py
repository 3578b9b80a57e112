"""NumPy-vs-scipy backend equivalence for every sparse kernel.

The speed pass backs ``SparseCSR``/``SparseCSC`` kernels with
``scipy.sparse`` array views when available.  The contract is *bit
identity*, not approximate agreement: golden timings and chaos-campaign
parity are asserted byte-for-byte across backends, so every kernel must
produce the exact same arrays on both paths.

Each test runs the same operation once per backend (switching via
``sparse_backend.set_backend``) and compares results with
``np.array_equal`` — no tolerances anywhere.
"""

import numpy as np
import pytest

from repro.matrix import sparse_backend
from repro.matrix.sparse import SparseCSC, SparseCSR

pytestmark = pytest.mark.skipif(
    not sparse_backend.scipy_available(), reason="scipy not installed"
)


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    sparse_backend.set_backend(None)


def per_backend(fn):
    """Run *fn* under each backend and return ``(numpy_result, scipy_result)``."""
    sparse_backend.set_backend("numpy")
    a = fn()
    sparse_backend.set_backend("scipy")
    b = fn()
    sparse_backend.set_backend(None)
    return a, b


def coo_fixture(m=13, n=9, nnz=40, seed=7, dups=False):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.standard_normal(nnz)
    if dups:
        rows = np.concatenate([rows, rows[: nnz // 2]])
        cols = np.concatenate([cols, cols[: nnz // 2]])
        vals = np.concatenate([vals, rng.standard_normal(nnz // 2)])
    return m, n, rows, cols, vals


def assert_same_matrix(a, b):
    assert type(a) is type(b)
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("cls", [SparseCSR, SparseCSC])
@pytest.mark.parametrize("dups", [False, True])
def test_from_coo_identical(cls, dups):
    m, n, rows, cols, vals = coo_fixture(dups=dups)
    a, b = per_backend(lambda: cls.from_coo(m, n, rows, cols, vals))
    assert_same_matrix(a, b)


@pytest.mark.parametrize("cls", [SparseCSR, SparseCSC])
def test_from_dense_identical(cls):
    dense = np.random.default_rng(3).standard_normal((8, 11))
    dense[np.abs(dense) < 0.8] = 0.0
    a, b = per_backend(lambda: cls.from_dense(dense))
    assert_same_matrix(a, b)
    assert np.array_equal(a.to_dense(), dense)


@pytest.mark.parametrize("cls", [SparseCSR, SparseCSC])
def test_spmv_and_spmv_t_identical(cls):
    m, n, rows, cols, vals = coo_fixture()
    x_n = np.random.default_rng(11).standard_normal(n)
    x_m = np.random.default_rng(12).standard_normal(m)

    def run():
        mat = cls.from_coo(m, n, rows, cols, vals)
        return mat.spmv(x_n), mat.spmv_t(x_m)

    (y_a, z_a), (y_b, z_b) = per_backend(run)
    assert np.array_equal(y_a, y_b)
    assert np.array_equal(z_a, z_b)


def test_matmat_kernels_identical():
    m, n, rows, cols, vals = coo_fixture()
    rhs = np.random.default_rng(13).standard_normal((n, 4))
    lhs = np.random.default_rng(14).standard_normal((m, 4))

    def run():
        mat = SparseCSR.from_coo(m, n, rows, cols, vals)
        return mat.matmat(rhs), mat.t_matmat(lhs)

    (p_a, q_a), (p_b, q_b) = per_backend(run)
    assert np.array_equal(p_a, p_b)
    assert np.array_equal(q_a, q_b)


def test_conversions_identical():
    m, n, rows, cols, vals = coo_fixture()

    def run():
        mat = SparseCSR.from_coo(m, n, rows, cols, vals)
        return mat.transpose(), mat.to_csc(), mat.to_csc().to_csr()

    (t_a, c_a, r_a), (t_b, c_b, r_b) = per_backend(run)
    assert_same_matrix(t_a, t_b)
    assert_same_matrix(c_a, c_b)
    assert_same_matrix(r_a, r_b)


@pytest.mark.parametrize("cls", [SparseCSR, SparseCSC])
def test_region_ops_identical(cls):
    m, n, rows, cols, vals = coo_fixture(m=16, n=12)

    def run():
        mat = cls.from_coo(m, n, rows, cols, vals)
        return mat.count_nnz_region(2, 11, 1, 8), mat.sub_matrix(2, 11, 1, 8)

    (cnt_a, sub_a), (cnt_b, sub_b) = per_backend(run)
    assert cnt_a == cnt_b
    assert_same_matrix(sub_a, sub_b)


def test_stacking_identical():
    def run():
        tiles = [
            [
                SparseCSR.from_coo(4, 3, *coo_fixture(4, 3, 6, seed=s)[2:])
                for s in (1, 2)
            ],
            [
                SparseCSR.from_coo(5, 3, *coo_fixture(5, 3, 7, seed=s)[2:])
                for s in (3, 4)
            ],
        ]
        return SparseCSR.assemble(tiles)

    a, b = per_backend(run)
    assert_same_matrix(a, b)


def test_cross_backend_matrices_interoperate():
    """A matrix built on one backend computes identically on the other."""
    m, n, rows, cols, vals = coo_fixture()
    x = np.random.default_rng(15).standard_normal(n)
    sparse_backend.set_backend("numpy")
    built_numpy = SparseCSR.from_coo(m, n, rows, cols, vals)
    y_numpy = built_numpy.spmv(x)
    sparse_backend.set_backend("scipy")
    assert np.array_equal(built_numpy.spmv(x), y_numpy)


def test_duplicate_policy_sums_matching_scipy():
    """Duplicates are summed — same policy as scipy's COO coalescing —
    and byte-identically on both backends (the deterministic path)."""
    rows = [0, 0, 1, 0]
    cols = [1, 1, 2, 1]
    vals = [0.1, 0.2, 5.0, 0.4]

    def run():
        return SparseCSR.from_coo(3, 3, rows, cols, vals)

    a, b = per_backend(run)
    assert_same_matrix(a, b)
    # First-occurrence summation order: ((0.1 + 0.2) + 0.4), bit-exactly.
    assert a.to_dense()[0, 1] == (0.1 + 0.2) + 0.4
    assert a.nnz == 2
    sp = sparse_backend.scipy_module()
    coalesced = sp.coo_array((vals, (rows, cols)), shape=(3, 3)).tocsr()
    assert np.allclose(a.to_dense(), coalesced.toarray())


@pytest.mark.parametrize("dups", [False, True])
def test_from_coo_large_build_identical(dups):
    """Builds above ``_SCIPY_BUILD_MIN`` compute their sort order with
    scipy's counting passes; the permutation, and so the result, must be
    byte-identical to the NumPy ``argsort`` path, duplicates or not."""
    from repro.matrix.sparse import _SCIPY_BUILD_MIN

    n = 4096
    nnz = _SCIPY_BUILD_MIN + 1000
    rng = np.random.default_rng(21)
    if dups:
        rows = rng.integers(0, n, size=nnz)
        cols = rng.integers(0, n, size=nnz)  # collisions guaranteed by birthday
        rows[1], cols[1] = rows[0], cols[0]  # ...and one forced duplicate
    else:
        flat = rng.choice(n * n, size=nnz, replace=False)
        rows, cols = flat // n, flat % n
    vals = rng.standard_normal(nnz)
    a, b = per_backend(lambda: SparseCSR.from_coo(n, n, rows, cols, vals))
    assert_same_matrix(a, b)


def test_from_coo_large_build_csc_matches_transposed_csr():
    """The column-major large build (keys swapped) on a non-square shape:
    identical across backends, and its summed duplicates are bit-equal to
    the CSR build of the transposed triplets."""
    from repro.matrix.sparse import _SCIPY_BUILD_MIN

    m, n, nnz = 700, 300, _SCIPY_BUILD_MIN + 500
    rng = np.random.default_rng(22)
    rows, cols = rng.integers(0, m, size=nnz), rng.integers(0, n, size=nnz)
    vals = rng.standard_normal(nnz)
    a, b = per_backend(lambda: SparseCSC.from_coo(m, n, rows, cols, vals))
    assert_same_matrix(a, b)
    assert a.nnz < nnz  # 33k draws into 210k cells: duplicates are certain
    t = SparseCSR.from_coo(n, m, cols, rows, vals)
    for got, want in zip(a.payload_arrays(), t.payload_arrays()):
        assert np.array_equal(got, want)


def test_backend_switch_validation():
    with pytest.raises(ValueError):
        sparse_backend.set_backend("cupy")
    assert sparse_backend.set_backend("numpy") == "numpy"
    assert sparse_backend.use_scipy() is False
    assert sparse_backend.set_backend(None) in ("numpy", "scipy")
