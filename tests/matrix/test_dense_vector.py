"""Tests for the single-place DenseMatrix and Vector classes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.matrix.dense import DenseMatrix, flops_cellwise, flops_matmul, flops_matvec
from repro.matrix.sparse import _joined
from repro.matrix.vector import Vector

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestDenseMatrix:
    def test_make_zero(self):
        a = DenseMatrix.make(3, 4)
        assert a.shape == (3, 4)
        assert a.norm_f() == 0.0

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            DenseMatrix(np.zeros(5))

    def test_cell_ops(self):
        a = DenseMatrix(np.ones((2, 2)))
        b = DenseMatrix(np.full((2, 2), 3.0))
        a.cell_add(b).cell_sub(1.0).scale(2.0)
        assert np.allclose(a.data, 6.0)
        a.cell_mult(b)
        assert np.allclose(a.data, 18.0)

    def test_shape_mismatch(self):
        a, b = DenseMatrix.make(2, 2), DenseMatrix.make(2, 3)
        for op in (a.cell_add, a.cell_sub, a.cell_mult, a.max_abs_diff):
            with pytest.raises(ValueError):
                op(b)

    def test_mult(self):
        rng = np.random.default_rng(0)
        a = DenseMatrix.random(3, 4, rng)
        b = DenseMatrix.random(4, 5, rng)
        c = DenseMatrix.make(3, 5).mult(a, b)
        assert np.allclose(c.data, a.data @ b.data)

    def test_mult_dim_check(self):
        with pytest.raises(ValueError):
            DenseMatrix.make(3, 5).mult(DenseMatrix.make(3, 4), DenseMatrix.make(5, 5))

    def test_matvec_tmatvec(self):
        rng = np.random.default_rng(1)
        a = DenseMatrix.random(3, 4, rng)
        x, y = rng.random(4), rng.random(3)
        assert np.allclose(a.matvec(x), a.data @ x)
        assert np.allclose(a.t_matvec(y), a.data.T @ y)

    def test_transpose(self):
        a = DenseMatrix.from_function(2, 3, lambda i, j: 10 * i + j)
        assert np.array_equal(a.transpose().data, a.data.T)

    def test_sub_matrix_roundtrip(self):
        a = DenseMatrix.from_function(5, 6, lambda i, j: i * 6 + j)
        sub = a.sub_matrix(1, 4, 2, 5)
        assert sub.shape == (3, 3)
        b = DenseMatrix.make(5, 6)
        b.set_sub_matrix(1, 2, sub)
        assert np.array_equal(b.data[1:4, 2:5], a.data[1:4, 2:5])

    def test_sub_matrix_bounds(self):
        a = DenseMatrix.make(3, 3)
        with pytest.raises(ValueError):
            a.sub_matrix(0, 4, 0, 2)
        with pytest.raises(ValueError):
            a.set_sub_matrix(2, 2, DenseMatrix.make(2, 2))

    def test_negative_paste_offset_rejected(self):
        """Like ``sub_matrix``, a paste rejects a negative corner instead of
        wrapping it around (or silently writing nothing)."""
        a = DenseMatrix.make(4, 4)
        for r0, c0 in ((-1, 0), (0, -1), (-4, -4)):
            with pytest.raises(ValueError, match="bad (row|col) range"):
                a.set_sub_matrix(r0, c0, DenseMatrix(np.ones((1, 2))))
        assert not a.data.any()

    def test_equals_approx(self):
        a = DenseMatrix(np.ones((2, 2)))
        b = DenseMatrix(np.ones((2, 2)) + 1e-12)
        assert a.equals_approx(b, tol=1e-9)
        assert not a.equals_approx(DenseMatrix(np.zeros((2, 2))), tol=1e-9)

    def test_copy_is_deep(self):
        a = DenseMatrix(np.ones((2, 2)))
        b = a.copy()
        b.data[0, 0] = 9
        assert a.data[0, 0] == 1.0

    @given(arrays(np.float64, (3, 4), elements=finite))
    def test_from_to_roundtrip(self, data):
        assert np.array_equal(DenseMatrix(data).data, data)


class TestVector:
    def test_make(self):
        v = Vector.make(5)
        assert v.n == 5 and v.norm2() == 0.0

    def test_rejects_non_1d(self):
        with pytest.raises(ValueError):
            Vector(np.zeros((2, 2)))

    def test_cell_ops(self):
        v = Vector.of([1.0, 2.0, 3.0])
        v.cell_add(1.0).scale(2.0).cell_sub(Vector.of([1, 1, 1]))
        assert np.allclose(v.data, [3, 5, 7])
        v.cell_mult(Vector.of([2, 2, 2]))
        assert np.allclose(v.data, [6, 10, 14])

    def test_axpy(self):
        v = Vector.of([1.0, 1.0])
        v.axpy(2.0, Vector.of([3.0, 4.0]))
        assert np.allclose(v.data, [7, 9])

    def test_dot_norm_sum(self):
        v = Vector.of([3.0, 4.0])
        assert v.dot(v) == 25.0
        assert v.norm2() == 5.0
        assert v.sum() == 7.0

    def test_map(self):
        v = Vector.of([1.0, 4.0, 9.0]).map(np.sqrt)
        assert np.allclose(v.data, [1, 2, 3])

    def test_sub_vector(self):
        v = Vector.of(np.arange(6.0))
        s = v.sub_vector(2, 5)
        assert np.allclose(s.data, [2, 3, 4])
        w = Vector.make(6)
        w.set_sub_vector(1, s)
        assert np.allclose(w.data, [0, 2, 3, 4, 0, 0])

    def test_length_mismatch(self):
        v, w = Vector.make(3), Vector.make(4)
        for op in (v.cell_add, v.cell_sub, v.cell_mult, v.dot, v.max_abs_diff):
            with pytest.raises(ValueError):
                op(w)

    def test_bounds(self):
        v = Vector.make(3)
        with pytest.raises(ValueError):
            v.sub_vector(1, 5)
        with pytest.raises(ValueError):
            v.set_sub_vector(2, Vector.make(2))

    def test_negative_paste_offset_rejected(self):
        """Like ``sub_vector``, a paste rejects a negative offset instead of
        writing the cells it wraps around to."""
        v = Vector.make(10)
        with pytest.raises(ValueError, match="bad range"):
            v.set_sub_vector(-3, Vector.of([1.0, 2.0]))
        assert not v.data.any()

    @given(arrays(np.float64, 10, elements=finite), arrays(np.float64, 10, elements=finite))
    def test_dot_matches_numpy(self, a, b):
        assert Vector(a).dot(Vector(b)) == pytest.approx(float(a @ b), rel=1e-12, abs=1e-9)


class TestFlopFormulas:
    def test_values(self):
        assert flops_matvec(3, 4) == 24
        assert flops_matmul(2, 3, 4) == 48
        assert flops_cellwise(5) == 5
        assert flops_cellwise(5, 2) == 10


def _frozen(rows=12, cols=5, seed=3):
    data = np.random.default_rng(seed).random((rows, cols))
    data.setflags(write=False)
    return data


def _pasted(parts):
    """The regridded restore's paste: each part written below the last into
    one zeroed block."""
    out = np.zeros((sum(len(p) for p in parts), parts[0].shape[1]))
    row = 0
    for part in parts:
        out[row : row + len(part)] = part
        row += len(part)
    return out


def _row_join_copy_cases():
    """Row pieces ``_joined`` must copy: anything but non-empty whole rows of
    one frozen buffer, in order, with no gap."""
    frozen, other = _frozen(), _frozen(seed=4)
    writable = np.random.default_rng(3).random((12, 5))
    return {
        "writable": [writable[0:4], writable[4:12]],
        "different-bases": [frozen[0:4], other[4:12]],
        "gapped": [frozen[0:3], frozen[4:12]],
        "out-of-order": [frozen[4:12], frozen[0:4]],
        "partial-width": [frozen[0:4, :3], frozen[4:12, :3]],
        "zero-row": [frozen[0:4], frozen[4:4], frozen[4:12]],
    }


class TestFrozenRowViews:
    """Full-width rows of a frozen matrix are views of it, and the rows of
    one buffer lying back to back join as one view (``_joined``); anything
    else is copied, with the bytes a paste gives."""

    def test_sub_matrix_of_frozen_full_width_rows_is_a_view(self):
        parent = DenseMatrix(_frozen().copy()).freeze_view()
        sub = parent.sub_matrix(2, 7, 0, 5)
        assert sub.shape == (5, 5) and sub.data.base is parent.data
        assert not sub.data.flags.writeable
        with pytest.raises(ValueError):
            sub.data[0, 0] = -1.0
        before = parent.data.copy()
        sub.scale(2.0)  # touch() detaches
        assert not np.shares_memory(sub.data, parent.data)
        assert np.array_equal(parent.data, before)
        assert np.array_equal(sub.data, 2.0 * before[2:7])

    @pytest.mark.parametrize("frozen, cut", [(True, (2, 7, 1, 5)), (False, (2, 7, 0, 5))])
    def test_other_sub_matrices_copy(self, frozen, cut):
        parent = DenseMatrix(_frozen().copy())
        if frozen:
            parent = parent.freeze_view()
        sub = parent.sub_matrix(*cut)
        r0, r1, c0, c1 = cut
        assert not np.shares_memory(sub.data, parent.data)
        assert sub.data.flags.writeable
        assert sub.data.tobytes() == parent.data[r0:r1, c0:c1].tobytes()

    @pytest.mark.parametrize("cuts", [[0, 3, 8, 12], [2, 6, 7, 10], [5, 9]])
    def test_adjacent_frozen_rows_join_as_one_view(self, cuts):
        base = _frozen()
        parts = [base[a:b] for a, b in zip(cuts, cuts[1:])]
        joined = _joined(parts)
        assert joined.base is base and not joined.flags.writeable
        assert joined.tobytes() == _pasted(parts).tobytes()

    @pytest.mark.parametrize("name", sorted(_row_join_copy_cases()))
    def test_other_row_pieces_copy(self, name):
        parts = _row_join_copy_cases()[name]
        joined = _joined(parts)
        assert joined.tobytes() == _pasted(parts).tobytes()
        for part in parts:
            assert not np.shares_memory(joined, part if part.base is None else part.base)
