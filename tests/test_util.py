"""Tests for the util package: validation, the payload format, LOC."""

import numpy as np
import pytest

from repro.util.checksum import corrupt_payload, payload_checksum
from repro.util.loc import AppLocRow, count_loc, loc_of_object, loc_report
from repro.util import versioning
from repro.util.payload import FRAMING_BYTES, arrays, freeze_payload, leaves
from repro.util.payload import payload_frozen, payload_nbytes
from repro.util.versioning import ensure_version_floor, next_version
from repro.util.validation import (
    check_index,
    check_non_negative,
    check_positive,
    check_same_length,
    require,
)


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_check_positive(self):
        assert check_positive(3, "x") == 3
        with pytest.raises(ValueError):
            check_positive(0, "x")
        with pytest.raises(TypeError):
            check_positive(1.5, "x")
        with pytest.raises(TypeError):
            check_positive(True, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0, "x") == 0
        with pytest.raises(ValueError):
            check_non_negative(-1, "x")

    def test_check_index(self):
        assert check_index(2, 3) == 2
        with pytest.raises(IndexError):
            check_index(3, 3)
        with pytest.raises(IndexError):
            check_index(-1, 3)

    def test_check_same_length(self):
        check_same_length([1], [2])
        with pytest.raises(ValueError):
            check_same_length([1], [2, 3])


class TestPayloadNbytes:
    def test_matrix_classes(self):
        from repro.matrix import DenseMatrix, SparseCSR, Vector

        assert payload_nbytes(Vector.make(4)) == 32 + FRAMING_BYTES
        assert payload_nbytes(DenseMatrix.make(2, 2)) == 32 + FRAMING_BYTES
        s = SparseCSR.from_coo(2, 2, [0], [1], [1.0])
        assert payload_nbytes(s) == s.nbytes + FRAMING_BYTES


def _payload_zoo():
    """One value of every shape a snapshot save can be handed: the payloads
    of ``repro.util.payload`` and what is not one."""
    from repro.matrix import DenseMatrix, SparseCSC, SparseCSR, Vector
    from repro.matrix.block import BlockSet, MatrixBlock

    rng = np.random.default_rng(5)
    dense = rng.random((3, 4))
    dense[dense < 0.5] = 0.0
    blocks = BlockSet(0)
    blocks.add(MatrixBlock(0, 0, DenseMatrix(rng.random((2, 3)))))
    blocks.add(MatrixBlock(1, 2, SparseCSR.from_dense(dense)))
    leaves = {
        "none": lambda: None,
        "int": lambda: 7,
        "float": lambda: 2.5,
        "np-scalar": lambda: np.float64(1.5),
        "str": lambda: "résumé",
        "ndarray": lambda: rng.random(5),
        "vector": lambda: Vector(rng.random(6)),
        "dense": lambda: DenseMatrix(rng.random((2, 2))),
        "csr": lambda: SparseCSR.from_dense(dense),
        "csc": lambda: SparseCSC.from_dense(dense),
        "block-set-dict": blocks.freeze_view_dict,
    }
    zoo = dict(leaves)
    zoo["list"] = lambda: [make() for make in leaves.values()]
    zoo["tuple"] = lambda: tuple(make() for make in leaves.values())
    zoo["dict"] = lambda: {name: make() for name, make in leaves.items()}
    zoo["nested"] = lambda: {"a": [leaves["vector"](), (leaves["csr"](), 3)], "b": {"c": leaves["ndarray"]()}}
    zoo["object"] = object
    zoo["live-block-set"] = lambda: blocks
    return zoo


def _arrays_of(payload):
    return [array for leaf in leaves(payload)[1] for array in arrays(leaf)]


#: The zoo entries a snapshot partition can be: the payload protocol's
#: classes and block sets of them.
_SNAPSHOT_PAYLOADS = {"vector", "dense", "csr", "csc", "block-set-dict"}


def _saver(payload):
    """A one-place snapshot and a call saving *payload* as its one partition."""
    from repro.resilience.snapshot import DistObjectSnapshot
    from repro.runtime import Runtime

    rt = Runtime(1)
    snap = DistObjectSnapshot(rt, rt.world, backups=0)
    return rt, snap, lambda: rt.finish_all(rt.world, lambda ctx: snap.save_from(ctx, 0, payload))


class TestFreezeAndSize:
    """The snapshot save's one walk over a payload: it freezes like
    ``freeze_payload`` and sizes like ``payload_nbytes`` every leaf and
    block set, and refuses any other before writing a copy, as every entry
    point of the format refuses what is not a payload (a bare ndarray is a
    parity block: a payload, never a partition)."""

    @pytest.mark.parametrize("name", sorted(_payload_zoo()))
    def test_equals_the_two_walks(self, name):
        payload = _payload_zoo()[name]()
        rt, snap, save = _saver(payload)
        if name not in _SNAPSHOT_PAYLOADS:
            if name != "ndarray":
                for walk in (leaves, payload_nbytes, freeze_payload, payload_checksum, corrupt_payload):
                    with pytest.raises(TypeError, match="is not a snapshot payload"):
                        walk(payload)
            with pytest.raises(TypeError, match="cannot snapshot"):
                save()
            assert rt.heap_of(0).keys_with_prefix(("snap",)) == []
            return
        expected = payload_nbytes(payload)
        save()
        assert snap.total_nbytes == expected
        assert payload_frozen(payload)
        assert payload_nbytes(payload) == expected  # freezing never changes a size
        for array in _arrays_of(payload):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_zoo_has_arrays_to_freeze(self):
        assert len(_arrays_of(_payload_zoo()["block-set-dict"]())) == 4


class TestVersionTokens:
    def test_a_token_costs_no_python_frame(self):
        import types

        assert not isinstance(next_version, types.FunctionType)
        a, b = next_version(), next_version()
        assert b == a + 1

    def test_floor_fast_forwards_the_one_counter(self):
        """``ensure_version_floor`` advances the counter every from-imported
        ``next_version`` is bound to; it never swaps in a new one."""
        counter = versioning._version_counter
        floor = next_version() + 1000
        ensure_version_floor(floor)
        assert versioning._version_counter is counter
        assert versioning.next_version is next_version
        assert next_version() == floor  # the name imported above, not a re-import
        ensure_version_floor(5)  # already past: burns one token, never goes back
        assert next_version() == floor + 2
        ensure_version_floor(floor + 4)  # the very next token: nothing to skip
        assert next_version() == floor + 4


class TestLoc:
    def test_count_loc_skips_blank_and_comments(self):
        source = "x = 1\n\n# comment\n  # indented comment\ny = 2\n"
        assert count_loc(source) == 2

    def test_loc_of_object(self):
        def sample():
            a = 1
            return a

        assert loc_of_object(sample) == 3

    def test_report_formatting(self):
        rows = [AppLocRow("App", 10, 20, 3, 4)]
        report = loc_report(rows)
        assert "Application" in report and "App" in report
