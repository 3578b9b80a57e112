"""The payload-ownership rule, checked on every ``Snapshottable``.

Payload arrays are shared frozen and copied only by the first ``touch()``
that writes them: a full-mode ``make_snapshot()`` aliases the live arrays,
the first API write detaches the live object and leaves the snapshot's
bytes and CRC alone, and a restore hands back exactly the saved bytes.  A
raw write to a frozen array raises — a missing ``touch()`` is fixed at the
writer, never by re-adding a copy.
"""

import numpy as np
import pytest

from repro.apps.data import CGWorkload
from repro.matrix.block import BlockSet
from repro.matrix.dense import DenseMatrix
from repro.matrix.distblock import DistBlockMatrix
from repro.matrix.distsparse import DistSparseRowMatrix
from repro.matrix.distvector import DistVector
from repro.matrix.dupmatrix import DupDenseMatrix
from repro.matrix.dupvector import DupVector
from repro.matrix.random import LinkMatrix, block_rng
from repro.runtime import CostModel, Runtime
from repro.util.checksum import payload_checksum

PLACES = 3


def _dist_block_dense(rt):
    return DistBlockMatrix.make_dense(rt, 12, 4, 6, 1).init_random(3)


def _dist_block_sparse(rt):
    return DistBlockMatrix.make_sparse(rt, 12, 12, 6, 1).init_link_matrix(LinkMatrix(12, 3, seed=3))


def _dist_vector(rt):
    return DistVector.make(rt, 10).init_random(3)


def _dup_vector(rt):
    return DupVector.make(rt, 10).init_random(3)


def _dup_dense(rt):
    return DupDenseMatrix.make(rt, DenseMatrix.random(3, 4, block_rng(3, 0, 0)))


def _dist_sparse_rows(rt):
    workload = CGWorkload(rows_per_place=4, stride=3)
    return DistSparseRowMatrix.make(rt, 12, builder=lambda lo, hi: workload.band(12, lo, hi))


def _scale_bands(matrix):
    # A static operand: its only writer is the single-place SparseCSR API.
    for index in range(matrix.group.size):
        matrix.band(index).scale(2.0)


CASES = {
    "DistBlockMatrix-dense": (_dist_block_dense, lambda m: m.scale(2.0)),
    "DistBlockMatrix-sparse": (_dist_block_sparse, lambda m: m.scale(2.0)),
    "DistVector": (_dist_vector, lambda v: v.scale(2.0)),
    "DupVector": (_dup_vector, lambda v: v.scale(2.0)),
    "DupDenseMatrix": (_dup_dense, lambda m: m.scale(2.0)),
    "DistSparseRowMatrix": (_dist_sparse_rows, _scale_bands),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    build, write = CASES[request.param]
    obj = build(Runtime(PLACES, cost=CostModel.zero()))
    return obj, write


def _arrays(payload):
    """Every backing array of a live payload or of a snapshot payload."""
    if isinstance(payload, BlockSet):
        payload = {block.key: block.data for block in payload}
    parts = payload.values() if isinstance(payload, dict) else [payload]
    return [array for part in parts for array in part.payload_arrays()]


def _live(obj):
    return [_arrays(obj.payload_at_index(i)) for i in range(obj.group.size)]


def _saved(obj, snap):
    return [
        obj.runtime.heap_of(snap.group[key].id).get(snap._heap_key(key, 0))
        for key in snap.saved_keys()
    ]


def _bytes(per_place):
    return [[array.tobytes() for array in arrays] for arrays in per_place]


def test_snapshot_aliases_live_payload_until_first_write(case):
    obj, write = case
    snap = obj.make_snapshot()  # base=None: a full-mode save
    saved = _saved(obj, snap)
    assert len(saved) == PLACES
    for live, payload in zip(_live(obj), saved):
        for mine, theirs in zip(live, _arrays(payload)):
            assert mine.size == 0 or np.shares_memory(mine, theirs)
            assert not theirs.flags.writeable
    before = _bytes(_arrays(payload) for payload in saved)
    crcs = [payload_checksum(payload) for payload in saved]

    write(obj)

    assert _bytes(_live(obj)) != before
    assert _bytes(_arrays(payload) for payload in saved) == before
    assert [payload_checksum(payload) for payload in saved] == crcs
    assert [snap._expected_checksum(key) for key in snap.saved_keys()] == crcs
    assert snap.verify_all() == (PLACES * (snap.backups + 1), 0)


def test_restore_returns_exactly_the_saved_bytes(case):
    obj, write = case
    saved = _bytes(_live(obj))
    snap = obj.make_snapshot()
    write(obj)
    obj.restore_snapshot(snap)
    assert _bytes(_live(obj)) == saved
    # A restore may adopt the snapshot's arrays; writing again must detach.
    write(obj)
    obj.restore_snapshot(snap)
    assert _bytes(_live(obj)) == saved


def test_raw_write_to_a_frozen_array_raises(case):
    obj, _ = case
    obj.make_snapshot()
    for arrays in _live(obj):
        for array in arrays:
            with pytest.raises(ValueError):
                array[...] = 0
