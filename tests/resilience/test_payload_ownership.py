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
    """Every backing array of a live payload or of a snapshot copy."""
    if isinstance(payload, np.ndarray):  # a parity block
        return [payload]
    if isinstance(payload, BlockSet):
        payload = {block.key: block.data for block in payload}
    parts = payload.values() if isinstance(payload, dict) else [payload]
    return [array for part in parts for array in part.payload_arrays()]


def _live(obj):
    return [_arrays(obj.payload_at_index(i)) for i in range(obj.group.size)]


def _saved(obj, snap):
    return [
        obj.runtime.heap_of(snap.group[key].id).get(snap._rows[key][0][2])
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


# -- the ownership audit (ROADMAP 5(b)) ---------------------------------------


def _buffer_owner(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _shared_buffers(rt):
    """Per buffer reached from two places' heaps, or from both a snapshot copy
    and a live GML payload: the ``(place, key)`` uses through which it is
    writable (through the array itself or at the buffer's owner)."""
    reached = {}
    for pid, heap in rt._heaps.items():
        for key, value in heap._store.items():
            kind = "live" if key[0] == "gml" else "copy"
            for array in _arrays(value):
                if array.size:
                    owner = _buffer_owner(array)
                    writable = array.flags.writeable or owner.flags.writeable
                    reached.setdefault(id(owner), []).append((pid, kind, key, writable))
    return [
        [(pid, key) for pid, _, key, writable in uses if writable]
        for uses in reached.values()
        if len({pid for pid, *_ in uses}) > 1 or len({kind for _, kind, *_ in uses}) > 1
    ]


def ownership_violations(rt):
    """The audit: a shared buffer must be read-only through every use."""
    return [writable for writable in _shared_buffers(rt) if writable]


def _replica_buffers(rt):
    """Buffers reached from two or more places through *live* payloads: the
    coherent replicas of the duplicated classes (and shared zero blocks)."""
    places_of = {}
    for pid, heap in rt._heaps.items():
        for key, value in heap._store.items():
            if key[0] == "gml":
                for array in _arrays(value):
                    if array.size:
                        places_of.setdefault(id(_buffer_owner(array)), set()).add(pid)
    return [owner for owner, places in places_of.items() if len(places) > 1]


def _run_with_shrink_rebalance(app_name):
    """A world run through a checkpoint, a kill and a shrink-rebalance restore
    (one-tile rows alias the snapshot), then on to the next checkpoint;
    audited before the world closes.  linreg and pagerank are campaign
    worlds; gnmf (duplicated *matrices*) is built here."""
    from repro import chaos
    from repro.resilience.executor import IterativeExecutor, RestoreMode
    from repro.runtime.failure import ScriptedKill

    if app_name == "gnmf":
        from repro.apps.data import GnmfWorkload
        from repro.apps.resilient.gnmf import GnmfResilient

        rt = Runtime(4, cost=CostModel.zero(), resilient=True)
        rt.injector.kill_at_iteration(3, iteration=4)
        app = GnmfResilient(rt, GnmfWorkload.small(iterations=10))
        executor = IterativeExecutor(
            rt, app, checkpoint_interval=3, mode=RestoreMode.SHRINK_REBALANCE
        )
        store = executor.store
    else:
        config = chaos.CampaignConfig(app=app_name, seed=1)
        kills = [ScriptedKill(place_id=3, iteration=config.checkpoint_interval + 1)]
        rt, _, store, executor = chaos._build_world(
            config, RestoreMode.SHRINK_REBALANCE, "blocking", kills
        )
    with rt:
        report = executor.run()
        assert report.restores == 1 and report.checkpoints >= 3
        assert not rt.injector.unfired()
        yield rt, store


@pytest.mark.parametrize("app_name", ["linreg", "pagerank", "gnmf"])
def test_no_writable_array_is_shared_after_a_rebalanced_restore(app_name):
    for rt, store in _run_with_shrink_rebalance(app_name):
        assert store.latest() is not None
        # The audit has something to audit: read-only inputs, replica tiers,
        # (pagerank) one-tile restored link blocks and the coherent replicas
        # of every duplicated vector / matrix all share frozen buffers.
        assert len(_shared_buffers(rt)) > 0
        assert len(_replica_buffers(rt)) > 0
        assert ownership_violations(rt) == []


def test_the_audit_catches_a_writable_array_shared_by_replicas():
    """A ``sync()`` that rebinds without freezing: every replica aliases the
    root's *writable* array, so one place's write would reach them all."""
    for rt, _ in _run_with_shrink_rebalance("pagerank"):
        dup = DupVector.make(rt, 5, rt.live_world()).init(1.0)
        assert ownership_violations(rt) == []
        dup.local().data.setflags(write=True)
        assert ownership_violations(rt) != []


def test_the_audit_catches_a_live_array_saved_without_freeze_view():
    for rt, _ in _run_with_shrink_rebalance("linreg"):
        live = next(
            value
            for key, value in rt.heap_of(1)._store.items()
            if key[0] == "gml" and any(a.flags.writeable for a in _arrays(value))
        )
        assert ownership_violations(rt) == []
        rt.heap_of(2).put(("snapb", 10**9, 1, 1), live)  # the live object, not an alias
        assert ownership_violations(rt) != []
