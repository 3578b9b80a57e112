"""Sparse indices are stored as ``int32`` and modeled as ``int64``.

``SparseCSR`` / ``SparseCSC`` hold ``indptr`` and ``indices`` at half the
width of GML's ``Long``; every byte count, checksum and parity stream reads
them as ``int64`` (``repro.util.payload.MODELED_INDEX``), so a leaf costs
and hashes what its ``int64`` twin does.  A matrix whose indices would not
fit is refused before anything of its size is allocated.
"""

import tracemalloc

import numpy as np
import pytest

from repro.matrix.distblock import DistBlockMatrix
from repro.matrix.grid import Grid
from repro.matrix.random import LinkMatrix
from repro.matrix.sparse import SparseCSC, SparseCSR
from repro.resilience.parity import ParityObjectSnapshot, _decode, _encode
from repro.resilience.placement import ParityPlacement
from repro.resilience.snapshot import DistObjectSnapshot
from repro.runtime import CostModel, Runtime
from repro.runtime.place import PlaceGroup
from repro.util.checksum import corrupt_payload, payload_checksum
from repro.util.payload import arrays, leaves, payload_nbytes
from tests.resilience.payload_kinds import KINDS, band


def _int32(matrix):
    assert matrix.indptr.dtype == np.int32 and matrix.indices.dtype == np.int32, matrix
    return matrix


def _wide_twin(leaf):
    """*leaf* with its index arrays held as ``int64``, bypassing every
    constructor (which would narrow them)."""
    twin = object.__new__(type(leaf))
    twin.m, twin.n, twin.version = leaf.m, leaf.n, leaf.version
    twin.indptr, twin.indices = leaf.indptr.astype(np.int64), leaf.indices.astype(np.int64)
    twin.values = leaf.values
    return twin


def _forged(m, nnz):
    """A one-column CSR claiming *m* rows and *nnz* entries while holding
    none: a pointer array of two entries, no index or value."""
    block = object.__new__(SparseCSR)
    block.m, block.n, block.version = m, 1, 0
    block.indptr = np.array([0, nnz], dtype=np.int32)
    block.indices, block.values = np.empty(0, dtype=np.int32), np.empty(0)
    return block


def _wide(payload):
    if type(payload) is dict:
        return {key: _wide_twin(leaf) for key, leaf in payload.items()}
    return _wide_twin(payload)


class TestStoredWidth:
    def test_builders(self):
        a = _int32(SparseCSR.from_coo(3, 4, [0, 2, 2], [1, 3, 3], [1.0, 2.0, 3.0]))
        for matrix in (
            SparseCSC.from_coo(3, 4, [0, 2], [1, 3], [1.0, 2.0]),
            SparseCSR.empty(3, 4),
            SparseCSC.empty(3, 4),
            SparseCSR(3, 4, np.array([0, 1, 1, 2], dtype=np.int64), [1, 3], [1.0, 2.0]),
            a.to_csc(),
            a.transpose(),
            a.to_csc().to_csr(),
            a.sub_matrix(0, 3, 1, 4),
            a.to_csc().sub_matrix(1, 3, 0, 4),
            SparseCSR.vstack([a.sub_matrix(0, 1, 0, 4), a.sub_matrix(1, 3, 0, 4)]),
        ):
            _int32(matrix)

    def test_link_graph(self):
        graph = _int32(LinkMatrix(500, 7, seed=3).global_csr())
        assert graph.indices.max() < 500

    def test_regridded_restore(self):
        """Shrink-rebalance restores of a random sparse matrix (row pieces
        of blocks built by ``from_coo``, stacked) and of a link matrix
        (joined views of the graph)."""
        for n, init in ((8, lambda g: g.init_random(7, density=0.3)),
                        (40, lambda g: g.init_link_matrix(LinkMatrix(40, 3, seed=1)))):
            rt = Runtime(4, cost=CostModel.zero())
            g = init(DistBlockMatrix.make_sparse(rt, 40, n, 8))
            ref = g.to_dense().data
            snap = g.make_snapshot()
            rt.kill(2)
            survivors = rt.live_world()
            g.remake(survivors, new_grid=Grid.partition(g.m, g.n, 3))
            g.restore_snapshot(snap)
            assert np.array_equal(g.to_dense().data, ref)
            for index in range(survivors.size):
                for block in g.block_set(index):
                    _int32(block.data)

    @pytest.mark.parametrize("kind", ["csr", "csr-blocks"])
    def test_parity_reconstructed_leaf(self, kind):
        rt = Runtime(6, cost=CostModel.zero())
        snap = ParityObjectSnapshot(rt, rt.world, placement=ParityPlacement(group=2))
        group = snap.group
        rt.finish_all(
            group, lambda ctx: snap.save_from(ctx, group.index_of(ctx.place),
                                              KINDS[kind](group.index_of(ctx.place) + 1))
        )
        rt.kill(2)
        pid, heap_key = snap.locate(2)
        assert heap_key[0] == "snapr"
        got = rt.heap_of(pid).get(heap_key)
        for leaf in leaves(got)[1]:
            _int32(leaf)
        assert payload_checksum(got) == payload_checksum(KINDS[kind](3))


@pytest.mark.parametrize(
    "request_",
    [
        lambda: SparseCSR.empty(2**31, 1),
        lambda: SparseCSC.empty(1, 2**31),
        lambda: SparseCSR.from_coo(4, 2**31, [], [], []),
        lambda: SparseCSC.from_coo(2**31, 4, [], [], []),
        lambda: SparseCSR(2**31, 4, [0], [], []),
        lambda: LinkMatrix(2**16, 2**15),  # 2**31 edges before coalescing
        lambda: SparseCSR.vstack([_forged(1, 2**30), _forged(1, 2**30)]),
        lambda: SparseCSR.vstack([_forged(2**30, 0), _forged(2**30, 0)]),
    ],
    ids=[
        "csr-empty", "csc-empty", "csr-coo", "csc-coo", "csr-arrays", "link-graph",
        "vstack-entries", "vstack-rows",
    ],
)
def test_a_matrix_past_int32_is_refused_before_allocating(request_):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="int32 indices"):
            request_()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("cls", [SparseCSR, SparseCSC])
def test_the_constructor_checks_indices_before_narrowing_them(cls):
    """An index or pointer past 2**31 would wrap into range if narrowed
    first: the public constructor validates at full width."""
    with pytest.raises(ValueError, match="index out of range"):
        cls(3, 3, [0, 1, 1, 1], [2**32 + 1], [1.0])
    with pytest.raises(ValueError, match="indptr end"):
        cls(3, 3, [0, 0, 0, 2**32 + 1], [1], [1.0])


def test_the_largest_fitting_link_graph_is_accepted():
    assert LinkMatrix(2**16, 2**15 - 1).nnz_estimate() == 2**31 - 2**16


@pytest.mark.parametrize("kind", ["csr", "csr-blocks"])
@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_an_int32_leaf_costs_and_hashes_as_its_int64_twin(kind, index):
    narrow = KINDS[kind](index)
    wide = _wide(narrow)
    for leaf in leaves(wide)[1]:
        assert leaf.indices.dtype == np.int64
    assert payload_nbytes(narrow) == payload_nbytes(wide)
    assert sum(leaf.nbytes for leaf in leaves(narrow)[1]) == sum(
        sum(a.nbytes for a in arrays(leaf)) for leaf in leaves(wide)[1]
    )
    assert payload_checksum(narrow) == payload_checksum(wide)
    assert payload_checksum(corrupt_payload(narrow)) == payload_checksum(corrupt_payload(wide))
    (stream, size, template), (wide_stream, wide_size, wide_template) = map(
        _encode, (narrow, wide)
    )
    assert np.array_equal(stream, wide_stream) and size == wide_size
    assert repr(template) == repr(wide_template)
    rebuilt = _decode(stream.copy(), template)
    assert payload_checksum(rebuilt) == payload_checksum(narrow)
    for leaf in leaves(rebuilt)[1]:
        _int32(leaf)


def test_a_save_and_a_cut_fetch_charge_modeled_bytes():
    """The snapshot's inline sizing: a save sizes a leaf as its ``int64``
    twin, and a remote fetch of a cut piece sends the piece's modeled bytes."""
    saved, sent = [], []
    for payload in (band(2), _wide_twin(band(2))):
        rt = Runtime(2, cost=CostModel.laptop(), trace=True)
        snap = DistObjectSnapshot(rt, rt.world, backups=0)
        rt.finish_all(PlaceGroup([rt.world[0]]), lambda ctx: snap.save_from(ctx, 0, payload))
        saved.append(snap.total_nbytes)
        rt.engine.timeline.clear()
        rt.finish_all(
            PlaceGroup([rt.world[1]]), lambda ctx: snap.fetch(ctx, 0, cut=(1, 3, 0, 6))
        )
        (fetch,) = rt.engine.timeline.of_kind("transfer")
        sent.append(fetch.nbytes / rt.cost.logical_scale)
    assert saved[0] == saved[1] == payload_nbytes(_wide_twin(band(2)))
    piece = _wide_twin(band(2).sub_matrix(1, 3, 0, 6))
    assert sent[0] == sent[1] == payload_nbytes(piece)
