"""Deterministic initialization for distributed matrices.

Two requirements drive this module:

1. **Per-block determinism** — a distributed matrix initialized over any
   place group must hold the same logical values, so a failure-and-restore
   run can be compared element-wise against a failure-free run.  Row
   blocks are therefore seeded from ``(seed, rb, 0)`` via
   ``np.random.SeedSequence`` spawn keys: a block is a pure function of
   ``(seed, rb, rows, cols)``.  A dense matrix's row blocks are drawn
   straight into consecutive rows of one C-contiguous strip, so each block
   is a row view of it and any run of whole rows — what a shrink-rebalance
   restore assembles a new block from — is one view too.

2. **Grid independence for sparse graphs** — the PageRank link matrix must
   be the *same logical matrix* under any blocking, because the
   shrink-rebalance restore changes the grid.  We synthesize edges with a
   stateless integer hash (splitmix64) per ``(column, k)`` pair, so the
   matrix is a pure function of ``(seed, n, out_degree)``.  The link graph
   is keyed and sorted once: every edge is hashed straight into a sorted
   linear key (no COO triplets) and compressed to one row-major,
   duplicate-coalesced CSR per process and key, frozen, and every block
   under every grid is a contiguous row-range slice of it.

Everything generated here — dense strips, the link graph, the zero block a
fresh allocation aliases — is served frozen from one memo and shared
copy-on-write.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.matrix.dense import DenseMatrix
from repro.matrix.grid import offsets_of
from repro.matrix.sparse import _CHUNK, SparseCSR, _compress_uniform, _require_indexable
from repro.util.validation import check_positive, require


#: Byte budget of :data:`_input_memo`, charged each entry's ``nbytes``: a
#: link graph's modeled size (16 bytes per entry), of which its ``int32``
#: indices hold 12.  Every input the repo's sweeps, campaigns and streams
#: generate fits several times over (the largest, the 44-place link graph,
#: is charged 70 MB and holds 53 MB).
_INPUT_MEMO_BYTES = 256 << 20


class _InputMemo:
    """Insertion-ordered, byte-budgeted memo of frozen generated inputs.

    Dense strips and link graphs are pure functions of their key, so every
    run, checkpoint and restore shares one copy (``touch()`` detaches).
    """

    def __init__(self, budget: int):
        self.budget, self.nbytes, self.entries = budget, 0, {}

    def get(self, key, build, serves=None):
        """The input under *key*, from ``build()`` (which returns it frozen)
        on first use, or when ``serves(entry)`` rejects the entry held: that
        one leaves the memo before its successor is built, so the memo never
        holds both.

        Oldest entries are evicted until the new one fits; one larger than
        the whole budget is not kept (it is built per call).
        """
        found = self.entries.get(key)
        if found is not None and serves is not None and not serves(found):
            self.nbytes -= self.entries.pop(key).nbytes
            found = None
        if found is None:
            found = build()
            if found.nbytes <= self.budget:
                self.nbytes += found.nbytes
                while self.nbytes > self.budget:
                    self.nbytes -= self.entries.pop(next(iter(self.entries))).nbytes
                self.entries[key] = found
        return found


_input_memo = _InputMemo(_INPUT_MEMO_BYTES)


def block_rng(seed: int, rb: int) -> np.random.Generator:
    """A generator deterministically derived from ``(seed, rb)``."""
    # Spawn key ``(rb, 0)``: the retired block-column index stays, so every
    # random input keeps the values its pinned results were run on.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rb, 0)))


class DenseStrip:
    """A dense input with row blocks of *sizes*: block ``rb`` is
    ``block_rng(seed, rb).random((sizes[rb], cols))``, drawn straight
    into rows ``offsets[rb]:offsets[rb + 1]`` of one frozen C-contiguous
    array, so every block is a row view of it."""

    __slots__ = ("sizes", "offsets", "data")

    def __init__(self, seed: int, sizes: Tuple[int, ...], cols: int):
        self.sizes, self.offsets = sizes, offsets_of(sizes)
        self.data = np.empty((self.offsets[-1], cols))
        for rb, (r0, r1) in enumerate(zip(self.offsets, self.offsets[1:])):
            block_rng(seed, rb).random(out=self.data[r0:r1])
        self.data.setflags(write=False)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def block(self, rb: int) -> DenseMatrix:
        """Block *rb*: a frozen alias of its rows (``touch()`` detaches a writer)."""
        r0, r1 = self.offsets[rb], self.offsets[rb + 1]
        return DenseMatrix.from_payload_arrays((r1 - r0, self.data.shape[1]), (self.data[r0:r1],))


def dense_strip(seed: int, sizes: Sequence[int], cols: int) -> DenseStrip:
    """The memoized strip whose leading blocks have row sizes *sizes*.

    Strips are keyed by their first block's height, and one serves every
    grid whose row sizes are a prefix of its own — every smaller uniform
    grid of a weak-scaling input.  A grid the stored strip does not start
    with replaces it: the old strip is released before the new one is drawn.
    """
    sizes = tuple(sizes)
    return _input_memo.get(
        ("strip", seed, sizes[0], cols),
        lambda: DenseStrip(seed, sizes, cols),
        serves=lambda strip: strip.sizes[: len(sizes)] == sizes,
    )


def random_dense_block(seed: int, rb: int, rows: int, cols: int) -> DenseMatrix:
    """Uniform [0, 1) dense row block, reproducible per block row: a frozen
    alias of its rows of the memoized strip (``touch()`` detaches a
    writer)."""
    return dense_strip(seed, (rows,) * (rb + 1), cols).block(rb)


def zero_dense_block(rows: int, cols: int) -> DenseMatrix:
    """A frozen alias of the one shared zero block of this shape (``touch()`` detaches)."""
    zeros = _input_memo.get(
        ("zeros", rows, cols), lambda: DenseMatrix.make(rows, cols).freeze_view()
    )
    return zeros.freeze_view()


def random_vector(seed: int, n: int, tag: int = 0) -> np.ndarray:
    """Uniform [0, 1) vector, reproducible from ``(seed, tag)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag,))).random(n)


def random_sparse_block(seed: int, rb: int, rows: int, cols: int, density: float) -> SparseCSR:
    """Random CSR block with ``round(density * rows * cols)`` non-zeros."""
    require(0.0 <= density <= 1.0, f"density must be in [0,1], got {density}")
    total = rows * cols
    nnz = int(round(density * total))
    if total == 0 or nnz == 0:
        return SparseCSR.empty(rows, cols)
    rng = block_rng(seed, rb)
    positions = rng.choice(total, size=min(nnz, total), replace=False)
    return SparseCSR.from_coo(
        rows, cols, positions // cols, positions % cols, rng.random(len(positions))
    )


# -- grid-independent synthetic link matrix (PageRank workload) -------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(z: np.ndarray) -> None:
    """Vectorized splitmix64 finalizer, **in place**: *z* becomes a uniform
    64-bit hash of its old contents."""
    with np.errstate(over="ignore"):
        z += _GOLDEN
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)


class LinkMatrix:
    """A synthetic column-stochastic web-link matrix of order *n*.

    Column *j* has exactly *out_degree* out-links whose destinations are
    ``hash(seed, j, k) mod n`` for ``k in 0..out_degree-1`` (duplicate
    destinations coalesce, summing their weight, exactly as a multigraph
    collapses).  Every column sums to 1, so the PageRank iteration
    ``P = αGP + (1-α)/n`` preserves ``sum(P) = 1``.

    Because destinations are a pure function of ``(seed, j, k)``, the
    logical matrix is identical under every grid, which the
    shrink-rebalance restore requires: any row block is a row range of the
    one memoized global CSR.  A graph of ``n * out_degree >= 2**31`` edges is
    refused at construction: its ``int32`` indices might not fit.
    """

    def __init__(self, n: int, out_degree: int, seed: int = 0):
        check_positive(n, "n")
        check_positive(out_degree, "out_degree")
        _require_indexable(n, n, n * out_degree)
        self.n = n
        self.out_degree = out_degree
        self.seed = seed

    def global_csr(self) -> SparseCSR:
        """The whole matrix, keyed, sorted and coalesced once per process and key.

        Every addend of a coalesced run is the same ``1/out_degree`` and no
        run is longer than ``out_degree`` (one source column's links), so
        :func:`_compress_uniform` compresses the sorted keys in chunk-sized
        passes: the build peaks at the keys plus 5 bytes per edge, about
        1.1x the finished graph's host arrays.
        """

        def build() -> SparseCSR:
            return SparseCSR._build(
                self.n,
                self.n,
                *_compress_uniform(
                    self.n, self.n, self._sorted_keys(), 1.0 / self.out_degree, self.out_degree
                ),
            ).freeze_view()

        return _input_memo.get((self.seed, self.n, self.out_degree), build)

    def _sorted_keys(self) -> np.ndarray:
        """Every edge's row-major linear key ``dest * n + src``, sorted in place.

        The keys are hashed straight into the one key array, ``_CHUNK``
        edges' worth of source columns at a time, so the hash's temporaries
        are chunk-sized.  Equal keys are indistinguishable and every addend
        is the same ``1/out_degree``, so an unstable sort gives the bytes a
        stable triplet build would.
        """
        n, degree = np.uint64(self.n), self.out_degree
        with np.errstate(over="ignore"):
            salt = np.arange(degree, dtype=np.uint64) + np.uint64(self.seed) * _GOLDEN
        key = np.empty((self.n, degree), dtype=np.uint64)
        step = max(1, _CHUNK // degree)
        for s0 in range(0, self.n, step):
            src = np.arange(s0, min(s0 + step, self.n), dtype=np.uint64)[:, None]
            z = key[s0 : s0 + step]
            np.multiply(src, np.uint64(0x100000001B3), out=z)
            z += salt
            _splitmix64(z)
            z %= n
            z *= n
            z += src
        key = key.reshape(-1).view(np.int64)
        key.sort()
        return key

    def block(self, r0: int, r1: int, c0: int, c1: int) -> SparseCSR:
        """The sub-matrix ``[r0:r1, c0:c1]`` as a CSR block.

        A full-width block shares the memoized graph's ``indices``/``values``
        copy-on-write; a range outside ``[0, n]`` raises.
        """
        return self.global_csr().sub_matrix(r0, r1, c0, c1)

    def nnz_estimate(self) -> int:
        """Upper bound on total stored entries (duplicates coalesce)."""
        return self.n * self.out_degree
