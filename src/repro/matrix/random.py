"""Deterministic initialization for distributed matrices.

Two requirements drive this module:

1. **Per-block determinism** — a distributed matrix initialized over any
   place group must hold the same logical values, so a failure-and-restore
   run can be compared element-wise against a failure-free run.  Dense
   blocks are therefore seeded from ``(seed, rb, cb)`` via
   ``np.random.SeedSequence`` spawn keys.

2. **Grid independence for sparse graphs** — the PageRank link matrix must
   be the *same logical matrix* under any blocking, because the
   shrink-rebalance restore changes the grid.  We synthesize edges with a
   stateless integer hash (splitmix64) per ``(column, k)`` pair, so the
   matrix is a pure function of ``(seed, n, out_degree)``.  The link graph
   is keyed and sorted once: every edge is hashed straight into a sorted
   linear key (no COO triplets) and compressed to one row-major,
   duplicate-coalesced CSR per process and key, frozen, and every block
   under every grid is a region extraction from it (a contiguous row-range
   slice for the full-width blocks the apps use).

Everything generated here — dense blocks, the link graph, the zero block a
fresh allocation aliases — is served frozen from one memo and shared
copy-on-write.
"""

from __future__ import annotations

import numpy as np

from repro.matrix.dense import DenseMatrix
from repro.matrix.sparse import _INDEX_DTYPE, SparseCSR, _compress_sorted
from repro.util.validation import check_positive, require


#: Byte budget of :data:`_input_memo`: every input the repo's sweeps,
#: campaigns and streams generate fits several times over (the largest, the
#: 44-place link graph, is 70 MB).
_INPUT_MEMO_BYTES = 256 << 20


class _InputMemo:
    """Insertion-ordered, byte-budgeted memo of frozen generated inputs.

    Dense blocks and link graphs are pure functions of their key, so every
    run, checkpoint and restore shares one copy (``touch()`` detaches).
    """

    def __init__(self, budget: int):
        self.budget, self.nbytes, self.entries = budget, 0, {}

    def get(self, key, build):
        """The frozen input under *key*, from ``build()`` on first use.

        Oldest entries are evicted until the new one fits; one larger than
        the whole budget is not kept (it is built per call).
        """
        found = self.entries.get(key)
        if found is None:
            found = build().freeze_view()
            if found.nbytes <= self.budget:
                self.nbytes += found.nbytes
                while self.nbytes > self.budget:
                    self.nbytes -= self.entries.pop(next(iter(self.entries))).nbytes
                self.entries[key] = found
        return found


_input_memo = _InputMemo(_INPUT_MEMO_BYTES)


def block_rng(seed: int, rb: int, cb: int) -> np.random.Generator:
    """A generator deterministically derived from ``(seed, rb, cb)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rb, cb)))


def random_dense_block(seed: int, rb: int, cb: int, rows: int, cols: int) -> DenseMatrix:
    """Uniform [0, 1) dense block, reproducible per block coordinates: a
    frozen alias of the memoized block (``touch()`` detaches a writer)."""
    return _input_memo.get(
        (seed, rb, cb, rows, cols),
        lambda: DenseMatrix(block_rng(seed, rb, cb).random((rows, cols))),
    ).freeze_view()


def zero_dense_block(rows: int, cols: int) -> DenseMatrix:
    """A frozen alias of the one shared zero block of this shape (``touch()`` detaches)."""
    zeros = _input_memo.get(("zeros", rows, cols), lambda: DenseMatrix.make(rows, cols))
    return zeros.freeze_view()


def random_vector(seed: int, n: int, tag: int = 0) -> np.ndarray:
    """Uniform [0, 1) vector, reproducible from ``(seed, tag)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag,))).random(n)


def random_sparse_block(
    seed: int, rb: int, cb: int, rows: int, cols: int, density: float
) -> SparseCSR:
    """Random CSR block with ``round(density * rows * cols)`` non-zeros."""
    require(0.0 <= density <= 1.0, f"density must be in [0,1], got {density}")
    total = rows * cols
    nnz = int(round(density * total))
    if total == 0 or nnz == 0:
        return SparseCSR.empty(rows, cols)
    rng = block_rng(seed, rb, cb)
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
    shrink-rebalance restore requires: any block is a region of the one
    memoized global CSR.
    """

    def __init__(self, n: int, out_degree: int, seed: int = 0):
        check_positive(n, "n")
        check_positive(out_degree, "out_degree")
        self.n = n
        self.out_degree = out_degree
        self.seed = seed

    def global_csr(self) -> SparseCSR:
        """The whole matrix, keyed, sorted and coalesced once per process and key.

        Each edge is hashed straight into its row-major linear key
        ``dest * n + src`` and the keys are sorted in place.  Equal keys are
        indistinguishable and every addend is the same ``1/out_degree``, so
        an unstable sort gives the bytes a stable triplet build would.
        """

        def build() -> SparseCSR:
            n, src = np.uint64(self.n), np.arange(self.n, dtype=np.uint64)[:, None]
            with np.errstate(over="ignore"):
                key = src * np.uint64(0x100000001B3) + np.arange(
                    self.out_degree, dtype=np.uint64
                )
                key += np.uint64(self.seed) * _GOLDEN
            _splitmix64(key)
            key %= n
            key *= n
            key += src
            key = key.reshape(-1).view(_INDEX_DTYPE)
            key.sort()
            weights = np.full(len(key), 1.0 / self.out_degree)
            return SparseCSR._build(
                self.n, self.n, *_compress_sorted(self.n, self.n, key, weights)
            )

        return _input_memo.get((self.seed, self.n, self.out_degree), build)

    def block(self, r0: int, r1: int, c0: int, c1: int) -> SparseCSR:
        """The sub-matrix ``[r0:r1, c0:c1]`` as a CSR block.

        A full-width block shares the memoized graph's ``indices``/``values``
        copy-on-write; a range outside ``[0, n]`` raises.
        """
        return self.global_csr().sub_matrix(r0, r1, c0, c1)

    def nnz_estimate(self) -> int:
        """Upper bound on total stored entries (duplicates coalesce)."""
        return self.n * self.out_degree
