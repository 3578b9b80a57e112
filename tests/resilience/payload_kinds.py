"""The payload shapes a snapshot partition takes, as ``payload_fn(index)``s.

What the GML objects save (``docs/api.md``, "Payload protocol"): a ``Vector``,
a ``DenseMatrix``, a ``SparseCSR`` row band, and the block sets
``{(rb, cb): block}`` of a dense or sparse ``DistBlockMatrix``.  The sparse
kinds are ragged on purpose — a zero-nnz band, members of different byte
lengths in one parity group — because padding and truncation are where an
XOR code over variable-length members goes wrong.
"""

import numpy as np

from repro.matrix.dense import DenseMatrix
from repro.matrix.sparse import SparseCSR
from repro.matrix.vector import Vector
from repro.util.checksum import payload_checksum
from repro.util.payload import arrays, leaves


def band(index, rows=4, cols=6):
    """A ``rows x cols`` CSR band with ``index % 3`` entries per row (so
    every third band stores nothing), values a function of *index*."""
    per_row = index % 3
    rows_idx = np.repeat(np.arange(rows), per_row)
    cols_idx = np.tile(np.arange(per_row) * 2 + index % 2, rows)
    return SparseCSR.from_coo(rows, cols, rows_idx, cols_idx, rows_idx + 10.0 * index + 1.0)


KINDS = {
    "vector": lambda i: Vector.of([float(i)] * 8),
    "dense": lambda i: DenseMatrix(np.arange(12.0).reshape(3, 4) + i),
    "csr": band,
    "dense-blocks": lambda i: {
        (i, cb): DenseMatrix(np.full((2, 3 + cb), i + cb / 4)) for cb in range(2)
    },
    # One block on even members, two on odd ones, each of a different nnz.
    "csr-blocks": lambda i: {(i, cb): band(i + cb, rows=3 + cb) for cb in range(1 + i % 2)},
}


def same_bytes(got, want):
    """Assert that leaf *got* is *want* byte for byte: same type and shape,
    and per backing array the same dtype, shape and bytes."""
    assert type(got) is type(want) and got.shape == want.shape
    for a, b in zip(arrays(got), arrays(want)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def same_payload(got, want) -> bool:
    """*got* is *want* again: same keys in the same order, per leaf the same
    type and shape, and the same checksum (which tags each array's dtype and
    shape before its bytes)."""
    (keys, mine), (want_keys, theirs) = leaves(got), leaves(want)
    return keys == want_keys and payload_checksum(got) == payload_checksum(want) and all(
        type(a) is type(b) and getattr(a, "shape", None) == getattr(b, "shape", None)
        for a, b in zip(mine, theirs)
    )
