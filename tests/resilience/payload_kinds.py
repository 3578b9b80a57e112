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


def same_payload(got, want) -> bool:
    """*got* is *want* again: same type (per block, same keys in the same
    order), same arrays' dtypes and shapes, same bytes."""
    if type(got) is not type(want):
        return False
    if isinstance(want, dict):
        return list(got) == list(want) and all(same_payload(got[k], want[k]) for k in want)
    return (
        getattr(got, "shape", None) == getattr(want, "shape", None)
        and [(a.dtype, a.shape) for a in got.payload_arrays()]
        == [(a.dtype, a.shape) for a in want.payload_arrays()]
        and payload_checksum(got) == payload_checksum(want)
    )
