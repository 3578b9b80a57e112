"""Shared utilities: the snapshot payload format, validation, LOC counting.

:mod:`repro.util.payload` is the one definition of what a snapshot holds —
a leaf (a class declaring ``ARRAY_NAMES``), a block set ``{(rb, cb): leaf}``
or a bare ndarray — and sizes, freezes and version-tokens it;
:mod:`repro.util.checksum` hashes and corrupts the same three shapes.
These helpers are deliberately dependency-free (NumPy only) so every other
subpackage can import them without cycles.
"""

from repro.util.payload import payload_nbytes
from repro.util.loc import count_loc, loc_of_object, loc_report
from repro.util.validation import (
    check_index,
    check_positive,
    check_same_length,
    require,
)

__all__ = [
    "payload_nbytes",
    "count_loc",
    "loc_of_object",
    "loc_report",
    "check_index",
    "check_positive",
    "check_same_length",
    "require",
]
