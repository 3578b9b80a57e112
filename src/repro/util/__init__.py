"""Shared utilities: validation, payload sizing, LOC counting.

These helpers are deliberately dependency-free (NumPy only) so every other
subpackage can import them without cycles.
"""

from repro.util.bytesize import payload_nbytes
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
