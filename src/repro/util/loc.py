"""Lines-of-code counting for the Table II reproduction.

The paper compares the programming effort of the non-resilient and resilient
versions of LinReg, LogReg and PageRank by counting lines of code, including
the LOC of the ``checkpoint`` and ``restore`` methods specifically.  We count
our *own* application sources with the same convention the paper's Table II
implies: non-blank, non-comment lines.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Iterable, List


def _is_code_line(line: str) -> bool:
    stripped = line.strip()
    if not stripped:
        return False
    if stripped.startswith("#"):
        return False
    return True


def count_loc(source: str) -> int:
    """Count non-blank, non-comment lines in *source*.

    Docstrings are counted as code (they are statements), matching a naive
    line count of a working program; the paper does not state a docstring
    convention.  The resilient app's own module (the lines resilience adds)
    therefore includes its module and class docstrings.
    """
    return sum(1 for line in source.splitlines() if _is_code_line(line))


def loc_of_object(obj: Any) -> int:
    """Count LOC of a function, method, class, or module via its source."""
    return count_loc(inspect.getsource(obj))


@dataclass
class AppLocRow:
    """One row of the Table II reproduction."""

    application: str
    nonresilient_total: int
    resilient_total: int
    checkpoint_loc: int
    restore_loc: int

    def as_tuple(self) -> tuple:
        return (
            self.application,
            self.nonresilient_total,
            self.resilient_total,
            self.checkpoint_loc,
            self.restore_loc,
        )


def loc_report(rows: Iterable[AppLocRow]) -> str:
    """Render Table II-style rows as an aligned text table."""
    header = ("Application", "Non-resilient", "Resilient", "Checkpoint", "Restore")
    table: List[tuple] = [header] + [r.as_tuple() for r in rows]
    widths = [max(len(str(row[i])) for row in table) for i in range(len(header))]
    lines = []
    for row in table:
        lines.append("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
