"""Exact call counts of a finished ``cProfile`` run, per code object.

``pstats`` keys its table by ``(file, line, name)``.  Every dataclass-generated
method shares one such key — each ``__init__`` is ``('<string>', 2,
'__init__')`` — so one overwrites the others and ``Stats.total_calls`` misses
their calls (``MessageFate``, ``TransferEvent``, ``FinishEvent``, ...).
``Profile.getstats()`` keeps one entry per code object.
"""

import cProfile
from typing import Dict


def calls_by_code(profile: cProfile.Profile) -> Dict[object, int]:
    """``{code object: calls}``; ``fn.__code__`` looks one function up, and
    the values sum to the profile's total."""
    counts: Dict[object, int] = {}
    for entry in profile.getstats():
        counts[entry.code] = counts.get(entry.code, 0) + entry.callcount
    return counts
