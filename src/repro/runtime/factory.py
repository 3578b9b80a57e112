"""The single entry point for constructing a wired runtime.

Every front end (CLI, chaos campaigns, benchmark harness, service layer)
used to hand-roll ``Runtime(...)`` with slightly different keyword soups.
:func:`make_runtime` is the one place runtimes are assembled now, so pool
and lease wiring — and any future construction-time concern — has a single
seam instead of half a dozen copies.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.cost import CostModel
from repro.runtime.failure import TransientFaultModel
from repro.runtime.runtime import Runtime


def make_runtime(
    nplaces: int,
    *,
    cost: Optional[CostModel] = None,
    resilient: bool = False,
    spares: int = 0,
    trace: bool = False,
    faults: Optional[TransientFaultModel] = None,
) -> Runtime:
    """Build a :class:`Runtime` (and its place pool) in one call.

    Parameters mirror ``Runtime.__init__`` plus the transient-fault wiring
    that callers otherwise bolt on afterwards.  ``spares`` places go into
    the pool's shared reserve; carve leases with ``rt.pool.lease(...)`` or
    let single-job paths fall back to ``rt.default_lease``.
    """
    rt = Runtime(
        nplaces,
        cost=cost if cost is not None else CostModel.zero(),
        resilient=resilient,
        spares=spares,
        trace=trace,
    )
    if faults is not None:
        rt.set_faults(faults)
    return rt
