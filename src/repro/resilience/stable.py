"""Stable-storage snapshots — the alternative the paper argues against.

The paper's introduction motivates *in-memory* checkpointing by contrast
with data-flow systems that reload intermediate state from reliable
storage each iteration ("implementing iterative algorithms as repeated
calls to MapReduce jobs is inefficient because of the encountered I/O
overhead").  :class:`StableObjectSnapshot` makes that alternative concrete
so the trade can be measured.  It is not a parallel implementation: it is
the tiered store of :mod:`repro.resilience.snapshot` with **no in-memory
tier** — an empty copy table and the disk tier switched on — so its ladder
starts, and ends, at the disk:

* saves write each partition to the shared stable store (one network hop to
  reach it, then the write serializes on the engine's shared disk
  :class:`~repro.engine.resource.Resource` at ``disk_byte_time`` — the
  single distributed-filesystem ingest path all places contend for);
* the store survives **any** set of place failures — including adjacent
  pairs and bursts that defeat the in-memory double store — because the
  data is not held in place heaps at all;
* loads read the whole partition back at disk+network rates from every
  restoring place and cut sub-blocks locally.

Every GML object's ``restore_snapshot`` works against it unchanged; a store
opts in with ``Protection(disk_only=True)``.  The same disk tier backs the
*fallback* of the in-memory stores (``Protection(stable_fallback=True)``),
where it is written at checkpoint time but only read once every in-memory
replica of a partition is gone.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.resilience.snapshot import DistObjectSnapshot
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import Runtime


class StableObjectSnapshot(DistObjectSnapshot):
    """A snapshot whose partitions live on reliable stable storage only.

    Payloads are held outside the place heaps (the "distributed
    filesystem"); saves and loads pay one network message plus disk
    bandwidth on the engine's shared disk resource, so concurrent places
    queue behind each other at the store.
    """

    def __init__(
        self, runtime: Runtime, group: PlaceGroup, meta: Optional[Dict[str, Any]] = None
    ):
        super().__init__(runtime, group, meta, backups=0, stable_fallback=True)

    def _copy_table(self) -> List[tuple]:
        """No key has an in-memory copy — not even a primary."""
        return [()] * self.group.size
