"""Snapshot protection: how many copies of each partition a snapshot keeps,
and where.

In the paper (§V-A) a GML object only makes and restores snapshots; the
application resilient store decides what a checkpoint is.  A
:class:`Protection` is that decision as one frozen value, judged once at
construction: a store holds one and hands it to every ``make_snapshot`` it
calls, and the value picks the snapshot tier.  Objects keep no protection
state of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.resilience.parity import ParityObjectSnapshot
from repro.resilience.placement import ParityPlacement, ReplicaPlacement, RingPlacement
from repro.resilience.snapshot import DistObjectSnapshot
from repro.resilience.stable import StableObjectSnapshot
from repro.runtime.place import PlaceGroup
from repro.runtime.runtime import Runtime
from repro.util.validation import check_non_negative


@dataclass(frozen=True)
class Protection:
    """The protection of every snapshot a store takes.

    * ``replicas`` — in-memory backup copies per partition; the default 1
      is the paper's double store;
    * ``placement`` — the places those copies live on (ring offsets, the
      paper's scheme, by default).  A :class:`ParityPlacement` replaces
      them with one XOR block per group, so it takes ``replicas <= 1``;
    * ``stable_fallback`` — also write each partition to the disk tier,
      read only once every in-memory copy of it is gone;
    * ``disk_only`` — keep snapshots on stable storage only (the data-flow
      alternative the paper's introduction contrasts).
    """

    replicas: int = 1
    placement: ReplicaPlacement = RingPlacement()
    stable_fallback: bool = False
    disk_only: bool = False

    def __post_init__(self) -> None:
        check_non_negative(self.replicas, "replicas")
        if isinstance(self.placement, ParityPlacement) and self.replicas > 1:
            raise ValueError(
                "placement=parity stores one XOR parity block per group instead "
                f"of per-key replicas; replicas must be <= 1, got {self.replicas} "
                "(shrink the group via parity:g to buy more protection instead "
                "of double-paying)"
            )

    def new_snapshot(
        self, runtime: Runtime, group: PlaceGroup, meta: Optional[Dict[str, Any]] = None
    ) -> DistObjectSnapshot:
        """An empty snapshot over *group* in the tier this value names."""
        if self.disk_only:
            return StableObjectSnapshot(runtime, group, meta)
        if isinstance(self.placement, ParityPlacement):
            return ParityObjectSnapshot(
                runtime,
                group,
                meta,
                placement=self.placement,
                stable_fallback=self.stable_fallback,
            )
        return DistObjectSnapshot(
            runtime,
            group,
            meta,
            backups=self.replicas,
            placement=self.placement,
            stable_fallback=self.stable_fallback,
        )
