"""The paper's contribution: resilient GML and the iterative framework.

* :class:`Snapshottable` / :class:`DistObjectSnapshot` — per-object
  snapshot/restore with the tiered k-replica in-memory store (§IV-B
  generalized; the paper's double store is ``backups=1`` + ring placement);
* :mod:`~repro.resilience.placement` — pluggable replica placement
  policies (ring / stride / spread) for correlated-failure survival;
* :class:`Protection` — replicas, placement and disk tiers as one frozen
  value a store hands to every snapshot it takes;
* :class:`AppResilientStore` — atomic multi-object application checkpoints
  with read-only snapshot reuse (§V-A1, Listing 4);
* :class:`ResilientIterativeApp` — the 4-method programming model (§V-A2);
* :class:`IterativeExecutor` + :class:`RestoreMode` — the resilient
  executor with shrink / shrink-rebalance / replace-redundant modes and the
  replace-elastic extension (§V-A3, §V-B);
* Young's checkpoint-interval formula (§V).
"""

from repro.resilience.executor import (
    ExecutionReport,
    IterativeExecutor,
    NonResilientExecutor,
    RestoreMode,
)
from repro.resilience.iterative import ResilientIterativeApp, RestoreContext
from repro.resilience.placement import (
    PLACEMENTS,
    ReplicaPlacement,
    RingPlacement,
    SpreadPlacement,
    StridePlacement,
    make_placement,
)
from repro.resilience.protection import Protection
from repro.resilience.snapshot import DistObjectSnapshot, Snapshottable
from repro.resilience.stable import StableObjectSnapshot
from repro.resilience.store import AppResilientStore, AppSnapshot
from repro.resilience.young import (
    expected_overhead_fraction,
    optimal_interval,
    optimal_interval_iterations,
)

__all__ = [
    "ExecutionReport",
    "IterativeExecutor",
    "NonResilientExecutor",
    "RestoreMode",
    "ResilientIterativeApp",
    "RestoreContext",
    "PLACEMENTS",
    "ReplicaPlacement",
    "RingPlacement",
    "SpreadPlacement",
    "StridePlacement",
    "make_placement",
    "Protection",
    "DistObjectSnapshot",
    "Snapshottable",
    "StableObjectSnapshot",
    "AppResilientStore",
    "AppSnapshot",
    "expected_overhead_fraction",
    "optimal_interval",
    "optimal_interval_iterations",
]
