"""The APGAS runtime simulator (the "X10" substrate).

Public surface:

* :class:`~repro.runtime.runtime.Runtime` — the simulated world of places;
* :class:`~repro.runtime.place.Place` / :class:`~repro.runtime.place.PlaceGroup`;
* :class:`~repro.runtime.cost.CostModel` — virtual-time rates;
* :class:`~repro.runtime.failure.FailureInjector` — scripted fail-stop kills;
* the exception family mirroring Resilient X10's failure surface.
"""

from repro.runtime.clock import VirtualClock
from repro.runtime.cost import CostModel
from repro.runtime.exceptions import (
    DataLossError,
    DeadPlaceException,
    MultipleException,
    PlaceZeroDeadError,
    RuntimeFault,
    SpareExhaustedError,
)
from repro.runtime.factory import make_runtime
from repro.runtime.failure import (
    AdjacentPairFailureModel,
    ExponentialFailureModel,
    FailureInjector,
    LeaseScopedInjector,
    RackFailureModel,
    ScriptedKill,
)
from repro.runtime.finish import PlaceZeroLedger
from repro.runtime.heap import PlaceHeap
from repro.runtime.place import Place, PlaceGroup
from repro.runtime.pool import (
    BORROW,
    DEDICATED,
    ECONOMICS_MODES,
    POOLED,
    PlaceLease,
    PlacePool,
)
from repro.runtime.runtime import PlaceContext, Runtime, RuntimeStats

__all__ = [
    "VirtualClock",
    "CostModel",
    "DataLossError",
    "DeadPlaceException",
    "MultipleException",
    "PlaceZeroDeadError",
    "RuntimeFault",
    "SpareExhaustedError",
    "AdjacentPairFailureModel",
    "ExponentialFailureModel",
    "FailureInjector",
    "LeaseScopedInjector",
    "make_runtime",
    "RackFailureModel",
    "ScriptedKill",
    "PlaceZeroLedger",
    "PlaceHeap",
    "Place",
    "PlaceGroup",
    "PlaceLease",
    "PlacePool",
    "BORROW",
    "DEDICATED",
    "POOLED",
    "ECONOMICS_MODES",
    "PlaceContext",
    "Runtime",
    "RuntimeStats",
]
