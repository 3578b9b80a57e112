"""The discrete-event resource-scheduling engine.

Public surface:

* :class:`~repro.engine.resource.Resource` — a serial server with a
  busy-until frontier (communication server, NIC direction, ledger, disk);
* :class:`~repro.engine.resource.DuplexLink` — two coupled resources
  occupied together (full-duplex transfers);
* :class:`~repro.engine.timeline.Timeline` and the typed event records
  (:class:`TransferEvent`, :class:`ServiceEvent`, :class:`DiskEvent`,
  :class:`FinishEvent`, :class:`MembershipEvent`) with JSONL round-tripping;
* :class:`~repro.engine.scheduler.Scheduler` — owns the virtual clock,
  all contended resources, finish completion, and the overlap scope that
  enables overlapped checkpointing.
"""

from repro.engine.resource import DuplexLink, Resource
from repro.engine.scheduler import Scheduler
from repro.engine.timeline import (
    DiskEvent,
    EngineEvent,
    FinishEvent,
    MembershipEvent,
    ServiceEvent,
    Timeline,
    TransferEvent,
    event_from_record,
    load_jsonl,
)

__all__ = [
    "DuplexLink",
    "Resource",
    "Scheduler",
    "DiskEvent",
    "EngineEvent",
    "FinishEvent",
    "MembershipEvent",
    "ServiceEvent",
    "Timeline",
    "TransferEvent",
    "event_from_record",
    "load_jsonl",
]
