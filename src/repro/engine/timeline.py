"""Typed engine events: the inspectable record of where virtual time went.

The engine records one event per scheduled unit of work — a transfer
served by communication resources, a bookkeeping event on the place-zero
ledger, a stable-storage disk access, a completed finish — and one per change
of membership (a place killed, repaired or added, a lease granted or
released).  They are typed records with fixed fields, so tools
(``repro.bench.timeline``, the CLI's ``--trace-out``) can consume them
without re-deriving timings from the runtime's internals.

Events serialize to JSON-lines (one object per line, a ``kind`` field
first) and load back into the same typed records.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple, Type, Union


@dataclass(frozen=True)
class EngineEvent:
    """Base record: a span of virtual time on some engine resource."""

    t_start: float
    t_end: float

    #: Discriminator used in JSONL serialization; set per subclass.
    kind = "event"

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def to_record(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"kind": self.kind}
        record.update(asdict(self))
        return record


@dataclass(frozen=True)
class TransferEvent(EngineEvent):
    """One point-to-point transfer between places.

    ``route`` distinguishes the contention model that served it: ``"p2p"``
    (per-place duplex link), ``"shm"`` (intra-node shared memory through
    the destination's server) or ``"nic"`` (shared per-node NIC pair).
    ``t_start`` is the request time; the gap to ``t_end`` includes any
    queueing behind earlier transfers.
    """

    src: int = -1
    dst: int = -1
    nbytes: float = 0.0
    route: str = "p2p"

    kind = "transfer"


@dataclass(frozen=True)
class ServiceEvent(EngineEvent):
    """One request served by a named serial resource (e.g. the ledger), or
    the failure detector's wait (``resource="detector"``) from a failed
    communication to its verdict on the suspects."""

    resource: str = ""

    kind = "service"


@dataclass(frozen=True)
class DiskEvent(EngineEvent):
    """One stable-storage access (the shared distributed-filesystem disk)."""

    place: int = -1
    nbytes: float = 0.0
    op: str = "write"

    kind = "disk"


@dataclass(frozen=True)
class FinishEvent(EngineEvent):
    """One completed finish (or collective) with its timing decomposition."""

    label: str = ""
    n_tasks: int = 0
    task_end_max: float = 0.0
    ledger_ready: float = 0.0

    kind = "finish"


@dataclass(frozen=True)
class MembershipEvent(EngineEvent):
    """One change of who is in the world or who holds it, at an instant
    (``t_start == t_end``).

    ``op`` is ``"kill"``, ``"repair"`` or ``"add_place"`` (of ``place``), or
    ``"lease"`` / ``"release"`` (of the lease ``name``; a grant lists its
    ``members``' place ids).
    """

    op: str = ""
    place: int = -1
    name: str = ""
    members: Tuple[int, ...] = ()

    kind = "membership"

    def __post_init__(self) -> None:
        # A JSONL record carries a list; equal events must compare equal.
        object.__setattr__(self, "members", tuple(self.members))


_EVENT_TYPES: Dict[str, Type[EngineEvent]] = {
    cls.kind: cls
    for cls in (TransferEvent, ServiceEvent, DiskEvent, FinishEvent, MembershipEvent)
}


def event_from_record(record: Dict[str, Any]) -> EngineEvent:
    """Rebuild a typed event from its JSONL record."""
    data = dict(record)
    kind = data.pop("kind", "event")
    cls = _EVENT_TYPES.get(kind, EngineEvent)
    if cls is EngineEvent:
        data = {k: data[k] for k in ("t_start", "t_end") if k in data}
    return cls(**data)


class Timeline:
    """Append-only log of typed engine events.

    Disabled by default (recording every transfer of a benchmark sweep
    would dominate its runtime); the runtime's ``trace`` flag or the CLI's
    ``--trace-out`` / ``--profile`` / ``--timeline`` enables it.  An
    engine's timeline is switched through
    :meth:`~repro.engine.scheduler.Scheduler.set_tracing`.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self.events: List[EngineEvent] = []

    def record(self, event: EngineEvent) -> None:
        """Append an event (no-op while disabled)."""
        if self.enabled:
            self.events.append(event)

    def of_kind(self, kind: str) -> List[EngineEvent]:
        """All recorded events with the given ``kind``."""
        return [e for e in self.events if e.kind == kind]

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- JSONL ---------------------------------------------------------------

    def dump_jsonl(self, path_or_file: Union[str, IO[str]]) -> int:
        """Write all events as JSON lines; returns the number written."""
        if isinstance(path_or_file, str):
            with open(path_or_file, "w", encoding="utf-8") as fh:
                return self.dump_jsonl(fh)
        for event in self.events:
            path_or_file.write(json.dumps(event.to_record()) + "\n")
        return len(self.events)


def load_jsonl(path_or_file: Union[str, IO[str]]) -> List[EngineEvent]:
    """Load typed events back from a JSONL dump."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "r", encoding="utf-8") as fh:
            return load_jsonl(fh)
    events: List[EngineEvent] = []
    for line in path_or_file:
        line = line.strip()
        if line:
            events.append(event_from_record(json.loads(line)))
    return events


def iter_spans(
    events: Iterable[EngineEvent], kind: Optional[str] = None
) -> Iterable[EngineEvent]:
    """Filter helper used by the bench tooling."""
    for event in events:
        if kind is None or event.kind == kind:
            yield event
