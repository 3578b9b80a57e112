"""Replica placement policies for the tiered snapshot store.

The paper's double in-memory store always puts the (single) backup on the
*next* place of the group.  With a replication factor ``k > 1`` the choice
of *which* places hold the copies decides which correlated failures a
checkpoint survives: consecutive ring offsets die together under an
adjacent-pair burst, while spread-out replicas survive it.  A
:class:`ReplicaPlacement` maps a replication level and a group size to the
list of ring *offsets* (relative to the primary's group index) at which the
backup copies live.

Every policy guarantees that **no replica co-resides with its primary**
whenever the group has more than one place: an offset that would land on
the primary (``0 mod size``) or on another replica of the same key is
deterministically shifted to the next free non-zero residue.  Only when the
group is a single place (nowhere else to go) do copies degenerate to local
duplicates, matching the seed store's behaviour.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Type

from repro.util.validation import require


def resolve_offsets(raw: List[int], group_size: int) -> List[int]:
    """Normalize candidate ring offsets for one key's replicas.

    Each offset is reduced mod *group_size*; offsets of ``0`` (co-resident
    with the primary) and collisions with earlier replicas are advanced,
    wrapping over ``1..group_size-1``, to the first free residue.  Once all
    distinct residues are taken (``k >= size - 1``) replicas double up on
    non-primary places — the store cannot invent more places, but it never
    stacks a copy on the one whose death already loses the primary.
    """
    if group_size <= 1:
        return [0 for _ in raw]
    used: set = set()
    out: List[int] = []
    for cand in raw:
        first = cand % group_size
        if first == 0:
            first = 1
        offset = first
        for step in range(group_size - 1):
            probe = (first - 1 + step) % (group_size - 1) + 1
            if probe not in used:
                offset = probe
                break
        used.add(offset)
        out.append(offset)
    return out


class ReplicaPlacement(ABC):
    """Maps (replication level, group size) to backup ring offsets."""

    #: Registry / CLI name of the policy.
    name: str = "?"

    @abstractmethod
    def raw_offsets(self, backups: int, group_size: int) -> List[int]:
        """Candidate offsets for replicas ``1..backups`` (may collide;
        callers normalize through :func:`resolve_offsets`)."""

    def offsets(self, backups: int, group_size: int) -> List[int]:
        """The resolved, collision-free offsets for this policy."""
        if backups < 0:
            raise ValueError("backups must be >= 0")
        return resolve_offsets(self.raw_offsets(backups, group_size), group_size)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RingPlacement(ReplicaPlacement):
    """The paper's scheme generalized: replica *r* on the *r*-th next place.

    ``k=1`` is exactly the double in-memory store.  Consecutive offsets keep
    restore reads close but die together under adjacent bursts.
    """

    name = "ring"

    def raw_offsets(self, backups: int, group_size: int) -> List[int]:
        return list(range(1, backups + 1))


class StridePlacement(ReplicaPlacement):
    """Replica *r* at offset ``r * stride``: skips over likely co-failing
    neighbours (e.g. ``stride = places_per_node`` avoids same-node copies).
    """

    name = "stride"

    def __init__(self, stride: int = 2):
        require(stride >= 1, "stride must be >= 1")
        self.stride = stride

    def raw_offsets(self, backups: int, group_size: int) -> List[int]:
        return [r * self.stride for r in range(1, backups + 1)]

    def __repr__(self) -> str:
        return f"StridePlacement(stride={self.stride})"


class SpreadPlacement(ReplicaPlacement):
    """Replicas spaced evenly around the ring (maximal spread).

    The k+1 copies of a key sit ``size/(k+1)`` places apart, so a burst
    must span at least that distance to reach two copies — the placement
    that survives adjacent-pair and small-rack correlated failures.
    """

    name = "spread"

    def raw_offsets(self, backups: int, group_size: int) -> List[int]:
        if group_size <= 1:
            return [0] * backups
        return [
            max(1, round(r * group_size / (backups + 1)))
            for r in range(1, backups + 1)
        ]


class ParityPlacement(ReplicaPlacement):
    """Erasure-coded placement: one XOR parity block per group of ``g`` keys.

    Not a replica policy at all — instead of k full copies per key, every
    group of up to ``g`` consecutive partitions shares a single parity
    block (the XOR of the members' serialized bytes) stored on a place
    *outside* the group, chosen through :func:`resolve_offsets` so the
    parity never co-resides with any member's primary.  Any single lost
    member per group is reconstructible from the parity plus the
    surviving peers at ~``(1 + 1/g)x`` checkpoint bytes instead of ``kx``.

    A parity snapshot keeps no per-key replicas (``backups`` must be 0);
    :meth:`raw_offsets` enforces that loudly so a plain replica store
    handed this policy fails at construction, not at the first failure.
    """

    name = "parity"

    def __init__(self, group: int = 4):
        require(group >= 2, "parity group size must be >= 2")
        self.group = group

    def raw_offsets(self, backups: int, group_size: int) -> List[int]:
        require(
            backups == 0,
            "parity placement stores group parity blocks, not per-key "
            "replicas; use it with backups=0 (replicas=1)",
        )
        return []

    def group_span(self, group_size: int) -> int:
        """Effective members per parity group: ``g`` capped so at least
        one group-external place exists to hold the parity block."""
        return max(1, min(self.group, group_size - 1))

    def parity_index(self, start: int, members: int, group_size: int) -> int:
        """Group index of the place holding a group's parity block.

        *start* is the group's first member index and *members* the group's
        size.  The offset is normalized through :func:`resolve_offsets`:
        a raw offset of *members* can never resolve into ``0..members-1``,
        so the parity block provably lands outside the group whenever the
        place group is larger than the parity group.
        """
        offset = resolve_offsets([members], group_size)[0]
        return (start + offset) % group_size

    def __repr__(self) -> str:
        return f"ParityPlacement(group={self.group})"


#: CLI / config registry of the built-in policies.
PLACEMENTS: Dict[str, Type[ReplicaPlacement]] = {
    RingPlacement.name: RingPlacement,
    StridePlacement.name: StridePlacement,
    SpreadPlacement.name: SpreadPlacement,
    ParityPlacement.name: ParityPlacement,
}

#: Policies that take an integer ``name:<n>`` argument from the CLI.
_ARG_POLICIES: Dict[str, Callable[[int], ReplicaPlacement]] = {
    "stride": lambda n: StridePlacement(stride=n),
    "parity": lambda n: ParityPlacement(group=n),
}


def make_placement(spec: str) -> ReplicaPlacement:
    """Build a policy from a CLI spec: ``ring``, ``spread``, ``stride``,
    ``stride:<n>`` for an explicit stride, or ``parity[:g]`` for the
    erasure-coded tier with parity groups of ``g``."""
    name, _, arg = spec.partition(":")
    cls = PLACEMENTS.get(name)
    require(cls is not None, f"unknown placement policy {spec!r} (choices: {sorted(PLACEMENTS)})")
    if arg:
        factory = _ARG_POLICIES.get(name)
        require(factory is not None, f"policy {name!r} takes no argument")
        return factory(int(arg))
    return cls()
