"""The snapshot tier ladder as a table.

Every store declares which tiers hold a copy of a key and in what order a
read tries them: in-memory copies in placement order, then a copy re-derived
from other data (XOR parity), then disk.  For each store, and for **every
subset** of its ladder struck by bit-rot, a read must be served by the first
clean tier, quarantine exactly the corrupt tiers above it (in ladder order),
and fail loudly — never silently — when no clean tier is left.  The matrix
runs once per payload kind (``payload_kinds``): what a tier holds must not
change what the ladder does.
"""

from itertools import combinations

import pytest

from repro.resilience.parity import PARITY_TIER, ParityObjectSnapshot
from repro.resilience.placement import ParityPlacement, SpreadPlacement
from repro.resilience.snapshot import DistObjectSnapshot
from repro.resilience.stable import StableObjectSnapshot
from repro.runtime import CostModel, DataLossError, Runtime
from repro.runtime.exceptions import SnapshotCorruptionError
from tests.resilience.payload_kinds import KINDS, same_payload

STABLE = DistObjectSnapshot.STABLE_TIER
PLACES = 6
KEY = 0


def _parity(stable_fallback):
    return lambda rt: ParityObjectSnapshot(
        rt, rt.world, placement=ParityPlacement(group=2), stable_fallback=stable_fallback
    )


#: store name -> (factory, the ladder ``tiers(KEY)`` must report once saved).
STORES = {
    "ring-k1": (lambda rt: DistObjectSnapshot(rt, rt.world), [0, 1]),
    "spread-k2+disk": (
        lambda rt: DistObjectSnapshot(
            rt, rt.world, backups=2, placement=SpreadPlacement(), stable_fallback=True
        ),
        [0, 1, 2, STABLE],
    ),
    "parity2": (_parity(False), [0, PARITY_TIER]),
    "parity2+disk": (_parity(True), [0, PARITY_TIER, STABLE]),
    "disk-only": (lambda rt: StableObjectSnapshot(rt, rt.world), [STABLE]),
}

#: 2^2 + 2^4 + 2^2 + 2^3 + 2^1 = 34 (store, corrupt subset) cases per payload
#: kind (the ``Vector`` cases keep the ids they had before there was an axis).
CASES = [
    pytest.param(
        name, corrupt, kind,
        id=f"{name}-corrupt{list(corrupt)}" + ("" if kind == "vector" else f"-{kind}"),
    )
    for kind in KINDS
    for name, (_, ladder) in STORES.items()
    for size in range(len(ladder) + 1)
    for corrupt in combinations(ladder, size)
]


def _served_from(heap_key):
    """The tier a ``locate`` answer came from, read off its heap key."""
    kind = heap_key[0]
    if kind == "snapb":
        return heap_key[3]  # the replica index
    return {"snap": 0, "snapr": PARITY_TIER, "stable": STABLE}[kind]


@pytest.mark.parametrize("name, corrupt, kind", CASES)
def test_read_is_served_by_the_first_clean_tier(name, corrupt, kind):
    factory, ladder = STORES[name]
    payload_fn = KINDS[kind]
    rt = Runtime(PLACES, cost=CostModel.zero())
    snap = factory(rt)
    group = snap.group

    def save(ctx):
        index = group.index_of(ctx.place)
        snap.save_from(ctx, index, payload_fn(index))

    rt.finish_all(group, save)
    assert snap.tiers(KEY) == ladder

    for tier in corrupt:
        assert snap.corrupt_copy(KEY, tier)
    clean = [tier for tier in ladder if tier not in corrupt]

    if not clean:
        with pytest.raises(SnapshotCorruptionError) as exc_info:
            snap.locate(KEY)
        assert isinstance(exc_info.value, DataLossError)
        assert snap.quarantined == [(KEY, tier) for tier in ladder]
        assert snap.tiers(KEY) == []
        assert not snap.key_intact(KEY)
        return

    place_id, heap_key = snap.locate(KEY)
    assert _served_from(heap_key) == clean[0]
    assert (place_id == STABLE) == (clean[0] == STABLE)
    served = snap._stable[KEY] if place_id == STABLE else rt.heap_of(place_id).get(heap_key)
    assert same_payload(served, payload_fn(KEY))
    # Exactly the corrupt tiers above the serving one were tried, failed and
    # dropped, in ladder order; corrupt tiers below it were never read.
    above = ladder[: ladder.index(clean[0])]
    assert snap.quarantined == [(KEY, tier) for tier in above]
    assert snap.key_intact(KEY) == (not above)
    assert snap.recoverable()
