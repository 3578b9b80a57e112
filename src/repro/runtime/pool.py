"""Place pools and leases — shared-cluster ownership of places.

The paper's dynamic place groups let one resilient job shrink and regrow
inside a larger world.  A :class:`PlacePool` generalizes that world into a
shared substrate for *many* jobs: it owns every place the runtime created,
tracks which places are free, which are leased to a tenant, and which sit
in the spare reserve, and it is the single place where dead places are
pruned from that bookkeeping (O(1) per kill — no rescans).

A :class:`PlaceLease` is one tenant's slice of the pool: an ordered set of
member places carved at admission, the first of which acts as the job's
*driver* (the per-tenant stand-in for the immortal place zero).  Executors
claim replacement places through their lease, never from the runtime
directly, which is what confines a tenant's failure blast radius: the
lease can only hand out places the pool's economics entitle it to.

Spare economics (ReStore-style shared recovery capacity):

* ``dedicated`` — spares are split up-front; each lease may only consume
  the reserve places assigned to it at carve time.
* ``pooled`` — all leases draw from one shared reserve, first-come
  first-served; the reserve is sized for the *expected* concurrent
  failures, not the worst case per job.
* ``borrow`` — pooled, and when the reserve runs dry a lease may borrow
  an idle (free, unleased) place instead of failing over to shrink.

Lease lifecycle::

    carve -> ACTIVE --- claim_spare()/adopt() grows members
                    |-- members die (pool prunes, lease keeps ever_ids)
    release -> RELEASED  (live members return to free; unclaimed
                          dedicated spares return to the reserve)
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Set

from repro.runtime.place import Place, PlaceGroup
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.runtime import Runtime

#: Spare-economics modes (see module docstring).
DEDICATED = "dedicated"
POOLED = "pooled"
BORROW = "borrow"
ECONOMICS_MODES = (DEDICATED, POOLED, BORROW)

#: Lease states.
ACTIVE = "active"
RELEASED = "released"


class PlaceLease:
    """One tenant's slice of a :class:`PlacePool`.

    The first member is the lease *driver*: the job-local coordinator that
    plays the role place zero plays for a single-job runtime (it hosts the
    finish joins and heartbeat sink while the lease is the active job
    context).  It is never handed out as a spare and correlated failure
    events must not target it — per-tenant coordinator immortality, the
    multi-tenant analogue of Resilient X10's immortal place zero.
    """

    def __init__(
        self,
        pool: "PlacePool",
        name: str,
        members: Sequence[Place],
        economics: str = POOLED,
        dedicated_spares: Sequence[Place] = (),
    ):
        require(len(members) > 0, "a lease needs at least one member")
        require(
            economics in ECONOMICS_MODES,
            f"economics must be one of {ECONOMICS_MODES}, got {economics!r}",
        )
        self.pool = pool
        self.name = name
        self.economics = economics
        self.state = ACTIVE
        self.members: List[Place] = list(members)
        self._member_ids: Set[int] = {p.id for p in self.members}
        #: Every id that was ever a member (incl. claimed spares and dead
        #: members) — the blast-radius boundary for cross-tenant checks.
        self.ever_ids: Set[int] = set(self._member_ids)
        self.driver: Place = self.members[0]
        self._dedicated: Deque[Place] = deque(dedicated_spares)
        self._dedicated_ids: Set[int] = {p.id for p in self._dedicated}
        self._dedicated_live = len(self._dedicated)
        #: Reserve places this lease holds a loan on (dedicated spares are
        #: loaned at carve time); settled when the lease is released.
        self._reserve_loans = len(self._dedicated)
        self.spares_claimed = 0
        self.borrows = 0

    # -- group views -------------------------------------------------------

    def group(self) -> PlaceGroup:
        """The current member places as a group (carve order preserved)."""
        return PlaceGroup(self.members)

    def live_group(self) -> PlaceGroup:
        """Surviving members, order preserved, indices shifted."""
        return self.pool.runtime.live_group(self.group())

    @property
    def member_ids(self) -> Set[int]:
        """Ids of current members (read-only view)."""
        return set(self._member_ids)

    def owns(self, place_id: int) -> bool:
        """True if *place_id* is currently a member of this lease."""
        return place_id in self._member_ids

    # -- spare economics ---------------------------------------------------

    def claim_spare(self) -> Optional[Place]:
        """Take one replacement place under this lease's economics.

        Returns ``None`` when the lease's entitlement is exhausted — the
        executor then falls back to shrinking, exactly as a single-job
        runtime does when ``claim_spare`` returns ``None``.
        """
        require(self.state == ACTIVE, f"lease {self.name!r} is released")
        place: Optional[Place] = None
        if self.economics == DEDICATED:
            place = self._pop_dedicated()
        else:
            place = self.pool.claim_reserve()
            if place is not None:
                self._reserve_loans += 1
            elif self.economics == BORROW:
                place = self.pool.borrow_idle()
                if place is not None:
                    self.borrows += 1
        if place is not None:
            self.spares_claimed += 1
            self._adopt(place)
        return place

    def _pop_dedicated(self) -> Optional[Place]:
        while self._dedicated:
            place = self._dedicated.popleft()
            if place.id in self._dedicated_ids:
                self._dedicated_ids.discard(place.id)
                self._dedicated_live -= 1
                return place
        return None

    @property
    def spares_remaining(self) -> int:
        """How many replacement places this lease could still claim (O(1))."""
        if self.economics == DEDICATED:
            return self._dedicated_live
        remaining = self.pool.reserve_remaining
        if self.economics == BORROW:
            remaining += self.pool.lendable_free
        return remaining

    def adopt(self, place: Place) -> Place:
        """Register an elastically created place as a lease member."""
        require(self.state == ACTIVE, f"lease {self.name!r} is released")
        self._adopt(place)
        return place

    def add_place(self) -> Place:
        """Elastically create a brand-new place owned by this lease."""
        return self.adopt(self.pool.runtime.add_place())

    def _adopt(self, place: Place) -> None:
        require(place.id not in self._member_ids, f"place {place.id} already a member")
        self.members.append(place)
        self._member_ids.add(place.id)
        self.ever_ids.add(place.id)
        self.pool._lease_of[place.id] = self

    # -- lifecycle ---------------------------------------------------------

    def release(self) -> None:
        """Return this lease's places to the pool (idempotent)."""
        self.pool.release(self)

    def _on_member_killed(self, place_id: int) -> None:
        if place_id in self._dedicated_ids:
            self._dedicated_ids.discard(place_id)
            self._dedicated_live -= 1

    def __repr__(self) -> str:
        return (
            f"PlaceLease({self.name!r}, driver={self.driver.id}, "
            f"members={sorted(self._member_ids)}, economics={self.economics}, "
            f"state={self.state})"
        )


class PlacePool:
    """Owner of every place in a runtime: free set, leases, spare reserve.

    The pool is pure bookkeeping — it never advances virtual time.  A
    single-job runtime uses a *degenerate* pool: the whole world sits in
    the free set until :attr:`Runtime.default_lease` claims it, and the
    reserve is exactly the runtime's ``spares=...`` places, so the classic
    ``runtime.claim_spare()`` path is byte-for-byte the old behavior.
    """

    def __init__(
        self,
        runtime: "Runtime",
        active: Sequence[Place],
        spares: Sequence[Place],
    ):
        self.runtime = runtime
        #: Unleased active places, in id order.
        self._free: Deque[Place] = deque(active)
        self._free_ids: Set[int] = {p.id for p in self._free}
        self._free_live = len(self._free)
        #: The spare reserve (claim order = creation order).
        self._reserve: Deque[Place] = deque(spares)
        self._reserve_ids: Set[int] = {p.id for p in self._reserve}
        self._reserve_live = len(self._reserve)
        self.reserve_size = len(self._reserve)
        self._lease_of: Dict[int, PlaceLease] = {}
        self._leases: List[PlaceLease] = []
        self._next_lease = 0
        #: Where each dead place sat when it was killed ("reserve", "free",
        #: "dedicated" or "leased") — repair re-files it accordingly.
        self._dead_origin: Dict[int, str] = {}
        #: Peak number of reserve places claimed at once (occupancy metric).
        self.reserve_claimed = 0
        self.reserve_peak_claimed = 0

    # -- O(1) live accounting ---------------------------------------------

    def on_place_killed(self, place_id: int) -> None:
        """Prune a dead place from pool bookkeeping (called by ``kill``).

        Constant time: membership sets and live counters are updated here
        so ``spares_remaining`` and admission checks never rescan deques.
        """
        if place_id in self._reserve_ids:
            self._reserve_ids.discard(place_id)
            self._reserve_live -= 1
            self._dead_origin[place_id] = "reserve"
        elif place_id in self._free_ids:
            self._free_ids.discard(place_id)
            self._free_live -= 1
            self._dead_origin[place_id] = "free"
        else:
            lease = self._lease_of.get(place_id)
            if lease is not None and place_id in lease._dedicated_ids:
                self._dead_origin[place_id] = "dedicated"
            else:
                self._dead_origin[place_id] = "leased"
            if lease is not None:
                lease._on_member_killed(place_id)

    def on_place_revived(self, place: Place) -> None:
        """Re-file a repaired place (called by :meth:`Runtime.revive`).

        The place returns *where it came from*: reserve places rejoin the
        spare reserve, free places the free set.  A place that died inside
        a lease rejoins the free set once that lease is gone (release
        already dropped its mapping); while the lease is still active a
        regular member stays a member (``release`` recycles it normally)
        and a dedicated spare rejoins the lease's private spare queue.
        Stale deque entries left by the kill are harmless — every pop
        revalidates against the id sets.
        """
        origin = self._dead_origin.pop(place.id, None)
        lease = self._lease_of.get(place.id)
        if origin == "reserve":
            self._reserve.append(place)
            self._reserve_ids.add(place.id)
            self._reserve_live += 1
        elif origin == "dedicated" and lease is not None and lease.state == ACTIVE:
            lease._dedicated.append(place)
            lease._dedicated_ids.add(place.id)
            lease._dedicated_live += 1
        elif lease is not None and lease.state == ACTIVE:
            # Still a live member of an active lease: nothing to re-file.
            pass
        else:
            self._lease_of.pop(place.id, None)
            self._free.append(place)
            self._free_ids.add(place.id)
            self._free_live += 1

    @property
    def reserve_remaining(self) -> int:
        """Live, unclaimed reserve places (O(1))."""
        return self._reserve_live

    @property
    def free_live(self) -> int:
        """Live, unleased active places (O(1))."""
        return self._free_live

    def lease_of(self, place_id: int) -> Optional[PlaceLease]:
        """The lease currently owning *place_id* (None if free/reserve)."""
        return self._lease_of.get(place_id)

    @property
    def leases(self) -> List[PlaceLease]:
        """All leases ever carved (released ones included)."""
        return list(self._leases)

    # -- reserve -----------------------------------------------------------

    def claim_reserve(self) -> Optional[Place]:
        """Pop one live place from the shared reserve (None if dry)."""
        while self._reserve:
            place = self._reserve.popleft()
            if place.id in self._reserve_ids:
                self._reserve_ids.discard(place.id)
                self._reserve_live -= 1
                self.reserve_claimed += 1
                self.reserve_peak_claimed = max(
                    self.reserve_peak_claimed, self.reserve_claimed
                )
                return place
        return None

    def borrow_idle(self) -> Optional[Place]:
        """Pop one live *free* place (the borrow-from-idle economics).

        Place zero is never lent: in a shared pool it is the service
        coordinator, as immortal as X10's place zero.
        """
        skipped: Optional[Place] = None
        result: Optional[Place] = None
        while self._free:
            place = self._free.popleft()
            if place.id not in self._free_ids:
                continue
            if place.id == 0:
                skipped = place
                continue
            self._free_ids.discard(place.id)
            self._free_live -= 1
            result = place
            break
        if skipped is not None:
            self._free.appendleft(skipped)
        return result

    @property
    def lendable_free(self) -> int:
        """Live free places a ``borrow`` lease could take (place 0 excluded)."""
        return self._free_live - (1 if 0 in self._free_ids else 0)

    # -- leases ------------------------------------------------------------

    def lease(
        self,
        size: int,
        name: Optional[str] = None,
        economics: str = POOLED,
        dedicated_spares: int = 0,
        include_place_zero: bool = False,
    ) -> PlaceLease:
        """Carve *size* live free places into a new lease.

        Place zero is skipped unless *include_place_zero* — in a shared
        pool it stays the service coordinator, leased to no tenant.  Raises
        :class:`ValueError` when the free set (or, for ``dedicated``
        economics, the reserve) cannot cover the request; admission
        controllers should check :attr:`free_live` / :attr:`reserve_remaining`
        first.
        """
        require(size > 0, "lease size must be positive")
        require(
            economics in ECONOMICS_MODES,
            f"economics must be one of {ECONOMICS_MODES}, got {economics!r}",
        )
        require(dedicated_spares >= 0, "dedicated_spares must be >= 0")
        rt = self.runtime
        members: List[Place] = []
        skipped: List[Place] = []
        while self._free and len(members) < size:
            place = self._free.popleft()
            if place.id not in self._free_ids:
                continue  # died while free; already pruned from the counts
            if place.id == 0 and not include_place_zero:
                skipped.append(place)
                continue
            self._free_ids.discard(place.id)
            self._free_live -= 1
            members.append(place)
        for place in skipped:
            self._free.appendleft(place)
        if len(members) < size:
            for place in members:  # undo the partial carve
                self._free.appendleft(place)
                self._free_ids.add(place.id)
                self._free_live += 1
            raise ValueError(
                f"cannot lease {size} places: only {self.free_live} free "
                f"(excluding place zero)"
            )
        dedicated: List[Place] = []
        if economics == DEDICATED and dedicated_spares > 0:
            for _ in range(dedicated_spares):
                spare = self.claim_reserve()
                if spare is None:
                    for place in dedicated:  # undo: spares back to reserve
                        self._reserve.appendleft(place)
                        self._reserve_ids.add(place.id)
                        self._reserve_live += 1
                        self.reserve_claimed -= 1
                    for place in members:
                        self._free.appendleft(place)
                        self._free_ids.add(place.id)
                        self._free_live += 1
                    raise ValueError(
                        f"cannot dedicate {dedicated_spares} spares: reserve dry"
                    )
                dedicated.append(spare)
        if name is None:
            name = f"lease-{self._next_lease}"
        self._next_lease += 1
        lease = PlaceLease(
            self, name, members, economics=economics, dedicated_spares=dedicated
        )
        for place in members:
            self._lease_of[place.id] = lease
        for place in dedicated:
            self._lease_of[place.id] = lease
        self._leases.append(lease)
        rt.record_membership("lease", name=name, members=[p.id for p in members])
        return lease

    def release(self, lease: PlaceLease) -> None:
        """Return a lease's live places to the free set (idempotent).

        The places come back empty: while leased they held one tenant's data
        only (payloads, snapshot copies), and the tenancy is over, so each
        heap is cleared and the next tenant inherits nothing.  Unclaimed live
        dedicated spares go back to the shared reserve — released capacity
        is recycled, not stranded.
        """
        if lease.state == RELEASED:
            return
        lease.state = RELEASED
        rt = self.runtime
        for place in lease.members:
            self._lease_of.pop(place.id, None)
            if rt.is_alive(place.id):
                rt.heap_of(place.id).clear()
                self._free.append(place)
                self._free_ids.add(place.id)
                self._free_live += 1
        while lease._dedicated:
            place = lease._dedicated.popleft()
            self._lease_of.pop(place.id, None)
            if place.id in lease._dedicated_ids:
                lease._dedicated_ids.discard(place.id)
                lease._dedicated_live -= 1
                self._reserve.append(place)
                self._reserve_ids.add(place.id)
                self._reserve_live += 1
        # Settle every reserve loan the lease held: consumed spares land
        # in the free set (the reserve shrank for good), but the *claim*
        # is over — ``reserve_claimed`` stays a concurrent-loan gauge.
        self.reserve_claimed -= lease._reserve_loans
        lease._reserve_loans = 0
        rt.record_membership("release", name=lease.name)

    def __repr__(self) -> str:
        return (
            f"PlacePool(free={self.free_live}, reserve={self.reserve_remaining}"
            f"/{self.reserve_size}, leases={len(self._leases)})"
        )
