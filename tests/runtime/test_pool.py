"""Tests for PlacePool / PlaceLease: carving, economics, spare contention."""

import pytest

from repro.runtime import BORROW, DEDICATED, POOLED, CostModel, Runtime
from repro.runtime.pool import ACTIVE, RELEASED


def make_rt(n=8, spares=0, resilient=True):
    return Runtime(n, cost=CostModel.zero(), resilient=resilient, spares=spares)


class TestCarving:
    def test_lease_skips_place_zero(self):
        rt = make_rt(5)
        lease = rt.pool.lease(size=3)
        assert 0 not in lease.member_ids
        assert lease.member_ids == {1, 2, 3}
        assert lease.driver.id == 1

    def test_include_place_zero(self):
        rt = make_rt(4)
        lease = rt.pool.lease(size=4, include_place_zero=True)
        assert lease.member_ids == {0, 1, 2, 3}
        assert lease.driver.id == 0

    def test_insufficient_free_raises_and_undoes(self):
        rt = make_rt(4)
        before = rt.pool.free_live
        with pytest.raises(ValueError):
            rt.pool.lease(size=10)
        assert rt.pool.free_live == before
        # The pool is still fully usable after the failed carve.
        lease = rt.pool.lease(size=3)
        assert len(lease.member_ids) == 3

    def test_two_leases_are_disjoint(self):
        rt = make_rt(7)
        a = rt.pool.lease(size=3)
        b = rt.pool.lease(size=3)
        assert not (a.member_ids & b.member_ids)
        for pid in a.member_ids:
            assert rt.pool.lease_of(pid) is a
        for pid in b.member_ids:
            assert rt.pool.lease_of(pid) is b

    def test_release_returns_places(self):
        rt = make_rt(5)
        lease = rt.pool.lease(size=4)
        assert rt.pool.free_live == 1  # place 0
        lease.release()
        assert lease.state == RELEASED
        assert rt.pool.free_live == 5
        # Idempotent.
        lease.release()
        assert rt.pool.free_live == 5

    def test_release_hands_back_empty_places(self):
        rt = make_rt(5)
        lease = rt.pool.lease(size=3)
        other = rt.pool.lease(size=1)
        for pid in lease.member_ids | other.member_ids:
            rt.heap_of(pid).put(("gml", pid), "tenant data")
        lease.release()
        assert [len(rt.heap_of(pid)) for pid in sorted(lease.member_ids)] == [0, 0, 0]
        # Another tenant's places are not touched.
        assert [len(rt.heap_of(pid)) for pid in other.member_ids] == [1]

    def test_dead_member_not_returned_to_free(self):
        rt = make_rt(5)
        lease = rt.pool.lease(size=4)
        victim = sorted(lease.member_ids - {lease.driver.id})[0]
        rt.kill(victim)
        lease.release()
        assert victim not in rt.pool._free_ids
        assert rt.pool.free_live == 4

    def test_dead_free_place_skipped_at_carve(self):
        rt = make_rt(6)
        rt.kill(2)
        lease = rt.pool.lease(size=4)
        assert 2 not in lease.member_ids
        assert lease.member_ids == {1, 3, 4, 5}

    def test_released_lease_rejects_claims(self):
        rt = make_rt(5, spares=1)
        lease = rt.pool.lease(size=2)
        lease.release()
        with pytest.raises(ValueError):
            lease.claim_spare()


class TestDedicatedEconomics:
    def test_carve_claims_reserve_up_front(self):
        rt = make_rt(5, spares=3)
        lease = rt.pool.lease(size=2, economics=DEDICATED, dedicated_spares=2)
        assert rt.pool.reserve_remaining == 1
        assert lease.spares_remaining == 2

    def test_claims_only_own_spares(self):
        rt = make_rt(6, spares=2)
        a = rt.pool.lease(size=2, economics=DEDICATED, dedicated_spares=1)
        b = rt.pool.lease(size=2, economics=DEDICATED, dedicated_spares=1)
        assert a.claim_spare() is not None
        # a's entitlement is exhausted even though b's spare is live.
        assert a.claim_spare() is None
        assert a.spares_remaining == 0
        assert b.spares_remaining == 1

    def test_reserve_dry_at_carve_raises_and_undoes(self):
        rt = make_rt(6, spares=1)
        free_before = rt.pool.free_live
        with pytest.raises(ValueError):
            rt.pool.lease(size=2, economics=DEDICATED, dedicated_spares=2)
        assert rt.pool.free_live == free_before
        assert rt.pool.reserve_remaining == 1
        assert rt.pool.reserve_claimed == 0

    def test_release_returns_unclaimed_spares_to_reserve(self):
        rt = make_rt(5, spares=2)
        lease = rt.pool.lease(size=2, economics=DEDICATED, dedicated_spares=2)
        assert rt.pool.reserve_remaining == 0
        lease.claim_spare()
        lease.release()
        # One spare was consumed (now a lease member, returned to free);
        # the unclaimed one goes back to the shared reserve.
        assert rt.pool.reserve_remaining == 1
        assert rt.pool.reserve_claimed == 0

    def test_dead_dedicated_spare_not_claimable(self):
        rt = make_rt(5, spares=2)
        lease = rt.pool.lease(size=2, economics=DEDICATED, dedicated_spares=2)
        spare_ids = sorted(lease._dedicated_ids)
        rt.kill(spare_ids[0])
        assert lease.spares_remaining == 1
        claimed = lease.claim_spare()
        assert claimed is not None
        assert claimed.id == spare_ids[1]
        assert lease.claim_spare() is None


class TestPooledContention:
    def test_two_leases_race_last_spare(self):
        """Satellite: two tenants race the final reserve place."""
        rt = make_rt(6, spares=1)
        a = rt.pool.lease(size=2, economics=POOLED)
        b = rt.pool.lease(size=2, economics=POOLED)
        assert a.spares_remaining == 1
        assert b.spares_remaining == 1  # shared view of the same place
        won = a.claim_spare()
        assert won is not None
        # First-come first-served: the loser sees a dry reserve and must
        # fall back to shrinking, not steal the winner's place.
        assert b.spares_remaining == 0
        assert b.claim_spare() is None
        assert won.id in a.member_ids
        assert won.id not in b.member_ids

    def test_spare_dies_while_queued(self):
        """Satellite: a reserve place dying before anyone claims it."""
        rt = make_rt(5, spares=3)
        lease = rt.pool.lease(size=2, economics=POOLED)
        reserve_ids = sorted(rt.pool._reserve_ids)
        rt.kill(reserve_ids[0])
        assert lease.spares_remaining == 2  # O(1), already pruned
        claimed = lease.claim_spare()
        assert claimed is not None
        assert claimed.id == reserve_ids[1]  # dead head skipped

    def test_claim_after_pool_drained(self):
        """Satellite: claim_spare() after the reserve is exhausted."""
        rt = make_rt(5, spares=2)
        lease = rt.pool.lease(size=2, economics=POOLED)
        assert lease.claim_spare() is not None
        assert lease.claim_spare() is not None
        assert lease.spares_remaining == 0
        assert lease.claim_spare() is None
        # Still None on repeat — no hidden state corruption.
        assert lease.claim_spare() is None

    def test_kill_entire_reserve(self):
        rt = make_rt(5, spares=2)
        lease = rt.pool.lease(size=2, economics=POOLED)
        for pid in sorted(rt.pool._reserve_ids):
            rt.kill(pid)
        assert rt.pool.reserve_remaining == 0
        assert lease.spares_remaining == 0
        assert lease.claim_spare() is None


class TestBorrowEconomics:
    def test_borrows_idle_after_reserve_dry(self):
        rt = make_rt(6, spares=1)
        lease = rt.pool.lease(size=2, economics=BORROW)
        first = lease.claim_spare()  # from the reserve
        assert first is not None
        assert lease.borrows == 0
        second = lease.claim_spare()  # borrowed from idle
        assert second is not None
        assert lease.borrows == 1
        assert second.id in {3, 4, 5}

    def test_never_borrows_place_zero(self):
        rt = make_rt(3, spares=0)
        lease = rt.pool.lease(size=2, economics=BORROW)
        # Only place 0 is left free — not lendable.
        assert rt.pool.free_live == 1
        assert rt.pool.lendable_free == 0
        assert lease.spares_remaining == 0
        assert lease.claim_spare() is None
        assert rt.is_alive(0)
        assert 0 in rt.pool._free_ids

    def test_spares_remaining_counts_idle(self):
        rt = make_rt(6, spares=1)
        lease = rt.pool.lease(size=2, economics=BORROW)
        # 1 reserve + 3 idle workers (places 3..5; place 0 excluded).
        assert lease.spares_remaining == 4


class TestAccounting:
    def test_o1_counters_match_ground_truth_after_kills(self):
        rt = make_rt(10, spares=4)
        lease = rt.pool.lease(size=4, economics=POOLED)
        for victim in (2, 5, 11, 12):  # member, free, reserve, reserve
            rt.kill(victim)
        live_free = sum(
            1 for pid in rt.pool._free_ids if rt.is_alive(pid)
        )
        live_reserve = sum(
            1 for pid in rt.pool._reserve_ids if rt.is_alive(pid)
        )
        assert rt.pool.free_live == live_free
        assert rt.pool.reserve_remaining == live_reserve
        assert lease.spares_remaining == live_reserve

    def test_reserve_peak_claimed(self):
        rt = make_rt(5, spares=2)
        lease = rt.pool.lease(size=2, economics=POOLED)
        lease.claim_spare()
        lease.claim_spare()
        assert rt.pool.reserve_peak_claimed == 2
        lease.release()
        assert rt.pool.reserve_claimed == 0
        assert rt.pool.reserve_peak_claimed == 2  # high-water mark sticks

    def test_ever_ids_tracks_claims(self):
        rt = make_rt(5, spares=1)
        lease = rt.pool.lease(size=2, economics=POOLED)
        carved = set(lease.member_ids)
        spare = lease.claim_spare()
        assert lease.ever_ids == carved | {spare.id}
        rt.kill(spare.id)
        assert spare.id in lease.ever_ids  # dead members stay in the record


class TestDefaultLease:
    def test_default_lease_spans_world(self):
        rt = make_rt(4, spares=2)
        lease = rt.default_lease
        assert lease.member_ids == {0, 1, 2, 3}
        assert lease.driver.id == 0
        assert lease.state == ACTIVE

    def test_default_lease_cached(self):
        rt = make_rt(4)
        assert rt.default_lease is rt.default_lease

    def test_runtime_claim_spare_unchanged(self):
        """The classic single-job API still draws from the reserve."""
        rt = make_rt(4, spares=2)
        assert rt.spares_remaining == 2
        spare = rt.claim_spare()
        assert spare is not None
        assert spare.id == 4
        assert rt.spares_remaining == 1
