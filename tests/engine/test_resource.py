"""Unit tests for the engine's serial-server resources and duplex links."""

import pytest

from repro.engine import DuplexLink, Resource
from repro.runtime.exceptions import DeadPlaceException


class TestResource:
    def test_idle_server_starts_at_request_time(self):
        r = Resource(("srv", 0))
        assert r.acquire(5.0, 2.0) == 7.0
        assert r.free_at == 7.0

    def test_busy_server_queues_fifo(self):
        r = Resource(("srv", 0))
        r.acquire(0.0, 10.0)
        # Requested at t=3 but the server is busy until t=10.
        assert r.acquire(3.0, 2.0) == 12.0
        assert r.free_at == 12.0

    def test_request_after_frontier_leaves_gap(self):
        r = Resource(("srv", 0))
        r.acquire(0.0, 1.0)
        # Server idles from 1.0 to 100.0: the request starts when it arrives.
        assert r.acquire(100.0, 1.0) == 101.0
        assert r.free_at == 101.0

    def test_on_acquire_hook_sees_request_start_done(self):
        r = Resource(("srv", 0))
        seen = []
        r.on_acquire = lambda res, t_req, start, done: seen.append(
            (res.key, t_req, start, done)
        )
        r.acquire(0.0, 4.0)
        r.acquire(1.0, 1.0)
        assert seen == [(("srv", 0), 0.0, 0.0, 4.0), (("srv", 0), 1.0, 4.0, 5.0)]

    def test_retired_resource_raises_dead_place(self):
        r = Resource(("srv", 3), owner=3)
        r.retire()
        with pytest.raises(DeadPlaceException) as exc:
            r.acquire(0.0, 1.0)
        assert exc.value.place_id == 3

    def test_retired_ownerless_resource_reports_minus_one(self):
        r = Resource(("disk",))
        r.retire()
        with pytest.raises(DeadPlaceException) as exc:
            r.acquire(0.0, 1.0)
        assert exc.value.place_id == -1


class TestDuplexLink:
    def test_transfer_occupies_both_ends(self):
        tx, rx = Resource(("tx", 0)), Resource(("rx", 1))
        link = DuplexLink(tx, rx)
        assert link.acquire(1.0, 2.0) == 3.0
        assert tx.free_at == 3.0
        assert rx.free_at == 3.0

    def test_start_waits_for_busiest_end(self):
        tx, rx = Resource(("tx", 0)), Resource(("rx", 1))
        rx.acquire(0.0, 10.0)  # receiver busy with someone else's transfer
        assert DuplexLink(tx, rx).acquire(0.0, 2.0) == 12.0
        assert tx.free_at == 12.0

    def test_either_dead_end_raises(self):
        tx, rx = Resource(("tx", 0), owner=0), Resource(("rx", 1), owner=1)
        rx.retire()
        with pytest.raises(DeadPlaceException) as exc:
            DuplexLink(tx, rx).acquire(0.0, 1.0)
        assert exc.value.place_id == 1
        # The dead receive side must not have let the transmit side advance.
        assert tx.free_at == 0.0

    def test_hooks_fire_on_both_ends(self):
        tx, rx = Resource("t"), Resource("r")
        seen = []
        tx.on_acquire = lambda res, *a: seen.append(("tx", a))
        rx.on_acquire = lambda res, *a: seen.append(("rx", a))
        DuplexLink(tx, rx).acquire(2.0, 3.0)
        assert seen == [("tx", (2.0, 2.0, 5.0)), ("rx", (2.0, 2.0, 5.0))]
