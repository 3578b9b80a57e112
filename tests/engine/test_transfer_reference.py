"""``Scheduler.transfer`` against a step-by-step reference of its arithmetic.

The reference below spells the transfer out the long way, one step at a
time: the dead-endpoint checks (source, then destination), the zero-time
shortcut, one fate draw per attempt with the RTO backoff, the route chosen
per transfer (``p2p`` duplex link, ``shm`` through the destination's server,
``nic`` through both node NICs), the resource frontier arithmetic, the
in-flight delay, the arrival (deferred inside an overlap scope), the
timeline record and the duplicate's absorption.  Random sequences of
transfers, kills, repairs and overlap drains must leave clocks, frontiers,
fault counters and events bit-identical on both.
"""

from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.scheduler import Scheduler
from repro.engine.timeline import Timeline, TransferEvent
from repro.runtime.cost import CostModel
from repro.runtime.exceptions import CommTimeoutError, DeadPlaceException
from repro.runtime.failure import MAX_RETRIES, LinkPartition, TransientFaultModel, rto

NPLACES = 6
_PLACE_TAGS = ("srv", "tx", "rx")


class ReferenceEngine:
    """The transfer path of the engine, written out one step at a time."""

    def __init__(self, cost: CostModel, faults, timeline: bool):
        self.cost = cost
        self.faults = faults
        self.timeline = timeline
        self.times: Dict[int, float] = {p: 0.0 for p in range(NPLACES)}
        self.moved = False
        #: key -> free_at
        self.res: Dict[tuple, float] = {("ledger",): 0.0, ("disk",): 0.0}
        self.dead = set()
        self.overlap_depth = 0
        self.pending: Dict[int, float] = {}
        self.events: List[TransferEvent] = []

    # -- engine state ----------------------------------------------------------

    def _resource(self, key) -> float:
        free_at = self.res.get(key)
        if free_at is None:
            if key[0] in _PLACE_TAGS and key[1] in self.dead:
                raise DeadPlaceException(key[1])
            free_at = self.res[key] = 0.0
        return free_at

    def _acquire(self, keys, t_request: float, duration: float) -> float:
        fronts = [self._resource(key) for key in keys]
        start = fronts[0]
        for free_at in fronts[1:]:
            if free_at > start:
                start = free_at
        if t_request > start:
            start = t_request
        done = start + duration
        for key in keys:
            self.res[key] = done
        return done

    def kill(self, place_id: int) -> None:
        self.dead.add(place_id)
        for tag in _PLACE_TAGS:
            self.res.pop((tag, place_id), None)
        self.pending.pop(place_id, None)

    def revive(self, place_id: int) -> None:
        self.dead.discard(place_id)

    def drain(self) -> float:
        stall = 0.0
        for place_id, t_done in self.pending.items():
            if place_id in self.dead:
                continue
            lag = t_done - self.times[place_id]
            if lag > 0:
                stall = max(stall, lag)
                self._set_at_least(place_id, t_done)
        self.pending.clear()
        return stall

    def _set_at_least(self, place_id: int, t: float) -> None:
        if t > self.times[place_id]:
            self.moved = True
            self.times[place_id] = t

    # -- the transfer ------------------------------------------------------------

    def _message(self, nbytes: float) -> float:
        cost = self.cost
        return cost.latency + cost.byte_time * nbytes * cost.logical_scale

    def _shm_message(self, nbytes: float) -> float:
        cost = self.cost
        return cost.latency + cost.shm_byte_time * nbytes * cost.logical_scale

    def _once(self, src: int, dst: int, nbytes: float, t_request: float, extra: float) -> float:
        ppn = self.cost.places_per_node
        if ppn <= 0:
            done = self._acquire([("tx", src), ("rx", dst)], t_request, self._message(nbytes))
            route = "p2p"
        elif src // ppn == dst // ppn:
            done = self._acquire([("srv", dst)], t_request, self._shm_message(nbytes))
            route = "shm"
        else:
            keys = [("nic-tx", src // ppn), ("nic-rx", dst // ppn)]
            done = self._acquire(keys, t_request, self._message(nbytes))
            route = "nic"
        done += extra
        if self.overlap_depth > 0:
            if done > self.pending.get(dst, 0.0):
                self.pending[dst] = done
        else:
            self._set_at_least(dst, done)
        if self.timeline:
            self.events.append(
                TransferEvent(
                    t_start=t_request,
                    t_end=done,
                    src=src,
                    dst=dst,
                    nbytes=nbytes * self.cost.logical_scale,
                    route=route,
                )
            )
        return done

    def transfer(self, src: int, dst: int, nbytes: float, t_request: float) -> float:
        if src in self.dead:
            raise DeadPlaceException(src)
        if dst in self.dead:
            raise DeadPlaceException(dst)
        faults = self.faults
        if faults is None:
            if self.cost.is_zero and not self.moved and not self.timeline:
                return t_request
            return self._once(src, dst, nbytes, t_request, 0.0)
        t_send = t_request
        attempt = 0
        while True:
            fate = faults.fate(src, dst, t_send)
            if fate.delivered:
                done = self._once(src, dst, nbytes, t_send, fate.extra_delay)
                if fate.duplicated:
                    self._acquire([("srv", dst)], done, self._message(0))
                return done
            if attempt >= MAX_RETRIES:
                faults.timeouts += 1
                raise CommTimeoutError(dst, retries=attempt)
            t_send += rto(attempt, self.cost, nbytes)
            attempt += 1
            faults.retransmissions += 1


def _fault_model(spec):
    if spec is None:
        return None
    drop, dup, delay, partitioned, seed = spec
    partitions = [LinkPartition({1, 4}, {2, 5}, 0.0, 2e-3)] if partitioned else []
    return TransientFaultModel(
        drop_rate=drop,
        dup_rate=dup,
        delay_rate=delay,
        delay_seconds=3e-5,
        partitions=partitions,
        seed=seed,
    )


def _counters(faults) -> Tuple:
    if faults is None:
        return ()
    return (faults.dropped, faults.duplicates, faults.retransmissions, faults.timeouts)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args).hex())
    except DeadPlaceException as exc:
        return (type(exc).__name__, exc.place_id, str(exc))


costs = st.builds(
    CostModel,
    latency=st.sampled_from([0.0, 1e-5]),
    byte_time=st.sampled_from([0.0, 1e-9]),
    shm_byte_time=st.sampled_from([0.0, 2.5e-10]),
    places_per_node=st.sampled_from([0, 2, 3]),
    logical_scale=st.sampled_from([1.0, 37.5]),
)
fault_specs = st.none() | st.tuples(
    st.sampled_from([0.0, 0.3]),
    st.sampled_from([0.0, 0.3]),
    st.sampled_from([0.0, 0.5]),
    st.booleans(),
    st.integers(0, 50),
)
places = st.integers(0, NPLACES - 1)
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("transfer"),
            places,
            places,
            st.sampled_from([0, 8.0, 800.0, 12345.0]),
            st.sampled_from([0.0, 1e-6, 1e-3]),
            st.booleans(),
        ),
        st.tuples(st.just("kill"), st.integers(1, NPLACES - 1)),
        st.tuples(st.just("revive"), st.integers(1, NPLACES - 1)),
        st.tuples(st.just("drain")),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    cost=costs,
    fault_spec=fault_specs,
    timeline=st.booleans(),
    ops=ops,
)
def test_transfer_sequences_match_the_reference(cost, fault_spec, timeline, ops):
    engine = Scheduler(cost, timeline=Timeline(enabled=timeline))
    for p in range(NPLACES):
        engine.register_place(p)
    engine.faults = _fault_model(fault_spec)
    ref = ReferenceEngine(cost, _fault_model(fault_spec), timeline)

    for op in ops:
        kind = op[0]
        if kind == "transfer":
            _, src, dst, nbytes, offset, overlapped = op
            t_request = ref.times[src] + offset
            if overlapped:
                with engine.overlap():
                    got = _outcome(engine.transfer, src, dst, nbytes, t_request)
                ref.overlap_depth += 1
                want = _outcome(ref.transfer, src, dst, nbytes, t_request)
                ref.overlap_depth -= 1
            else:
                got = _outcome(engine.transfer, src, dst, nbytes, t_request)
                want = _outcome(ref.transfer, src, dst, nbytes, t_request)
            assert got == want
        elif kind == "kill":
            engine.purge_place(op[1])
            ref.kill(op[1])
        elif kind == "revive":
            engine.revive_place(op[1])
            ref.revive(op[1])
        else:
            assert engine.drain_overlap().hex() == ref.drain().hex()

        assert {p: t.hex() for p, t in engine.clock._times.items()} == {
            p: t.hex() for p, t in ref.times.items()
        }
        assert engine.clock._moved == ref.moved
        assert {key: r.free_at.hex() for key, r in engine._resources.items()} == {
            key: f.hex() for key, f in ref.res.items()
        }
        assert engine.pending_overlap() == ref.pending
        assert _counters(engine.faults) == _counters(ref.faults)
        assert engine.timeline.events == ref.events


def test_a_route_cached_before_a_purge_never_serves_after_it():
    """Kill and repair the destination between two transfers: the second
    must run on the repaired place's fresh resources, not the retired ones."""
    engine = Scheduler(CostModel.unit())
    for p in range(3):
        engine.register_place(p)
    first = engine.transfer(1, 2, 4.0, 0.0)
    stale = engine._resources[("rx", 2)]
    engine.purge_place(2)
    engine.revive_place(2)
    second = engine.transfer(1, 2, 4.0, 0.0)
    fresh = engine._resources[("rx", 2)]
    assert fresh is not stale and fresh.free_at == second
    assert second == first + 5.0  # queued behind the first on the live tx side only
